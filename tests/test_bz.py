"""Subset-indexed data: construction, validation, tropical transforms."""

import os
import random
import subprocess
import sys
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

import crystaltiles
from crystaltiles import bz, lusztig
from crystaltiles.bz import (
    BZDatum,
    bz_crystal_f,
    bz_from_lusztig,
    find_word_with_vertex,
    proper_subsets,
    trop_chamber_ansatz,
    validate_bz,
)
from crystaltiles.crossings import crystal_op
from crystaltiles.lusztig import LusztigDatum, transition
from crystaltiles.tiling import build_tiling
from crystaltiles.words import enumerate_reduced_words, is_reduced_word
from test_linalg import _tile_system
from test_paths import weak_order_word

WORDS4 = enumerate_reduced_words(4)


def _small_data():
    """Every datum with entries <= 2 on every word at n <= 4."""
    for n in (2, 3, 4):
        for word in enumerate_reduced_words(n):
            for vals in product(range(3), repeat=len(word)):
                yield LusztigDatum(word, vals)


def _sampled_data(seed, per_rank=((5, 40, 5), (6, 12, 4), (7, 4, 3))):
    """Seeded weak_order_word data at n = 5..7: (n, words, data per word)."""
    rng = random.Random(seed)
    for n, words, per_word in per_rank:
        for _ in range(words):
            word = weak_order_word(n, rng)
            for _ in range(per_word):
                yield LusztigDatum(word, [rng.randint(0, 3) for _ in word])


@lru_cache(maxsize=None)
def _reference_solver(word):
    """The unpinned vertices of a word's tiling and sympy's inverse of its tile system."""
    unknowns, rows = _tile_system(word)
    inverse = sympy.Matrix(rows).inv()
    return unknowns, [[int(e) for e in inverse.row(i)] for i in range(len(unknowns))]


def _reference_bz(x):
    """The transport-plus-solve reconstruction: solve the anchor's tile
    system with sympy, then transport x to find_word_with_vertex(S) for every subset S
    still missing and solve there; overlapping solutions must agree."""
    values = {}

    def solve_into(word, datum):
        unknowns, inverse_rows = _reference_solver(word)
        for subset, row in zip(unknowns, inverse_rows):
            val = sum(c * v for c, v in zip(row, datum.values))
            assert values.setdefault(subset, val) == val, subset

    solve_into(x.word, x)
    for subset in proper_subsets(x.n):
        if subset not in values:
            word = find_word_with_vertex(subset, x.n)
            solve_into(word, transition(x, word))
    for k in range(2, x.n + 1):
        values[tuple(range(k, x.n + 1))] = 0
    return BZDatum(x.n, values)


def _reference_f(a, z):
    """bz_crystal_f's rule read through BZDatum.value, subset by subset."""
    head = tuple(range(1, a + 1))
    bound = z.value(head) - z.value(bz._sigma_a(head, a))
    out = {}
    for subset in proper_subsets(z.n):
        val = z.value(subset)
        if a in subset and a + 1 not in subset:
            diff = val - z.value(bz._sigma_a(subset, a))
            assert diff <= bound
            val -= 1 if diff == bound else 0
        out[subset] = val
    return BZDatum(z.n, out)


def test_proper_subsets():
    subs = proper_subsets(3)
    assert set(subs) == {(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)}


def test_zero_datum_roundtrip():
    x = LusztigDatum((1, 2, 1), (0, 0, 0))
    z = bz_from_lusztig(x)
    assert all(v == 0 for _, v in z.items)
    assert trop_chamber_ansatz(z, (1, 2, 1)) == x


def test_f1_frozen_example():
    x = LusztigDatum((1, 2, 1), (1, 0, 0))
    z = bz_from_lusztig(x)
    nonzero = {s: v for s, v in z.items if v}
    assert nonzero == {(1,): -1, (1, 3): -1}


def test_bz_crystal_f_matches_frozen():
    zero = bz_from_lusztig(LusztigDatum((1, 2, 1), (0, 0, 0)))
    z = bz_crystal_f(1, zero)
    nonzero = {s: v for s, v in z.items if v}
    assert nonzero == {(1,): -1, (1, 3): -1}


def test_validate_bz_accepts_image():
    x = LusztigDatum((2, 1, 2), (2, 0, 1))
    rep = validate_bz(bz_from_lusztig(x))
    assert rep["ok"]


def test_validate_bz_rejects_garbage():
    vals = {s: 0 for s in proper_subsets(3)}
    vals[(1,)] = 5
    rep = validate_bz(BZDatum(3, vals))
    assert not rep["ok"]


def test_find_word_with_vertex():
    for n in range(2, 9):
        for subset in proper_subsets(n):
            word = find_word_with_vertex(subset, n)
            assert is_reduced_word(word, n)
            assert subset in build_tiling(word).vertices
            if n == 4:
                assert word in WORDS4


def test_roundtrip_all_words_n3():
    for word in enumerate_reduced_words(3):
        for vals in [(0, 1, 2), (3, 0, 1), (1, 1, 1)]:
            x = LusztigDatum(word, vals)
            assert trop_chamber_ansatz(bz_from_lusztig(x), word) == x


@given(st.sampled_from(WORDS4), st.data())
def test_commutes_with_f(word, data):
    vals = tuple(data.draw(st.integers(0, 2)) for _ in range(6))
    a = data.draw(st.integers(1, 3))
    x = LusztigDatum(word, vals)
    assert bz_from_lusztig(crystal_op("f", a, x)) == bz_crystal_f(a, bz_from_lusztig(x))


def test_decrements_are_small():
    z = bz_from_lusztig(LusztigDatum((1, 2, 1, 3, 2, 1), (1, 0, 2, 0, 1, 0)))
    for a in (1, 2, 3):
        out = bz_crystal_f(a, z)
        for s, v in z.items:
            assert v - out.value(s) in (0, 1)


def test_bz_word_independent():
    """The subset datum does not depend on the anchoring word."""
    x = LusztigDatum((1, 2, 1), (2, 1, 0))
    y = transition(x, (2, 1, 2))
    assert bz_from_lusztig(x) == bz_from_lusztig(y)


def test_flips_match_the_transport_reconstruction():
    """The compiled Pluecker flips give the transport-plus-solve datum on
    every n <= 4 datum with entries <= 2 and on sampled n = 5..7 data."""
    cases = 0
    for x in (*_small_data(), *_sampled_data("bz:reference")):
        assert bz_from_lusztig(x) == _reference_bz(x), x
        cases += 1
    assert cases == 11721 + 200 + 48 + 12


def test_chamber_ansatz_reads_every_word_off_the_datum():
    """transition(x, j) is the tropical Chamber Ansatz of bz_from_lusztig(x)
    at j, for sampled words j at n = 4..6, and every datum validates."""
    rng = random.Random("bz:ansatz")
    for n, words, per_word in ((4, 8, 4), (5, 8, 3), (6, 4, 2)):
        for _ in range(words):
            x = LusztigDatum(w := weak_order_word(n, rng), [rng.randint(0, 3) for _ in w])
            z = bz_from_lusztig(x)
            assert validate_bz(z)["ok"], x
            for _ in range(per_word):
                j = weak_order_word(n, rng)
                assert trop_chamber_ansatz(z, j) == transition(x, j), (x, j)


def test_compiled_f_matches_the_value_rule():
    data = [*_small_data(), *_sampled_data("bz:f", ((5, 20, 3), (6, 6, 2), (7, 2, 2)))]
    for x in data[::7]:
        z = bz_from_lusztig(x)
        for a in range(1, x.n):
            assert bz_crystal_f(a, z) == _reference_f(a, z), (x, a)


def test_from_lusztig_makes_no_transport_call(monkeypatch):
    """Cold programs compile and run with the transport layer disabled."""

    def refuse(*args):
        raise RuntimeError("transport called")

    monkeypatch.setattr(lusztig, "_transport", refuse)
    bz._bz_program.cache_clear()
    rng = random.Random("bz:no-transport")
    for n in (3, 4, 5, 6, 8):
        word = weak_order_word(n, rng)
        z = bz_from_lusztig(LusztigDatum(word, [rng.randint(0, 3) for _ in word]))
        assert len(z.items) == len(proper_subsets(n))
    with pytest.raises(RuntimeError, match="transport called"):
        transition(LusztigDatum((1, 2, 1), (0, 0, 0)), (2, 1, 2))


def test_check_step_raises_under_python_O():
    """A check step whose subtracted vertex is swapped for the empty set (a
    0) disagrees with the value it re-derives, and bz_from_lusztig must
    raise even when python -O strips assert statements."""
    code = (
        "import sys\n"
        "from crystaltiles import bz\n"
        "from crystaltiles.lusztig import LusztigDatum\n"
        "x = LusztigDatum((1, 3, 2, 1, 3, 2), (1, 0, 2, 0, 1, 3))\n"
        "z = [v for _, v in bz.bz_from_lusztig(x).items]\n"
        "sweep, steps = bz._bz_program(x.word)\n"
        "k = next(k for k, step in enumerate(steps) if step[-1] and z[step[4]])\n"
        "p, p2, q, q2, old, new, check = steps[k]\n"
        "bad = steps[:k] + ((p, p2, q, q2, len(z), new, check),) + steps[k + 1 :]\n"
        "bz._bz_program = lambda word: (sweep, bad)\n"
        "try:\n"
        "    bz.bz_from_lusztig(x)\n"
        "except AssertionError as exc:\n"
        "    sys.exit(0 if sys.flags.optimize and 'inconsistent' in str(exc) else 1)\n"
        "sys.exit(1)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(crystaltiles.__file__).resolve().parents[1])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_invalid_bz_data_raise_under_python_O():
    """A datum breaking the tile inequality or the f_1 bound is caught by
    trop_chamber_ansatz and bz_crystal_f even when python -O strips assert
    statements."""
    code = (
        "import sys\n"
        "from crystaltiles.bz import BZDatum, bz_crystal_f, trop_chamber_ansatz\n"
        "def raises(call, words):\n"
        "    try:\n"
        "        call()\n"
        "    except AssertionError as exc:\n"
        "        return words in str(exc)\n"
        "    return False\n"
        "tile = BZDatum(3, {(1,): 1, (2,): 0, (3,): 0, (1, 2): 0, (1, 3): 0, (2, 3): 0})\n"
        "bound = BZDatum(3, {(1,): 0, (2,): 0, (3,): 0, (1, 2): 0, (1, 3): 5, (2, 3): 0})\n"
        "ok = raises(lambda: trop_chamber_ansatz(tile, (1, 2, 1)), 'negative coordinate')\n"
        "ok = ok and raises(lambda: bz_crystal_f(1, bound), 'upper bound violated')\n"
        "sys.exit(0 if sys.flags.optimize and ok else 1)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(crystaltiles.__file__).resolve().parents[1])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_sweep_raises_on_tiles_out_of_order_under_python_O():
    """Fed the tiles of a word's tiling in reverse, the compiled sweep reads
    a vertex it has not filled, and _bz_program must raise even when
    python -O strips assert statements."""
    code = (
        "import sys\n"
        "from dataclasses import replace\n"
        "from crystaltiles import bz\n"
        "from crystaltiles.tiling import build_tiling\n"
        "word = (1, 3, 2, 1, 3, 2)\n"
        "tiling = build_tiling(word)\n"
        "shuffled = replace(tiling, tiles=tiling.tiles[::-1])\n"
        "bz.build_tiling = lambda w: shuffled\n"
        "try:\n"
        "    bz._bz_program(word)\n"
        "except AssertionError as exc:\n"
        "    sys.exit(0 if sys.flags.optimize and 'the sweep at' in str(exc) else 1)\n"
        "sys.exit(1)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(crystaltiles.__file__).resolve().parents[1])},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
