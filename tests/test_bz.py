"""Subset-indexed data: construction, validation, tropical transforms."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import crystaltiles
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

WORDS4 = enumerate_reduced_words(4)


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


def test_cross_word_check_raises_under_python_O():
    """Transported data off by one disagree with the anchor's solution, and
    the check must raise even when python -O strips assert statements."""
    code = (
        "import sys\n"
        "from crystaltiles import bz\n"
        "from crystaltiles.lusztig import LusztigDatum\n"
        "real = bz.transition\n"
        "bz.transition = lambda x, j: LusztigDatum(j, [v + 1 for v in real(x, j).values])\n"
        "try:\n"
        "    bz.bz_from_lusztig(LusztigDatum((1, 2, 1, 3, 2, 1), (1, 0, 2, 0, 1, 3)))\n"
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
