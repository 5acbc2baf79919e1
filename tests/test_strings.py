"""String data, string cones, polar duality."""

import os
import random
import subprocess
import sys
from itertools import product
from operator import mul
from pathlib import Path

import pytest

import crystaltiles
from crystaltiles import strings
from crystaltiles.crossings import crystal_op
from crystaltiles.lusztig import (
    _MIN_PLUS,
    LusztigDatum,
    _multiplicative_flip,
    _transport,
    transition,
)
from crystaltiles.strings import (
    Cone,
    _string_batch,
    cone_points,
    polar_duality_check,
    string_cone,
    string_datum,
    string_op_f,
)
from crystaltiles.words import enumerate_reduced_words, rank_of_word


def test_string_datum_examples():
    word = (1, 2, 1)
    cases = [((0, 0, 1), (0, 1, 0)), ((0, 1, 0), (0, 1, 1)), ((1, 1, 0), (1, 1, 1))]
    for vals, want in cases:
        assert string_datum(LusztigDatum(word, vals)).values == want


def test_string_cone_example():
    cone = string_cone((2, 1, 2))
    assert cone.coords == ((2, 3), (1, 3), (1, 2))
    assert set(cone.rows) == {(1, 0, 0), (0, 1, -1), (0, 0, 1)}


def test_cone_inequalities_render():
    cone = string_cone((2, 1, 2))
    lines = set(cone.inequalities())
    assert lines == {"v[2,3] >= 0", "v[1,3] - v[1,2] >= 0", "v[1,2] >= 0"}


def test_cone_contains():
    cone = string_cone((2, 1, 2))
    assert cone.contains((0, 0, 0))
    assert cone.contains((5, 3, 2))
    assert not cone.contains((0, 1, 2))


def test_cone_points_box():
    cone = Cone(coords=(1, 2), rows=((1, 0), (0, 1)))
    assert cone_points(cone, 1) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_string_op_f_unit_steps():
    word = (2, 1, 2)
    s = string_datum(LusztigDatum(word, (0, 0, 0)))
    for a in (1, 2):
        stepped = string_op_f(a, s)
        diff = [u - v for u, v in zip(stepped.values, s.values)]
        assert sorted(diff) == [0, 0, 1]
        k = diff.index(1)
        assert word[k] == a


@pytest.mark.parametrize("word", enumerate_reduced_words(3))
def test_polar_duality_n3(word):
    rep = polar_duality_check(word, box=3)
    assert rep["ok"]
    assert rep["reached"] == rep["cone_points"]


def test_string_datum_nonnegative():
    word = (1, 2, 1, 3, 2, 1)
    x = LusztigDatum(word, (1, 0, 2, 1, 0, 1))
    s = string_datum(x)
    assert all(v >= 0 for v in s.values)
    assert len(s.values) == len(word)


def test_multiplicative_rule_over_min_plus_transports_string_data():
    """The string side of the duality: the multiplicative lift, tropicalised,
    carries string data between words, read in each word's root order."""
    rng = random.Random("string-transport")
    words3 = enumerate_reduced_words(3)
    cases = [(i, j, v) for i in words3 for j in words3 for v in product(range(3), repeat=3)]
    for n, count, top in ((4, 60, 3), (5, 25, 2)):
        words = enumerate_reduced_words(n)
        for _ in range(count):
            i, j = rng.choice(words), rng.choice(words)
            cases += [(i, j, [rng.randint(0, top) for _ in i]) for _ in range(3)]
    for i, j, vals in cases:
        x = LusztigDatum(i, vals)
        moved = _transport(_multiplicative_flip, _MIN_PLUS, i, j, string_datum(x).values)
        assert moved == list(string_datum(transition(x, j)).values)


def _cone_points_reference(cone, box):
    """The brute-force filter of all (box + 1)^N box points by every row."""
    return {
        p
        for p in product(range(box + 1), repeat=len(cone.coords))
        if all(sum(map(mul, row, p)) >= 0 for row in cone.rows)
    }


def _string_values_reference(x):
    """The string recursion with no memo."""
    cur, out = x, []
    for a in x.word:
        c = crystal_op("eps", a, cur)
        for _ in range(c):
            cur = crystal_op("e", a, cur)
        out.append(c)
    assert not any(cur.values)
    return tuple(out)


def test_cone_points_match_brute_force():
    cases = [(w, box) for n in (2, 3, 4) for w in enumerate_reduced_words(n) for box in range(4)]
    cases += [(w, 2) for w in random.Random("cone-points").sample(enumerate_reduced_words(5), 20)]
    for word, box in cases:
        cone = string_cone(word)
        assert cone_points(cone, box) == _cone_points_reference(cone, box), (word, box)


@pytest.mark.parametrize(
    "rows",
    [
        ((0, 0, 0), (1, -1, 0)),  # a zero row
        ((-1, -2, 0), (0, 1, -1)),  # an all-negative row
        ((1, -2, 1), (-1, 1, 1)),
        (),  # no rows: the whole box
    ],
)
def test_cone_points_match_brute_force_on_hand_made_cones(rows):
    cone = Cone((1, 2, 3), rows)
    for box in range(4):
        assert cone_points(cone, box) == _cone_points_reference(cone, box)
    assert cone_points(cone, 0) == {(0, 0, 0)}


def test_negative_box_raises():
    with pytest.raises(ValueError, match="box must be nonnegative"):
        cone_points(string_cone((1, 2, 1)), -1)
    with pytest.raises(ValueError, match="box must be nonnegative"):
        polar_duality_check((1, 2, 1), box=-1)


def _reached_data(monkeypatch, word, box):
    """Every Lusztig datum whose string values polar_duality_check computes."""
    seen = []

    def recording(word, values, tails):
        seen.extend(LusztigDatum(word, v) for v in values)
        return _string_batch(word, values, tails)

    monkeypatch.setattr(strings, "_string_batch", recording)
    assert polar_duality_check(word, box=box)["ok"]
    monkeypatch.undo()
    return seen


def test_shared_tails_match_the_unmemoised_recursion(monkeypatch):
    """The reached data, shuffled and cut into batches of 1 to 8, through
    one shared dict of tails."""
    rng = random.Random("shared-tails")
    cases = [(w, 3) for w in enumerate_reduced_words(3)]
    cases += [(w, 2) for w in rng.sample(enumerate_reduced_words(4), 10)]
    for word, box in cases:
        data = _reached_data(monkeypatch, word, box)
        rng.shuffle(data)
        tails = {}
        while data:
            size = rng.randint(1, 8)
            batch, data = data[:size], data[size:]
            got = _string_batch(word, [x.values for x in batch], tails)
            for x, values in zip(batch, got):
                assert values == _string_values_reference(x), x
        assert tails and all(k >= 1 for k, _ in tails)


def _recursion_with_e_stuck():
    """A broken e that leaves its input unchanged must trip the residue check."""
    real = strings.batch_op

    def e_stuck(kind, a, word, values, dual=False):
        return list(values) if kind == "e" else real(kind, a, word, values, dual)

    strings.batch_op = e_stuck
    try:
        string_datum(LusztigDatum((1, 2, 1), (0, 1, 0)))
    except AssertionError as exc:
        return "residue" in str(exc)
    finally:
        strings.batch_op = real
    return False


def test_residue_check_raises():
    assert _recursion_with_e_stuck()


def test_residue_check_raises_under_python_O():
    src = str(Path(crystaltiles.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from tests.test_strings import _recursion_with_e_stuck\n"
        "sys.exit(0 if sys.flags.optimize and _recursion_with_e_stuck() else 1)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        cwd=str(Path(__file__).resolve().parents[1]),
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("word", [(1, 2, 1), (2, 1, 3, 2, 1, 3)])
def test_memo_skips_no_string_op_check(monkeypatch, word):
    monkeypatch.setattr(strings, "_string_op", lambda word, a, s: tuple(v + 1 for v in s))
    rep = polar_duality_check(word, box=2)
    n = rank_of_word(word)
    kinds = [f[0] for f in rep["failures"]]
    assert kinds.count("string-op") == rep["reached"] * (n - 1)


@pytest.mark.parametrize("word", [(1, 2, 1), (2, 1, 3, 2, 1, 3)])
def test_memo_skips_no_step_check(monkeypatch, word):
    """The starred batch applies the letter a + 1 where there is one: every
    such step moves a coordinate of another letter."""
    real = strings.batch_op
    n = rank_of_word(word)

    def shifted(kind, a, word, values, dual=False):
        return real(kind, min(a + 1, n - 1) if dual else a, word, values, dual)

    monkeypatch.setattr(strings, "batch_op", shifted)
    rep = polar_duality_check(word, box=2)
    kinds = [f[0] for f in rep["failures"]]
    assert kinds.count("step") == rep["reached"] * (n - 2)
