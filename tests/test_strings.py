"""String data, string cones, polar duality."""

import random
from itertools import product

import pytest

from crystaltiles.lusztig import (
    _MIN_PLUS,
    LusztigDatum,
    _multiplicative_flip,
    _transport,
    transition,
)
from crystaltiles.strings import (
    Cone,
    cone_points,
    polar_duality_check,
    string_cone,
    string_datum,
    string_op_f,
)
from crystaltiles.words import enumerate_reduced_words


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
