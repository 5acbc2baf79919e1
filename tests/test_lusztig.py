"""Lusztig data: transition maps, transport oracles, weights."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crystaltiles.lusztig import (
    LusztigDatum,
    oracle_op,
    oracle_star_op,
    star_datum,
    transition,
    weight,
    word_ending_with,
    word_starting_with,
)
from crystaltiles.words import braid_steps, convex_order, enumerate_reduced_words

WORDS = {n: enumerate_reduced_words(n) for n in (2, 3, 4, 5)}
WORDS4 = WORDS[4]


def reference_transition(x, j):
    """The hand-written min rule, flip by flip on values keyed by root pair."""
    vals = x.as_dict()
    for (st, su, tu), *_ in braid_steps(x.word, j):
        a, b, c = vals[st], vals[su], vals[tu]
        m = min(a, c)
        vals[st], vals[su], vals[tu] = a + b - m, m, c + b - m
    return LusztigDatum(j, tuple(vals[p] for p in convex_order(j)))


def test_transition_matches_reference_min_rule():
    rng = random.Random("transition-reference")
    pairs = [(i, j) for n in (2, 3, 4) for i in WORDS[n] for j in WORDS[n]]
    pairs += [(rng.choice(WORDS[5]), rng.choice(WORDS[5])) for _ in range(60)]
    for i, j in pairs:
        for _ in range(4):
            x = LusztigDatum(i, tuple(rng.randint(0, 5) for _ in i))
            assert transition(x, j) == reference_transition(x, j)


def test_transition_braid_example():
    x = LusztigDatum((1, 2, 1), (2, 1, 2))
    y = transition(x, (2, 1, 2))
    # minimum of the outer coordinates moves to the middle
    assert y.values == (1, 2, 1)
    assert transition(y, (1, 2, 1)) == x


def test_transition_identity():
    x = LusztigDatum((1, 2, 1), (3, 0, 5))
    assert transition(x, (1, 2, 1)) == x


def test_special_words():
    assert word_starting_with(2, 4)[0] == 2
    assert word_ending_with(2, 4)[-1] == 2
    assert len(word_starting_with(1, 5)) == 10


@given(st.sampled_from(WORDS4), st.data())
def test_transition_roundtrip(word, data):
    vals = tuple(data.draw(st.integers(0, 6)) for _ in range(6))
    x = LusztigDatum(word, vals)
    other = data.draw(st.sampled_from(WORDS4))
    assert transition(transition(x, other), word) == x


@given(st.sampled_from(WORDS4), st.data())
def test_weight_transition_invariant(word, data):
    vals = tuple(data.draw(st.integers(0, 4)) for _ in range(6))
    x = LusztigDatum(word, vals)
    other = data.draw(st.sampled_from(WORDS4))
    assert weight(transition(x, other)) == weight(x)


def test_oracle_f_base_case():
    word = word_starting_with(1, 3)
    x = LusztigDatum(word, (0, 0, 0))
    y = oracle_op("f", 1, x)
    assert y.values[0] == 1
    assert y.values[1:] == x.values[1:]
    assert oracle_op("eps", 1, x) == 0
    assert oracle_op("e", 1, x) is None


def test_oracle_e_inverts_f():
    for word in WORDS4:
        x = LusztigDatum(word, (1, 0, 2, 0, 1, 3))
        for a in (1, 2, 3):
            y = oracle_op("f", a, x)
            assert oracle_op("e", a, y) == x


def test_star_datum_involution():
    x = LusztigDatum((1, 2, 1), (3, 1, 2))
    assert star_datum(star_datum(x)) == x
    assert star_datum(x).word == (2, 1, 2)
    assert star_datum(x).values == (2, 1, 3)


def test_star_op_via_star_datum():
    x = LusztigDatum((2, 1, 2), (1, 0, 2))
    for a in (1, 2):
        direct = oracle_star_op("f", a, x)
        routed = star_datum(oracle_op("f", a, star_datum(x)))
        assert direct == routed


def test_eps_counts_f_applications():
    x = LusztigDatum((1, 2, 1), (0, 0, 0))
    for a in (1, 2):
        y = oracle_op("f", a, oracle_op("f", a, x))
        assert oracle_op("eps", a, y) == 2


def test_bad_kind_rejected():
    x = LusztigDatum((1, 2, 1), (0, 0, 0))
    with pytest.raises(ValueError):
        oracle_op("g", 1, x)
    for oracle in (oracle_op, oracle_star_op):
        for a in (0, 3):
            with pytest.raises(ValueError, match="a must lie"):
                oracle("f", a, x)
