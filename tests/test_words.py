"""Words, moves (through the test-side move graph), convex orders, flip paths."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crystaltiles.crossings import crystal_op
from crystaltiles.lusztig import LusztigDatum
from crystaltiles.tiling import build_tiling
from crystaltiles.words import (
    braid_steps,
    compose,
    convex_order,
    count_reduced_words,
    enumerate_reduced_words,
    identity,
    inverse,
    is_reduced_word,
    length,
    longest_element,
    num_positive_roots,
    permutation_of_word,
    prefix_permutations,
    reduced_word_of_permutation,
    star_word,
    too_many_words,
)
from movegraph import applicable_moves, apply_move, move_path


def test_longest_element_reverses():
    assert longest_element(4) == (4, 3, 2, 1)
    assert length(longest_element(5)) == num_positive_roots(5)


def test_compose_and_inverse():
    u = permutation_of_word((1, 2), 3)
    assert compose(u, inverse(u)) == identity(3)
    assert compose(u, identity(3)) == u


@pytest.mark.parametrize("n,count", [(2, 1), (3, 2), (4, 16), (5, 768), (6, 292864)])
def test_reduced_word_counts(n, count):
    words = enumerate_reduced_words(n)
    assert list(words) == sorted(words)
    assert len(words) == count
    assert len(set(words)) == count
    assert count_reduced_words(n) == count
    for w in words:
        assert is_reduced_word(w, n)
        assert permutation_of_word(w, n) == longest_element(n)


def test_count_n6_slow_free():
    assert count_reduced_words(6) == 292864


def test_enumeration_guard_uses_the_word_count():
    assert not too_many_words(6)
    for n in (7, 10**6):  # the guard computes no count past n = 7
        assert too_many_words(n)
        with pytest.raises(ValueError, match="MAX_ENUM_WORDS"):
            enumerate_reduced_words(n)


def test_reduced_word_of_permutation_roundtrip():
    w = longest_element(4)
    word = reduced_word_of_permutation(w)
    assert permutation_of_word(word, 4) == w


def test_moves_preserve_permutation():
    word = (2, 1, 2, 3, 4, 3, 2, 1, 3, 2)
    for mv in applicable_moves(word):
        moved = apply_move(word, mv)
        assert moved != word
        assert permutation_of_word(moved, 5) == longest_element(5)
        assert apply_move(moved, mv) == word


def test_move_path_connects():
    words = enumerate_reduced_words(4)
    i, j = words[0], words[-1]
    cur = i
    for mv in move_path(i, j):
        cur = apply_move(cur, mv)
    assert cur == j
    assert move_path(i, i) == ()


def test_non_letters_raise():
    with pytest.raises(ValueError):
        convex_order((0,))
    with pytest.raises(ValueError):
        build_tiling((0,))
    with pytest.raises(ValueError):
        crystal_op("f", 1, LusztigDatum((0,), (0,)))


def _common_vertex(tiles):
    common = set(tiles[0].vertices)
    for tile in tiles[1:]:
        common &= set(tile.vertices)
    assert len(common) == 1
    return common.pop()


def test_braid_steps_match_tiles():
    """Hexagon data read off prefix permutations agree with the tilings."""
    checked = 0
    for n in (3, 4, 5):
        for cur in enumerate_reduced_words(n):
            for mv in applicable_moves(cur):
                if mv.kind != "braid":
                    continue
                nxt = apply_move(cur, mv)
                ((pairs, left_form, inner, ninner, before, after),) = braid_steps(cur, nxt)
                (s, t), _, (_, u) = pairs
                assert s < t < u
                p = mv.position - 1
                assert set(convex_order(cur)[p : p + 3]) == set(pairs)
                tiling, flipped = build_tiling(cur), build_tiling(nxt)
                st_tile, tu_tile = tiling.by_pair[(s, t)], tiling.by_pair[(t, u)]
                assert left_form == (st_tile.base == tu_tile.base)
                assert inner == _common_vertex([tiling.by_pair[q] for q in pairs])
                assert ninner == _common_vertex([flipped.by_pair[q] for q in pairs])
                assert (before, after) == (cur, nxt)
                checked += 1
    assert checked == 786


def test_braid_steps_follow_move_path():
    """The flips run from i's tiling to j's: commutation moves alone join i to
    the first flip, each flip to the next and the last flip to j, so the tile
    set is unchanged between flips; there are no more flips than braid moves
    in a shortest move path."""
    words = enumerate_reduced_words(4)
    i, j = words[0], words[-1]
    steps = braid_steps(i, j)
    assert 0 < len(steps) <= sum(mv.kind == "braid" for mv in move_path(i, j))
    ends = [i] + [w for *_, before, after in steps for w in (before, after)] + [j]
    for u, v in zip(ends[::2], ends[1::2]):
        assert set(build_tiling(u).tiles) == set(build_tiling(v).tiles)
    for *_, before, after in steps:
        assert after in {apply_move(before, mv) for mv in applicable_moves(before)}
    assert braid_steps(i, i) == ()


def test_convex_order_is_total_on_roots():
    word = (1, 2, 1, 3, 2, 1)
    order = convex_order(word)
    assert sorted(order) == [(s, t) for s in range(1, 5) for t in range(s + 1, 5)]
    assert len(order) == len(word)


def test_prefix_permutations_shape():
    word = (1, 2, 1)
    prefixes = prefix_permutations(word, 3)
    assert prefixes[0] == identity(3)
    assert prefixes[-1] == longest_element(3)
    assert len(prefixes) == len(word) + 1


def test_star_word_involution():
    word = (1, 2, 1, 3, 2, 1)
    assert star_word(star_word(word)) == word
    assert star_word(word) == tuple(4 - a for a in reversed(word))
    assert is_reduced_word(star_word(word), 4)


@given(st.sampled_from(enumerate_reduced_words(4)))
def test_convex_order_property(word):
    """Every prefix inversion set is an initial segment of the order."""
    order = convex_order(word)
    assert len(set(order)) == len(order)
    for k in range(len(word)):
        u = permutation_of_word(word[: k + 1], 4)
        inversions = {
            (s, t)
            for s in range(1, 5)
            for t in range(s + 1, 5)
            if u.index(s) > u.index(t)
        }
        assert set(order[: k + 1]) == inversions


@given(st.sampled_from(enumerate_reduced_words(4)), st.data())
def test_apply_move_stays_reduced(word, data):
    mv = data.draw(st.sampled_from(applicable_moves(word)))
    assert is_reduced_word(apply_move(word, mv), 4)
