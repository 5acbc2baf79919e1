"""Direct hexagon-flip paths against the shortest move path of the test-side
move graph (tests/movegraph.py), and the transport route at ranks where no
move graph can be searched."""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from crystaltiles import lusztig, potentials, words
from crystaltiles.bz import bz_crystal_f, bz_from_lusztig
from crystaltiles.crossings import crystal_op, dual_crystal_op
from crystaltiles.lusztig import LusztigDatum, oracle_op, oracle_star_op, transition
from crystaltiles.potentials import (
    eval_cluster_mutation,
    eval_trl,
    eval_trs,
    transform_check_rtrans,
)
from crystaltiles.tiling import build_tiling
from crystaltiles.words import (
    _right_multiply,
    braid_steps,
    convex_order,
    enumerate_reduced_words,
    expose_hexagon,
    permutation_of_word,
    rank_of_word,
)
from movegraph import WordMove, _move_tree, apply_move, hexagons, move_path

WORDS = {n: enumerate_reduced_words(n) for n in (3, 4, 5)}


def bfs_braid_steps(i, j):
    """braid_steps as it stood before paths were built directly: the braid
    moves of the shortest move path, read off the prefix permutations."""
    n = rank_of_word(i)
    steps = []
    cur = i
    for mv in move_path(i, j):
        nxt = apply_move(cur, mv)
        if mv.kind == "braid":
            p = mv.position - 1
            a, b = cur[p], cur[p + 1]
            w = permutation_of_word(cur[:p], n)
            s, t, u = w[min(a, b) - 1 : min(a, b) + 2]
            inner = tuple(sorted(_right_multiply(w, a)[:a]))
            ninner = tuple(sorted(_right_multiply(w, b)[:b]))
            steps.append((((s, t), (s, u), (t, u)), a < b, inner, ninner, cur, nxt))
        cur = nxt
    return tuple(steps)


@contextmanager
def bfs_route():
    """Run transport along bfs_braid_steps instead of the direct paths."""
    calls = []

    def traced(i, j):
        calls.append((i, j))
        return bfs_braid_steps(i, j)

    lusztig._flip_program.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lusztig, "braid_steps", traced)
            mp.setattr(potentials, "braid_steps", traced)
            yield calls
    finally:
        lusztig._flip_program.cache_clear()
        _move_tree.cache_clear()


def both_routes(fn):
    direct = fn()
    with bfs_route() as calls:
        reference = fn()
    assert calls, "the reference route was not taken"
    return direct, reference


def sampled_pairs(rng, n, count):
    return [(rng.choice(WORDS[n]), rng.choice(WORDS[n])) for _ in range(count)]


def differing_triples(i, j):
    """Triples s < t < u whose roots (s,t), (t,u) come in opposite orders."""
    n = rank_of_word(i)
    pos_i = {r: k for k, r in enumerate(convex_order(i))}
    pos_j = {r: k for k, r in enumerate(convex_order(j))}
    return {
        (s, t, u)
        for s in range(1, n + 1)
        for t in range(s + 1, n + 1)
        for u in range(t + 1, n + 1)
        if (pos_i[(s, t)] < pos_i[(t, u)]) != (pos_j[(s, t)] < pos_j[(t, u)])
    }


def weak_order_word(n, rng):
    """A reduced word for w0 drawn by a seeded walk up the right weak order."""
    w = list(range(1, n + 1))
    word = []
    while True:
        ascents = [a for a in range(1, n) if w[a - 1] < w[a]]
        if not ascents:
            return tuple(word)
        a = rng.choice(ascents)
        word.append(a)
        w[a - 1], w[a] = w[a], w[a - 1]


def test_transition_matches_bfs_route():
    rng = random.Random("paths:transition")
    pairs = [(i, j) for n in (3, 4) for i in WORDS[n] for j in WORDS[n]]
    pairs += sampled_pairs(rng, 5, 30)
    data = [
        (LusztigDatum(i, tuple(rng.randint(0, 5) for _ in i)), j)
        for i, j in pairs
        for _ in range(3)
    ]
    direct, reference = both_routes(lambda: [transition(x, j) for x, j in data])
    assert direct == reference


def test_lifts_and_mutations_match_bfs_route():
    rng = random.Random("paths:lifts")
    pairs = sampled_pairs(rng, 4, 6) + sampled_pairs(rng, 5, 3)

    def positive():
        return Fraction(rng.randint(1, 9), rng.randint(1, 9))

    cases = []
    for i, j in pairs:
        points = [{r: positive() for r in convex_order(i)} for _ in range(3)]
        vertex_point = {v: positive() for v in potentials._off_left_vertices(i)}
        cases.append((i, j, points, vertex_point))

    def run():
        out = []
        for i, j, points, vertex_point in cases:
            out.append([eval_trs(i, j, x) for x in points])
            out.append([eval_trl(i, j, x) for x in points])
            for a in range(1, rank_of_word(i)):
                rep = transform_check_rtrans(a, i, j, points)
                assert rep["ok"], rep["failures"][:3]
                out.append(rep)
            out.append([eval_cluster_mutation(k, i, j, vertex_point) for k in ("A", "X")])
        return out

    direct, reference = both_routes(run)
    assert direct == reference


def test_flip_count_is_the_triple_difference():
    """One flip per triple whose orientation differs, never more than the
    braid moves of a shortest move path."""
    rng = random.Random("paths:count")
    pairs = [(i, j) for n in (3, 4) for i in WORDS[n] for j in WORDS[n]]
    pairs += sampled_pairs(rng, 5, 40)
    for i, j in pairs:
        steps = braid_steps(i, j)
        triples = differing_triples(i, j)
        assert len(steps) == len(triples)
        assert {(s, t, u) for ((s, t), _, (_, u)), *_ in steps} == triples
        assert len(steps) <= sum(mv.kind == "braid" for mv in move_path(i, j))
    _move_tree.cache_clear()


def test_expose_hexagon_finds_exactly_the_hexagons():
    rng = random.Random("paths:expose")
    for word in [*WORDS[3], *WORDS[4], *rng.sample(WORDS[5], 40)]:
        n = rank_of_word(word)
        index = {r: k for k, r in enumerate(convex_order(word))}
        found = set(h.support for h in hexagons(build_tiling(word)))
        for s in range(1, n + 1):
            for t in range(s + 1, n + 1):
                for u in range(t + 1, n + 1):
                    first, mid, last = sorted(index[r] for r in ((s, t), (s, u), (t, u)))
                    exposed = expose_hexagon(word, first, mid, last)
                    assert (exposed is not None) == ((s, t, u) in found)
                    if exposed is not None:
                        moved, p = exposed
                        assert set(build_tiling(moved).tiles) == set(build_tiling(word).tiles)
                        assert set(convex_order(moved)[p : p + 3]) == {(s, t), (s, u), (t, u)}
                        apply_move(moved, WordMove("braid", p + 1))


def test_no_hexagon_raises(monkeypatch):
    monkeypatch.setattr(words, "expose_hexagon", lambda *args: None)
    with pytest.raises(AssertionError, match="no hexagon"):
        braid_steps((1, 2, 1), (2, 1, 2))
    assert braid_steps((1, 2, 1), (1, 2, 1)) == ()


def test_bad_words_raise():
    with pytest.raises(ValueError):
        braid_steps((1, 2, 1), (1, 1, 2))
    with pytest.raises(ValueError):
        braid_steps((1, 2, 1), (1, 2, 1, 3, 2, 1))
    with pytest.raises(ValueError):
        braid_steps((1, 2, 1), (0, 2, 1))


def test_transport_never_builds_a_move_tree():
    """A wordsweep-style loop: both operator routes, BZ reconstruction and
    both mutations on distinct S5 words.  The move graph lives in the test
    helper movegraph, so nothing in the package can build a move tree."""
    lusztig._flip_program.cache_clear()
    rng = random.Random("paths:sweep")
    for word in rng.sample(WORDS[5], 6):
        x = LusztigDatum(word, tuple(rng.randint(0, 3) for _ in word))
        for a in range(1, 5):
            for kind in ("f", "e", "eps"):
                assert crystal_op(kind, a, x) == oracle_op(kind, a, x)
                assert dual_crystal_op(kind, a, x) == oracle_star_op(kind, a, x)
        z = bz_from_lusztig(x)
        for a in range(1, 5):
            assert bz_from_lusztig(crystal_op("f", a, x)) == bz_crystal_f(a, z)
        partner = rng.choice(WORDS[5])
        point = {v: Fraction(rng.randint(1, 5)) for v in potentials._off_left_vertices(word)}
        for kind in ("A", "X"):
            there = eval_cluster_mutation(kind, word, partner, point)
            assert eval_cluster_mutation(kind, partner, word, there) == point


def test_both_routes_at_ranks_6_to_8():
    """The crossing formula against transport at n = 6 and 7, and transition
    maps composing and inverting at n = 8, on weak-order-walk words."""
    rng = random.Random("paths:ranks")
    for n, count in ((6, 4), (7, 3)):
        for _ in range(count):
            word = weak_order_word(n, rng)
            for _ in range(2):
                x = LusztigDatum(word, tuple(rng.randint(0, 3) for _ in word))
                for a in range(1, n):
                    for kind in ("f", "e", "eps"):
                        assert crystal_op(kind, a, x) == oracle_op(kind, a, x)
                        assert dual_crystal_op(kind, a, x) == oracle_star_op(kind, a, x)
    for _ in range(6):
        i, j, k = (weak_order_word(8, rng) for _ in range(3))
        x = LusztigDatum(i, tuple(rng.randint(0, 4) for _ in i))
        y = transition(x, j)
        assert transition(y, k) == transition(x, k)
        assert transition(y, i) == x
