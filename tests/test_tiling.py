"""Tilings: tiles, boundary, partitions, strips, hexagon flips."""

import dataclasses
import math
import random

import pytest

from conftest import RUNNING_KAPPA_3, RUNNING_KAPPA_5, RUNNING_TILES
from crystaltiles.bz import _bz_program
from crystaltiles.crossings import crossing_table
from crystaltiles.strings import string_cone
from crystaltiles.tiling import (
    Tile,
    _tile,
    build_tiling,
    closure_tiles,
    comb,
    kappa_partition,
    maximal_crossing_path,
    render_svg,
    strip,
)
from crystaltiles.words import braid_steps, enumerate_reduced_words, rank_of_word
from movegraph import hexagons
from test_paths import weak_order_word


def test_running_tiles(running_tiling):
    assert {(t.pair, t.base) for t in running_tiling.tiles} == RUNNING_TILES


def test_tile_corners():
    t = Tile(pair=(4, 5), base=(2, 3))
    assert t.lower == (2, 3)
    assert t.upper == (2, 3, 4, 5)
    assert t.left == (2, 3, 4)
    assert t.right == (2, 3, 5)
    assert set(t.vertices) == {(2, 3), (2, 3, 4), (2, 3, 5), (2, 3, 4, 5)}


def test_each_tile_brings_in_its_right_corner():
    """Tile k has left corner w_{k-1}([i_k]) and right corner w_k([i_k]), and
    no earlier tile has that right corner, at every word for n <= 5: the
    premise of the sweep in bz._bz_program."""
    for n in range(2, 6):
        for word in enumerate_reduced_words(n):
            tiles = build_tiling(word).tiles
            w = list(range(1, n + 1))
            seen = set()
            for tile, a in zip(tiles, word):
                assert tile.left == tuple(sorted(w[:a])), (word, tile)
                w[a - 1], w[a] = w[a], w[a - 1]
                assert tile.right == tuple(sorted(w[:a])), (word, tile)
                assert tile.right not in seen, (word, tile)
                seen.update(tile.vertices)


def test_tile_hash_is_stored_and_repr_unchanged():
    """The stored hash is the one of (pair, base) that the generated dataclass
    hash would give, so equal tiles hash equal and set order is unchanged;
    it takes no part in equality or repr."""
    t, u = Tile(pair=(4, 5), base=(3, 2)), Tile((4, 5), (2, 3))
    assert t == u and t is not u
    assert hash(t) == hash(u) == hash(((4, 5), (2, 3)))
    assert len({t, u}) == 1 and {t: 1}[u] == 1
    assert t != Tile((4, 5), (2, 6)) and t != Tile((3, 5), (2, 4))
    assert repr(t) == "[4,5;{2,3}]"
    assert [f.name for f in dataclasses.fields(Tile) if f.compare] == ["pair", "base"]


def test_tilings_share_equal_tiles():
    """Every n = 4 tiling takes its tiles from one pool: equal tiles of
    different words are one object, and the pool is bounded."""
    build_tiling.cache_clear()
    _tile.cache_clear()
    pool = {}
    for word in enumerate_reduced_words(4):
        for tile in build_tiling(word).tiles:
            assert pool.setdefault(tile, tile) is tile
    assert len(pool) == 6 * 2**2
    assert _tile.cache_info().maxsize == 4096


def test_boundary_cycle(running_tiling):
    cyc = running_tiling.boundary_cycle
    assert cyc[0] == ()
    assert cyc[5] == (1, 2, 3, 4, 5)
    assert cyc[6] == (2, 3, 4, 5)
    assert len(cyc) == 10
    assert all(running_tiling.boundary_edge(k) in running_tiling.edges for k in range(1, 11))


def test_kappa_running_example(running_tiling):
    for s, want in ((5, RUNNING_KAPPA_5), (3, RUNNING_KAPPA_3)):
        got = {t.pair: k for t, k in kappa_partition(running_tiling, s).items()}
        assert got == want


def test_kappa_covers_all_tiles(running_tiling):
    for s in range(1, 11):
        kp = kappa_partition(running_tiling, s)
        assert len(kp) == len(running_tiling.tiles)
        assert min(kp.values()) == 1


def test_kappa_complementary_sweeps_order_adjacent_tiles_oppositely():
    """kappa_{n+s} orders every pair of adjacent tiles opposite to kappa_s.
    The dual crossing search relies on this to descend kappa_a instead of
    ascending kappa_{n+a}; it runs on every tiling at n <= 5 and on sampled
    tilings at n = 6..8."""
    words = [w for n in (2, 3, 4, 5) for w in enumerate_reduced_words(n)]
    rng = random.Random("kappa-opposite")
    words += [weak_order_word(n, rng) for n in (6, 7, 8) for _ in range(10)]
    for word in words:
        tiling = build_tiling(word)
        n = tiling.n
        for s in range(1, n + 1):
            low, high = kappa_partition(tiling, s), kappa_partition(tiling, n + s)
            for tile in tiling.tiles:
                for nb in tiling.adjacency[tile]:
                    assert (low[nb] - low[tile]) * (high[nb] - high[tile]) < 0, (word, s)


def test_strip_running_example(running_tiling):
    assert [t.pair for t in strip(running_tiling, 2)] == [
        (2, 3),
        (1, 2),
        (2, 5),
        (2, 4),
    ]
    for s in range(1, 6):
        tiles = strip(running_tiling, s)
        assert len(tiles) == 4
        assert all(s in t.pair for t in tiles)


def test_flip_paper_example():
    steps = braid_steps((1, 2, 3, 1, 2, 1), (1, 2, 3, 2, 1, 2))
    assert [pairs for pairs, *_ in steps] == [((2, 3), (2, 4), (3, 4))]
    assert steps[0][4:] == ((1, 2, 3, 1, 2, 1), (1, 2, 3, 2, 1, 2))


def test_maximal_crossing_path(running_tiling):
    for a in range(1, 5):
        for dual in (False, True):
            path = maximal_crossing_path(running_tiling, a, dual)
            corner = [t for t in path if t.pair == (a, a + 1)]
            assert len(corner) == 1
            assert all(a in t.pair or a + 1 in t.pair for t in path)
    assert [t.pair for t in maximal_crossing_path(running_tiling, 3)] == [
        (2, 3),
        (1, 3),
        (3, 5),
        (3, 4),
        (2, 4),
        (4, 5),
        (1, 4),
    ]


def test_closure_tiles_within(running_tiling):
    path = maximal_crossing_path(running_tiling, 3)
    inside = closure_tiles(running_tiling, path, 3)
    assert set(path) <= set(inside)


def _ray_casting_closure(tiling, path, a, dual):
    """Reference closure from plane geometry, with vertex S at sum_{s in S} u_s.

    The path through the tile centres, extended to the midpoints of its two
    boundary edges and closed through the boundary vertex between them, is a
    polygon.  Off-path tiles are left of travel when the even-odd ray test
    puts their centre inside a counter-clockwise polygon, or outside a
    clockwise one.  A fixed irrational rotation keeps polygon edges off the
    horizontal rays.
    """
    n = tiling.n
    units = {}
    for s in range(1, n + 1):
        angle = math.pi / 2 + (n + 1 - 2 * s) * math.pi / (2 * n)
        units[s] = (math.cos(angle), math.sin(angle))

    def centroid(vertices):
        pts = [(sum(units[s][0] for s in v), sum(units[s][1] for s in v)) for v in vertices]
        return (sum(x for x, _ in pts) / len(pts), sum(y for _, y in pts) / len(pts))

    shift = n if dual else 0
    first, last = tiling.boundary_edge(a + shift), tiling.boundary_edge(a + 1 + shift)
    (corner,) = set(first) & set(last)
    poly = [centroid(first), *(centroid(t.vertices) for t in path), centroid(last), centroid([corner])]
    area2 = sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]))
    cs, sn = math.cos(0.1234567), math.sin(0.1234567)
    rpoly = [(cs * x - sn * y, sn * x + cs * y) for x, y in poly]

    def inside(tile):
        x, y = centroid(tile.vertices)
        px, py = cs * x - sn * y, sn * x + cs * y
        hits = sum(
            (y1 > py) != (y2 > py) and px < x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            for (x1, y1), (x2, y2) in zip(rpoly, rpoly[1:] + rpoly[:1])
        )
        return hits % 2 == 1

    left = {t for t in tiling.tiles if t not in path and inside(t) == (area2 > 0)}
    return frozenset(set(path) | left)


def test_closure_tiles_match_ray_casting(running_tiling):
    """The edge rule agrees with plane geometry on every crossing, n <= 4 and
    the running example."""
    tilings = [build_tiling(w) for n in (2, 3, 4) for w in enumerate_reduced_words(n)]
    checked = 0
    for tiling in tilings + [running_tiling]:
        for a in range(1, tiling.n):
            for dual in (False, True):
                for c in (row.crossing for row in crossing_table(tiling, a, dual)):
                    got = closure_tiles(tiling, c.tiles, a, dual)
                    assert got == _ray_casting_closure(tiling, c.tiles, a, dual), c
                    checked += 1
    assert checked == 257


def test_comb(running_tiling):
    for a in range(1, 5):
        tiles = comb(running_tiling, a)
        assert tiles


def test_per_word_caches_are_bounded():
    """1100 distinct n = 6 tilings leave at most 1024 in the cache; the string
    cones and BZ programs, also keyed by word, share that bound."""
    rng = random.Random("tiling-cache")
    words = set()
    while len(words) < 1100:
        words.add(weak_order_word(6, rng))
    for word in sorted(words):
        build_tiling(word)
    assert build_tiling.cache_info().currsize <= 1024
    assert string_cone.cache_info().maxsize == _bz_program.cache_info().maxsize == 1024


def test_render_svg_smoke(running_tiling):
    svg = render_svg(running_tiling, {"highlight": [(2, 3)], "vertex_labels": True})
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "polygon" in svg


def _interior_vertex(tiles):
    (vertex,) = set.intersection(*(set(tile.vertices) for tile in tiles))
    return vertex


# The n = 4 words come first, so that the test id of an n = 4 word does not
# depend on the n = 3 words.
@pytest.mark.parametrize("word", [*enumerate_reduced_words(4), *enumerate_reduced_words(3)])
def test_hexagons_match_braid_moves(word):
    """Every step of braid_steps(word, j), for every j of the same rank, flips
    a hexagon of the tiles found by movegraph.hexagons: the tiles after are
    the tiles before with the hexagon's three tiles swapped to the other
    form, flipping back restores them, and the hexagon's interior vertex is
    the step's inner (ninner after the flip)."""
    for j in enumerate_reduced_words(rank_of_word(word)):
        for ((s, t), _, (_, u)), left_form, inner, ninner, before, after in braid_steps(word, j):
            tiles, flipped = set(build_tiling(before).tiles), set(build_tiling(after).tiles)
            (h,) = [h for h in hexagons(build_tiling(before)) if h.support == (s, t, u)]
            assert h.left_form == left_form
            assert flipped == (tiles - set(h.tiles)) | set(h.flipped_tiles())
            (back,) = [g for g in hexagons(build_tiling(after)) if g.support == h.support]
            assert (flipped - set(back.tiles)) | set(back.flipped_tiles()) == tiles
            assert _interior_vertex(h.tiles) == inner
            assert _interior_vertex(back.tiles) == ninner
