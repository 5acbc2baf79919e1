"""Rhombic tilings of the regular 2n-gon.

A reduced word for w0 in S_n determines a tiling of the regular 2n-gon P0
into N = n(n-1)/2 rhombi.  Vertices are subsets S of [n], drawn at
v_S = sum_{s in S} u_s where u_s is the unit vector at angle
pi/2 + (n+1-2s)pi/(2n); edges join subsets differing by one element, which
serves as the edge label.  The tile [s,t; S] has the four vertices
S, S+{s}, S+{t}, S+{s,t}.

This module builds tilings from words and computes the border-sweep
partitions kappa_s, strips, closures of crossing paths, combs (closures of
maximal crossings) and SVG pictures.  A tiling is pure set combinatorics:
closures are read off the counter-clockwise order of tile edges, and the
float coordinates v_S exist only inside render_svg.  Hexagon flips are
built on words, by words.braid_steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .words import convex_order, prefix_permutations, rank_of_word

__all__ = [
    "Tile",
    "Tiling",
    "build_tiling",
    "kappa_partition",
    "strip",
    "maximal_crossing_path",
    "closure_tiles",
    "comb",
    "render_svg",
]

Vertex = tuple[int, ...]  # sorted subset of [n]


def _vertex(elements) -> Vertex:
    return tuple(sorted(elements))


def _edge(v1: Vertex, v2: Vertex) -> tuple[Vertex, Vertex]:
    return (v1, v2) if v1 <= v2 else (v2, v1)


def edge_label(edge: tuple[Vertex, Vertex]) -> int:
    """The unique element by which the two endpoint subsets differ."""
    diff = set(edge[0]) ^ set(edge[1])
    if len(diff) != 1:
        raise ValueError(f"{edge} is not a tiling edge")
    return diff.pop()


@dataclass(frozen=True)
class Tile:
    """The rhombus [s,t; S]: pair (s,t) with s < t, base set S disjoint from it.

    Tiles key many dicts and sets, so the hash of (pair, base), the value the
    generated dataclass hash would compute, is stored once at construction.
    """

    pair: tuple[int, int]
    base: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s, t = self.pair
        if not s < t:
            raise ValueError("tile pair must be ordered")
        if set(self.pair) & set(self.base):
            raise ValueError("tile base must avoid the pair")
        object.__setattr__(self, "base", _vertex(self.base))
        object.__setattr__(self, "_hash", hash((self.pair, self.base)))

    def __hash__(self):
        return self._hash

    @property
    def lower(self) -> Vertex:
        return self.base

    @property
    def upper(self) -> Vertex:
        return _vertex(self.base + self.pair)

    @property
    def left(self) -> Vertex:
        """Base plus the smaller pair element (the leftward vertex in the plane)."""
        return _vertex(self.base + (self.pair[0],))

    @property
    def right(self) -> Vertex:
        return _vertex(self.base + (self.pair[1],))

    @cached_property
    def vertices(self) -> tuple[Vertex, Vertex, Vertex, Vertex]:
        return (self.lower, self.left, self.right, self.upper)

    @cached_property
    def edges(self) -> tuple[tuple[Vertex, Vertex], ...]:
        """The four edges counter-clockwise: (lower,right), (right,upper),
        (upper,left), (left,lower)."""
        lo, le, ri, up = self.vertices
        return (_edge(lo, ri), _edge(ri, up), _edge(up, le), _edge(le, lo))

    def __repr__(self):
        s, t = self.pair
        return f"[{s},{t};{{{','.join(map(str, self.base))}}}]"


@dataclass(frozen=True)
class Tiling:
    """A rhombic tiling of the 2n-gon, anchored to a generating word.

    tiles are listed in the word's order, which refines the partial order
    <=_n on tiles; the same tile set may be anchored to any word of its
    commutation class.  build_tiling is the only constructor, so the tiles
    are a function of the word, and a tiling compares and hashes by its word.
    """

    n: int
    word: tuple[int, ...]
    tiles: tuple[Tile, ...] = field(compare=False)

    @cached_property
    def by_pair(self) -> dict[tuple[int, int], Tile]:
        return {tile.pair: tile for tile in self.tiles}

    @cached_property
    def vertices(self) -> frozenset[Vertex]:
        return frozenset(v for tile in self.tiles for v in tile.vertices)

    @cached_property
    def edges(self) -> dict[tuple[Vertex, Vertex], int]:
        """Edge -> label map over all tile edges."""
        return {e: edge_label(e) for tile in self.tiles for e in tile.edges}

    @cached_property
    def edge_tiles(self) -> dict[tuple[Vertex, Vertex], tuple[Tile, ...]]:
        out: dict[tuple[Vertex, Vertex], list[Tile]] = {}
        for tile in self.tiles:
            for e in tile.edges:
                out.setdefault(e, []).append(tile)
        return {e: tuple(ts) for e, ts in out.items()}

    @cached_property
    def adjacency(self) -> dict[Tile, tuple[Tile, ...]]:
        out: dict[Tile, list[Tile]] = {tile: [] for tile in self.tiles}
        for ts in self.edge_tiles.values():
            if len(ts) == 2:
                out[ts[0]].append(ts[1])
                out[ts[1]].append(ts[0])
        return {tile: tuple(ns) for tile, ns in out.items()}

    @cached_property
    def boundary_cycle(self) -> tuple[Vertex, ...]:
        """The 2n boundary vertices clockwise from v_emptyset.

        Positions 0..n hold the prefix sets [0], [1], ..., [n] (up the left
        boundary); positions n..2n-1 hold the suffix sets going back down the
        right boundary.  Boundary edge b_k joins positions k-1 and k mod 2n.
        """
        left = [_vertex(range(1, a + 1)) for a in range(0, self.n + 1)]
        right = [_vertex(range(a, self.n + 1)) for a in range(2, self.n + 1)]
        return tuple(left + right)

    def boundary_edge(self, k: int) -> tuple[Vertex, Vertex]:
        """b_k for k in [2n], clockwise from v_emptyset; b_{n+k} is parallel to b_k."""
        cyc = self.boundary_cycle
        m = len(cyc)
        return _edge(cyc[(k - 1) % m], cyc[k % m])


@lru_cache(maxsize=4096)
def _tile(pair: tuple[int, int], base: Vertex) -> Tile:
    """The one Tile object for (pair, base) that tilings share.

    Tiles are values, so tilings of different words share equal tiles, and
    each tile's hash and corners are computed once.  A rank n has
    C(n, 2) 2^(n-2) tiles, 1792 at n = 8, so 4096 entries keep every tile up
    to n = 8; an evicted tile is rebuilt equal.
    """
    return Tile(pair, base)


@lru_cache(maxsize=1024)
def build_tiling(word: tuple[int, ...]) -> Tiling:
    """The tiling T_i of a reduced word i for w0.

    The k-th tile is [{w_{k-1}(i_k), w_{k-1}(i_k+1)}; w_{k-1}([i_k - 1])]
    where w_k is the product of the first k letters.

    The cache keeps 1024 tilings, more than the 768 words of n = 5, so a
    sweep over every n = 5 word (the lattice suite, with its star words)
    builds each tiling once.  An n = 6 tiling, with the properties that the
    operators fill in, holds about 10 KB besides the tiles it shares with
    other tilings (_tile), so a full cache holds about 10 MB.
    A rebuilt tiling equals the evicted one, so caches keyed by tilings hit.

    >>> [t.pair for t in build_tiling((2, 1, 2)).tiles]
    [(2, 3), (1, 3), (1, 2)]
    """
    word = tuple(word)
    n = rank_of_word(word)
    convex_order(word)  # raises for non-reduced input
    prefixes = prefix_permutations(word, n)
    tiles = []
    for k, a in enumerate(word):
        w = prefixes[k]
        pair = tuple(sorted((w[a - 1], w[a])))
        base = _vertex(w[b] for b in range(a - 1))
        tiles.append(_tile(pair, base))
    return Tiling(n, word, tuple(tiles))


def kappa_partition(tiling: Tiling, s: int) -> dict[Tile, int]:
    """Level map kappa_s of the border sweep starting opposite the label-s side.

    The initial border B_1 consists of the boundary edges b_{n+s+1}, ...,
    b_{2n+s} (indices mod 2n).  At every step all tiles meeting the current
    border in two edges form the next level, and the border advances across
    them; the sweep ends on the complementary boundary arc.

    >>> t = build_tiling((1, 2, 1))
    >>> {tile.pair: k for tile, k in kappa_partition(t, 4).items()}
    {(1, 3): 1, (1, 2): 2, (2, 3): 3}
    """
    return dict(_kappa_levels(tiling, s))


@lru_cache(maxsize=256)
def _kappa_levels(tiling: Tiling, s: int) -> tuple[tuple[Tile, int], ...]:
    """The levels of kappa_s, tile by tile in sweep order.

    Bounded like crossings.crossing_table: a word's crossing tables sweep
    s = 1..n-1 on its own tiling, and no table sweeps another word's (dual
    crossings descend kappa_a, so s > n is never swept for them).  At n = 5 that is 4
    entries per word: 64 for crosscheck's 16 words, and 8 at a time for the
    lattice suite, whose mirror check also sweeps the star word's tiling.
    """
    n = tiling.n
    if not 1 <= s <= 2 * n:
        raise ValueError(f"s must lie in [2n] = [{2 * n}]")
    cyc = tiling.boundary_cycle
    m = len(cyc)
    border = [cyc[(n + s + j) % m] for j in range(0, n + 1)]
    levels: dict[Tile, int] = {}
    for level in range(1, len(tiling.tiles) + 2):
        found: list[tuple[int, Tile]] = []
        for p in range(1, n):
            e1 = _edge(border[p - 1], border[p])
            e2 = _edge(border[p], border[p + 1])
            hits = [
                tile
                for tile in tiling.edge_tiles.get(e1, ())
                if tile in tiling.edge_tiles.get(e2, ()) and tile not in levels
            ]
            if hits:
                found.append((p, hits[0]))
        if not found:
            break
        seen = [tile for _, tile in found]
        if len(set(seen)) != len(seen):
            raise AssertionError(f"tile met the border at two corners at s={s} for {tiling.word}")
        for p, tile in found:
            levels[tile] = level
            fourth = set(border[p - 1]) ^ set(border[p]) ^ set(border[p + 1])
            border[p] = _vertex(fourth)
    if len(levels) != len(tiling.tiles):
        raise AssertionError(f"border sweep stalled at s={s} for {tiling.word}")
    return tuple(levels.items())


def strip(tiling: Tiling, s: int) -> tuple[Tile, ...]:
    """The s-strip: the n-1 tiles with an s-labeled edge, from the left boundary.

    Consecutive strip tiles share an edge labeled s; the first contains the
    left-boundary edge b_s and the last the right-boundary edge b_{n+s}.
    """
    n = tiling.n
    if not 1 <= s <= n:
        raise ValueError(f"strip labels lie in [n] = [{n}]")
    edge = tiling.boundary_edge(s)
    out = []
    prev = None
    while True:
        hits = [t for t in tiling.edge_tiles[edge] if t is not prev]
        if not hits:
            break
        tile = hits[0]
        out.append(tile)
        s_edges = [e for e in tile.edges if tiling.edges[e] == s]
        edge = s_edges[0] if s_edges[1] == edge else s_edges[1]
        prev = tile
    if len(out) != n - 1:
        raise AssertionError(f"strip {s} has {len(out)} tiles")
    return tuple(out)


def maximal_crossing_path(tiling: Tiling, a: int, dual: bool = False) -> tuple[Tile, ...]:
    """The tile path of the maximal a-crossing, with strip sequence (a, a+1).

    Runs along the a-strip to the tile [a,a+1] and back along the (a+1)-strip.
    Primal: from the left boundary; dual: from the right boundary.
    """
    strip_a = strip(tiling, a)
    strip_b = strip(tiling, a + 1)
    if dual:
        strip_a = tuple(reversed(strip_a))
        strip_b = tuple(reversed(strip_b))
    corner = tiling.by_pair[(a, a + 1)]
    ia, ib = strip_a.index(corner), strip_b.index(corner)
    return strip_a[: ia + 1] + tuple(reversed(strip_b[:ib]))


def closure_tiles(
    tiling: Tiling, path, a: int, dual: bool = False
) -> frozenset[Tile]:
    """Closure of a crossing path: the path plus every tile left of it.

    The path enters its first tile through the boundary edge b_a (b_{n+a} for
    a dual crossing), passes from tile to tile through their shared edges and
    leaves its last tile through b_{a+1} (b_{n+a+1}).  Within a path tile, an
    off-path tile across an edge strictly between the entry and the exit,
    counter-clockwise (Tile.edges order), lies right of travel; one across any
    other edge lies left.  A flood fill spreads these sides over the
    adjacency components of the off-path tiles; a component that meets the
    path on both sides raises AssertionError.
    """
    path = tuple(path)
    shift = tiling.n if dual else 0
    crossed = (
        [tiling.boundary_edge(a + shift)]
        + [next(e for e in t1.edges if e in t2.edges) for t1, t2 in zip(path, path[1:])]
        + [tiling.boundary_edge(a + 1 + shift)]
    )
    in_path = set(path)
    seeds = []
    for tile, entry, exit_ in zip(path, crossed, crossed[1:]):
        edges = tile.edges
        i = edges.index(entry)
        to_exit = (edges.index(exit_) - i) % 4
        for step in (1, 2, 3):
            for nb in tiling.edge_tiles[edges[(i + step) % 4]]:
                if nb not in in_path:
                    seeds.append((nb, step > to_exit))
    left_of: dict[Tile, bool] = {}
    while seeds:
        tile, left = seeds.pop()
        if tile in left_of:
            if left_of[tile] != left:
                raise AssertionError(f"a component straddles the crossing {path}")
            continue
        left_of[tile] = left
        seeds.extend((nb, left) for nb in tiling.adjacency[tile] if nb not in in_path)
    return frozenset(in_path.union(t for t, left in left_of.items() if left))


def comb(tiling: Tiling, a: int) -> frozenset[Tile]:
    """The a-comb: closure of the maximal a-crossing.

    >>> sorted(t.pair for t in comb(build_tiling((1, 2, 1)), 1))
    [(1, 2)]
    """
    if not 1 <= a <= tiling.n - 1:
        raise ValueError(f"a must lie in [n-1] = [{tiling.n - 1}]")
    return closure_tiles(tiling, maximal_crossing_path(tiling, a), a)


_HIGHLIGHT = "#f4c7c3"
_POLYLINE = "#c0392b"


def render_svg(tiling: Tiling, decorations: dict | None = None) -> str:
    """A deterministic SVG picture of the tiling.

    decorations keys (all optional):
      "highlight": iterable of tiles or pairs to shade;
      "polyline":  sequence of tiles or pairs to join through their centers;
      "edge_labels", "vertex_labels": booleans.
    Unknown keys or unknown tiles raise ValueError.
    """
    decorations = dict(decorations or {})
    unknown = set(decorations) - {"highlight", "polyline", "edge_labels", "vertex_labels"}
    if unknown:
        raise ValueError(f"unknown decoration keys: {sorted(unknown)}")

    def as_tile(item) -> Tile:
        pair = item.pair if isinstance(item, Tile) else tuple(sorted(item))
        if pair not in tiling.by_pair:
            raise ValueError(f"no tile with pair {pair}")
        return tiling.by_pair[pair]

    highlight = {as_tile(t) for t in decorations.get("highlight", ())}
    polyline = [as_tile(t) for t in decorations.get("polyline", ())]

    n = tiling.n
    units = {}
    for s in range(1, n + 1):
        angle = math.pi / 2 + (n + 1 - 2 * s) * math.pi / (2 * n)
        units[s] = (math.cos(angle), math.sin(angle))
    coords = {
        v: (sum(units[s][0] for s in v), sum(units[s][1] for s in v))
        for v in tiling.vertices
    }

    def center(tile: Tile) -> tuple[float, float]:
        pts = [coords[v] for v in tile.vertices]
        return (sum(p[0] for p in pts) / 4, sum(p[1] for p in pts) / 4)

    scale = 60.0
    xs = [p[0] for p in coords.values()]
    ys = [p[1] for p in coords.values()]
    margin = 0.4
    width = (max(xs) - min(xs) + 2 * margin) * scale
    height = (max(ys) - min(ys) + 2 * margin) * scale

    def pt(p):
        x = (p[0] - min(xs) + margin) * scale
        y = (max(ys) - p[1] + margin) * scale
        return f"{x:.2f},{y:.2f}"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.2f} {height:.2f}">'
    ]
    for tile in tiling.tiles:
        lo, le, ri, up = tile.vertices
        corners = " ".join(pt(coords[v]) for v in (lo, le, up, ri))
        fill = _HIGHLIGHT if tile in highlight else "white"
        lines.append(
            f'<polygon points="{corners}" fill="{fill}" stroke="black" '
            f'stroke-width="1"/>'
        )
    if polyline:
        pts = " ".join(pt(center(t)) for t in polyline)
        lines.append(
            f'<polyline points="{pts}" fill="none" stroke="{_POLYLINE}" '
            f'stroke-width="2"/>'
        )
    if decorations.get("edge_labels"):
        for edge in sorted(tiling.edges):
            (x1, y1), (x2, y2) = coords[edge[0]], coords[edge[1]]
            lines.append(
                f'<text x="{pt(((x1 + x2) / 2, (y1 + y2) / 2)).split(",")[0]}" '
                f'y="{pt(((x1 + x2) / 2, (y1 + y2) / 2)).split(",")[1]}" '
                f'font-size="10" text-anchor="middle">{tiling.edges[edge]}</text>'
            )
    if decorations.get("vertex_labels"):
        for v in sorted(tiling.vertices):
            label = "{" + ",".join(map(str, v)) + "}"
            x, y = pt(coords[v]).split(",")
            lines.append(
                f'<text x="{x}" y="{y}" font-size="9" text-anchor="middle" '
                f'fill="#555">{label}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines)
