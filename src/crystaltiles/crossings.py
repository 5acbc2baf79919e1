"""Crossings of tilings and the crystal operators they compute.

A primal a-crossing is a neighbour sequence of tiles from the first tile of
the a-strip to the first tile of the (a+1)-strip whose kappa_a level strictly
increases; dual a-crossings run between the last strip tiles and ascend
kappa_{n+a}.  Each crossing carries

  * a strip sequence (s_1 = a, ..., s_M = a+1): the strips its maximal runs
    lie on, read off the shared pair elements of consecutive tiles;
  * an integer vector rvec with entry sgn(s_{i+1} - s_i) at each transition
    tile [s_i, s_{i+1}] and 0 elsewhere;
  * a linear form  x  ->  sum_{T in gamma, eps-bar_a(T) = 1} x_T
                        - sum_{T in gamma, eps-bar_a(T) = -1, rvec_T = 0} x_T,
    where eps-bar_a([s,t]) is +1 when s <= a < a+1 <= t and -1 otherwise.

The crossing formula: eps_a(x) is the maximum of the forms over all
a-crossings, f_a adds rvec of the order-maximal maximizer, and e_a subtracts
rvec of the order-minimal maximizer (when eps_a > 0).  The partial order
compares closures: gamma <= lambda iff cl(gamma) <= cl(lambda) and
op(gamma) <= op(lambda), where cl(gamma) is gamma plus the tiles left of
travel, read off the counter-clockwise tile edges by tiling.closure_tiles
(exact, no coordinates), and op(gamma) = cl(gamma) - gamma.  Both extreme
maximizers are unique and Reineke; this is asserted on every application
rather than assumed.

Dual operators reduce to primal ones on the reversed-complemented word
(values transferred along equal tile pairs); the direct dual enumeration is
kept and asserted equal to the reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .lusztig import LusztigDatum, star_datum
from .tiling import Tile, Tiling, build_tiling, closure_tiles, kappa_partition, strip
from .words import MAX_ENUM_RANK, convex_order, star_word

__all__ = [
    "Crossing",
    "enumerate_crossings",
    "crossing_rvec",
    "crossing_form",
    "poset_leq",
    "is_reineke",
    "crystal_op",
    "dual_crystal_op",
    "reineke_vectors",
    "hw_membership",
    "generate_hw_crystal",
]


@dataclass(frozen=True)
class Crossing:
    """A crossing: tile path, derived strip sequence, primal/dual flag."""

    tiling: Tiling
    tiles: tuple[Tile, ...]
    strips: tuple[int, ...]
    dual: bool

    @property
    def a(self) -> int:
        return self.strips[0]

    def __repr__(self):
        kind = "dual " if self.dual else ""
        pairs = ",".join(str(t.pair) for t in self.tiles)
        return f"<{kind}{self.a}-crossing {pairs} strips {self.strips}>"


def _strip_sequence(path: tuple[Tile, ...], a: int) -> tuple[int, ...]:
    """Strip sequence of a tile path: shared pair elements, run-compressed."""
    seq = [a]
    for t1, t2 in zip(path, path[1:]):
        common = set(t1.pair) & set(t2.pair)
        assert len(common) == 1, "consecutive crossing tiles share one strip"
        s = common.pop()
        if s != seq[-1]:
            seq.append(s)
    if seq[-1] != a + 1:
        seq.append(a + 1)
    return tuple(seq)


@lru_cache(maxsize=None)
def _enumerate(tiling: Tiling, a: int, dual: bool) -> tuple[Crossing, ...]:
    n = tiling.n
    if n > MAX_ENUM_RANK:
        raise ValueError(
            f"crossing enumeration for n = {n} exceeds the resource guard"
            f" (MAX_ENUM_RANK = {MAX_ENUM_RANK})"
        )
    if not 1 <= a <= n - 1:
        raise ValueError(f"a must lie in [n-1] = [{n - 1}]")
    kappa = kappa_partition(tiling, n + a if dual else a)
    strip_a, strip_b = strip(tiling, a), strip(tiling, a + 1)
    start = strip_a[-1] if dual else strip_a[0]
    end = strip_b[-1] if dual else strip_b[0]

    paths = []
    stack = [(start,)]
    while stack:
        path = stack.pop()
        cur = path[-1]
        if cur == end:
            paths.append(path)
            continue
        for nb in tiling.adjacency[cur]:
            if kappa[nb] > kappa[cur]:
                stack.append(path + (nb,))
    crossings = tuple(
        sorted(
            (Crossing(tiling, p, _strip_sequence(p, a), dual) for p in paths),
            key=lambda c: (len(c.tiles), tuple(t.pair for t in c.tiles)),
        )
    )
    assert len({c.strips for c in crossings}) == len(crossings), (
        "strip sequences determine crossings uniquely"
    )
    if dual:
        mirror = build_tiling(star_word(tiling.word))
        primal = _enumerate(mirror, a, False)
        ours = {(tuple(t.pair for t in c.tiles), c.strips) for c in crossings}
        theirs = {(tuple(t.pair for t in c.tiles), c.strips) for c in primal}
        assert ours == theirs, "dual crossings disagree with the reversed word"
    return crossings


def enumerate_crossings(tiling: Tiling, a: int, dual: bool = False) -> tuple[Crossing, ...]:
    """All (dual) a-crossings of the tiling, sorted by length, then by tile pairs.

    The dual set is computed twice, directly and through the
    reversed-complemented word, and the two enumerations are asserted equal.

    >>> len(enumerate_crossings(build_tiling((1, 2, 1)), 1))
    1
    """
    return _enumerate(tiling, a, dual)


def _rvec_by_pair(c: Crossing) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    pairs = {t.pair for t in c.tiles}
    for s, t in zip(c.strips, c.strips[1:]):
        pair = (s, t) if s < t else (t, s)
        assert pair in pairs and pair not in out
        out[pair] = 1 if t > s else -1
    return out


def crossing_rvec(c: Crossing) -> tuple[int, ...]:
    """rvec as a vector in the anchor word's root order: +-1 at transition tiles."""
    rv = _rvec_by_pair(c)
    return tuple(rv.get(p, 0) for p in convex_order(c.tiling.word))


def crossing_form(c: Crossing, x: LusztigDatum) -> int:
    """Evaluate the crossing's linear form on a Lusztig datum of the same word."""
    if x.word != c.tiling.word:
        raise ValueError("datum and crossing anchored to different words")
    a = c.a
    rv = _rvec_by_pair(c)
    vals = x.as_dict()
    total = 0
    for tile in c.tiles:
        s, t = tile.pair
        if s <= a < a + 1 <= t:
            total += vals[tile.pair]
        elif rv.get(tile.pair, 0) == 0:
            total -= vals[tile.pair]
    return total


@lru_cache(maxsize=None)
def _closure(c: Crossing) -> frozenset[Tile]:
    return closure_tiles(c.tiling, c.tiles, c.a, c.dual)


def poset_leq(c1: Crossing, c2: Crossing) -> bool:
    """The closure order: cl(c1) <= cl(c2) and op(c1) <= op(c2)."""
    if (c1.tiling, c1.a, c1.dual) != (c2.tiling, c2.a, c2.dual):
        raise ValueError("crossings live in different posets")
    cl1, cl2 = _closure(c1), _closure(c2)
    op1, op2 = cl1 - set(c1.tiles), cl2 - set(c2.tiles)
    return cl1 <= cl2 and op1 <= op2


def is_reineke(c: Crossing) -> bool:
    """No forbidden one-strip stretch: whenever three consecutive tiles lie on
    one strip L^s and the middle one is [s, t], require s > t for t <= a and
    s < t for t >= a + 1.
    """
    a = c.a
    for prev, mid, nxt in zip(c.tiles, c.tiles[1:], c.tiles[2:]):
        common = set(prev.pair) & set(mid.pair) & set(nxt.pair)
        if not common:
            continue
        s = common.pop()
        t = mid.pair[0] if mid.pair[1] == s else mid.pair[1]
        if t <= a and not s > t:
            return False
        if t >= a + 1 and not s < t:
            return False
    return True


@lru_cache(maxsize=None)
def _op_table(tiling: Tiling, a: int, dual: bool):
    """Per-(tiling, a) data for fast formula evaluation.

    Returns (crossings, rvecs, plus/minus index lists, reineke flags,
    leq incidence sets).
    """
    order = convex_order(tiling.word)
    index = {p: k for k, p in enumerate(order)}
    crossings = _enumerate(tiling, a, dual)
    rvecs, plus, minus, reineke = [], [], [], []
    for c in crossings:
        rv = _rvec_by_pair(c)
        rvecs.append(tuple(rv.get(p, 0) for p in order))
        p_idx, m_idx = [], []
        for tile in c.tiles:
            s, t = tile.pair
            if s <= a < a + 1 <= t:
                p_idx.append(index[tile.pair])
            elif rv.get(tile.pair, 0) == 0:
                m_idx.append(index[tile.pair])
        plus.append(tuple(p_idx))
        minus.append(tuple(m_idx))
        reineke.append(is_reineke(c))
    leq = [
        frozenset(j for j, cj in enumerate(crossings) if poset_leq(ci, cj))
        for ci in crossings
    ]
    return crossings, tuple(rvecs), tuple(plus), tuple(minus), tuple(reineke), tuple(leq)


def crystal_op(kind: str, a: int, x: LusztigDatum):
    """Crystal operator through the crossing formula.

    kind "eps" returns max form over a-crossings; "f" adds rvec of the
    order-maximal maximizer; "e" subtracts rvec of the order-minimal
    maximizer, or returns None when eps_a(x) = 0.

    >>> crystal_op("eps", 1, LusztigDatum((2, 1, 2), (3, 1, 2)))
    1
    >>> crystal_op("f", 1, LusztigDatum((2, 1, 2), (3, 1, 2))).values
    (2, 2, 2)
    """
    tiling = build_tiling(x.word)
    crossings, rvecs, plus, minus, reineke, leq = _op_table(tiling, a, False)
    vals = x.values
    forms = [
        sum(vals[i] for i in plus[k]) - sum(vals[i] for i in minus[k])
        for k in range(len(crossings))
    ]
    eps = max(forms)
    if kind == "eps":
        assert eps == max(
            f for f, r in zip(forms, reineke) if r
        ), "maximum not attained on Reineke crossings"
        return eps
    argmax = [k for k, f in enumerate(forms) if f == eps]
    if kind == "f":
        extreme = [k for k in argmax if all(j == k or j not in leq[k] for j in argmax)]
    elif kind == "e":
        if eps == 0:
            return None
        extreme = [k for k in argmax if all(j == k or k not in leq[j] for j in argmax)]
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    assert len(extreme) == 1, (
        f"{kind}_{a}: order-extreme maximizer not unique at {x}: "
        f"{[crossings[k] for k in extreme]}"
    )
    k = extreme[0]
    assert reineke[k], f"{kind}_{a}: selected crossing {crossings[k]} is not Reineke"
    sign = 1 if kind == "f" else -1
    return LusztigDatum(x.word, tuple(v + sign * r for v, r in zip(vals, rvecs[k])))


def dual_crystal_op(kind: str, a: int, x: LusztigDatum):
    """Starred crystal operator through the dual crossing formula.

    Implemented by the pair-preserving reduction to the primal formula on the
    reversed-complemented word; kind may be given with or without a trailing
    star.

    >>> dual_crystal_op("f*", 2, LusztigDatum((1, 2, 1), (0, 0, 0))).values
    (0, 0, 1)
    """
    res = crystal_op(kind.rstrip("*"), a, star_datum(x))
    return star_datum(res) if isinstance(res, LusztigDatum) else res


def reineke_vectors(tiling: Tiling, a: int, dual: bool = False) -> frozenset[tuple[int, ...]]:
    """{rvec(gamma) : gamma a (dual) Reineke a-crossing}, in anchor root order.

    Coincides with {f_a x - x} (resp. starred) over all Lusztig data.
    """
    return frozenset(
        crossing_rvec(c) for c in _enumerate(tiling, a, dual) if is_reineke(c)
    )


def hw_membership(x: LusztigDatum, lam: tuple[int, ...]) -> bool:
    """Does x lie in the highest-weight crystal B(lam)?

    Membership asks form(gamma, x) <= lam_a for every dual a-crossing gamma,
    i.e. eps*_a(x) <= lam_a for all a.
    """
    n = x.n
    lam = tuple(lam)
    if len(lam) != n - 1 or any(v < 0 for v in lam):
        raise ValueError("lam must be a dominant weight: n-1 nonnegative integers")
    tiling = build_tiling(x.word)
    for a in range(1, n):
        crossings, rvecs, plus, minus, _, _ = _op_table(tiling, a, True)
        for k in range(len(crossings)):
            form = sum(x.values[i] for i in plus[k]) - sum(x.values[i] for i in minus[k])
            if form > lam[a - 1]:
                return False
    return True


def generate_hw_crystal(lam: tuple[int, ...], word) -> frozenset[LusztigDatum]:
    """All elements of B(lam) as Lusztig data, by f_a search from the origin."""
    word = tuple(word)
    zero = LusztigDatum(word, (0,) * len(word))
    if not hw_membership(zero, lam):
        raise AssertionError("the origin always lies in B(lam)")
    n = zero.n
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for a in range(1, n):
                y = crystal_op("f", a, x)
                if y not in seen and hw_membership(y, lam):
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)
