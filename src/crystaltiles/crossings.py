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
maximizers are unique and Reineke; this is checked on every application
rather than assumed, by explicit raises that also run under python -O.

One table per (tiling, a, dual), crossing_table, holds all of this: a
CrossingRow per crossing, in enumeration order, with the crossing, its rvec,
the datum positions its form adds and subtracts, its Reineke flag and its
up-set in the closure order as row indices.  Every reader, in this module,
in verify and in the CLI, goes through it; closures live only while a table
is built, nothing is keyed by a Crossing, and a table build runs one search,
on its own tiling.  The cache keeps 256 tables of about 3 KB each at n = 5:
the 128 tables that the operators on 16 words read (4 primal and 4 dual per
word), or the 12 tables the lattice suite reads per word (its mirror check
adds the star word's 4 primal tables).  All 6144 tables of n = 5 would take
about 19 MB.

The operators read a view of each table, compiled on first use per (word,
a, dual) and cached like the tables: the rows sorted into a linear extension
of the closure order (by the size of their down-sets), so that row p is bit
p of an integer, with their (plus, minus) positions, their rvecs, a bitmask
of the Reineke rows and per-row bitmasks of the up- and down-sets.  The
selection rule is then bit arithmetic on the mask of maximizers: f takes
its highest bit and e its lowest, and the checks are that the mask lies in
the down-set (for f) or up-set (for e) of the selected row, that this row is
Reineke, that eps is attained on a Reineke row and that the output is
nonnegative.  Two kernels read the view: _crossing_op on one value tuple,
behind crystal_op and dual_crystal_op, and batch_op on a list of value
tuples of one word, which computes forms, maxima, masks and outputs one
column at a time with map and, when a check fails, replays the data through
_crossing_op so that it raises what the scalar call raises.

The starred operators are the same formula on the dual tables, with the
same selection rule: f_a* adds rvec of the order-maximal maximizer and e_a*
subtracts rvec of the order-minimal one.  Dual crossings ascend kappa_{n+a},
which orders every pair of adjacent tiles opposite to kappa_a, so the dual
search descends kappa_a and one sweep serves both sides.  The dual search is
checked against the primal one on the reversed-complemented word, whose tiles
carry the same pairs, outside the table build: verify.mirror_failures runs in
the lattice suite on every word of its n, and tests/test_crossings.py runs it
on every word at n <= 5 and on sampled words at n = 6 and 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import add, and_, eq, invert, mul, sub
from typing import NamedTuple

from .lusztig import LusztigDatum
from .tiling import Tile, Tiling, build_tiling, closure_tiles, kappa_partition, strip
from .words import MAX_ENUM_RANK, convex_order

__all__ = [
    "Crossing",
    "CrossingRow",
    "crossing_table",
    "batch_op",
    "is_reineke",
    "crystal_op",
    "dual_crystal_op",
    "reineke_vectors",
    "hw_membership",
    "weyl_dimension",
    "generate_hw_crystal",
]


@dataclass(frozen=True)
class Crossing:
    """A crossing: tile path, derived strip sequence, primal/dual flag."""

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
        if len(common) != 1:
            raise AssertionError("consecutive crossing tiles share one strip")
        s = common.pop()
        if s != seq[-1]:
            seq.append(s)
    if seq[-1] != a + 1:
        seq.append(a + 1)
    return tuple(seq)


def _crossings(tiling: Tiling, a: int, dual: bool) -> tuple[Crossing, ...]:
    """The crossing search: every kappa-ascending path between the strip ends.

    Primal crossings ascend kappa_a.  Dual crossings ascend kappa_{n+a}, and
    on every pair of adjacent tiles kappa_{n+a} gives the opposite order to
    kappa_a (the sweep from the complementary arc crosses each shared edge
    the other way; tests/test_tiling.py checks it), so they descend kappa_a.
    """
    n = tiling.n
    if n > MAX_ENUM_RANK:
        raise ValueError(
            f"crossing enumeration for n = {n} exceeds the resource guard"
            f" (MAX_ENUM_RANK = {MAX_ENUM_RANK})"
        )
    if not 1 <= a <= n - 1:
        raise ValueError(f"a must lie in [n-1] = [{n - 1}]")
    kappa = kappa_partition(tiling, a)
    sign = -1 if dual else 1
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
            if sign * (kappa[nb] - kappa[cur]) > 0:
                stack.append(path + (nb,))
    crossings = tuple(
        sorted(
            (Crossing(p, _strip_sequence(p, a), dual) for p in paths),
            key=lambda c: (len(c.tiles), tuple(t.pair for t in c.tiles)),
        )
    )
    if len({c.strips for c in crossings}) != len(crossings):
        raise AssertionError("strip sequences determine crossings uniquely")
    return crossings


def _rvec_by_pair(c: Crossing) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    pairs = {t.pair for t in c.tiles}
    for s, t in zip(c.strips, c.strips[1:]):
        pair = (s, t) if s < t else (t, s)
        if pair not in pairs or pair in out:
            raise AssertionError(f"{c!r}: strip change {pair} is not one tile of the path")
        out[pair] = 1 if t > s else -1
    return out


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


class CrossingRow(NamedTuple):
    """One crossing of a table, with everything the operators read of it."""

    crossing: Crossing
    rvec: tuple[int, ...]  # in the anchor word's root order
    plus: tuple[int, ...]  # datum positions the form adds
    minus: tuple[int, ...]  # datum positions the form subtracts
    reineke: bool
    up: frozenset[int]  # indices of the rows at or above this one


def crossing_table(tiling: Tiling, a: int, dual: bool = False) -> tuple[CrossingRow, ...]:
    """The (dual) a-crossings of the tiling as indexed rows, in enumeration
    order: by length, then by tile pairs.

    dual is normalised to a positional bool before the cache, so
    crossing_table(t, 1), crossing_table(t, 1, False) and
    crossing_table(t, 1, dual=False) share one entry of _crossing_table.

    >>> [row.crossing.strips for row in crossing_table(build_tiling((1, 2, 1)), 1)]
    [(1, 2)]
    """
    return _crossing_table(tiling, a, bool(dual))


@lru_cache(maxsize=256)
def _crossing_table(tiling: Tiling, a: int, dual: bool) -> tuple[CrossingRow, ...]:
    order = convex_order(tiling.word)
    index = {p: k for k, p in enumerate(order)}
    crossings = _crossings(tiling, a, dual)
    closures = [closure_tiles(tiling, c.tiles, a, dual) for c in crossings]
    cl_op = [(cl, cl.difference(c.tiles)) for cl, c in zip(closures, crossings)]
    rows = []
    for c, (cl, op) in zip(crossings, cl_op):
        rv = _rvec_by_pair(c)
        pairs = [t.pair for t in c.tiles]
        plus = tuple(index[p] for p in pairs if p[0] <= a < p[1])
        minus = tuple(index[p] for p in pairs if not p[0] <= a < p[1] and p not in rv)
        up = frozenset(j for j, (cl2, op2) in enumerate(cl_op) if cl <= cl2 and op <= op2)
        rvec = tuple(rv.get(p, 0) for p in order)
        rows.append(CrossingRow(c, rvec, plus, minus, is_reineke(c), up))
    return tuple(rows)


class _View(NamedTuple):
    """A crossing table compiled for the operators, one bit per row.

    Bit p stands for the row at position p of a linear extension of the
    closure order, so the rows strictly below a row sit on lower bits.
    """

    terms: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # (plus, minus) per row
    steps: dict[str, tuple[tuple[int, ...], ...]]  # "f": rvec per row, "e": -rvec
    reineke: int  # the Reineke rows
    up: tuple[int, ...]  # per row, the rows at or above it
    down: tuple[int, ...]  # per row, the rows at or below it
    crossings: tuple[Crossing, ...]  # per row, for error messages


@lru_cache(maxsize=256)
def _view(word: tuple[int, ...], a: int, dual: bool) -> _View:
    """The view of crossing_table(build_tiling(word), a, dual), compiled on
    first use and bounded like the tables.  Rows are sorted by the size of
    their down-sets, a linear extension: gamma < lambda makes down(gamma) a
    proper subset of down(lambda)."""
    rows = crossing_table(build_tiling(word), a, dual)
    below = [[j for j, other in enumerate(rows) if k in other.up] for k in range(len(rows))]
    order = sorted(range(len(rows)), key=lambda k: len(below[k]))
    bit = {k: 1 << p for p, k in enumerate(order)}
    rvecs = tuple(rows[k].rvec for k in order)
    return _View(
        terms=tuple((rows[k].plus, rows[k].minus) for k in order),
        steps={"f": rvecs, "e": tuple(tuple(-r for r in rv) for rv in rvecs)},
        reineke=sum(bit[k] for k in order if rows[k].reineke),
        up=tuple(sum(map(bit.__getitem__, rows[k].up)) for k in order),
        down=tuple(sum(map(bit.__getitem__, below[k])) for k in order),
        crossings=tuple(rows[k].crossing for k in order),
    )


def _forms(view: _View, vals: tuple[int, ...]) -> list[int]:
    get = vals.__getitem__
    return [sum(map(get, plus)) - sum(map(get, minus)) for plus, minus in view.terms]


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
    return _as_datum(x.word, _crossing_op(kind, a, x.word, x.values, False))


def dual_crystal_op(kind: str, a: int, x: LusztigDatum):
    """Starred crystal operator through the dual crossing formula.

    The rule of crystal_op on the dual a-crossings of x's own tiling, which
    the search finds descending kappa_a (see _crossings; tests/test_tiling.py
    checks the opposite-order rule).  tests/test_crossings.py requires it to
    equal the primal formula moved to the star word by star_datum, and the
    transport oracle oracle_star_op.  kind may be given with or without a
    trailing star.

    >>> dual_crystal_op("f*", 2, LusztigDatum((1, 2, 1), (0, 0, 0))).values
    (0, 0, 1)
    """
    return _as_datum(x.word, _crossing_op(kind.rstrip("*"), a, x.word, x.values, True))


def _as_datum(word, res):
    return LusztigDatum(word, res) if isinstance(res, tuple) else res


def _crossing_op(kind: str, a: int, word: tuple[int, ...], vals: tuple[int, ...], dual: bool):
    """The crossing formula on one value tuple of word: eps_a, or the values
    of f_a / e_a (None for e_a when eps_a = 0), with every self-check.

    f selects the highest bit of the maximizer mask and e the lowest: the
    order-extreme maximizer, when it is unique, comes last (first) in every
    linear extension, and it is unique exactly when every maximizer lies in
    its down-set (up-set).
    """
    view = _view(word, a, dual)
    forms = _forms(view, vals)
    eps = max(forms)
    mask = 0
    for p, form in enumerate(forms):
        if form == eps:
            mask |= 1 << p
    if kind == "eps":
        if not mask & view.reineke:
            raise AssertionError(f"eps_{a}: maximum not attained on Reineke crossings at {vals}")
        return eps
    if kind == "f":
        p = mask.bit_length() - 1
        stray = mask & ~view.down[p]
    elif kind == "e":
        if eps == 0:
            return None
        p = (mask & -mask).bit_length() - 1
        stray = mask & ~view.up[p]
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    if stray:
        raise AssertionError(
            f"{kind}_{a}: order-extreme maximizer not unique at {vals}: "
            f"{view.crossings[p]} and {view.crossings[stray.bit_length() - 1]}"
        )
    if not view.reineke >> p & 1:
        raise AssertionError(f"{kind}_{a}: selected crossing {view.crossings[p]} is not Reineke")
    out = tuple(map(add, vals, view.steps[kind][p]))
    if min(out) < 0:
        raise AssertionError(f"{kind}_{a}: the crossing formula took {vals} to {out}")
    return out


def batch_op(kind: str, a: int, word: tuple[int, ...], values: list, dual: bool = False) -> list:
    """_crossing_op on each value tuple of a list, for one word, column-wise.

    Forms, maxima, maximizer masks, selections and outputs each run across
    all data at once with map.  When a self-check fails, the data are
    replayed through _crossing_op, so the batch raises what the scalar call
    raises on the first failing datum.

    >>> batch_op("f", 1, (2, 1, 2), [(3, 1, 2), (0, 0, 0)])
    [(2, 2, 2), (0, 0, 1)]
    """
    if kind not in ("f", "e", "eps"):
        raise ValueError(f"unknown operator kind {kind!r}")
    if not values:
        return []
    view = _view(word, a, dual)
    cols = list(zip(*values))
    forms = []
    for plus, minus in view.terms:
        form = _column_sum(cols, plus, len(values))
        if minus:
            form = map(sub, form, _column_sum(cols, minus, len(values)))
        forms.append(list(form))
    eps = list(map(max, *forms)) if len(forms) > 1 else forms[0]
    if kind == "e" and not all(eps):
        out = [None] * len(values)
        live = [k for k, v in enumerate(eps) if v]
        for k, y in zip(live, batch_op(kind, a, word, [values[k] for k in live], dual)):
            out[k] = y
        return out
    hits = (map(mul, map(eq, form, eps), repeat(1 << p)) for p, form in enumerate(forms))
    masks = list(map(sum, zip(*hits)))
    if kind == "eps":
        ok = all(map(view.reineke.__and__, masks))
        return eps if ok else _replay(kind, a, word, values, dual)
    if kind == "f":
        sel = [m.bit_length() - 1 for m in masks]
        bounds = view.down
    else:
        sel = [(m & -m).bit_length() - 1 for m in masks]
        bounds = view.up
    out = list(map(tuple, map(map, repeat(add), values, map(view.steps[kind].__getitem__, sel))))
    ok = (
        not any(map(and_, masks, map(invert, map(bounds.__getitem__, sel))))
        and all(map(and_, map(view.reineke.__rshift__, sel), repeat(1)))
        and min(map(min, out)) >= 0
    )
    return out if ok else _replay(kind, a, word, values, dual)


def _column_sum(cols, idx, size):
    """The sum of the columns at idx, entry by entry."""
    if not idx:
        return repeat(0, size)
    total = cols[idx[0]]
    for i in idx[1:]:
        total = map(add, total, cols[i])
    return total


def _replay(kind, a, word, values, dual):
    for vals in values:
        _crossing_op(kind, a, word, vals, dual)
    raise AssertionError(f"{kind}_{a}: a batch self-check failed where no scalar one does")


def reineke_vectors(tiling: Tiling, a: int, dual: bool = False) -> frozenset[tuple[int, ...]]:
    """{rvec(gamma) : gamma a (dual) Reineke a-crossing}, in anchor root order.

    Coincides with {f_a x - x} (resp. starred) over all Lusztig data.
    """
    return frozenset(row.rvec for row in crossing_table(tiling, a, dual) if row.reineke)


def hw_membership(x: LusztigDatum, lam: tuple[int, ...]) -> bool:
    """Does x lie in the highest-weight crystal B(lam)?

    Membership asks form(gamma, x) <= lam_a for every dual a-crossing gamma,
    i.e. eps*_a(x) <= lam_a for all a.
    """
    n = x.n
    lam = tuple(lam)
    if len(lam) != n - 1 or any(v < 0 for v in lam):
        raise ValueError("lam must be a dominant weight: n-1 nonnegative integers")
    return not any(
        max(_forms(_view(x.word, a, True), x.values)) > lam[a - 1] for a in range(1, n)
    )


def weyl_dimension(lam) -> int:
    """Dimension of the irreducible module with the given weight coefficients.

    Product formula over the positive roots: for each pair a < b the factor
    is (b - a + lam_a + ... + lam_{b-1}) / (b - a).

    >>> weyl_dimension((1, 1))
    8
    >>> weyl_dimension((2, 1))
    15
    """
    lam = tuple(lam)
    n = len(lam) + 1
    num = den = 1
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            num *= (b - a) + sum(lam[a - 1 : b - 1])
            den *= b - a
    if num % den:
        raise AssertionError(f"Weyl product {num}/{den} is not an integer")
    return num // den


def generate_hw_crystal(lam: tuple[int, ...], word) -> frozenset[LusztigDatum]:
    """All elements of B(lam) as Lusztig data, by f_a search from the origin.

    The search stops on its own only when hw_membership rejects every new
    datum, so it raises AssertionError (also under python -O) as soon as it
    holds more elements than the Weyl dimension of lam.
    """
    word = tuple(word)
    zero = LusztigDatum(word, (0,) * len(word))
    if not hw_membership(zero, lam):
        raise AssertionError("the origin always lies in B(lam)")
    size = weyl_dimension(lam)
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
                    if len(seen) > size:
                        raise AssertionError(
                            f"B({lam}) outgrew its dimension {size}: hw_membership accepted {y}"
                        )
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)
