"""Laurent polynomials, geometric lifts, cluster seeds, and potential functions.

Everything here lives on tori attached to a tiling: tile coordinates (one per
root pair) or vertex coordinates (one per vertex off the left boundary).  The
crossing polynomials r_a sum the dual Reineke vectors of a word; under a flip
they transform by the subtraction-free multiplicative lift, while their
word-coordinate companions transform by the additive one.  Both lifts are the
lusztig module's flip rules over the rationals, run along its compiled flip
paths (words.braid_steps, built directly); the transition map for Lusztig
data is the additive rule over min-plus.  The dual Chamber Ansatz and the
Neighbour Ansatz connect the two tori; pushing r_a through them produces a
potential with exponents in {0, -1} whose tropical cone is a unimodular
image of the string cone, and evaluating through chamber minors recovers
ratios of minors of a unitriangular matrix.  All identity checks are exact:
rational arithmetic at rational points, never tolerances.

The hot loops run over Python integers: evaluation builds one Fraction per
value, chamber minors come from a per-matrix flag-minor table, and the cone
check tests sparse cone rows composed with the inverse maps once per word.
Each tile of a word brings in one vertex, so both tile-vertex maps are
triangular and their inverses come by substitution, one row at a time.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import lcm

from .crossings import reineke_vectors
from .lusztig import _RATIONALS, _additive_flip, _multiplicative_flip, _transport
from .strings import Cone, string_cone
from .tiling import build_tiling
from .words import braid_steps, convex_order, rank_of_word

__all__ = [
    "LaurentPolynomial",
    "MonomialMap",
    "ExchangeQuiver",
    "UnitriangularMatrix",
    "reineke_poly",
    "eval_trs",
    "eval_trl",
    "transform_check_rtrans",
    "quiver",
    "is_optimized",
    "chamber_ansatz_dual",
    "neighbour_ansatz",
    "ghkk_restriction",
    "chamber_minor",
    "bk_value",
    "bk_identity_check",
    "tropical_cone",
    "cone_correspondence_check",
    "eval_cluster_mutation",
]


# Bound of the per-word caches (vertex lists, quivers, both monomial maps and
# their inverses).  A potentials benchmark item touches about ten words; over
# 36 items of S5 words, 128 entries cost about 460 misses per cache instead of
# 330 (about 1 ms each) and keep the peak RSS about 1 MB lower than unbounded.
_PER_WORD = 128


def _label(c) -> str:
    return ",".join(map(str, c)) if isinstance(c, tuple) else str(c)


def _ratio(value) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational value."""
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)
    return value.numerator, value.denominator


def _monomial(vals, exp) -> tuple[int, int]:
    """(numerator, denominator) of prod_s vals[s]^exp[s], vals as int pairs.

    A zero value under a negative exponent gives denominator 0.
    """
    num = den = 1
    for v, e in zip(vals, exp):
        if e > 0:
            num *= v[0] ** e
            den *= v[1] ** e
        elif e < 0:
            num *= v[1] ** -e
            den *= v[0] ** -e
    return num, den


@dataclass(frozen=True)
class LaurentPolynomial:
    """Integer-coefficient Laurent polynomial on named torus coordinates.

    terms maps exponent vectors (aligned with coords) to coefficients; zero
    coefficients are dropped on construction.
    """

    coords: tuple
    terms: tuple

    def __post_init__(self):
        coords = tuple(self.coords)
        items = self.terms.items() if isinstance(self.terms, dict) else self.terms
        cleaned = {}
        for exp, coeff in items:
            exp = tuple(int(e) for e in exp)
            if len(exp) != len(coords):
                raise ValueError("exponent arity must match the coordinates")
            coeff = int(coeff) + cleaned.get(exp, 0)
            if coeff:
                cleaned[exp] = coeff
            else:
                cleaned.pop(exp, None)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "terms", tuple(sorted(cleaned.items())))

    def exponents(self) -> tuple[tuple[int, ...], ...]:
        return tuple(exp for exp, _ in self.terms)

    def eval(self, point) -> Fraction:
        """Exact value at a point keyed by coordinate labels.

        Reads only coordinates with a nonzero exponent; a zero under a
        negative exponent raises ZeroDivisionError.
        """
        columns = zip(self.coords, zip(*self.exponents()))
        vals = [_ratio(point[label]) if any(col) else None for label, col in columns]
        num, den = 0, 1
        for exp, coeff in self.terms:
            p, q = _monomial(vals, exp)
            num = num * q + coeff * p * den
            den *= q
        return Fraction(num, den)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, coeff in self.terms:
            factors = []
            for label, e in zip(self.coords, exp):
                if e == 0:
                    continue
                factors.append(f"x[{_label(label)}]" + (f"^{e}" if e != 1 else ""))
            body = "*".join(factors) or "1"
            if coeff == 1 and factors:
                parts.append(body)
            elif coeff == -1 and factors:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}" if factors else str(coeff))
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


@dataclass(frozen=True)
class MonomialMap:
    """x -> (prod_s x_s^{rows[d][s]})_d between named coordinate tori."""

    src: tuple
    dst: tuple
    rows: tuple

    def __post_init__(self):
        src, dst = tuple(self.src), tuple(self.dst)
        rows = tuple(tuple(int(e) for e in row) for row in self.rows)
        if len(rows) != len(dst) or any(len(r) != len(src) for r in rows):
            raise ValueError("need one exponent row per target coordinate")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "rows", rows)

    def apply(self, point) -> dict:
        """Evaluate at a point with nonzero rational entries."""
        vals = [_ratio(point[s]) for s in self.src]
        if any(p == 0 for p, _ in vals):
            raise ValueError("monomial maps need nonzero coordinates")
        return {d: Fraction(*_monomial(vals, row)) for d, row in zip(self.dst, self.rows)}

    def pullback(self, poly: LaurentPolynomial) -> LaurentPolynomial:
        """poly (on dst) composed with this map: x^y becomes x^(y @ rows) on src."""
        if poly.coords != self.dst:
            raise ValueError("polynomial coordinates must be the target coordinates")
        moved = _through([y for y, _ in poly.terms], self)
        return LaurentPolynomial(self.src, [(z, c) for z, (_, c) in zip(moved, poly.terms)])

    def trop(self, vec) -> tuple[int, ...]:
        """The underlying linear map on integer vectors (aligned with src)."""
        vec = tuple(vec)
        if len(vec) != len(self.src):
            raise ValueError("vector arity mismatch")
        return tuple(sum(e * v for e, v in zip(row, vec)) for row in self.rows)


@dataclass(frozen=True)
class ExchangeQuiver:
    """Quiver on the tiling vertices off the left boundary.

    Arrows are (source, target) pairs with multiplicity by repetition; the
    frozen vertices are the ones on the right boundary and never carry
    arrows among themselves.
    """

    vertices: tuple
    frozen: frozenset
    arrows: tuple

    def __post_init__(self):
        vset = set(self.vertices)
        if not set(self.frozen) <= vset:
            raise ValueError("frozen vertices must be vertices")
        for src, dst in self.arrows:
            if src not in vset or dst not in vset:
                raise ValueError("arrow endpoints must be vertices")
            if src in self.frozen and dst in self.frozen:
                raise ValueError("no arrows between frozen vertices")

    @cached_property
    def _multiplicity(self) -> Counter:
        return Counter(self.arrows)

    def eps(self, v, k) -> int:
        """Signed arrow count: arrows v->k minus arrows k->v."""
        return self._multiplicity[(v, k)] - self._multiplicity[(k, v)]


@dataclass(frozen=True)
class UnitriangularMatrix:
    """Square matrix with unit diagonal, zeros below, exact rational entries.

    Its flag minors (first k rows, any k columns) are memoised as asked for,
    each a Laplace expansion along row k over rows scaled to integers once.
    """

    rows: tuple

    def __post_init__(self):
        rows = tuple(
            tuple(e if type(e) is Fraction else Fraction(e) for e in row) for row in self.rows
        )
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        for i in range(n):
            if rows[i][i] != 1:
                raise ValueError("diagonal entries must be 1")
            if any(rows[i][j] != 0 for j in range(i)):
                raise ValueError("entries below the diagonal must be 0")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    @cached_property
    def _flag(self) -> tuple:
        """(integer rows, running products of their scales, minor table)."""
        scales = [lcm(*(e.denominator for e in row)) for row in self.rows]
        ints = tuple(
            tuple(e.numerator * (s // e.denominator) for e in row)
            for row, s in zip(self.rows, scales)
        )
        running = [1]
        for s in scales:
            running.append(running[-1] * s)
        return ints, tuple(running), {(): 1}

    def _scaled_minor(self, cols: tuple[int, ...]) -> int:
        """The minor of the first #cols integer rows on cols (sorted, in 1..n)."""
        ints, _, table = self._flag
        got = table.get(cols)
        if got is None:
            k = len(cols)
            row = ints[k - 1]
            got = 0
            for m, c in enumerate(cols):
                e = row[c - 1]
                if e:
                    term = e * self._scaled_minor(cols[:m] + cols[m + 1 :])
                    got += -term if (k - 1 - m) % 2 else term
            table[cols] = got
        return got


def chamber_minor(u, subset) -> Fraction:
    """Minor of the first #subset rows against the columns in subset.

    >>> u = UnitriangularMatrix(((1, 1, 1), (0, 1, 2), (0, 0, 1)))
    >>> chamber_minor(u, (1, 3))
    Fraction(2, 1)
    >>> chamber_minor(u, (2, 3))
    Fraction(1, 1)
    """
    if not isinstance(u, UnitriangularMatrix):
        u = UnitriangularMatrix(u)
    cols = tuple(sorted(set(subset)))
    if cols and (cols[0] < 1 or cols[-1] > u.n):
        raise ValueError("column labels must lie in 1..n")
    return Fraction(u._scaled_minor(cols), u._flag[1][len(cols)])


def bk_value(u, a) -> Fraction:
    """The minor ratio at a: rows {a, a+2..n} over rows {a+1..n}.

    >>> u = UnitriangularMatrix(((1, 1, 1), (0, 1, 2), (0, 0, 1)))
    >>> bk_value(u, 1)
    Fraction(2, 1)
    >>> bk_value(u, 2)
    Fraction(1, 1)
    """
    if not isinstance(u, UnitriangularMatrix):
        u = UnitriangularMatrix(u)
    if not 1 <= a <= u.n - 1:
        raise ValueError("a must lie in 1..n-1")
    # both minors take the first n - a rows, so their row scales cancel
    den = u._scaled_minor(tuple(range(a + 1, u.n + 1)))
    if den == 0:
        raise ZeroDivisionError(f"chamber minor of columns {a + 1}..{u.n} vanishes")
    return Fraction(u._scaled_minor((a, *range(a + 2, u.n + 1))), den)


def reineke_poly(word, a, dual: bool = True) -> LaurentPolynomial:
    """The crossing polynomial r_a (dual) or its word-coordinate companion.

    With dual=True this is the sum of x^v over the dual Reineke vectors v of
    the word's tiling, on tile coordinates; exponents stay within {-1, 0, 1}.
    With dual=False it is the plain sum of the coordinates at positions
    carrying the letter a.

    >>> reineke_poly((2, 1, 2), 1)
    x[1,2]
    >>> reineke_poly((2, 1, 2), 2)
    x[1,3]*x[1,2]^-1 + x[2,3]
    >>> reineke_poly((1, 2, 1), 2, dual=False)
    x[2]
    """
    word = tuple(word)
    if dual:
        coords = convex_order(word)
        vecs = reineke_vectors(build_tiling(word), a, dual=True)
        poly = LaurentPolynomial(coords, {v: 1 for v in vecs})
    else:
        coords = tuple(range(1, len(word) + 1))
        terms = {}
        for k, letter in enumerate(word, start=1):
            if letter == a:
                terms[tuple(int(m == k) for m in range(1, len(word) + 1))] = 1
        poly = LaurentPolynomial(coords, terms)
    if not all(c == 1 for _, c in poly.terms):
        raise AssertionError("crossing polynomials have unit coefficients")
    if not all(e in (-1, 0, 1) for exp, _ in poly.terms for e in exp):
        raise AssertionError("crossing polynomial exponents stay within -1..1")
    return poly


def _point_on(coords, point) -> dict:
    vals = {}
    for label in coords:
        if label not in point:
            raise ValueError(f"point is missing coordinate {label}")
        v = Fraction(point[label])
        if v <= 0:
            raise ValueError("point entries must be positive")
        vals[label] = v
    if len(point) != len(vals):
        raise ValueError("point has extra coordinates")
    return vals


def _eval_lift(rule, i, j, point) -> dict:
    i, j = tuple(i), tuple(j)
    vals = _point_on(convex_order(i), point).values()
    return dict(zip(convex_order(j), _transport(rule, _RATIONALS, i, j, vals)))


def eval_trl(i, j, point) -> dict:
    """Transport a positive tile-coordinate point by the additive lift.

    This is the additive flip rule of the lusztig module over the rationals;
    over min-plus the same rule is the transition map for Lusztig data.  The
    rule is an involution, so paths i -> j -> i restore the point.
    """
    return _eval_lift(_additive_flip, i, j, point)


def eval_trs(i, j, point) -> dict:
    """Transport a positive tile-coordinate point by the multiplicative lift.

    This is the multiplicative flip rule of the lusztig module over the
    rationals.  It is chirality-sensitive: the right form inverts the left,
    so round trips are exact identities.  The crossing polynomials r_a are
    invariant under this transport.
    """
    return _eval_lift(_multiplicative_flip, i, j, point)


def transform_check_rtrans(a, i, j, points) -> dict:
    """Check r_a(x) = r_a(trs x) and the word-coordinate twin along i -> j.

    points are positive tile-coordinate points on i's torus; the check is
    exact at every point and any mismatch is reported (none is expected).
    """
    i, j = tuple(i), tuple(j)
    r_i, r_j = reineke_poly(i, a), reineke_poly(j, a)
    rw_i, rw_j = reineke_poly(i, a, dual=False), reineke_poly(j, a, dual=False)
    order_i, order_j = convex_order(i), convex_order(j)
    failures = []
    checked = 0
    for point in points:
        x = _point_on(order_i, point)
        checked += 1
        lhs = r_i.eval(x)
        rhs = r_j.eval(eval_trs(i, j, x))
        if lhs != rhs:
            failures.append(("dual", dict(x), lhs, rhs))
        pos_x = {k: x[pair] for k, pair in enumerate(order_i, start=1)}
        y = eval_trl(i, j, x)
        pos_y = {k: y[pair] for k, pair in enumerate(order_j, start=1)}
        lhs = rw_i.eval(pos_x)
        rhs = rw_j.eval(pos_y)
        if lhs != rhs:
            failures.append(("plain", dict(x), lhs, rhs))
    return {"a": a, "words": (i, j), "points": checked, "failures": failures, "ok": not failures}


@lru_cache(maxsize=_PER_WORD)
def _off_left_vertices(word: tuple[int, ...]) -> tuple:
    tiling = build_tiling(word)
    prefixes = {tuple(range(1, k + 1)) for k in range(tiling.n + 1)}
    return tuple(sorted(v for v in tiling.vertices if v not in prefixes))


@lru_cache(maxsize=_PER_WORD)
def quiver(word) -> ExchangeQuiver:
    """The exchange quiver of a word's tiling.

    Vertices are the tiling vertices off the left boundary; every tile whose
    left corner is such a vertex contributes a diagonal arrow left -> right,
    and tile edges are oriented so that both triangles right -> upper -> left
    and right -> lower -> left close into cycles with it.  Edges whose two
    neighbouring tiles disagree are dropped, as are arrows between frozen
    (right boundary) vertices.

    >>> quiver((1, 2, 1)).arrows
    (((2,), (3,)), ((2, 3), (2,)))
    """
    word = tuple(word)
    tiling = build_tiling(word)
    verts = _off_left_vertices(word)
    vset = set(verts)
    frozen = frozenset(tiling.boundary_cycle[tiling.n + 1 :])
    arrows = []
    demands = {}
    for tile in tiling.tiles:
        lo, le, ri, up = tile.lower, tile.left, tile.right, tile.upper
        if le in vset:
            arrows.append((le, ri))
        for src, dst in ((ri, up), (up, le), (ri, lo), (lo, le)):
            demands.setdefault(tuple(sorted((src, dst))), set()).add((src, dst))
    for dirs in demands.values():
        if len(dirs) != 1:
            continue
        src, dst = next(iter(dirs))
        if src in vset and dst in vset:
            arrows.append((src, dst))
    arrows = [(s, d) for s, d in arrows if not (s in frozen and d in frozen)]
    return ExchangeQuiver(verts, frozen, tuple(sorted(arrows)))


def is_optimized(word, a) -> bool:
    """Whether the tile [a, a+1] meets the right boundary in two edges.

    Equivalently the word is commutation-equivalent to one ending in n-a, and
    the potential restricted through this word's chamber coordinates is a
    single monomial.

    >>> is_optimized((1, 2, 1), 2)
    True
    >>> is_optimized((1, 2, 1), 1)
    False
    """
    word = tuple(word)
    tiling = build_tiling(word)
    n = tiling.n
    if not 1 <= a <= n - 1:
        raise ValueError("a must lie in 1..n-1")
    right = {tiling.boundary_edge(k) for k in range(n + 1, 2 * n + 1)}
    tile = tiling.by_pair[(a, a + 1)]
    return sum(e in right for e in tile.edges) == 2


@lru_cache(maxsize=_PER_WORD)
def chamber_ansatz_dual(word) -> MonomialMap:
    """Tile coordinates -> off-left-boundary vertex coordinates.

    The exponent of tile T in the v-component is -1 when v is the left or
    right corner of T, +1 when v is the upper or lower corner, else 0.  The
    matrix is square and triangular with unit pivots up to the order of its
    rows and columns (checked by the inverse), so the map is invertible.
    """
    word = tuple(word)
    tiling = build_tiling(word)
    verts = _off_left_vertices(word)
    vidx = {v: m for m, v in enumerate(verts)}
    pairs = convex_order(word)
    rows = [[0] * len(pairs) for _ in verts]
    for t, pair in enumerate(pairs):
        # tile corners in the order lower, left, right, upper
        for v, e in zip(tiling.by_pair[pair].vertices, (1, -1, -1, 1)):
            if v in vidx:
                rows[vidx[v]][t] = e
    mm = MonomialMap(pairs, verts, rows)
    _unimodular_inverse(mm)
    return mm


@lru_cache(maxsize=_PER_WORD)
def neighbour_ansatz(word) -> MonomialMap:
    """Vertex coordinates -> tile coordinates, tile T reading left/right.

    Each tile coordinate is the ratio of the values at its left and right
    corners; left corners on the left boundary count as 1 and contribute no
    exponent.
    """
    word = tuple(word)
    tiling = build_tiling(word)
    verts = _off_left_vertices(word)
    vidx = {v: m for m, v in enumerate(verts)}
    pairs = convex_order(word)
    rows = []
    for pair in pairs:
        tile = tiling.by_pair[pair]
        row = [0] * len(verts)
        if tile.left in vidx:
            row[vidx[tile.left]] += 1
        if tile.right not in vidx:
            raise AssertionError("right corners never sit on the left boundary")
        row[vidx[tile.right]] -= 1
        rows.append(tuple(row))
    return MonomialMap(verts, pairs, tuple(rows))


@lru_cache(maxsize=_PER_WORD)
def _unimodular_inverse(mm: MonomialMap) -> MonomialMap:
    """The inverse monomial map, dst -> src, by substitution: each step solves
    a row with one unsolved entry, which must be +-1.  The tile-vertex maps
    are triangular along the word; any other matrix raises ValueError."""
    rows, size = mm.rows, len(mm.rows)
    if len(mm.src) != size:
        raise ValueError("matrix must be square")
    unsolved = [{j: e for j, e in enumerate(row) if e} for row in rows]
    inverse = [None] * size
    for _ in range(size):
        d = next((d for d, row in enumerate(unsolved) if row and len(row) == 1), None)
        if d is None:
            raise ValueError("no row has a single unsolved entry: not triangular")
        ((j, e),) = unsolved[d].items()
        if e not in (1, -1):
            raise ValueError(f"pivot {e} is not a unit")
        # x_j = e * (y_d - the solved terms of row d), since 1 / e = e
        inverse[j] = [e * (i == d) for i in range(size)]
        for i, c in enumerate(rows[d]):
            if c and i != j:
                inverse[j] = [o - e * c * v for o, v in zip(inverse[j], inverse[i])]
        unsolved[d] = None
        for row in filter(None, unsolved):
            row.pop(j, None)
    return MonomialMap(mm.dst, mm.src, inverse)


def ghkk_restriction(word, a) -> LaurentPolynomial:
    """The a-th potential summand on vertex coordinates.

    This is r_a rewritten through the inverse of the dual chamber matrix;
    the result has unit coefficients, exponents in {0, -1}, and no constant
    term (all checked, also under python -O).  For words optimized for a it
    collapses to the single monomial 1/x_{(a+1, ..., n)}.

    >>> ghkk_restriction((2, 1, 2), 1)
    x[2,3]^-1
    >>> ghkk_restriction((1, 2, 1), 2)
    x[3]^-1
    """
    word = tuple(word)
    mm = chamber_ansatz_dual(word)
    poly = _unimodular_inverse(mm).pullback(reineke_poly(word, a))
    if not all(c == 1 for _, c in poly.terms):
        raise AssertionError("potential coefficients are 1")
    if not all(e in (0, -1) for exp, _ in poly.terms for e in exp):
        raise AssertionError("potential exponents are 0 or -1")
    if not all(any(exp) for exp, _ in poly.terms):
        raise AssertionError("potentials have no constant term")
    if is_optimized(word, a):
        n = rank_of_word(word)
        suffix = tuple(range(a + 1, n + 1))
        expected = tuple(-1 if v == suffix else 0 for v in mm.dst)
        if poly.terms != ((expected, 1),):
            raise AssertionError("optimized words give a single monomial")
    return poly


def bk_identity_check(word, u) -> dict:
    """Evaluate r_a at the neighbour ratios of chamber minors and compare.

    The torus point reads the chamber minor of u at every off-left-boundary
    vertex; pushing it through the neighbour map and into r_a must reproduce
    the minor ratio bk_value(u, a) for every a, exactly.  Matrices with a
    vanishing minor at some vertex are excluded (reported, not checked).
    """
    word = tuple(word)
    if not isinstance(u, UnitriangularMatrix):
        u = UnitriangularMatrix(u)
    tiling = build_tiling(word)
    if u.n != tiling.n:
        raise ValueError("matrix size must match the word's rank")
    t = {v: chamber_minor(u, v) for v in _off_left_vertices(word)}
    if any(val == 0 for val in t.values()):
        return {"word": word, "excluded": True, "failures": [], "ok": True}
    x = neighbour_ansatz(word).apply(t)
    failures = []
    for a in range(1, tiling.n):
        lhs = reineke_poly(word, a).eval(x)
        rhs = bk_value(u, a)
        if lhs != rhs:
            failures.append((a, lhs, rhs))
    return {"word": word, "excluded": False, "failures": failures, "ok": not failures}


def tropical_cone(poly: LaurentPolynomial) -> Cone:
    """Min-plus shadow of a positive-coefficient Laurent polynomial.

    Products become sums of exponents and sums become minima, so the locus
    where the tropicalized function is nonnegative is cut out by one row per
    monomial.

    >>> tropical_cone(reineke_poly((2, 1, 2), 2)).inequalities()
    ['v[1,3] - v[1,2] >= 0', 'v[2,3] >= 0']
    """
    if any(c <= 0 for _, c in poly.terms):
        raise ValueError("tropicalization needs positive coefficients")
    return Cone(poly.coords, tuple(sorted(set(poly.exponents()))))


def _box_points(dim, box, cap, rng):
    total = (2 * box + 1) ** dim
    if total <= cap:
        yield from product(range(-box, box + 1), repeat=dim)
    else:
        # the values of rng.randint(-box, box), without its argument checks;
        # tests/test_potentials.py compares the two draws
        draw, width = rng._randbelow, 2 * box + 1
        for _ in range(cap):
            yield tuple([draw(width) - box for _ in range(dim)])


def _sparse(rows) -> tuple:
    """Integer rows as tuples of their nonzero (index, coefficient) pairs."""
    return tuple(tuple((i, c) for i, c in enumerate(row) if c) for row in rows)


def _through(rows, mm: MonomialMap) -> tuple:
    """Cone rows on mm.dst as rows on mm.src: z satisfies them iff mm.trop(z) does."""
    cols = list(zip(*mm.rows))
    return tuple(tuple(sum(r * e for r, e in zip(row, col)) for col in cols) for row in rows)


def _inside(rows, z) -> bool:
    """Whether z satisfies every sparse row, stopping at the first failure."""
    for row in rows:
        total = 0
        for i, c in row:
            total += c * z[i]
        if total < 0:
            return False
    return True


def cone_correspondence_check(word, box=2, points=20, seed=0, cap=200000) -> dict:
    """Compare the potential cone, the string cone, and the minor-ratio cone.

    On integer points with coordinates in -box..box (sampled once the box
    holds more than cap points) this checks that membership in the potential
    cone matches membership of the chamber-inverse image in the string cone,
    and that membership in the string cone matches membership of the
    neighbour-inverse image in the minor-ratio cone (tested through cone rows
    composed with the inverse maps, exactly, once per word).  On top of that
    the composite identity r_a = (potential after chamber map) on neighbour
    images is verified at seeded positive rational points.
    """
    word = tuple(word)
    n = rank_of_word(word)
    rng = random.Random(f"{seed}:{word}")
    ca = chamber_ansatz_dual(word)
    scone = string_cone(word)
    polys = [reineke_poly(word, a) for a in range(1, n)]
    restrictions = [ghkk_restriction(word, a) for a in range(1, n)]
    pot_rows = {exp for w in restrictions for exp in w.exponents()}
    io = neighbour_ansatz(word)
    bk_rows = {exp for r in polys for exp in io.pullback(r).exponents()}
    pot = _sparse(pot_rows)
    string_via_ca = _sparse(_through(scone.rows, _unimodular_inverse(ca)))
    string = _sparse(scone.rows)
    bk_via_io = _sparse(_through(bk_rows, _unimodular_inverse(io)))
    failures = []
    lattice = 0
    for z in _box_points(len(word), box, cap, rng):
        lattice += 1
        if _inside(pot, z) != _inside(string_via_ca, z):
            failures.append(("potential-vs-string", z))
        if _inside(string, z) != _inside(bk_via_io, z):
            failures.append(("string-vs-minor", z))
    for _ in range(points):
        t = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in ca.dst}
        x = io.apply(t)
        zz = ca.apply(x)
        for r, w in zip(polys, restrictions):
            if r.eval(x) != w.eval(zz):
                failures.append(("composite", t))
                break
    return {
        "word": word,
        "box": box,
        "lattice_points": lattice,
        "rational_points": points,
        "failures": failures[:20],
        "ok": not failures,
    }


def eval_cluster_mutation(kind, i, j, point) -> dict:
    """Transport a positive seed-torus point along the flips of braid_steps(i, j).

    braid_steps gives the interior vertex of each hexagon before and after
    its flip; the result does not depend on which flip path is taken.  kind
    "A" mutates vertex values by the exchange rule: the inner vertex of each
    flipped hexagon is replaced by (product over in-arrows + product over
    out-arrows) divided by the old value, arrows counted in the quiver
    before the flip.  kind "X" inverts the inner value and rescales every
    neighbour v by (1 + x_k^{-sign e})^{-e} with e the signed arrow count
    from v to the inner vertex.  Every step checks its commuting square, and
    raises AssertionError (also under python -O) if it fails: the neighbour
    map intertwines "A" steps with the multiplicative lift, and the dual
    chamber map intertwines the lift with "X" steps.
    """
    i, j = tuple(i), tuple(j)
    if kind not in ("A", "X"):
        raise ValueError("kind must be 'A' or 'X'")
    vals = _point_on(_off_left_vertices(i), point)
    for pairs, left_form, inner, ninner, w, w2 in braid_steps(i, j):
        q = quiver(w)
        if kind == "A":
            top = bot = Fraction(1)
            for v in q.vertices:
                e = q.eps(v, inner)
                if e > 0:
                    top *= vals[v] ** e
                elif e < 0:
                    bot *= vals[v] ** -e
            new = dict(vals)
            del new[inner]
            new[ninner] = (top + bot) / vals[inner]
            lhs = neighbour_ansatz(w2).apply(new)
            rhs = neighbour_ansatz(w).apply(vals)
            lifted = _multiplicative_flip(_RATIONALS, *map(rhs.get, pairs), left_form)
            rhs.update(zip(pairs, lifted))
            if lhs != rhs:
                raise AssertionError("vertex exchange must match the lift through neighbours")
        else:
            new = {}
            for v in q.vertices:
                if v == inner:
                    continue
                e = q.eps(v, inner)
                if e == 0:
                    new[v] = vals[v]
                elif e > 0:
                    new[v] = vals[v] * (1 + 1 / vals[inner]) ** -e
                else:
                    new[v] = vals[v] * (1 + vals[inner]) ** -e
            new[ninner] = 1 / vals[inner]
            x = _unimodular_inverse(chamber_ansatz_dual(w)).apply(vals)
            lifted = _multiplicative_flip(_RATIONALS, *map(x.get, pairs), left_form)
            x.update(zip(pairs, lifted))
            if chamber_ansatz_dual(w2).apply(x) != new:
                raise AssertionError("coefficient mutation must match the lift through chambers")
        vals = new
    return vals
