"""String data, the string crystal operator, and string cones.

The string datum of a Lusztig datum x anchored to i = (i_1, ..., i_N) is the
vector (c_1, ..., c_N) with c_k = eps_{i_k} of the current element, which is
then raised by e_{i_k} that many times; after the last step nothing remains.
The string operator acts on these vectors directly: among positions j with
i_j = a it increments the smallest one maximizing

    nu_j(s) = s_j + sum_{j < t <= N} <h_{i_j}, alpha_{i_t}> s_t,

and this matches the starred operator on the Lusztig side, datum by datum.

The set of all string data of a word is cut out by the dual Reineke vectors:
s is a string datum iff <r, s> >= 0 for every dual Reineke vector r of the
word's tiling, coordinates read in the word's root order.

polar_duality_check computes string data for thousands of data of one
word, and their recursions meet: many data reach the same state (k, values)
after k steps.  The check keeps one dict of tails, (k, values) -> (c_{k+1},
..., c_N) for k >= 1, for its whole search, so each tail is computed once;
the dict is local to the check and freed when it returns.  cone_points walks
the coordinates depth-first and drops a prefix as soon as some row cannot
reach >= 0 even with the most the remaining coordinates can add, instead of
filtering all (box + 1)^N points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .crossings import crystal_op, dual_crystal_op, reineke_vectors
from .lusztig import LusztigDatum
from .tiling import build_tiling
from .words import cartan_pairing, convex_order, is_reduced_word, rank_of_word

__all__ = [
    "StringDatum",
    "Cone",
    "string_datum",
    "string_op_f",
    "string_cone",
    "cone_points",
    "polar_duality_check",
]


@dataclass(frozen=True)
class StringDatum:
    """An integer vector in the position coordinates of its anchor word."""

    word: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if len(self.values) != len(self.word):
            raise ValueError("one coordinate per word position")

    @property
    def n(self) -> int:
        return rank_of_word(self.word)


@dataclass(frozen=True)
class Cone:
    """{v : <row, v> >= 0 for all rows}, coordinates labeled by coords."""

    coords: tuple
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        object.__setattr__(
            self, "rows", tuple(tuple(int(c) for c in row) for row in self.rows)
        )
        if any(len(row) != len(self.coords) for row in self.rows):
            raise ValueError("rows must have one entry per coordinate")

    def contains(self, vec) -> bool:
        vec = tuple(vec)
        if len(vec) != len(self.coords):
            raise ValueError("vector arity mismatch")
        return all(sum(c * v for c, v in zip(row, vec)) >= 0 for row in self.rows)

    def inequalities(self) -> list[str]:
        """Human-readable rows, one '... >= 0' line per row."""
        out = []
        for row in self.rows:
            terms = []
            for c, label in zip(row, self.coords):
                if c == 0:
                    continue
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                if isinstance(label, tuple):
                    name = f"v[{','.join(map(str, label))}]"
                else:
                    name = f"v[{label}]"
                terms.append(("- " if c < 0 else "+ ") + mag + name)
            lead = " ".join(terms).lstrip("+ ") or "0"
            out.append(f"{lead} >= 0")
        return out


def string_datum(x: LusztigDatum) -> StringDatum:
    """Read off eps_{i_k} along the word while raising by e_{i_k} each time.

    The element must be exhausted at the end; a nonzero residue would mean a
    broken operator and raises AssertionError.

    >>> string_datum(LusztigDatum((1, 2, 1), (0, 0, 1))).values
    (0, 1, 0)
    """
    return StringDatum(x.word, _string_values(x, {}))


def _string_values(x: LusztigDatum, tails: dict) -> tuple[int, ...]:
    """The string values of x, sharing tails with earlier calls on x's word.

    tails maps (k, values) for k >= 1, the state after the first k steps, to
    the rest (c_{k+1}, ..., c_N) of the string datum; the caller owns it and
    keeps it to one word.  Position 0 is not memoised: most distinct states
    sit there, so a memo of them would hold the most memory.  The residue
    check runs on every path that reaches the end, so a memo hit skips no
    check.
    """
    cur, head, keys = x, [], []
    tail = ()
    for k, a in enumerate(x.word):
        if k:
            key = (k, cur.values)
            if key in tails:
                tail = tails[key]
                break
            keys.append(key)
        c = crystal_op("eps", a, cur)
        for _ in range(c):
            cur = crystal_op("e", a, cur)
        head.append(c)
    else:
        if any(cur.values):
            raise AssertionError(f"string recursion left a residue at {x}")
    for key, c in zip(reversed(keys), reversed(head)):
        tail = (c,) + tail
        tails[key] = tail
    return tuple(head[:1]) + tail


def string_op_f(a: int, s: StringDatum) -> StringDatum:
    """Increment the smallest position j with i_j = a maximizing nu_j.

    >>> string_op_f(2, StringDatum((1, 2, 1), (0, 0, 0))).values
    (0, 1, 0)
    >>> string_op_f(1, StringDatum((1, 2, 1), (0, 1, 0))).values
    (0, 1, 1)
    """
    word, vals = s.word, s.values
    n_pos = len(word)
    best = None
    best_j = None
    for j in range(n_pos):
        if word[j] != a:
            continue
        nu = vals[j] + sum(
            cartan_pairing(word[j], word[t]) * vals[t] for t in range(j + 1, n_pos)
        )
        if best is None or nu > best:
            best, best_j = nu, j
    if best_j is None:
        raise ValueError(f"letter {a} does not occur in the word")
    return StringDatum(word, tuple(v + (j == best_j) for j, v in enumerate(vals)))


@lru_cache(maxsize=1024)
def string_cone(word: tuple[int, ...]) -> Cone:
    """Cone of all string data: rows are the dual Reineke vectors of the word.

    The cache keeps 1024 cones, like tiling.build_tiling, more than the 768
    words of n = 5.

    >>> string_cone((2, 1, 2)).rows
    ((0, 0, 1), (0, 1, -1), (1, 0, 0))
    """
    word = tuple(word)
    n = rank_of_word(word)
    if not is_reduced_word(word, n):
        raise ValueError("anchor must be a reduced word")
    tiling = build_tiling(word)
    rows = set()
    for a in range(1, n):
        rows |= reineke_vectors(tiling, a, dual=True)
    return Cone(convex_order(word), tuple(sorted(rows)))


def cone_points(cone: Cone, box: int) -> set[tuple[int, ...]]:
    """Integer points of the cone with all coordinates in {0, ..., box}.

    Walks the coordinates depth-first and drops a prefix as soon as some row
    cannot reach >= 0, even if every remaining coordinate adds
    box * max(0, c).  Points are found in lexicographic order.

    >>> sorted(cone_points(Cone((1, 2), ((1, -1),)), 1))
    [(0, 0), (1, 0), (1, 1)]
    """
    if box < 0:
        raise ValueError(f"box must be nonnegative, got {box}")
    dim = len(cone.coords)
    cols = [tuple(row[k] for row in cone.rows) for k in range(dim)]
    # reach[k][r]: the most that coordinates k, ..., dim - 1 can add to row r
    reach = [(0,) * len(cone.rows)]
    for col in reversed(cols):
        reach.append(tuple(r + box * max(0, c) for r, c in zip(reach[-1], col)))
    reach.reverse()
    points = set()

    def walk(k, prefix, sums):
        if k == dim:
            points.add(prefix)
            return
        col, rest = cols[k], reach[k + 1]
        for v in range(box + 1):
            new = [s + v * c for s, c in zip(sums, col)]
            if all(s + r >= 0 for s, r in zip(new, rest)):
                walk(k + 1, prefix + (v,), new)

    walk(0, (), [0] * len(cone.rows))
    return points


def polar_duality_check(word, box: int = 4, depth: int | None = None) -> dict:
    """Match f*-reachable string data against the cone, both directions.

    Searches the crystal from the origin by starred operators, keeping only
    elements whose string datum stays inside the box (string data grow by a
    unit step per application, so nothing inside the box is lost).  Checks:

      a. every reached string datum satisfies all cone rows;
      b. every integer cone point in the box is reached;
      c. each search step changes the datum by a unit vector e_k with
         i_k = a, and agrees with the direct string operator.

    Returns a report dict; "ok" is True when all three hold exactly.  A
    negative box raises ValueError, from cone_points.
    """
    word = tuple(word)
    n = rank_of_word(word)
    cone = string_cone(word)
    failures = []

    tails: dict = {}
    zero = LusztigDatum(word, (0,) * len(word))
    s_zero = _string_values(zero, tails)
    reached = {s_zero}
    frontier = [(zero, s_zero)]
    layer = 0
    while frontier and (depth is None or layer < depth):
        layer += 1
        nxt = []
        for y, s in frontier:
            sd = StringDatum(word, s)
            for a in range(1, n):
                z = dual_crystal_op("f", a, y)
                sz = _string_values(z, tails)
                step = tuple(u - v for u, v in zip(sz, s))
                unit = [k for k, d in enumerate(step) if d != 0]
                if not (len(unit) == 1 and step[unit[0]] == 1 and word[unit[0]] == a):
                    failures.append(("step", a, s, sz))
                if string_op_f(a, sd).values != sz:
                    failures.append(("string-op", a, s, sz))
                if max(sz) > box:
                    continue
                if sz not in reached:
                    reached.add(sz)
                    nxt.append((z, sz))
        frontier = nxt

    points = cone_points(cone, box)
    for s in reached:
        if s not in points:
            failures.append(("outside-cone", s))
    for p in points:
        if p not in reached:
            failures.append(("unreached", p))

    return {
        "word": word,
        "box": box,
        "reached": len(reached),
        "cone_points": len(points),
        "failures": failures,
        "ok": not failures,
    }
