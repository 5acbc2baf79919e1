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
word, a BFS layer at a time: f*_a runs on the whole layer as one
crossings.batch_op call per letter, and the string recursion runs once over
all the layer's images.  At each step it keeps only the distinct states,
runs eps and then e (as often as eps says) as batches over them, and the
recursions of different data meet: many reach the same state (k, values)
after k steps.  The check keeps one dict of tails, (k, values) -> (c_{k+1},
..., c_N) for k >= 1, for its whole search, so each tail is computed once;
the dict is local to the check and freed when it returns.  The string
operator reads per-word coefficient rows of the nu_j.  Lusztig and string
data are plain value tuples inside the check; LusztigDatum and StringDatum
are built only by the public functions that take or return them.
cone_points walks the coordinates depth-first and drops a prefix as soon as
some row cannot reach >= 0 even with the most the remaining coordinates can
add, instead of filtering all (box + 1)^N points.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from operator import add, ge, mul, neg, sub

from .crossings import batch_op, reineke_vectors
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
    "POLAR_CHECK_BUDGET",
]

# polar_duality_check meets each of the (box + 1)^N points of its box, and the
# string recursion raises each one by e up to box times at its first letter,
# so its work grows like (box + 1)^(N + 1).  The budget is that of n = 5 at
# box 3; the slowest inputs that `cone --polar-check` accepts, n = 2 at box
# 2047 and n = 3 at box 44, took 11 s and 1.7 s on a 2-core x86-64 box.  The
# verify duality suite shrinks its box to fit it.
POLAR_CHECK_BUDGET = 4**11


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
    (values,) = _string_batch(x.word, [x.values], {})
    return StringDatum(x.word, values)


def _string_batch(word: tuple[int, ...], values: list, tails: dict) -> list[tuple[int, ...]]:
    """The string values of each value tuple in values, by one recursion for
    all of them, sharing tails with earlier calls on the same word.

    Step k runs eps and then e, as many times as eps says, on the distinct
    states left at k, each as one batch_op call.  tails maps (k, state) for
    k >= 1, the state after the first k steps, to the rest (c_{k+1}, ...,
    c_N) of the string datum; the caller owns it and keeps it to one word.
    States found there leave the recursion.  Position 0 is not memoised:
    most distinct states sit there, so a memo of them would hold the most
    memory.  The residue check runs on every state that reaches the end, so
    a memo hit skips no check.
    """
    levels = []  # per step: (computed states, their c, their next states, memo hits)
    states = list(dict.fromkeys(values))
    for k, a in enumerate(word):
        known = {}
        if k:
            todo = []
            for state in states:
                tail = tails.get((k, state))
                if tail is None:
                    todo.append(state)
                else:
                    known[state] = tail
            states = todo
        cs = batch_op("eps", a, word, states)
        # by c, descending: the states that take a j-th e form a prefix
        ranked = sorted(zip(cs, states), reverse=True)
        cs = [c for c, _ in ranked]
        states = [state for _, state in ranked]
        cur = list(states)
        for j in range(1, max(cs, default=0) + 1):
            live = bisect_right(cs, -j, key=neg)
            cur[:live] = batch_op("e", a, word, cur[:live])
        levels.append((states, cs, cur, known))
        states = list(dict.fromkeys(cur))
    for state in states:
        if any(state):
            raise AssertionError(f"string recursion left a residue {state} on {word}")
    after = dict.fromkeys(states, ())
    for k in reversed(range(len(word))):
        states, cs, cur, known = levels[k]
        for state, c, nxt in zip(states, cs, cur):
            tail = (c,) + after[nxt]
            known[state] = tail
            if k:
                tails[k, state] = tail
        after = known
    return [after[v] for v in values]


def string_op_f(a: int, s: StringDatum) -> StringDatum:
    """Increment the smallest position j with i_j = a maximizing nu_j.

    >>> string_op_f(2, StringDatum((1, 2, 1), (0, 0, 0))).values
    (0, 1, 0)
    >>> string_op_f(1, StringDatum((1, 2, 1), (0, 1, 0))).values
    (0, 1, 1)
    """
    return StringDatum(s.word, _string_op(s.word, a, s.values))


def _string_op(word: tuple[int, ...], a: int, vals: tuple[int, ...]) -> tuple[int, ...]:
    """string_op_f on the values alone."""
    rows = _nu_rows(word).get(a)
    if rows is None:
        raise ValueError(f"letter {a} does not occur in the word")
    nus = [sum(map(mul, coeffs, vals)) for _, coeffs in rows]
    j = rows[nus.index(max(nus))][0]
    return vals[:j] + (vals[j] + 1,) + vals[j + 1 :]


@lru_cache(maxsize=1024)
def _nu_rows(word: tuple[int, ...]) -> dict[int, tuple]:
    """Per letter a, the positions j with i_j = a in ascending order, each
    with the coefficients of nu_j: 1 at j, <h_a, alpha_{i_t}> at t > j.
    Bounded like string_cone."""
    rows: dict[int, list] = {}
    for j, a in enumerate(word):
        coeffs = [0] * j + [1] + [cartan_pairing(a, b) for b in word[j + 1 :]]
        rows.setdefault(a, []).append((j, tuple(coeffs)))
    return {a: tuple(r) for a, r in rows.items()}


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
    # steps[k][v]: what coordinate k = v adds to each row
    steps = [[tuple(v * c for c in col) for v in range(box + 1)] for col in cols]
    # floor[k][r]: the least row r may hold after coordinate k, since
    # coordinates k + 1, ..., dim - 1 add at most box * max(0, c) to it
    floor = [(0,) * len(cone.rows)]
    for col in reversed(cols[1:]):
        floor.append(tuple(f - box * max(0, c) for f, c in zip(floor[-1], col)))
    floor.reverse()
    points = set()

    def walk(k, prefix, sums):
        if k == dim:
            points.add(prefix)
            return
        least = floor[k]
        for v, step in enumerate(steps[k]):
            new = tuple(map(add, sums, step))
            if all(map(ge, new, least)):
                walk(k + 1, prefix + (v,), new)

    walk(0, (), (0,) * len(cone.rows))
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
    zero = (0,) * len(word)
    (s_zero,) = _string_batch(word, [zero], tails)
    reached = {s_zero}
    frontier = [(zero, s_zero)]
    letters = range(1, n)
    layer = 0
    while frontier and (depth is None or layer < depth):
        layer += 1
        data = [y for y, _ in frontier]
        images = [batch_op("f", a, word, data, True) for a in letters]
        flat = [z for zs in images for z in zs]
        strs = _string_batch(word, flat, tails)
        per_letter = [strs[i * len(data) : (i + 1) * len(data)] for i in range(len(images))]
        nxt = []
        for k, (_, s) in enumerate(frontier):
            for a, zs, szs in zip(letters, images, per_letter):
                z, sz = zs[k], szs[k]
                step = tuple(map(sub, sz, s))
                unit = [i for i, d in enumerate(step) if d != 0]
                if not (len(unit) == 1 and step[unit[0]] == 1 and word[unit[0]] == a):
                    failures.append(("step", a, s, sz))
                if _string_op(word, a, s) != sz:
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
