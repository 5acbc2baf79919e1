"""BZ data: subset-indexed integer vectors behind MV polytopes.

A w0-normalized BZ datum assigns an integer z_S to every nonempty proper
subset S of [n] (z of the empty and full set read as 0) subject to

  * normalization: z vanishes on the suffix sets {n-a+1, ..., n};
  * edge inequalities, one per permutation sigma and letter a:
      z_{sigma[a]} + z_{sigma s_a [a]} + sum_{b != a} <alpha_a, alpha_b>
      z_{sigma[b]} <= 0;
  * tropical Pluecker relations for adjacent letters |a - b| = 1 and
    sigma with sigma s_a > sigma, sigma s_b > sigma:
      z_{sigma s_a [a]} + z_{sigma s_b [b]}
        = min(z_{sigma[a]} + z_{sigma s_a s_b [b]},
              z_{sigma[b]} + z_{sigma s_b s_a [a]}).
    For non-adjacent a, b the min degenerates and the printed relation
    fails on valid data, so only adjacent triples are constraints.

The tropical Chamber Ansatz reads a Lusztig datum off a tiling vertex-wise,
x_T = z_o + z_u - z_l - z_r over the four corners of T.  Tile k of a reduced
word retires its left corner w_{k-1}([i_k]) and brings in its right corner
w_k([i_k]), so one backward sweep along the word, from the pinned right
boundary, inverts it on the anchor word's tiling; every other subset is
reached by hexagon flips (words.braid_steps), each filling the new interior
vertex by the tropical Pluecker relation above.  Both are compiled once per
word into index arithmetic (_bz_program), with no transport: the transition
maps stay an independent route.  The crystal operator descends to the
subset side as a 0/1 decrement rule, compiled once per (n, a).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations

from .lusztig import LusztigDatum
from .tiling import build_tiling
from .words import (
    _right_multiply,
    braid_steps,
    cartan_pairing,
    compose,
    inverse,
    longest_element,
    num_positive_roots,
    permutation_of_word,
    rank_of_word,
    reduced_word_of_permutation,
)

__all__ = [
    "BZDatum",
    "proper_subsets",
    "validate_bz",
    "trop_chamber_ansatz",
    "bz_from_lusztig",
    "find_word_with_vertex",
    "bz_crystal_f",
]


@lru_cache(maxsize=None)
def proper_subsets(n: int) -> tuple[tuple[int, ...], ...]:
    """All nonempty proper subsets of [n] as sorted tuples.

    The cache is keyed by n alone, one entry per rank, so it stays unbounded.
    """
    out = []
    for k in range(1, n):
        out.extend(combinations(range(1, n + 1), k))
    return tuple(out)


@dataclass(frozen=True)
class BZDatum:
    """Integer values on the nonempty proper subsets of [n]."""

    n: int
    items: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self):
        wanted = proper_subsets(self.n)
        mapping = dict(self.items) if not isinstance(self.items, dict) else dict(self.items.items())
        mapping = {tuple(sorted(k)): int(v) for k, v in mapping.items()}
        if set(mapping) != set(wanted):
            raise ValueError("values must cover exactly the nonempty proper subsets")
        object.__setattr__(self, "items", tuple((s, mapping[s]) for s in wanted))

    @classmethod
    def _from_values(cls, n: int, values) -> BZDatum:
        """The datum with values listed in proper_subsets(n) order.

        The keys are right by construction, so the sorting and validation of
        BZDatum(...) are skipped; callers outside this module go through
        BZDatum(...).
        """
        z = object.__new__(cls)
        object.__setattr__(z, "n", n)
        object.__setattr__(z, "items", tuple(zip(proper_subsets(n), values)))
        return z

    @cached_property
    def _dict(self) -> dict[tuple[int, ...], int]:
        return dict(self.items)

    def value(self, subset) -> int:
        """z_S; the empty and full set count as 0."""
        s = tuple(sorted(subset))
        if s == () or s == tuple(range(1, self.n + 1)):
            return 0
        return self._dict[s]

    def __repr__(self):
        nz = {s: v for s, v in self.items if v}
        return f"BZDatum(n={self.n}, nonzero={nz})"


def _sigma_a(subset: tuple[int, ...], a: int) -> tuple[int, ...]:
    return tuple(sorted((set(subset) - {a}) | {a + 1}))


def _image(perm: tuple[int, ...], k: int) -> tuple[int, ...]:
    """sigma([k]) as a sorted tuple, sigma in one-line notation."""
    return tuple(sorted(perm[:k]))


def validate_bz(z: BZDatum, seed: int = 0) -> dict:
    """Check normalization, edge inequalities, and Pluecker relations.

    All permutations are swept for n <= 5; for larger n a seeded sample of
    200 is used.  Returns a report dict with any violations listed.
    """
    n = z.n
    failures = []
    for a in range(1, n):
        suffix = tuple(range(n - a + 1, n + 1))
        if z.value(suffix) != 0:
            failures.append(("normalization", suffix, z.value(suffix)))

    perms = list(permutations(range(1, n + 1)))
    if n > 5:
        import random

        perms = random.Random(seed).sample(perms, 200)

    for sigma in perms:
        for a in range(1, n):
            lhs = z.value(_image(sigma, a)) + z.value(_image(_right_multiply(sigma, a), a))
            for b in range(1, n):
                if b != a:
                    lhs += cartan_pairing(a, b) * z.value(_image(sigma, b))
            if lhs > 0:
                failures.append(("edge", sigma, a, lhs))
        for a in range(1, n):
            for b in (a - 1, a + 1):
                if not 1 <= b < n or not (sigma[a - 1] < sigma[a] and sigma[b - 1] < sigma[b]):
                    continue
                sig_a = _right_multiply(sigma, a)
                sig_b = _right_multiply(sigma, b)
                lhs = z.value(_image(sig_a, a)) + z.value(_image(sig_b, b))
                rhs = min(
                    z.value(_image(sigma, a)) + z.value(_image(_right_multiply(sig_a, b), b)),
                    z.value(_image(sigma, b)) + z.value(_image(_right_multiply(sig_b, a), a)),
                )
                if lhs != rhs:
                    failures.append(("pluecker", sigma, a, b, lhs, rhs))
    return {"n": n, "failures": failures, "ok": not failures}


def trop_chamber_ansatz(z: BZDatum, word) -> LusztigDatum:
    """Read the Lusztig datum of a word off a BZ datum, tile by tile.

    >>> zero = BZDatum(3, {s: 0 for s in proper_subsets(3)})
    >>> trop_chamber_ansatz(zero, (1, 2, 1)).values
    (0, 0, 0)
    """
    word = tuple(word)
    tiling = build_tiling(word)
    vals = []
    for tile in tiling.tiles:
        s, t = tile.pair
        base = set(tile.base)
        x = (
            z.value(base | {s, t})
            + z.value(base)
            - z.value(base | {s})
            - z.value(base | {t})
        )
        if x < 0:
            raise AssertionError(f"negative coordinate at {tile}: invalid BZ datum")
        vals.append(x)
    return LusztigDatum(word, tuple(vals))


@lru_cache(maxsize=None)
def find_word_with_vertex(subset: tuple[int, ...], n: int) -> tuple[int, ...]:
    """A reduced word whose tiling has v_subset among its vertices.

    Factor the longest element through the permutation u sending an initial
    block to the subset (ascending): l(u) + l(u^-1 w0) = l(w0) for every u,
    so the word is reduced, and its prefix u makes the subset a chamber set.
    _bz_program walks the flips toward these words once per anchor word, at
    compile time; no evaluation calls it.  The cache holds at most 2^n - 2
    words per rank n, so it stays unbounded.
    """
    subset = tuple(sorted(subset))
    if not subset or len(subset) >= n:
        raise ValueError("subset must be nonempty and proper")
    block = list(subset) + sorted(set(range(1, n + 1)) - set(subset))
    u = tuple(block)
    head = reduced_word_of_permutation(u)
    tail = reduced_word_of_permutation(compose(inverse(u), longest_element(n)))
    word = head + tail
    if not (
        permutation_of_word(word, n) == longest_element(n)
        and len(word) == num_positive_roots(n)
        and subset in build_tiling(word).vertices
    ):
        raise AssertionError(f"{word} misses the vertex {subset}")
    return word


@lru_cache(maxsize=8192)
def _shared(entry: tuple) -> tuple:
    """entry, or an equal tuple passed before: the programs of different words
    share their equal sweep and flip steps.  At n = 5 the 768 programs hold
    7680 sweep steps and 16207 flip steps, of which 200 and 113 are distinct."""
    return entry


@lru_cache(maxsize=1024)
def _bz_program(word: tuple[int, ...]) -> tuple:
    """bz_from_lusztig for one anchor word, compiled to index arithmetic.

    Values live in one list: the subsets in proper_subsets(n) order, then
    the empty and the full set, both 0.  The program is (sweep, steps):

      * sweep: (left, upper, lower, right, k) per tile k of the anchor
        tiling, last tile first, meaning z_left = z_upper + z_lower - z_right
        - x_k.  Tile k's right corner w_k([i_k]) and its upper and lower
        corners are chamber sets of w_k, so the sweep starts from the pinned
        right boundary (the empty, full and suffix sets) and every step
        fills the one corner w_{k-1}([i_k]) that the tile retires;
      * steps: (p, p2, q, q2, old, new, check) per hexagon flip, meaning
        z_new = min(z_p + z_p2, z_q + z_q2) - z_old.  For the roots (s,t),
        (s,u), (t,u) of the hexagon with base B, the interior vertices are
        B+t and B+su, and (p, p2, q, q2) are B+s, B+tu, B+st, B+u: the
        tropical Pluecker relation of validate_bz.  A flip whose new vertex
        is already known is a check step, and a flip whose six slots repeat
        an earlier step's is dropped.

    The flips walk braid_steps from the word to find_word_with_vertex(S)
    for each subset S still unknown; a walk ends on a tiling that has S as
    a vertex, so every subset is filled.  A sweep step that reads an unknown
    slot or writes a known one raises AssertionError (also under python -O).
    The cache keeps 1024 programs, like tiling.build_tiling, more than the
    768 words of n = 5.
    """
    n = rank_of_word(word)
    subsets = proper_subsets(n)
    slot = {subset: k for k, subset in enumerate(subsets)}
    slot[()] = len(subsets)
    slot[tuple(range(1, n + 1))] = len(subsets) + 1
    known = {len(subsets), len(subsets) + 1}
    known |= {slot[tuple(range(k, n + 1))] for k in range(2, n + 1)}
    sweep = []
    for k, tile in reversed(list(enumerate(build_tiling(word).tiles))):
        left, *reads = (slot[v] for v in (tile.left, tile.upper, tile.lower, tile.right))
        if left in known or not known.issuperset(reads):
            raise AssertionError(f"the sweep at {tile} writes a known or reads an unknown vertex")
        known.add(left)
        sweep.append(_shared((left, *reads, k)))
    steps, seen = [], set()
    for subset in subsets:
        if slot[subset] in known:
            continue
        target = find_word_with_vertex(subset, n)
        for ((s, t), _, (_, u)), _, inner, ninner, _, _ in braid_steps(word, target):
            base = set(inner) - {s, t, u}
            inputs = tuple(
                slot[tuple(sorted(base | extra))] for extra in ({s}, {t, u}, {s, t}, {u})
            )
            key = (*inputs, slot[inner], slot[ninner])
            if key in seen:
                continue
            if not known.issuperset(key[:5]):
                raise AssertionError(f"flip to {ninner} reads an unknown vertex")
            seen.add(key)
            steps.append(_shared((*key, key[5] in known)))
            known.add(key[5])
        if slot[subset] not in known:
            raise AssertionError(f"the flips toward {subset} never reach it")
    return tuple(sweep), tuple(steps)


def bz_from_lusztig(x: LusztigDatum) -> BZDatum:
    """Reconstruct the BZ datum of a crystal element from one Lusztig datum.

    Runs _bz_program(x.word): the anchor tiling's vertices by one backward
    sweep along the word, then the other subsets by tropical Pluecker
    flips.  A check step, reaching an already known vertex a second way,
    must agree; it raises (also under python -O) otherwise.  No transition
    map is used.

    >>> bz_from_lusztig(LusztigDatum((1, 2, 1), (0, 0, 0)))
    BZDatum(n=3, nonzero={})
    """
    sweep, steps = _bz_program(x.word)
    n = x.n
    subsets = proper_subsets(n)
    xs = x.values
    z = [0] * (len(subsets) + 2)
    for left, upper, lower, right, k in sweep:
        z[left] = z[upper] + z[lower] - z[right] - xs[k]
    for p, p2, q, q2, old, new, check in steps:
        val = min(z[p] + z[p2], z[q] + z[q2]) - z[old]
        if not check:
            z[new] = val
        elif z[new] != val:
            raise AssertionError(f"inconsistent value at {subsets[new]}: {z[new]} vs {val}")
    return BZDatum._from_values(n, z[: len(subsets)])


@lru_cache(maxsize=None)
def _f_program(n: int, a: int) -> tuple:
    """bz_crystal_f's slots in proper_subsets(n) order: [a], sigma_a [a], and
    (S, sigma_a S) for each S holding a but not a + 1.

    The cache holds n - 1 programs per rank n, so it stays unbounded.
    """
    slot = {subset: k for k, subset in enumerate(proper_subsets(n))}
    head = tuple(range(1, a + 1))
    pairs = tuple(
        (k, slot[_sigma_a(subset, a)])
        for subset, k in slot.items()
        if a in subset and a + 1 not in subset
    )
    return slot[head], slot[_sigma_a(head, a)], pairs


def bz_crystal_f(a: int, z: BZDatum) -> BZDatum:
    """Apply f_a on the subset side.

    z_S drops by 1 exactly when a is in S, a+1 is not, and the difference
    z_S - z_{sigma_a S} meets its upper bound z_{[a]} - z_{sigma_a [a]};
    the bound itself is checked, and the equivalent max-form decrement
    max(0, z_S - z_{sigma_a S} + z_{sigma_a [a]} - z_{[a]} + 1) is computed
    independently and checked equal, by raises that also run under python -O.
    """
    n = z.n
    if not 1 <= a <= n - 1:
        raise ValueError(f"a must lie in [n-1] = [{n - 1}]")
    head, sigma_head, pairs = _f_program(n, a)
    vals = [v for _, v in z.items]
    bound = vals[head] - vals[sigma_head]
    for k, sigma_k in pairs:
        # sigma_a S holds a + 1, so no pair writes a slot that another reads
        diff = vals[k] - vals[sigma_k]
        if diff > bound:
            raise AssertionError(
                f"upper bound violated at {proper_subsets(n)[k]}: {diff} > {bound}"
            )
        dec = 1 if diff >= bound else 0
        if dec != max(0, diff - bound + 1):
            raise AssertionError("decrement forms disagree")
        vals[k] -= dec
    return BZDatum._from_values(n, vals)
