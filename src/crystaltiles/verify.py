"""The verification suites behind `crystaltiles verify`.

Each suite re-checks one family of the package identities on seeded random
instances of S_n.  A suite body takes (n, seed, rng) and returns its number
of cases and its list of counterexample witnesses; `run` seeds rng from the
suite name, the seed and n, and turns the result into one JSON-ready report.
The same arguments always give the same reports.
"""

import random
from fractions import Fraction
from itertools import product

from .bz import bz_crystal_f, bz_from_lusztig
from .crossings import (
    crossing_table,
    crystal_op,
    dual_crystal_op,
    generate_hw_crystal,
    weyl_dimension,
)
from .lusztig import LusztigDatum, oracle_op, oracle_star_op
from .potentials import (
    UnitriangularMatrix,
    bk_identity_check,
    cone_correspondence_check,
    ghkk_restriction,
    transform_check_rtrans,
)
from .strings import POLAR_CHECK_BUDGET, polar_duality_check
from .tiling import build_tiling
from .words import convex_order, count_reduced_words, enumerate_reduced_words, star_word

__all__ = [
    "SUITE_NAMES",
    "run",
    "lattice_failures",
    "reselection_failures",
    "mirror_failures",
]


def lattice_failures(tiling, a, dual=False) -> list:
    """Pairs without a unique bound, and bounds leaving the Reineke subset."""
    rows = crossing_table(tiling, a, dual)
    up = [row.up for row in rows]
    down = [frozenset(i for i, above in enumerate(up) if k in above) for k in range(len(rows))]
    fails = []
    for i, row in enumerate(rows):
        for j in range(i, len(rows)):
            for bounds in (up, down):  # least upper bound, then greatest lower bound
                cand = bounds[i] & bounds[j]
                best = [e for e in cand if cand <= bounds[e]]
                if len(best) != 1:
                    fails.append(("missing bound", a, dual))
                elif row.reineke and rows[j].reineke and not rows[best[0]].reineke:
                    fails.append(("not a sublattice", a, dual))
    return fails


def reselection_failures(word, a, dual=False) -> list:
    """Reineke crossings that f does not re-select at the negative part of rvec."""
    word = tuple(word)
    op = dual_crystal_op if dual else crystal_op
    fails = []
    for row in crossing_table(build_tiling(word), a, dual):
        if not row.reineke:
            continue
        x = LusztigDatum(word, tuple(max(0, -v) for v in row.rvec))
        y = op("f", a, x)
        if tuple(p - q for p, q in zip(y.values, x.values)) != row.rvec:
            fails.append((list(word), a, dual, list(row.rvec)))
    return fails


def mirror_failures(word, a) -> list:
    """Dual a-crossings of T(w) and primal a-crossings of T(w*) that the other
    side lacks, as (tile pairs, strips); the tiles of w* carry the same pairs."""
    word = tuple(word)

    def keys(rows):
        return {(tuple(t.pair for t in row.crossing.tiles), row.crossing.strips) for row in rows}

    ours = keys(crossing_table(build_tiling(word), a, True))
    theirs = keys(crossing_table(build_tiling(star_word(word)), a, False))
    return [("dual only", a, *k) for k in sorted(ours - theirs)] + [
        ("mirror only", a, *k) for k in sorted(theirs - ours)
    ]


# ---------------------------------------------------------------------------
# suite bodies: (n, seed, rng) -> (cases, witnesses)


def _pick_words(n, cap, rng):
    words = enumerate_reduced_words(n)
    return sorted(rng.sample(words, cap)) if len(words) > cap else words


def _random_datum(word, rng):
    return LusztigDatum(word, tuple(rng.randint(0, 2) for _ in word))


def _crossing(n, seed, rng):
    """Crossing-formula operators against the transport oracle."""
    bad = []
    cases = 0
    for w in _pick_words(n, 8, rng):
        for _ in range(30):
            x = _random_datum(w, rng)
            for a in range(1, n):
                for kind in ("f", "e", "eps"):
                    cases += 2
                    if crystal_op(kind, a, x) != oracle_op(kind, a, x):
                        bad.append({"word": list(w), "a": a, "kind": kind, "x": list(x.values)})
                    if dual_crystal_op(kind, a, x) != oracle_star_op(kind, a, x):
                        bad.append(
                            {"word": list(w), "a": a, "kind": kind + "*", "x": list(x.values)}
                        )
    return cases, bad


def _duality(n, seed, rng):
    """String data from the starred operators against the cone lattice points,
    at box 3 or the largest box with (box + 1)^(N + 1) <= POLAR_CHECK_BUDGET."""
    box = 3
    while box and (box + 1) ** (n * (n - 1) // 2 + 1) > POLAR_CHECK_BUDGET:
        box -= 1
    bad = []
    cases = 0
    for w in _pick_words(n, 6, rng):
        rep = polar_duality_check(w, box=box)
        cases += rep["reached"]
        if not rep["ok"]:
            bad.append({"word": list(w), "failures": len(rep["failures"])})
    return cases, bad


def _am(n, seed, rng):
    """Subset functions commute with the crystal operator f."""
    bad = []
    cases = 0
    for w in _pick_words(n, 6, rng):
        for _ in range(25):
            x = _random_datum(w, rng)
            z = bz_from_lusztig(x)
            for a in range(1, n):
                cases += 1
                if bz_from_lusztig(crystal_op("f", a, x)) != bz_crystal_f(a, z):
                    bad.append({"word": list(w), "a": a, "x": list(x.values)})
    return cases, bad


def _rtrans(n, seed, rng):
    """Crossing polynomials transform through the lifts between any two words."""
    words = enumerate_reduced_words(n)
    bad = []
    cases = 0
    for _ in range(12):
        i, j = rng.choice(words), rng.choice(words)
        pts = [
            {p: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for p in convex_order(i)}
            for _ in range(4)
        ]
        for a in range(1, n):
            rep = transform_check_rtrans(a, i, j, pts)
            cases += rep["points"]
            if not rep["ok"]:
                bad.append({"words": [list(i), list(j)], "a": a})
    return cases, bad


def _ghkk(n, seed, rng):
    """Potential restrictions and the cone correspondences."""
    bad = []
    cases = 0
    for w in _pick_words(n, 6, rng):
        for a in range(1, n):
            ghkk_restriction(w, a)
        rep = cone_correspondence_check(w, box=2, points=6, seed=seed, cap=60000)
        cases += rep["lattice_points"] + rep["rational_points"]
        if not rep["ok"]:
            bad.append({"word": list(w), "failures": rep["failures"][:3]})
    return cases, bad


def _random_unitriangular(n, rng):
    rows = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for r in range(n):
        for c in range(r + 1, n):
            rows[r][c] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return UnitriangularMatrix(rows)


def _bk(n, seed, rng):
    """Minor ratios against crossing polynomials at chamber-minor points."""
    words = _pick_words(n, 6, rng)
    bad = []
    for w in words:
        done = 0
        while done < 12:
            rep = bk_identity_check(w, _random_unitriangular(n, rng))
            if rep["excluded"]:
                continue
            done += 1
            if not rep["ok"]:
                bad.append({"word": list(w), "failures": len(rep["failures"])})
    return 12 * len(words), bad


def _word_lattice_failures(word):
    tiling = build_tiling(word)
    fails = []
    for a in range(1, tiling.n):
        for dual in (False, True):
            fails += lattice_failures(tiling, a, dual) + reselection_failures(word, a, dual)
            if dual:
                fails += mirror_failures(word, a)
    return fails


def _lattice(n, seed, rng):
    """Order structure of the crossings and highest-weight crystal sizes.

    Past n = 5 the words are a seeded sample, as many as n = 5 has.  A
    word's mirror check reads the primal tables of its star word, so a word
    later than its star word is checked right after it, while those tables
    are cached; witnesses still come in word order.
    """
    words = _pick_words(n, count_reduced_words(5), rng)
    picked = set(words)
    weights = list(product(range(2), repeat=n - 1))
    bad = []
    ahead = {}
    for w in words:
        fails = ahead.pop(w, None)
        if fails is None:
            fails = _word_lattice_failures(w)
            star = star_word(w)
            if star > w and star in picked:
                ahead[star] = _word_lattice_failures(star)
        bad.extend({"word": list(w), "where": f} for f in fails)
    for lam in weights:
        size = len(generate_hw_crystal(lam, words[0]))
        want = weyl_dimension(lam)
        if size != want:
            bad.append({"lam": list(lam), "size": size, "dimension": want})
    return 2 * (n - 1) * len(words) + len(weights), bad


_SUITES = {
    "crossing": _crossing,
    "duality": _duality,
    "am": _am,
    "rtrans": _rtrans,
    "ghkk": _ghkk,
    "bk": _bk,
    "lattice": _lattice,
}
SUITE_NAMES = tuple(_SUITES)


def run(suite: str, n: int, seed: int = 0):
    """Yield the report of the named suite, or of every suite for "all".

    A report lists the case count, the number of counterexamples, the first
    ten witnesses and whether the suite passed.

    >>> [rep["ok"] for rep in run("am", 3)]
    [True]
    """
    for name in SUITE_NAMES if suite == "all" else (suite,):
        cases, bad = _SUITES[name](n, seed, random.Random(f"{name}:{seed}:{n}"))
        yield {
            "suite": name,
            "n": n,
            "seed": seed,
            "cases": cases,
            "counterexamples": len(bad),
            "witnesses": bad[:10],
            "ok": not bad,
        }
