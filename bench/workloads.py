"""One benchmark workload, run in a fresh interpreter.

    PYTHONPATH=src python3 bench/workloads.py --workload crosscheck --seed 1 --items 3000 --trace 0

Draws every input from the seed before any timing, imports the package, runs
the items one after another (a closed loop with a single client), checks each
output explicitly, and prints one JSON object on stdout: per-item latencies
and check counts, failures, peak RSS, and digests of the inputs and of the
results.  With --trace 1 the layer functions are wrapped by span recorders
first (see tracing.py) and the JSON also carries the per-layer statistics.

The checks are plain comparisons, never `assert`, so they hold under
`python -O`.  An item fails when it raises or when any comparison fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

N = 5  # every workload runs on reduced words for the longest element of S5
DATUM_MAX = 3  # Lusztig data entries are drawn from 0..DATUM_MAX
CROSSCHECK_WORDS = 16  # crosscheck spreads its data over this many words
STRINGS_BOX = 2
POT_MATRICES = 12  # unitriangular matrices per word for bk_identity_check
POT_CONE_CAP = 3000  # sampled lattice points for cone_correspondence_check
POT_CONE_POINTS = 4  # rational points for the composite identity
POT_RTRANS_POINTS = 3  # points per letter for transform_check_rtrans


# ---------------------------------------------------------------------------
# input generation (stdlib only: runs before the package is imported)


def all_words(n: int) -> list[tuple[int, ...]]:
    """Every reduced word for the longest element of S_n, in lexicographic order.

    Built here so that drawing inputs warms none of the package's caches.
    """
    top = tuple(range(n, 0, -1))
    out = []

    def extend(perm, word):
        if perm == top:
            out.append(word)
            return
        for a in range(1, n):
            if perm[a - 1] < perm[a]:
                nxt = list(perm)
                nxt[a - 1], nxt[a] = nxt[a], nxt[a - 1]
                extend(tuple(nxt), word + (a,))

    extend(tuple(range(1, n + 1)), ())
    return out


def root_order(word) -> list[tuple[int, int]]:
    """The word's root order (the order the package calls convex_order)."""
    perm = list(range(1, N + 1))
    roots = []
    for a in word:
        s, t = perm[a - 1], perm[a]
        roots.append((min(s, t), max(s, t)))
        perm[a - 1], perm[a] = t, s
    return roots


def off_left_vertices(word) -> list[tuple[int, ...]]:
    """Vertex labels of the word's tiling that are not left-boundary prefixes.

    The vertices are the chamber sets w_k({1..m}) of the prefix permutations
    w_k; the prefixes {1..m} themselves lie on the left boundary.
    """
    perm = list(range(1, N + 1))
    chambers = {tuple(sorted(perm[:m])) for m in range(N + 1)}
    for a in word:
        perm[a - 1], perm[a] = perm[a], perm[a - 1]
        chambers |= {tuple(sorted(perm[:m])) for m in range(N + 1)}
    prefixes = {tuple(range(1, m + 1)) for m in range(N + 1)}
    return sorted(chambers - prefixes)


def _datum(rng, word):
    return tuple(rng.randint(0, DATUM_MAX) for _ in word)


def _ratio(rng):
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def _matrix(rng):
    return tuple(
        tuple(
            Fraction(1) if r == c else Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if c > r else Fraction(0)
            for c in range(N)
        )
        for r in range(N)
    )


def draw_inputs(workload: str, seed: int, items: int) -> list:
    """The seeded items of a run: plain words, data, matrices and points."""
    rng = random.Random(f"{workload}:{seed}")
    words = all_words(N)
    if workload == "crosscheck":
        chosen = rng.sample(words, CROSSCHECK_WORDS)
        return [(w, _datum(rng, w)) for w in (chosen[k % CROSSCHECK_WORDS] for k in range(items))]
    if items > len(words):
        raise ValueError(f"{workload} draws distinct words: at most {len(words)} items")
    chosen = rng.sample(words, items)
    if workload == "wordsweep":
        return [(w, _datum(rng, w)) for w in chosen]
    if workload == "strings":
        return [(w,) for w in chosen]
    if workload == "potentials":
        out = []
        for w in chosen:
            partner = rng.choice([u for u in words if u != w])
            matrices = [_matrix(rng) for _ in range(POT_MATRICES)]
            order = root_order(w)
            points = [{p: _ratio(rng) for p in order} for _ in range(POT_RTRANS_POINTS)]
            seed_point = {v: _ratio(rng) for v in off_left_vertices(w)}
            cone_seed = rng.randrange(2**32)
            out.append((w, partner, matrices, points, seed_point, cone_seed))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:32]


def combine(digests) -> str:
    """Order-independent digest of per-item digests."""
    return digest(sorted(digests))


# ---------------------------------------------------------------------------
# workloads: each item returns (checks done, comparisons failed, result)


def _plain(res):
    """An operator result as plain data: values tuple, integer, or None."""
    return getattr(res, "values", res)


class Workloads:
    """The four workloads, bound to the package's public functions."""

    def __init__(self):
        from crystaltiles import bz, crossings, lusztig, potentials, strings

        self.bz, self.cr, self.lz, self.pot, self.st = bz, crossings, lusztig, potentials, strings

    def crosscheck(self, word, values):
        lz, cr, bz = self.lz, self.cr, self.bz
        x = lz.LusztigDatum(word, values)
        bad, out = 0, []
        for a in range(1, N):
            for kind in ("f", "e", "eps"):
                got = cr.crystal_op(kind, a, x)
                bad += got != lz.oracle_op(kind, a, x)
                got_star = cr.dual_crystal_op(kind, a, x)
                bad += got_star != lz.oracle_star_op(kind, a, x)
                out.append((_plain(got), _plain(got_star)))
        z = bz.bz_from_lusztig(x)
        out.append(z.items)
        for a in range(1, N):
            want = bz.bz_crystal_f(a, z)
            got = bz.bz_from_lusztig(cr.crystal_op("f", a, x))
            bad += got != want
            out.append(got.items)
        return 28, bad, out

    wordsweep = crosscheck

    def strings(self, word):
        rep = self.st.polar_duality_check(word, box=STRINGS_BOX)
        checks = rep["reached"] + rep["cone_points"]
        bad = (not rep["ok"]) + (rep["reached"] != rep["cone_points"])
        return checks, bad, (rep["reached"], rep["cone_points"], len(rep["failures"]))

    def potentials(self, word, partner, matrices, points, seed_point, cone_seed):
        pot = self.pot
        checks = bad = 0
        out = []
        for a in range(1, N):
            poly = pot.ghkk_restriction(word, a)
            checks += 1
            bad += not (
                poly.terms
                and all(c == 1 for _, c in poly.terms)
                and all(e in (0, -1) for exp, _ in poly.terms for e in exp)
                and all(any(exp) for exp, _ in poly.terms)
            )
            out.append(poly.terms)
        for rows in matrices:
            rep = pot.bk_identity_check(word, pot.UnitriangularMatrix(rows))
            out.append(rep["excluded"])
            if not rep["excluded"]:
                checks += N - 1
                bad += len(rep["failures"])
        rep = pot.cone_correspondence_check(
            word, box=2, points=POT_CONE_POINTS, seed=cone_seed, cap=POT_CONE_CAP
        )
        checks += rep["lattice_points"] + rep["rational_points"]
        bad += len(rep["failures"]) + (not rep["ok"])
        out.append((rep["lattice_points"], rep["rational_points"]))
        for a in range(1, N):
            rep = pot.transform_check_rtrans(a, word, partner, points)
            checks += 2 * rep["points"]
            bad += len(rep["failures"]) + (not rep["ok"])
        for kind in ("A", "X"):
            there = pot.eval_cluster_mutation(kind, word, partner, seed_point)
            back = pot.eval_cluster_mutation(kind, partner, word, there)
            checks += 2
            bad += back != seed_point
            bad += not all(v > 0 for v in there.values())
            out.append(sorted(there.items()))
        return checks, bad, out


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, items: int, trace: bool) -> dict:
    inputs = draw_inputs(workload, seed, items)
    input_digest = digest(inputs)

    import crystaltiles.cli  # noqa: F401  (load every module, as the CLI does)

    src = Path(sys.modules["crystaltiles"].__file__).resolve().parent.parent
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    wl = Workloads()
    fn = getattr(wl, workload)

    latencies, checks, item_digests, errors = [], [], [], []
    failed = 0
    clock = time.perf_counter
    for k, args in enumerate(inputs):
        t0 = clock()
        try:
            done, bad, result = fn(*args)
        except Exception:
            done, bad, result = 0, 1, None
            if len(errors) < 5:
                errors.append({"item": k, "traceback": traceback.format_exc(limit=3)})
        t1 = clock()
        latencies.append(t1 - t0)
        checks.append(done)
        failed += bad > 0
        item_digests.append(digest((args, result)))
        if tracer is not None:
            tracer.item_span(k, t0, t1)

    report = {
        "package": str(src),
        "items": len(inputs),
        "failed": failed,
        "errors": errors,
        "latencies_s": latencies,
        "checks": checks,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "input_digest": input_digest,
        "result_digest": combine(item_digests),
    }
    if tracer is not None:
        report["trace"] = tracer.report()
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--items", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    print(json.dumps(run(args.workload, args.seed, args.items, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
