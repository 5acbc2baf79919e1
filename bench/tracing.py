"""Span recorders for the traced benchmark run.

The recorders live here, not in the package: `Tracer.install` wraps each
listed public function and rebinds every module attribute of the package that
holds it (so `crossings.crystal_op` is replaced in `crossings`, `strings` and
`cli` alike), and wraps the listed methods on their classes.  Each wrapper
aggregates calls, inclusive time and self time (inclusive minus the time of
traced callees) in memory, plus call counts per caller -> callee edge.
Nothing is written until `report` is called at the end of the run.

Cache statistics are not tied to any function name: `cache_stats` scans the
package's modules for `functools.lru_cache` objects and sums hits, misses and
entries per defining module, so caches may come and go freely.
"""

from __future__ import annotations

import functools
import sys
import time

TRACED = {
    "words": ("move_path", "convex_order"),
    "tiling": ("build_tiling", "kappa_partition", "closure_tiles", "strip"),
    "lusztig": ("transition", "oracle_op", "oracle_star_op", "star_datum"),
    "crossings": ("crystal_op", "dual_crystal_op", "reineke_vectors"),
    "strings": ("string_datum", "string_op_f", "string_cone", "cone_points"),
    "bz": ("bz_from_lusztig", "bz_crystal_f"),
    "potentials": (
        "chamber_minor",
        "ghkk_restriction",
        "chamber_ansatz_dual",
        "LaurentPolynomial.eval",
        "MonomialMap.apply",
        "eval_trl",
        "eval_trs",
        "eval_cluster_mutation",
        "cone_correspondence_check",
    ),
}
PACKAGE = "crystaltiles"


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.startswith(PACKAGE + ".")]


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s, active]
        self.edges: dict[tuple[str, str], int] = {}
        self.items: list[tuple[int, float, float]] = []
        self._stack: list[list] = []  # [name, time spent in traced callees]

    def _wrap(self, name, fn):
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, edges, clock = self._stack, self.edges, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            caller = stack[-1][0] if stack else "item"
            edges[caller, name] = edges.get((caller, name), 0) + 1
            frame = [name, 0.0]
            stack.append(frame)
            st[3] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st[3] -= 1
                st[0] += 1
                st[2] += dt - frame[1]
                if not st[3]:  # count recursive re-entries once in inclusive time
                    st[1] += dt
                if stack:
                    stack[-1][1] += dt

        span.__traced__ = True
        return span

    def install(self) -> None:
        """Wrap every function in TRACED at each of its import sites."""
        modules = package_modules()
        for layer, names in TRACED.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for fname in names:
                name = f"{layer}.{fname}"
                if "." in fname:
                    cls_name, meth = fname.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                    continue
                original = getattr(home, fname, None)
                if original is None:  # gone from the package: its metrics read 0
                    continue
                wrapped = self._wrap(name, original)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, attr, wrapped)

    def item_span(self, k: int, t0: float, t1: float) -> None:
        self.items.append((k, t0, t1))

    def report(self) -> dict:
        return {
            "functions": {
                name: {"calls": c, "s": incl, "self_s": own}
                for name, (c, incl, own, _) in sorted(self.stats.items())
            },
            "edges": [[a, b, n] for (a, b), n in sorted(self.edges.items())],
            "item_spans": self.items,
            "caches": cache_stats(),
        }


def _lru(obj):
    """The lru_cache object behind a module attribute, if there is one."""
    if getattr(obj, "__traced__", False):
        obj = obj.__wrapped__
    return obj if callable(getattr(obj, "cache_info", None)) else None


def cache_stats() -> dict:
    """Summed lru_cache hits, misses and entries per defining module."""
    seen, out = set(), {}
    for mod in package_modules():
        for val in vars(mod).values():
            cache = _lru(val)
            if cache is None or id(cache) in seen:
                continue
            seen.add(id(cache))
            layer = cache.__module__.rpartition(".")[2]
            info = cache.cache_info()
            agg = out.setdefault(layer, {"cache_hits": 0, "cache_misses": 0, "cache_entries": 0})
            agg["cache_hits"] += info.hits
            agg["cache_misses"] += info.misses
            agg["cache_entries"] += info.currsize
    return out
