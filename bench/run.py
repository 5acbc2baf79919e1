"""Benchmark for crystaltiles: four workloads, end-to-end and per-layer metrics.

Run from the repository root (see README.md in this directory):

    python3 bench/run.py --workload crosscheck --seed 1 --seconds 20 --trace 0

Each run measures one workload in a fresh interpreter (workloads.py).  The
work is fixed by the workload, the seed and --seconds: --seconds sets the item
count through RATES, calibrated so that a run takes about that long at the
commit that introduced the benchmark, so two commits run identical inputs.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(tracing.py) with the tracing overhead.  The last line of stdout is one JSON
object; a fuller record goes to bench/results/.  Exit code 2 when there is no
src/crystaltiles to measure, 1 when a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
CONFIRM_SEED = 7919
WORKLOADS = ("crosscheck", "wordsweep", "strings", "potentials")
# items per second of --seconds, measured on a 2-core x86-64 box at Python 3.11
RATES = {"crosscheck": 170.0, "wordsweep": 27.0, "strings": 0.25, "potentials": 1.8}
SETUP_IMPORTS = 7  # fresh interpreters timed per run; setup_s is their median
IMPORTTIME_RUNS = 3
DEADLINE_S = 170  # every child process of one run must end within this
END_TO_END = {
    "setup_s": "s",
    "checks_per_s": "1/s",
    "item_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def item_count(workload: str, seconds: float) -> int:
    return max(1, math.ceil(seconds * RATES[workload]))


def child_env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def remaining(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def time_setup(root: Path, deadline: float) -> list[float]:
    """Wall time of fresh interpreters importing crystaltiles.cli."""
    cmd = [sys.executable, "-c", "import crystaltiles.cli"]
    env = child_env(root)
    subprocess.run(cmd, env=env, check=True, timeout=remaining(deadline))  # bytecode, untimed
    times = []
    for _ in range(SETUP_IMPORTS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=remaining(deadline))
        times.append(time.perf_counter() - t0)
    return times


def import_breakdown(root: Path, deadline: float) -> dict:
    """Median sympy and own import times from `python -X importtime`."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import crystaltiles.cli"]
    sympy, own = [], []
    for _ in range(IMPORTTIME_RUNS):
        err = subprocess.run(
            cmd, env=child_env(root), capture_output=True, text=True, check=True,
            timeout=remaining(deadline),
        ).stderr
        cumulative = {}
        for line in err.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
            if m:
                depth = len(m.group(2))
                cumulative.setdefault(m.group(3), (int(m.group(1)), depth))
        sympy_us = cumulative.get("sympy", (0, 0))[0]
        top = [us for name, (us, depth) in cumulative.items()
               if depth == 1 and name.split(".")[0] == "crystaltiles"]
        sympy.append(sympy_us / 1e6)
        own.append((sum(top) - sympy_us) / 1e6)
    return {"import_sympy_s": statistics.median(sympy), "import_crystaltiles_s": statistics.median(own)}


def run_worker(root: Path, workload: str, seed: int, items: int, trace: bool,
               deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--items", str(items), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                          text=True, timeout=remaining(deadline))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    if Path(out["package"]) != (root / "src").resolve():
        raise RuntimeError(f"imported crystaltiles from {out['package']}, not from this checkout")
    return out


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def summarise(out: dict) -> dict:
    lat, checks = out["latencies_s"], out["checks"]
    return {
        "checks_per_s": sum(checks) / sum(lat),
        "item_p50_ms": 1e3 * statistics.median(lat),
        "peak_rss_mb": out["peak_rss_kb"] / 1024,
    }


def per_layer(traced: dict, imports: dict, overhead: float, unaccounted: float) -> dict:
    from tracing import TRACED

    funcs, caches = traced["functions"], traced["caches"]
    metrics = {}
    for layer, names in TRACED.items():
        for fname in names:
            st = funcs.get(f"{layer}.{fname}", {"calls": 0, "s": 0.0, "self_s": 0.0})
            metrics[f"{layer}.{fname}.calls"] = (st["calls"], "count")
            metrics[f"{layer}.{fname}.s"] = (st["s"], "s")
            metrics[f"{layer}.{fname}.self_s"] = (st["self_s"], "s")
        for key in ("cache_hits", "cache_misses", "cache_entries"):
            metrics[f"{layer}.{key}"] = (caches.get(layer, {}).get(key, 0), "count")
    metrics["setup.import_sympy_s"] = (imports["import_sympy_s"], "s")
    metrics["setup.import_crystaltiles_s"] = (imports["import_crystaltiles_s"], "s")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["trace.unaccounted_share"] = (unaccounted, "ratio")
    return metrics


def git_commit(root: Path):
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int) -> dict:
    try:
        sympy = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy = None
    return {
        "python": platform.python_version(),
        "sympy": sympy,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(root),
        "seed": seed,
        "seed_role": "confirm" if seed == CONFIRM_SEED else "development",
        "loadavg_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="crystaltiles benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's result digest as the reference for its seed")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "crystaltiles" / "__init__.py").is_file():
        print("bench: run from the repository root (src/crystaltiles not found)", file=sys.stderr)
        return 2
    env = environment(root, args.seed)
    items = item_count(args.workload, args.seconds)
    record = {"workload": args.workload, "seconds": args.seconds, "items": items,
              "trace": args.trace, "environment": env}

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            imports = import_breakdown(root, deadline)
            plain = run_worker(root, args.workload, args.seed, items, False, deadline)
            traced = run_worker(root, args.workload, args.seed, items, True, deadline)
        else:
            setup = time_setup(root, deadline)
            plain = run_worker(root, args.workload, args.seed, items, False, deadline)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted, failed = plain["items"], plain["failed"]
    key = f"{args.workload}:{args.seed}:{items}"
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    if args.write_reference and failed == 0:
        reference[key] = plain["result_digest"]
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    want = reference.get(key)
    digest_ok = want is None or want == plain["result_digest"]
    if not digest_ok:
        failed = attempted  # a changed result digest fails the run as a whole
    if args.trace and traced["result_digest"] != plain["result_digest"]:
        failed = attempted

    summary = summarise(plain)
    record.update({
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "errors": plain["errors"],
        "input_digest": plain["input_digest"],
        "result_digest": plain["result_digest"],
        "reference_digest": want,
        "reference": "absent" if want is None else "match" if digest_ok else "MISMATCH",
        "total_checks": sum(plain["checks"]),
        "work_s": sum(plain["latencies_s"]),
        "item_p90_ms": 1e3 * p90(plain["latencies_s"]),
        "p90_samples_beyond": attempted - math.ceil(0.9 * attempted),
    })
    if args.trace:
        traced_summary = summarise(traced)
        overhead = summary["checks_per_s"] / traced_summary["checks_per_s"] - 1
        wall = sum(traced["latencies_s"])
        own = sum(f["self_s"] for f in traced["trace"]["functions"].values())
        unaccounted = max(0.0, 1 - own / wall)
        metrics = per_layer(traced["trace"], imports, overhead, unaccounted)
        record["trace_detail"] = traced["trace"]
        print(f"tracing overhead: traced checks_per_s {traced_summary['checks_per_s']:.1f} "
              f"vs untraced {summary['checks_per_s']:.1f} ({100 * overhead:+.1f}%)")
        print(f"traced wall time not inside any traced function: {100 * unaccounted:.1f}% "
              f"(benchmark glue and untraced library code)")
    else:
        summary["setup_s"] = statistics.median(setup)
        record["setup_runs_s"] = setup
        metrics = {name: (summary[name], unit) for name, unit in END_TO_END.items()}
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    env["loadavg_end"] = os.getloadavg()

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    if not args.trace:
        for k, (v, u) in metrics.items():
            print(f"{k:>14} {v:12.4f} {u}")
    print(f"{args.workload} seed {args.seed}: {attempted} items, {failed} failed, "
          f"{record['total_checks']} checks, reference {record['reference']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
