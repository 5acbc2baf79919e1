"""Smoke test of the benchmark at a tiny size (about a minute on two cores).

    python3 -m pytest -q bench/test_smoke.py

Runs every workload untraced and traced, and checks that each metric named in
BENCHMARK.json appears with its unit, that no item fails, and that the seed-0
result digests match reference.json.  Also checks the benchmark's own input
generation against the package.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "0.1"  # a handful of items per workload
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_and_errors(workload, trace):
    import run

    lines = bench(workload, trace)
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert any(line.startswith("tracing overhead:") for line in lines)

    results = ROOT / "bench" / "results"
    record = json.loads(max(results.glob(f"{workload}-seed0-trace{trace}-*.json")).read_text())
    assert record["error_rate"] == 0
    assert record["reference"] == "match"
    assert record["items"] == out["attempted"] == run.item_count(workload, float(SECONDS))
    assert set(record["environment"]) >= {"python", "sympy", "nproc", "commit", "seed",
                                          "loadavg_start", "loadavg_end"}


def test_input_generation_matches_package():
    from crystaltiles.tiling import build_tiling
    from crystaltiles.words import convex_order, enumerate_reduced_words

    import workloads

    words = workloads.all_words(workloads.N)
    assert words == sorted(enumerate_reduced_words(workloads.N))
    for w in words[::37]:
        assert workloads.root_order(w) == list(convex_order(w))
        prefixes = {tuple(range(1, m + 1)) for m in range(workloads.N + 1)}
        assert workloads.off_left_vertices(w) == sorted(build_tiling(w).vertices - prefixes)


def test_inputs_are_seeded():
    import workloads

    for w in ("crosscheck", "wordsweep", "strings", "potentials"):
        a = workloads.draw_inputs(w, 3, 4)
        assert workloads.digest(a) == workloads.digest(workloads.draw_inputs(w, 3, 4))
        assert workloads.digest(a) != workloads.digest(workloads.draw_inputs(w, 4, 4))
