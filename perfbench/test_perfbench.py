"""Self-test of the benchmark: exact counts repeat across runs with the same seed.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.  Each
workload runs a traced pass over a cheap subset of its operations twice, once
in this process and once in a fresh one, and every layer count must agree
exactly; the learner gap must agree bit for bit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNTS = [name for name, unit in run.LAYER_MEASURED.items() if unit == "count"]
SUBSETS = {
    "plan": ["(0.5, 1.0, 0, 0.35, 200)", "(0.5, 0.5, 3, 0.3, 120)", "(0.7, 0.5, 3, 1.0, 120)"],
    "plan-tight": ["(0.5, 1.0, 0, 0.05, 300)"],
    "verify": ["threshold", "periodic"],
    "learn": ["learner-0", "learner-1", "learner-2"],
}


def traced_counts(workload: str, seed: int) -> dict:
    wl = workloads.WORKLOADS[workload](seed)
    wl.ops = SUBSETS[workload]
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run.run_pass(wl, tracer)
    # Per-operation checks only: a three-learner pass is too small for the gap check.
    assert len(traced.outs) == len(wl.ops)
    assert not any(wl.check(label, out) for label, out in traced.outs.items())
    layers = tracer.layer_seconds()
    counts = {name: layers[name] for name in COUNTS}
    counts["learn.aoi_gap"] = wl.gap(traced.outs).hex()
    return counts


@pytest.mark.parametrize("workload", sorted(SUBSETS))
def test_counts_repeat_across_runs(workload):
    here = traced_counts(workload, seed=5)
    code = (
        f"import json, sys; sys.path.insert(0, {str(HERE)!r}); import test_perfbench; "
        f"print(json.dumps(test_perfbench.traced_counts({workload!r}, 5)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300, check=True)
    there = json.loads(proc.stdout.strip().splitlines()[-1])
    assert here == there
    assert sum(here[name] for name in COUNTS) > 0


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {**run.LAYER_MEASURED, **dict.fromkeys(run.LAYER_SHARES, "ratio")}
    per_layer.update({"learn.aoi_gap": "ratio", "trace.overhead_frac": "ratio"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "ops_per_ref_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


class _Drifting(workloads.Workload):
    """An operation whose output changes on every call."""

    ops = ["op"]
    calls = 0

    def run(self, label):
        self.calls += 1
        return (self.calls,)


def test_output_that_differs_between_passes_fails():
    wl = _Drifting()
    passes = [run.run_pass(wl), run.run_pass(wl)]
    assert run.count_failures(wl, passes) == 1
