#!/usr/bin/env python3
"""Benchmark a base revision against the working tree in alternating pairs.

    python3 scripts/bench_pairs.py HEAD --label ladder
    python3 scripts/bench_pairs.py 6c004e7 --label ladder --pairs 10 --seconds 15

The base revision is exported with ``git archive`` into a temporary
directory, which leaves nothing behind in the repository's ``.git``.  For
every workload in ``BENCHMARK.json`` the script then runs

    python3 perfbench/run.py --workload W --seed s --seconds S --trace 0

once in the base tree and once in the working tree per pair, pair ``i``
with seed ``i + 1``; odd pairs run the working tree first, so drift on
a shared host falls on both sides alike.  After the pairs, each side runs
the workload once more with ``--trace 1``, at seed ``pairs + 1``, for its
per-layer metrics.  Runs go one at a time.  The result is
``BENCH_<label>.json`` in the working tree: every run's final JSON line and
``record`` line, per workload and end-to-end metric the median and
quartiles of each side, the number of pairs the working tree wins, and
whether the medians lie further apart than the base's interquartile range,
and, apart from them, each side's traced run.  The benchmark's own files
are run, never imported.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` into ``dest``."""
    archive = dest / "base.tar"
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), rev], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    archive.unlink()


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    run = {"returncode": proc.returncode, "result": None, "record": None}
    for line in lines:
        if line.startswith("record "):
            run["record"] = json.loads(line[len("record "):])
    if proc.returncode == 0 and lines:
        run["result"] = json.loads(lines[-1])
    else:
        run["stderr_tail"] = proc.stderr[-2000:]
    return run


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        pairs = {}
        for run in runs:
            if run["result"] is not None:
                pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"][name]["value"]
        both = [p for p in pairs.values() if len(p) == 2]
        base = quartiles([p["base"] for p in both])
        change = quartiles([p["change"] for p in both])
        wins = sum((p["change"] > p["base"]) if higher else (p["change"] < p["base"]) for p in both)
        entry = {"unit": metric["unit"], "better": metric["better"], "pairs": len(both), "wins": wins,
                 "base": base, "change": change}
        if len(both) >= 2:
            entry["median_ratio"] = change["median"] / base["median"]
            entry["medians_apart_beyond_base_iqr"] = abs(change["median"] - base["median"]) > base["q3"] - base["q1"]
        out[name] = entry
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base_rev", help="git revision to compare the working tree against")
    parser.add_argument("--label", required=True, help="output goes to BENCH_<label>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    report = {
        "base_rev": args.base_rev,
        "base_commit": git("rev-parse", args.base_rev),
        "change_commit": git("rev-parse", "HEAD"),
        "change_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "pairs": args.pairs,
        "seconds": args.seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        export(args.base_rev, Path(tmp))
        trees = {"base": Path(tmp) / "tree", "change": ROOT}
        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                seed = i + 1
                for order, side in enumerate(("change", "base") if i % 2 else ("base", "change")):
                    run = run_once(trees[side], workload, seed, args.seconds)
                    run.update(pair=i, side=side, order=order, seed=seed)
                    runs.append(run)
                    value = run["result"]["metrics"]["ops_per_ref_s"]["value"] if run["result"] else "failed"
                    print(f"{workload} pair {i} {side}: ops_per_ref_s {value}", flush=True)
            # One traced run per side for the per-layer metrics; not a pair.
            traced = {side: run_once(trees[side], workload, args.pairs + 1, args.seconds, trace=1)
                      for side in ("base", "change")}
            report["workloads"][workload] = {
                "runs": runs,
                "summary": summarize(runs, bench["end_to_end"]),
                "traced": traced,
            }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    failed = sum(run["returncode"] != 0 for w in report["workloads"].values()
                 for run in [*w["runs"], *w["traced"].values()])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
