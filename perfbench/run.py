"""Benchmark for aoi-sched: one workload, closed loop, one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plan --seed 1 --seconds 15 --trace 0

The package is imported from the checkout's ``src/``.  Set-up (imports, the
workload's inputs and reference values, one warm-up call) is repeated and
timed.  The workload then runs whole passes, each operation starting when the
previous one returns, for as many passes as brings the measured time closest
to ``--seconds`` (at least one).  Every operation's output is checked; every
pass must repeat the first pass's outputs bit for bit.

With ``--trace 0`` the last line of standard output is the result with the
end-to-end metrics: set-up time, operations per second with each operation's
time rescaled by a host speed probe (see ``REF_LOOP``), and peak memory.
With ``--trace 1`` the run makes one untraced and one traced pass over the
same inputs, requires equal outputs, and reports the per-layer metrics;
spans are written to ``perfbench/out/<workload>.spans.npz``.
Each run also writes its run record and result to ``perfbench/out/``.
"""

from time import perf_counter

_START = perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
# Host speed probe: a fixed pure-Python loop timed at the start of a pass,
# before an operation once REF_EVERY_S of operations have run since the last
# probe, and at the end.  On a shared host the same operation's time drifts
# by a third within minutes; dividing each operation's time by the probes
# around it halves the run-to-run spread.  REF_NOMINAL_S only sets the scale:
# normalized seconds are seconds on a host that runs the probe in 50 ms.
REF_LOOP = 500_000
REF_EVERY_S = 0.5
REF_NOMINAL_S = 0.05
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_GETTERS = ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_")

# Per-layer metrics: counts and rates as measured, and layer times as a share
# of the traced pass's operation time (self time where the name says so).
# The seconds behind each share are printed above the result line.
LAYER_MEASURED = {
    "mdp.build.calls": "count",
    "mdp.build.states": "count",
    "rvi.solve.calls": "count",
    "rvi.sweeps": "count",
    "rvi.state_sweeps_per_s": "1/s",
    "lagrange.probes": "count",
    "lagrange.probes.sa": "count",
    "lagrange.probes.expand": "count",
    "lagrange.probes.bisect": "count",
    "lagrange.distinct_costs": "count",
    "lagrange.useful_ratio": "ratio",
    "exact.eval.calls": "count",
    "sim.slots": "count",
    **{f"sim.slots_per_s.{kind}": "slots/s" for kind in ("table", "randomized", "threshold", "mixture", "periodic")},
    "learn.steps": "count",
}
LAYER_SHARES = {
    "mdp.build.frac": "mdp.build.s",
    "rvi.solve.self_frac": "rvi.solve.self_s",
    "lagrange.search.self_frac": "lagrange.search.self_s",
    "lagrange.mix.frac": "lagrange.mix.s",
    "exact.eval.self_frac": "exact.eval.self_s",
    "exact.chain.self_frac": "exact.chain.self_s",
    "sim.run.frac": "sim.run.s",
    "learn.step.self_frac": "learn.step.self_s",
    "learn.env.frac": "learn.env.s",
    "learn.make.self_frac": "learn.make.self_s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("plan", "plan-tight", "verify", "learn"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def blas_threads() -> int | None:
    """Largest thread count among the OpenBLAS libraries loaded in this process."""
    counts = []
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for getter in BLAS_GETTERS:
            fn = getattr(lib, getter, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(fn())
                break
    return max(counts) if counts else None


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def run_record(args, nproc, blas) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((SRC / "aoi_sched").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def reference_s() -> float:
    t0 = perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i % 7
    return perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


@dataclass
class Pass:
    """Outcome of one pass: per-operation outputs, times, probes and failed checks."""

    outs: dict = field(default_factory=dict)
    seconds: dict = field(default_factory=dict)
    probes: list = field(default_factory=list)  # speed probe times, in order
    ref_s: dict = field(default_factory=dict)  # mean of the probes around each operation
    errors: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())

    def normalized_s(self, label: str) -> float:
        """The operation's time rescaled to a host that runs the probe in REF_NOMINAL_S."""
        return self.seconds[label] * REF_NOMINAL_S / self.ref_s[label]


def close_segment(res: Pass, segment: list) -> None:
    """Probe the host's speed; the operations since the last probe get the mean of both."""
    res.probes.append(reference_s())
    for label in segment:
        res.ref_s[label] = 0.5 * (res.probes[-2] + res.probes[-1])
    segment.clear()


def run_pass(wl, tracer=None) -> Pass:
    res = Pass()
    gc.collect()  # every pass starts from the same collector state
    since_ref = REF_EVERY_S
    segment = []  # operations since the last probe
    for label in wl.ops:
        if since_ref >= REF_EVERY_S:
            close_segment(res, segment)
            since_ref = 0.0
        segment.append(label)
        t0 = perf_counter()
        try:
            out = wl.run(label) if tracer is None else tracer.run_op(label, lambda: wl.run(label))
        except Exception:  # an operation that raises counts as failed; the run goes on
            res.errors[label] = [traceback.format_exc()]
            continue
        res.seconds[label] = perf_counter() - t0
        since_ref += res.seconds[label]
        res.outs[label] = out
        res.errors[label] = wl.check(label, out)
    close_segment(res, segment)
    if len(res.outs) == len(wl.ops):
        for msg in wl.check_pass(res.outs):
            for label in wl.ops:
                res.errors[label].append(msg)
    return res


def closed_loop(wl, seconds: float) -> list[Pass]:
    passes = []
    t0 = perf_counter()
    while True:
        passes.append(run_pass(wl))
        elapsed = perf_counter() - t0
        # One more pass only if it ends closer to the target than stopping now.
        if elapsed + 0.5 * elapsed / len(passes) >= seconds:
            return passes


def count_failures(wl, passes: list[Pass]) -> int:
    first = passes[0].outs
    for later in passes[1:]:
        for label, out in later.outs.items():
            if label in first and wl.digest(out) != wl.digest(first[label]):
                later.errors[label].append("output differs from the first pass")
    failed = 0
    for p in passes:
        for label in wl.ops:
            if p.errors[label]:
                failed += 1
                print(f"FAILED {label}: " + "; ".join(p.errors[label]), file=sys.stderr)
    return failed


def end_to_end(wl, passes, setup_s) -> tuple[dict, dict]:
    ok = [(p, label) for p in passes for label in wl.ops if label in p.outs and not p.errors[label]]
    op_s = sum(p.wall for p in passes)
    normalized_s = sum(p.normalized_s(label) for p, label in ok)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_ref_s": (len(ok) / normalized_s if ok else 0.0, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {
        "ops_per_s": (len(ok) / op_s, "1/s"),
        "ref_s.median": (statistics.median(t for p in passes for t in p.probes), "s"),
    }
    if ok:
        extra.update(wl.report([(label, p.outs[label], p.seconds[label]) for p, label in ok], op_s))
    return metrics, extra


def per_layer(wl, untraced: Pass, traced: Pass, tracer) -> tuple[dict, dict]:
    layers = tracer.layer_seconds()
    metrics = {name: (layers[name], unit) for name, unit in LAYER_MEASURED.items()}
    for share, secs in LAYER_SHARES.items():
        metrics[share] = (layers[secs] / traced.wall, "ratio")
    complete = len(traced.outs) == len(wl.ops)
    metrics["learn.aoi_gap"] = (wl.gap(traced.outs) if complete else 0.0, "ratio")
    untraced_s, traced_s = (sum(map(p.normalized_s, p.seconds)) for p in (untraced, traced))
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    detail = {secs: (layers[secs], "s") for secs in LAYER_SHARES.values()}
    detail["rvi.ns_per_state_sweep"] = (layers["rvi.ns_per_state_sweep"], "ns")
    detail["trace.wall_s"] = (traced.wall, "s")
    detail["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "aoi_sched" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'aoi_sched'}; run from the root of a checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # One BLAS thread unless told otherwise: the load is one closed-loop
    # client, and BLAS workers spinning on the other CPU made the plan
    # workloads drift in ways the speed probe does not see.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import aoi_sched
    import tracing
    import workloads

    if Path(aoi_sched.__file__).resolve().parent != SRC / "aoi_sched":
        print(f"error: imported aoi_sched from {aoi_sched.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import_s = perf_counter() - _START

    # Set-up time is rescaled by the speed probe, as operation time is: the
    # imports by the probe that follows them, each set-up by the probes
    # around it.
    probes = [reference_s()]
    setup_wall, builds = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        wl = workloads.WORKLOADS[args.workload](args.seed)
        setup_wall.append(perf_counter() - t0)
        probes.append(reference_s())
        builds.append(setup_wall[-1] * REF_NOMINAL_S / (0.5 * (probes[-2] + probes[-1])))
    setup_s = import_s * REF_NOMINAL_S / probes[0] + statistics.median(builds)
    setup_wall_s = import_s + statistics.median(setup_wall)

    blas = blas_threads()
    if blas is not None and blas > nproc:
        print(f"error: BLAS uses {blas} threads on {nproc} CPUs", file=sys.stderr)
        return 2
    record = run_record(args, nproc, blas)
    OUT.mkdir(exist_ok=True)

    if args.trace:
        untraced = run_pass(wl)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = run_pass(wl, tracer)
        tracer.save(OUT / f"{args.workload}.spans.npz")
        passes = [untraced, traced]
        failed = count_failures(wl, passes)
        metrics, detail = per_layer(wl, untraced, traced, tracer)
    else:
        passes = closed_loop(wl, args.seconds)
        failed = count_failures(wl, passes)
        metrics, detail = end_to_end(wl, passes, setup_s)
        detail["setup_wall_s"] = (setup_wall_s, "s")
    attempted = len(passes) * len(wl.ops)
    detail["failed_frac"] = (failed / attempted, "ratio")
    detail["passes"] = (len(passes), "count")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report = {"record": record, "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()}, "result": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print("record " + json.dumps(record))
    for name, (value, unit) in {**metrics, **detail}.items():
        print(f"{name} {value:.6g} {unit}".rstrip())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
