"""Command-line front end: solving, sweeping, learning and self-verification.

Subcommands: solve, arq, search-eta, simulate, learn, sweep, verify.  Single
results print JSON to stdout; tables are written as CSV with a stable header
(schema tag in the first column).  Relative output paths are resolved against
$AOI_SCHED_OUTDIR when set.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import arq, errors, oracles
from .exact import evaluate_exact
from .lagrange import TraceRow, search_eta_star, solve_constrained
from .mdp import Action, ChannelModel, Truncation
from .policies import PeriodicPolicy, ThresholdPolicy
from .rvi import solve
from .sarsa import LearnerConfig, train
from .simulate import baseline_periodic, evaluate_simulated, run

STATS_SCHEMA = "aoi-stats-1"
SWEEP_SCHEMA = "aoi-sweep-1"
_CODES = np.array([a.code for a in Action])  # CSV code of each action value
_Q_HEADER = ("q_idle", "q_new", "q_retx")  # a table's value of each action


def _outpath(name: str | None) -> Path | None:
    if name is None:
        return None
    path = Path(name)
    base = os.environ.get("AOI_SCHED_OUTDIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_table(name: str | None, columns: dict) -> None:
    """Write ``columns``, a header name to the column's values, as CSV to file
    ``name``, or to stdout when it is None.  A float array is written as
    ``%.12g``, with an empty cell where a value is not finite: NaN where a point
    has no value, inf or NaN at an inadmissible action.  Any other column is
    written as given."""
    cells = [
        [f"{v:.12g}" if math.isfinite(v) else "" for v in col.tolist()]
        if isinstance(col, np.ndarray) and col.dtype.kind == "f"
        else col
        for col in columns.values()
    ]
    path = _outpath(name)
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*cells))


def _count(low: int):
    """argparse type of a count flag: an integer of at least ``low``."""

    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer of at least {low}, got {value}")
        return value

    return count


def _checked(convert, build):
    """argparse type of a value flag: ``convert``, then the range check of
    ``build``, the constructor the value feeds, so the ranges live in one place."""

    def parse(text: str):
        value = convert(text)
        try:
            build(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


def _config_flags(name: str) -> list[str]:
    """argparse type of ``sweep --config``: the JSON object in file ``name`` as
    flags, ``"key": v`` as ``--key v`` and a list value as its elements."""
    try:
        config = json.loads(Path(name).read_text())
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read {name}: {exc}") from None
    if not isinstance(config, dict):
        raise argparse.ArgumentTypeError(f"{name}: expected a JSON object, got {type(config).__name__}")
    return [
        text
        for key, value in config.items()
        for text in (f"--{key}", *map(str, value if isinstance(value, list) else [value]))
    ]


_CMAX = _checked(float, baseline_periodic)  # the budget range every solver checks
_NMAX = _checked(int, lambda n: Truncation(n, 0))
_PROTOCOLS = ("arq", "harq", "baseline")
# The charge range, which the solver checks first; a solve on two states is instant.
_ETA = _checked(float, functools.partial(solve, ChannelModel(0.5), Truncation(2, 0)))


def _learner(field: str):
    """argparse type of the learner's float setting ``field``, ranged by ``LearnerConfig``."""
    return _checked(float, lambda value: LearnerConfig(Truncation(2, 0), **{field: value}))


def _model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p0", type=_checked(float, ChannelModel), default=0.5, help="first-attempt error probability")
    p.add_argument(
        "--lam", "--lambda", dest="lam", type=_checked(float, lambda lam: ChannelModel(0.5, lam)), default=1.0,
        help="per-retransmission error decay",
    )
    p.add_argument("--rmax", type=_checked(int, lambda r: ChannelModel(0.5, 1.0, r)), default=0, help="retransmission cap (ARQ: 0)")
    p.add_argument("--nmax", type=_NMAX, default=150, help="age cap of the solver truncation")


def _model_from(args) -> tuple[ChannelModel, Truncation]:
    model = ChannelModel(args.p0, args.lam, args.rmax)
    trunc = Truncation(args.nmax, args.rmax)
    return model, trunc


def cmd_solve(args) -> int:
    model, trunc = _model_from(args)
    out = solve(model, trunc, args.eta)
    space = out.space
    # None when the policy never transmits; evaluate_exact then raises the error that says so.
    res = out.evaluation or evaluate_exact(out.policy, model, trunc, space=space)
    actions = out.policy.table[space.age, space.r].argmax(axis=1)
    if args.out:
        q = dict(zip(_Q_HEADER, out.q_array.T))
        _write_table(args.out, {"delta": space.age, "r": space.r, "h": out.h_array, **q, "action": _CODES[actions]})
    summary = {
        "eta": args.eta,
        "gain": out.gain,
        "iterations": out.iterations,
        "residual": out.residual,
        "avg_aoi": res.avg_aoi,
        "avg_cost": res.avg_cost,
        "tail_mass": res.tail_mass,
    }
    if args.rmax == 0:
        transmit_ages = space.age[actions != Action.IDLE]
        summary["threshold"] = int(transmit_ages.min()) if len(transmit_ages) else None
    print(json.dumps(summary, indent=2))
    return 0


def cmd_arq(args) -> int:
    rt = arq.optimal_policy(args.p, args.cmax)
    record = dataclasses.asdict(rt) | {"avg_cost": rt.avg_cost, "avg_aoi": rt.avg_aoi}
    if args.format == "csv":
        _write_table(None, {key: [value] for key, value in record.items()})
    else:
        print(json.dumps(record, indent=2))
    return 0


def cmd_search_eta(args) -> int:
    model, trunc = _model_from(args)
    result = search_eta_star(model, trunc, args.cmax)
    if args.trace_out:
        # One array per field, so float fields print as %.12g; the residual prints as .6g.
        columns = {f.name: np.array([getattr(row, f.name) for row in result.trace]) for f in dataclasses.fields(TraceRow)}
        columns["residual"] = [f"{value:.6g}" for value in columns["residual"]]
        _write_table(args.trace_out, columns)
    print(
        json.dumps(
            {
                "eta_star": result.eta_star,
                "bracket": list(result.bracket),
                "exact_hit": result.exact_hit,
                "probes": len(result.trace),
                "solver_iterations": sum(row.iterations for row in result.trace),
            },
            indent=2,
        )
    )
    return 0


def _build_policy(args, model, trunc):
    kind = args.policy
    if kind == "threshold":
        return ThresholdPolicy(args.threshold, args.transmit_prob)
    if kind == "periodic":
        return baseline_periodic(args.cmax)
    if kind == "always-new":
        return ThresholdPolicy(1, 1.0)
    if kind == "optimal":
        return solve_constrained(model, trunc, args.cmax).mixed
    return arq.optimal_policy(model.p0, args.cmax).policy()  # "arq-optimal": the parser admits no other kind


def cmd_simulate(args) -> int:
    model, trunc = _model_from(args)
    policy = _build_policy(args, model, trunc)
    stats = evaluate_simulated(policy, model, args.horizon, args.reps, args.seed)
    if args.trace_out:
        # The start of replication 0: a short run is the prefix of a longer one.
        rep0 = np.random.default_rng([args.seed, 0])
        _, trace = run(policy, model, min(args.horizon, args.trace_slots), rep0, collect_trace=True)
        success = np.where(trace.action == Action.IDLE, "", np.where(trace.delivered, "1", "0"))
        columns = {"t": np.arange(1, len(success) + 1), "delta": trace.delta, "r": trace.r}
        _write_table(args.trace_out, columns | {"action": _CODES[trace.action], "success": success})
    record = {
        "policy": policy.describe(),
        "mean_aoi": stats.mean_aoi,
        "var_aoi": stats.var_aoi,
        "mean_cost": stats.mean_cost,
    }
    if args.out:
        inputs = [STATS_SCHEMA, record["policy"], model.p0, model.lam, model.r_max, args.cmax]
        columns = {key: [value] for key, value in zip(("schema", "policy", "p0", "lam", "r_max", "c_max"), inputs)}
        _write_table(args.out, columns | {key: np.array([value]) for key, value in record.items() if key != "policy"})
    record |= {"var_cost": stats.var_cost, "horizon": args.horizon, "replications": args.reps}
    print(json.dumps(record, indent=2))
    return 0


def cmd_learn(args) -> int:
    model, trunc = _model_from(args)
    cfg_common = dict(
        trunc=trunc,
        tau=args.tau,
        eta0=args.eta0,
        eta_step=args.eta_step,
        c_max=args.cmax,
        horizon=args.steps,
    )
    # The timeline's steps: at most --timeline-points, ending at the last step.
    stride = max(1, math.ceil(args.steps / args.timeline_points))
    idx = [*range(stride - 1, args.steps - 1, stride), args.steps - 1] if args.steps else []
    # One row per timeline point, one column per replication: each mean reduces a contiguous row.
    aoi, cost, etas, gains = (np.zeros((len(idx), args.reps)) for _ in range(4))
    for rep in range(args.reps):
        ls, tl = train(model, LearnerConfig(seed=args.seed + rep, **cfg_common))
        aoi[:, rep], cost[:, rep] = tl.running_aoi[idx], tl.running_cost[idx]
        etas[:, rep], gains[:, rep] = tl.eta[idx], tl.gain[idx]
        if rep == 0:
            final_state = ls

    if args.timeline_out:
        _write_table(
            args.timeline_out,
            {
                "n": [k + 1 for k in idx],
                "mean_running_aoi": aoi.mean(axis=1),
                "var_running_aoi": aoi.var(axis=1, ddof=1) if args.reps > 1 else np.zeros(len(idx)),
                "mean_running_cost": cost.mean(axis=1),
                "mean_eta": etas.mean(axis=1),
                "mean_gain": gains.mean(axis=1),
            },
        )
    if args.qtable_out:
        space = final_state.space
        q = dict(zip(_Q_HEADER, np.where(space.admissible, final_state.q, np.nan).T))
        _write_table(args.qtable_out, {"delta": space.age, "r": space.r, **q})
    if args.steps == 0:
        print(json.dumps({"replications": args.reps, "steps": 0}))
        return 0

    summary = {
        "replications": args.reps,
        "steps": args.steps,
        "final_mean_running_aoi": float(aoi[-1].mean()),
        "final_mean_running_cost": float(cost[-1].mean()),
    }
    if args.compare_rvi:
        sol = solve_constrained(model, trunc, args.cmax)
        summary["rvi_mixture_aoi"] = sol.achieved_aoi
        summary["rvi_mixture_cost"] = sol.achieved_cost
        summary["gap"] = summary["final_mean_running_aoi"] - sol.achieved_aoi
    print(json.dumps(summary, indent=2))
    return 0


# The package's named failures; a subcommand ending in one reports it in one line.
_NAMED_ERRORS = (
    errors.BracketingError,
    errors.ConvergenceError,
    errors.EtaSearchError,
    errors.MultichainError,
    errors.NoStationaryAoIError,
    errors.ProtocolViolationError,
)
# What a grid point can legitimately fail with; anything else is a bug and propagates.
_POINT_ERRORS = (ValueError, *_NAMED_ERRORS)


SWEEP_RESULTS = ("eta_star", "exact_aoi", "exact_cost", "sim_mean_aoi", "sim_var_aoi", "sim_mean_cost")
SWEEP_HEADER = ["schema", "protocol", "p0", "lam", "r_max", "c_max", *SWEEP_RESULTS, "error"]


def _sweep_point(task) -> tuple[tuple[float, ...], str]:
    """The ``SWEEP_RESULTS`` of one grid point, NaN where it has none, and its error text ("" if none)."""
    protocol, p0, lam, r_max, c_max, n_max, horizon, reps, seed = task
    eta_star = sim_aoi = sim_var = sim_cost = math.nan
    try:
        if protocol == "arq":
            model = ChannelModel(p0, 1.0, 0)
            rt = arq.optimal_policy(p0, c_max)
            policy = rt.policy()
            exact_aoi, exact_cost = rt.avg_aoi, rt.avg_cost
        elif protocol == "harq":
            model = ChannelModel(p0, lam, r_max)
            trunc = Truncation(n_max, r_max)
            sol = solve_constrained(model, trunc, c_max)
            policy = sol.mixed
            exact_aoi, exact_cost = sol.achieved_aoi, sol.achieved_cost
            eta_star = sol.eta_star
        else:  # baseline; the flag admits no other protocol
            model = ChannelModel(p0, lam, r_max)
            trunc = Truncation(n_max, r_max)
            policy = baseline_periodic(c_max)
            res = evaluate_exact(policy, model, trunc)
            exact_aoi, exact_cost = res.avg_aoi, res.avg_cost
        if horizon > 0:
            stats = evaluate_simulated(policy, model, horizon, reps, seed)
            sim_aoi, sim_var, sim_cost = stats.mean_aoi, stats.var_aoi, stats.mean_cost
    except _POINT_ERRORS as exc:  # per-point failures become rows, the sweep continues
        return (math.nan,) * len(SWEEP_RESULTS), f"{type(exc).__name__}: {exc}"
    return (eta_star, exact_aoi, exact_cost, sim_aoi, sim_var, sim_cost), ""


def cmd_sweep(args) -> int:
    horizon, reps = args.horizon, args.reps
    if args.quick:
        horizon, reps = min(horizon, 2000), min(reps, 50)

    tasks = [
        (prot, p0, lam, rmax, cmax, args.nmax, horizon, reps, args.seed)
        for p0, lam, rmax, cmax, prot in itertools.product(args.p0, args.lam, args.rmax, args.cmax, args.protocols)
    ]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            points = list(pool.map(_sweep_point, tasks))
    else:
        points = [_sweep_point(t) for t in tasks]

    values, messages = zip(*points)
    inputs = dict(zip(SWEEP_HEADER[1:6], zip(*tasks)))  # a task starts with the protocol and the grid values
    results = dict(zip(SWEEP_RESULTS, np.array(values).T))
    _write_table(args.out, {"schema": [SWEEP_SCHEMA] * len(tasks), **inputs, **results, "error": messages})
    failures = sum(1 for message in messages if message)
    print(f"# sweep: {len(tasks)} points, {failures} failed", file=sys.stderr)
    return 1 if failures else 0


def cmd_verify(args) -> int:
    """The checks of ``aoi_sched.oracles`` on the quick or the full grids, each against its tolerance."""
    quick = args.quick
    ps = [0.2, 0.5, 0.8] if quick else [0.1, 0.3, 0.5, 0.7, 0.9]
    deltas = [1, 2, 5, 9] if quick else [1, 2, 3, 5, 8, 13, 21, 34, 50]
    etas = [0.5, 2.0, 7.0, 19.0] if quick else [0.5, 1.0, 2.0, 5.0, 10.0, 19.0, 33.0, 50.0]
    budgets = [(0.5, 1.0, 0, 0.35, 120), (0.3, 0.5, 3, 0.4, 120)]
    # A point whose planned age once lay 7.2e-10 of itself above its duality bound, and one
    # that lies 4.6e-10 above it when the solver's tie tolerance is loosened to 1e-9.
    certified = budgets + [
        (0.17953721532583555, 0.49169653972600275, 4, 0.46067347610183607, 28),
        (0.3566626828797485, 0.7399805869633838, 2, 0.24286475427381277, 36),
    ]
    model, trunc = ChannelModel(0.5, 0.5, 3), Truncation(100, 3)
    # The solver's table at charge 5 retransmits; the planner's answer at budget 0.4 mixes two tables.
    harq = [solve(model, trunc, 5.0).policy, solve_constrained(model, trunc, 0.4).mixed]
    sims = [(policy, model, trunc) for policy in [ThresholdPolicy(4), PeriodicPolicy(3), *harq]]
    checks = [
        ("arq-closed-forms-vs-exact-chain", 1e-8, oracles.arq_closed_forms(ps, deltas)),
        ("lagrangian-identity", 1e-12, oracles.lagrangian_identity(ps, deltas, [0.5, 2.0, 10.0, 40.0])),
        ("threshold-candidates-vs-brute-force", 1e-12, oracles.threshold_candidates_excess(ps, etas, 300 if quick else 1000)),
        ("rvi-threshold-structure", 2e-8, oracles.arq_solver_residual([(0.5, 10.0)], 120 if quick else 500)),
        ("budget-met-with-equality", 1e-6, oracles.budget_gap(budgets)),
        ("duality-gap", 1e-12, oracles.duality_gap(certified)),
        ("simulation-vs-exact-evaluation", 3.0, oracles.simulation_excess(sims, 50_000 if quick else 200_000, 8, 7, 2e-5)),
    ]
    failures = 0
    for name, tol, worst in checks:
        ok = worst <= tol
        print(f"{'PASS' if ok else 'FAIL'}  {name}: worst {worst:.2e}, tolerance {tol:g}")
        failures += 0 if ok else 1
    print(f"# verify: {failures} failure(s)")
    return 1 if failures else 0


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser.  No prefix matching: an abbreviated flag, or
    ``sweep --config`` key, is unknown.  It reports unknown arguments itself,
    with its own usage, where argparse would leave them to the top-level parser."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="aoi-sched", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    p = sub.add_parser("solve", help="policy iteration for the average-cost optimum at a fixed charge")
    _model_args(p)
    p.add_argument("--eta", type=_ETA, default=5.0)
    p.add_argument("--out", help="CSV dump of h/Q/policy tables")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("arq", help="closed-form optimal randomized threshold")
    # The closed forms check the error probability.
    p.add_argument("--p", type=_checked(float, lambda p: arq.cost_of_threshold(p, 1)), required=True)
    p.add_argument("--cmax", type=_CMAX, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_arq)

    p = sub.add_parser("search-eta", help="multiplier search for a budget")
    _model_args(p)
    p.add_argument("--cmax", type=_CMAX, required=True)
    p.add_argument("--trace-out", help="CSV trace of the probes, one row per charge")
    p.set_defaults(func=cmd_search_eta)

    p = sub.add_parser("simulate", help="Monte-Carlo evaluation of a policy")
    _model_args(p)
    p.add_argument("--policy", choices=("threshold", "periodic", "always-new", "optimal", "arq-optimal"), default="threshold")
    p.add_argument("--threshold", type=_checked(int, ThresholdPolicy), default=4)
    p.add_argument("--transmit-prob", type=_checked(float, lambda prob: ThresholdPolicy(1, prob)), default=1.0)
    p.add_argument("--cmax", type=_CMAX, default=0.4)
    p.add_argument("--horizon", type=_count(1), default=10_000)
    p.add_argument("--reps", type=_count(1), default=100)
    p.add_argument("--seed", type=_count(0), default=0)
    p.add_argument("--out", help="stats CSV")
    p.add_argument("--trace-out", help="slot trace CSV (first --trace-slots slots)")
    p.add_argument("--trace-slots", type=_count(1), default=1000)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("learn", help="online learning without channel knowledge")
    _model_args(p)
    p.add_argument("--cmax", type=_CMAX, default=0.4)
    p.add_argument("--steps", type=_count(0), default=10_000)
    p.add_argument("--reps", type=_count(1), default=100)
    p.add_argument("--seed", type=_count(0), default=0)
    p.add_argument("--tau", type=_learner("tau"), default=1.0)
    p.add_argument("--eta0", type=_learner("eta0"), default=2.0)
    p.add_argument("--eta-step", type=_learner("eta_step"), default=0.5)
    p.add_argument("--timeline-out", help="aggregated learning-curve CSV")
    p.add_argument("--timeline-points", type=_count(1), default=200)
    p.add_argument("--qtable-out", help="final table CSV (first replication)")
    p.add_argument("--compare-rvi", action="store_true", help="append planned-policy reference")
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("sweep", help="grid experiments over budgets and channels")
    p.add_argument("--config", type=_config_flags, help="JSON object of sweep flags; the command line's override it")
    p.add_argument("--p0", type=float, nargs="+", default=[0.5])
    p.add_argument("--lam", type=float, nargs="+", default=[0.5])
    p.add_argument("--rmax", type=int, nargs="+", default=[3])
    p.add_argument("--cmax", type=float, nargs="+", default=[round(0.1 * k, 10) for k in range(1, 11)])
    p.add_argument("--protocols", nargs="+", choices=_PROTOCOLS, default=list(_PROTOCOLS))
    p.add_argument("--horizon", type=_count(0), default=10_000, help="slots per replication (0: no simulation)")
    p.add_argument("--reps", type=_count(1), default=1000)
    p.add_argument("--nmax", type=_NMAX, default=150)
    p.add_argument("--seed", type=_count(0), default=0)
    p.add_argument("--workers", type=_count(1), default=1)
    p.add_argument("--quick", action="store_true", help="reduced horizon and replications")
    p.add_argument("--out", help="sweep CSV (stdout when omitted)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the cross-module oracle suites")
    p.add_argument("--quick", action="store_true", help="reduced grids, finishes in seconds")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if getattr(args, "config", None):  # the file's flags, then the command line's, which win
        args = parser.parse_args([args.command, *args.config, *argv[1:]])
    try:
        return args.func(args)
    except _NAMED_ERRORS as exc:
        print(f"aoi-sched: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
