import csv
import dataclasses
import json
import re
import runpy
import sys

import numpy as np
import pytest

from aoi_sched import arq, exact, lagrange, rvi, simulate
from aoi_sched.cli import SWEEP_HEADER, main
from aoi_sched.errors import BracketingError
from aoi_sched.mdp import ChannelModel, Truncation, enumerate_states
from aoi_sched.policies import ThresholdPolicy
from aoi_sched.simulate import run


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def is_12g(cell):
    """A result cell as the CLI writes it: ``%.12g`` of a float."""
    return cell == f"{float(cell):.12g}"


def test_arq_json(capsys):
    assert main(["arq", "--p", "0.5", "--cmax", "0.35"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["delta1"] == 4 and out["delta2"] == 5
    assert out["mu_star"] == pytest.approx(0.25, abs=1e-9)
    assert out["avg_cost"] == pytest.approx(0.35, abs=1e-12)


def test_the_module_runs_as_a_script(monkeypatch, capsys):
    # As python -m aoi_sched.cli runs it: a fresh module named __main__, exiting with main's code.
    monkeypatch.setattr(sys, "argv", ["aoi_sched.cli", "arq", "--p", "0.5", "--cmax", "0.35"])
    monkeypatch.delitem(sys.modules, "aoi_sched.cli")
    with pytest.raises(SystemExit) as info:
        runpy.run_module("aoi_sched.cli", run_name="__main__")
    assert info.value.code == 0 and json.loads(capsys.readouterr().out)["delta1"] == 4


def test_arq_csv(capsys):
    assert main(["arq", "--p", "0.5", "--cmax", "0.4", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("p,c_max,delta_cmax")
    assert len(lines) == 2


def test_solve_writes_tables(tmp_path, capsys):
    out = tmp_path / "tables.csv"
    rc = main([
        "solve", "--p0", "0.5", "--lam", "1.0", "--rmax", "0",
        "--nmax", "80", "--eta", "10", "--out", str(out),
    ])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["threshold"] in (5, 6)
    assert 0.0 <= summary["tail_mass"] < 1e-12
    rows = read_csv(out)
    assert rows[0] == ["delta", "r", "h", "q_idle", "q_new", "q_retx", "action"]
    assert len(rows) == 81
    assert rows[1][-1] == "i"
    # Values as 12 digits; an ARQ link has no retransmission to value.
    assert all(row[5] == "" and all(is_12g(cell) for cell in row[2:5]) for row in rows[1:])


def test_solve_unconstrained_never_idles(tmp_path, capsys):
    out = tmp_path / "tables.csv"
    rc = main([
        "solve", "--p0", "0.5", "--lam", "0.5", "--rmax", "3",
        "--nmax", "60", "--eta", "0", "--out", str(out),
    ])
    assert rc == 0
    rows = read_csv(out)
    actions = {row[-1] for row in rows[1:]}
    assert "i" not in actions
    assert actions <= {"n", "x"}


def test_search_eta_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    rc = main([
        "search-eta", "--p0", "0.5", "--lam", "1.0", "--rmax", "0",
        "--nmax", "150", "--cmax", "0.3", "--trace-out", str(trace),
    ])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["eta_star"] == pytest.approx(10.0, abs=1e-2)
    rows = read_csv(trace)
    assert rows[0] == ["step", "eta", "avg_cost", "avg_aoi", "gain", "phase", "iterations", "residual"]
    assert len(rows) > 2
    assert summary["solver_iterations"] == sum(int(row[6]) for row in rows[1:])
    # The first probe solves cold; a later one evaluates nothing when the policy before it is still optimal.
    assert int(rows[1][6]) >= 1 and all(int(row[6]) >= 0 and float(row[7]) <= 1e-8 for row in rows[1:])
    # Results as 12 digits, the residual as 6.
    result = lagrange.search_eta_star(ChannelModel(0.5, 1.0, 0), Truncation(150, 0), 0.3)
    assert any(row.residual > 0 for row in result.trace)
    assert rows[1:] == [
        [str(row.step), f"{row.eta:.12g}", f"{row.avg_cost:.12g}", f"{row.avg_aoi:.12g}", f"{row.gain:.12g}",
         row.phase, str(row.iterations), f"{row.residual:.6g}"]
        for row in result.trace
    ]


def test_simulate_stats_and_trace(tmp_path, capsys):
    stats = tmp_path / "stats.csv"
    trace = tmp_path / "trace.csv"
    rc = main([
        "simulate", "--p0", "0.5", "--lam", "1.0", "--rmax", "0",
        "--policy", "threshold", "--threshold", "4",
        "--horizon", "5000", "--reps", "4", "--seed", "3",
        "--out", str(stats), "--trace-out", str(trace), "--trace-slots", "50",
    ])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mean_cost"] == pytest.approx(0.4, abs=0.05)
    srows = read_csv(stats)
    assert srows[0][0] == "schema"
    assert srows[1][0] == "aoi-stats-1"
    trows = read_csv(trace)
    assert trows[0] == ["t", "delta", "r", "action", "success"]
    assert len(trows) == 51
    # The trace is the start of replication 0.
    _, rep0 = run(ThresholdPolicy(4), ChannelModel(0.5, 1.0, 0), 5000, np.random.default_rng([3, 0]), collect_trace=True)
    assert [int(row[1]) for row in trows[1:]] == rep0.delta[:50].tolist()


def test_learn_zero_horizon(tmp_path, capsys):
    timeline = tmp_path / "tl.csv"
    rc = main([
        "learn", "--p0", "0.5", "--lam", "0.5", "--rmax", "3", "--nmax", "50",
        "--steps", "0", "--reps", "2", "--timeline-out", str(timeline),
    ])
    assert rc == 0
    rows = read_csv(timeline)
    assert rows[0][0] == "n"
    assert len(rows) == 1  # header only


def test_learn_zero_horizon_writes_the_untrained_table(tmp_path, capsys):
    qtable = tmp_path / "q.csv"
    rc = main([
        "learn", "--p0", "0.5", "--lam", "0.5", "--rmax", "3", "--nmax", "50",
        "--steps", "0", "--reps", "2", "--qtable-out", str(qtable),
    ])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {"replications": 2, "steps": 0}
    rows = read_csv(qtable)
    assert rows[0] == ["delta", "r", "q_idle", "q_new", "q_retx"]
    assert [(int(d), int(r)) for d, r, *_ in rows[1:]] == enumerate_states(Truncation(50, 3))
    # An all-zero table; retransmission is inadmissible without a failed packet and at the cap.
    assert all(row[2:] == ["0", "0", "0" if 1 <= int(row[1]) < 3 else ""] for row in rows[1:])


@pytest.mark.parametrize(
    "steps, points, ns",
    [
        (5, 3, [2, 4, 5]),
        (7, 7, list(range(1, 8))),
        (3, 5, [1, 2, 3]),
        (10_000, 200, list(range(50, 10_001, 50))),
        (10_000, 300, [*range(34, 10_000, 34), 10_000]),
    ],
)
def test_timeline_has_at_most_the_points_asked_for(steps, points, ns, tmp_path, capsys):
    timeline = tmp_path / "tl.csv"
    rc = main([
        "learn", "--rmax", "3", "--nmax", "30", "--steps", str(steps), "--reps", "1",
        "--timeline-points", str(points), "--timeline-out", str(timeline),
    ])
    assert rc == 0
    assert [int(row[0]) for row in read_csv(timeline)[1:]] == ns
    assert len(ns) <= points


def test_learn_small_run(tmp_path, capsys):
    timeline = tmp_path / "tl.csv"
    qtable = tmp_path / "q.csv"
    rc = main([
        "learn", "--p0", "0.5", "--lam", "0.5", "--rmax", "3", "--nmax", "40",
        "--steps", "300", "--reps", "2", "--timeline-out", str(timeline),
        "--qtable-out", str(qtable), "--timeline-points", "10",
    ])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["steps"] == 300
    rows = read_csv(timeline)
    assert rows[0] == ["n", "mean_running_aoi", "var_running_aoi", "mean_running_cost", "mean_eta", "mean_gain"]
    assert int(rows[-1][0]) == 300
    qrows = read_csv(qtable)
    assert qrows[0] == ["delta", "r", "q_idle", "q_new", "q_retx"]


def test_sweep_quick_grid(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--p0", "0.5", "--lam", "0.5", "--rmax", "3",
        "--cmax", "0.3", "0.5", "--protocols", "arq", "baseline",
        "--horizon", "500", "--reps", "3", "--nmax", "60", "--quick",
        "--out", str(out),
    ])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == SWEEP_HEADER
    assert len(rows) == 5
    protocols = [r[1] for r in rows[1:]]
    assert protocols == ["arq", "baseline", "arq", "baseline"]  # grid order
    assert all(r[-1] == "" for r in rows[1:])


def test_sweep_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "p0": [0.5], "lam": [1.0], "rmax": [0], "cmax": [0.5],
        "protocols": ["arq"], "horizon": 0, "nmax": 60, "seed": 1,
    }))
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--config", str(cfg), "--cmax", "0.25", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 2
    assert float(rows[1][5]) == 0.25  # flag overrode the file value


def test_sweep_reproducible_bit_for_bit(tmp_path, capsys):
    args = [
        "sweep", "--p0", "0.5", "--lam", "1.0", "--rmax", "0",
        "--cmax", "0.3", "--protocols", "arq", "harq", "baseline",
        "--horizon", "800", "--reps", "2", "--nmax", "60", "--seed", "5",
    ]
    paths = [tmp_path / f"s{k}.csv" for k in range(3)]
    assert main(args + ["--out", str(paths[0])]) == 0
    assert main(args + ["--out", str(paths[1])]) == 0
    assert main(args + ["--workers", "2", "--out", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


HARQ_AND_BASELINE_SWEEP = [
    "sweep", "--p0", "0.5", "--lam", "0.5", "--rmax", "3", "--cmax", "0.3",
    "--protocols", "harq", "baseline", "--horizon", "0", "--nmax", "60",
]


def test_sweep_failed_point_writes_error_row_and_fails(monkeypatch, tmp_path, capsys):
    def no_bracket(*args, **kwargs):
        raise BracketingError("no bracket")

    monkeypatch.setattr("aoi_sched.cli.solve_constrained", no_bracket)
    out = tmp_path / "sweep.csv"
    assert main(HARQ_AND_BASELINE_SWEEP + ["--out", str(out)]) == 1
    rows = read_csv(out)
    assert [r[1] for r in rows[1:]] == ["harq", "baseline"]
    assert rows[1][-1] == "BracketingError: no bracket"
    assert rows[2][-1] == "" and rows[2][7] != ""
    assert "1 failed" in capsys.readouterr().err


def test_sweep_cells(capsys):
    # The ARQ and baseline rows are closed forms; a cell is empty where a point has no value.
    assert main([
        "sweep", "--p0", "0.5", "--lam", "0.5", "--rmax", "3", "--cmax", "0.01", "0.3",
        "--protocols", "arq", "harq", "baseline", "--horizon", "0", "--nmax", "60",
    ]) == 1
    captured = capsys.readouterr()
    lines = captured.out.split("\r\n")
    assert lines[:5] + lines[6:] == [
        "schema,protocol,p0,lam,r_max,c_max,eta_star,exact_aoi,exact_cost,sim_mean_aoi,sim_var_aoi,sim_mean_cost,error",
        "aoi-sweep-1,arq,0.5,0.5,3,0.01,,100.505,0.01,,,,",
        "aoi-sweep-1,harq,0.5,0.5,3,0.01,,,,,,,TruncationError: age cap n_max=60 is too small for budget 0.01: "
        "meeting it needs the policy that idles forever at the cap; use about n_max=245",
        "aoi-sweep-1,baseline,0.5,0.5,3,0.01,,150.5,0.01,,,,",
        "aoi-sweep-1,arq,0.5,0.5,3,0.3,,4,0.3,,,,",
        "aoi-sweep-1,baseline,0.5,0.5,3,0.3,,6.5,0.25,,,,",
        "",
    ]
    harq = lines[5].split(",")
    assert harq[:6] == ["aoi-sweep-1", "harq", "0.5", "0.5", "3", "0.3"] and harq[9:] == ["", "", "", ""]
    sol = lagrange.solve_constrained(ChannelModel(0.5, 0.5, 3), Truncation(60, 3), 0.3)
    assert harq[6:9] == [f"{value:.12g}" for value in (sol.eta_star, sol.achieved_aoi, sol.achieved_cost)]
    assert captured.err == "# sweep: 6 points, 1 failed\n"


def test_sweep_programming_error_propagates(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr("aoi_sched.cli.solve_constrained", broken)
    with pytest.raises(TypeError, match="bug"):
        main(HARQ_AND_BASELINE_SWEEP + ["--out", str(tmp_path / "sweep.csv")])


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["search-eta", "--p0", "0.5", "--lam", "0.5", "--rmax", "3", "--cmax", "0.4", "--nmax", "3"],
            "TruncationError: age cap n_max=3 is too small for budget 0.4",
        ),
        (
            ["solve", "--p0", "0.5", "--lam", "0.5", "--rmax", "3", "--nmax", "20", "--eta", "1000"],
            "NoStationaryAoIError: policy never transmits on its recurrent class",
        ),
        (
            ["solve", "--p0", "0.5", "--lam", "0.5", "--rmax", "3", "--nmax", "20", "--eta", "3"],
            "ConvergenceError: no convergence within 1 policy evaluations",
        ),
    ],
)
def test_named_errors_end_in_one_line(argv, message, capsys, monkeypatch):
    if message.startswith("ConvergenceError"):
        monkeypatch.setattr(rvi, "_MAX_EVALUATIONS", 1)  # the solver's evaluation limit
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"aoi-sched: error: {message}")
    assert "Traceback" not in captured.err and captured.err.count("\n") == 1


def test_programming_errors_still_propagate(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr("aoi_sched.cli.solve", broken)
    with pytest.raises(TypeError, match="bug"):
        main(["solve", "--p0", "0.5", "--nmax", "20", "--eta", "3"])


def test_sweep_reports_too_small_age_cap(tmp_path, capsys):
    # Budget 0.01 needs thresholds near age 199; a cap of 60 cannot hold them.
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--p0", "0.5", "--lam", "0.5", "--rmax", "3", "--cmax", "0.01",
        "--protocols", "harq", "--horizon", "0", "--nmax", "60", "--out", str(out),
    ])
    assert rc == 1
    error = read_csv(out)[1][-1]
    assert error.startswith("TruncationError:")
    assert "n_max=60" in error and "n_max=245" in error


def test_outdir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("AOI_SCHED_OUTDIR", str(tmp_path))
    rc = main([
        "simulate", "--p0", "0.5", "--lam", "1.0", "--rmax", "0",
        "--policy", "periodic", "--cmax", "0.5", "--horizon", "100",
        "--reps", "1", "--out", "nested/stats.csv",
    ])
    assert rc == 0
    assert (tmp_path / "nested" / "stats.csv").exists()


@pytest.mark.parametrize("argv", [["verify", "--quick"], ["verify"]], ids=["quick", "full"])
def test_verify_passes(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("PASS  ") == 7 and "FAIL" not in out


# A fault in each collaborator that the oracles call through its module, and the checks it must fail.
FAULTS = {
    "evaluate_exact": (exact, lambda res: dataclasses.replace(res, avg_aoi=res.avg_aoi * (1 + 1e-6)), ["arq-closed-forms"]),
    "lagrangian_cost": (arq, lambda value: value * (1 + 1e-9), ["lagrangian-identity"]),
    "threshold_candidates": (arq, lambda pair: (pair[0] + 2, pair[1] + 2), ["threshold-candidates", "rvi-threshold"]),
    "bellman_residual": (rvi, lambda residual: residual + 1e-6, ["rvi-threshold"]),
    "renewal_mixture_weight": (lagrange, lambda w: 0.9 * w, ["budget-met"]),
    "evaluate_simulated": (simulate, lambda st: dataclasses.replace(st, mean_cost=st.mean_cost + 1e-3), ["simulation-vs-exact"]),
}


@pytest.mark.parametrize("name", FAULTS)
def test_verify_fails_when_a_collaborator_breaks(name, monkeypatch, capsys):
    module, spoil, checks = FAULTS[name]
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: spoil(original(*args, **kwargs)))
    assert main(["verify", "--quick"]) == 1
    out = capsys.readouterr().out
    assert all(f"FAIL  {check}" in out for check in checks), out


def test_verify_fails_on_a_loose_tie_tolerance(monkeypatch, capsys):
    # At 1e-9 the solver reads off a policy above the one it evaluated, as it once did.
    monkeypatch.setattr(rvi, "_TIE_RTOL", 1e-9)
    assert main(["verify", "--quick"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  duality-gap" in out and out.count("FAIL  ") == 1, out


@pytest.mark.parametrize(
    "argv",
    [
        ["learn", "--reps", "0"],
        ["learn", "--timeline-points", "0"],
        ["learn", "--steps", "-1"],
        ["simulate", "--reps", "0"],
        ["simulate", "--horizon", "0"],
        ["simulate", "--trace-slots", "0"],
        ["sweep", "--horizon", "-5"],
        ["sweep", "--workers", "0"],
        ["simulate", "--seed", "-1"],
        ["learn", "--seed", "-1"],
        ["sweep", "--seed", "-1"],
        ["sweep", "--reps", "0"],
    ],
)
def test_count_flags_reject_bad_values(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected an integer of at least" in capsys.readouterr().err


def sweep_config_exits_2(text, tmp_path, capsys):
    """Run ``sweep --config`` on a file holding ``text``; it must exit 2 and
    write no CSV.  Returns the error output."""
    cfg = tmp_path / "config.json"
    if text is not None:
        cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep.csv")])
    assert exc.value.code == 2
    assert not (tmp_path / "sweep.csv").exists()
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "Traceback" not in err, err
    return err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("reps", 0, "expected an integer of at least 1, got 0"),
        ("horizon", -5, "expected an integer of at least 0, got -5"),
        ("seed", -1, "expected an integer of at least 0, got -1"),
        ("nmax", 1, "must"),
        ("reps", 2.5, "invalid count value"),
    ],
)
def test_sweep_config_counts_are_checked_like_their_flags(key, value, message, tmp_path, capsys):
    config = {"cmax": [0.5], "protocols": ["baseline"], "horizon": 100, key: value}
    err = sweep_config_exits_2(json.dumps(config), tmp_path, capsys)
    assert f"argument --{key}: " in err and message in err, err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("cmaxx", [0.5], "unrecognized arguments: --cmaxx 0.5"),
        ("cm", [0.5], "unrecognized arguments: --cm 0.5"),  # not an abbreviation of --cmax
        ("protocols", ["arq", "harqq"], "argument --protocols: invalid choice: 'harqq'"),
        ("p0", None, "argument --p0: invalid float value: 'None'"),
        ("p0", [], "argument --p0: expected at least one argument"),
    ],
    ids=["unknown-key", "abbreviated-key", "unknown-protocol", "null-value", "empty-list"],
)
def test_sweep_config_rejects_malformed_grid_keys(key, value, message, tmp_path, capsys):
    config = {"cmax": [0.5], "protocols": ["baseline"], "horizon": 0, key: value}
    err = sweep_config_exits_2(json.dumps(config), tmp_path, capsys)
    assert message in err, err


def test_abbreviated_flag_is_unknown(capsys):
    # With prefix matching it would stand for --steps.
    with pytest.raises(SystemExit) as exc:
        main(["learn", "--ste", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --ste 5" in capsys.readouterr().err


def test_unknown_flag_is_reported_with_the_subcommand_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["learn", "--ste", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: aoi-sched learn ") and "--steps STEPS" in err, err
    assert "aoi-sched learn: error: unrecognized arguments: --ste 5" in err, err


def test_unknown_config_key_is_reported_with_the_sweep_usage(tmp_path, capsys):
    err = sweep_config_exits_2(json.dumps({"cm": [0.5]}), tmp_path, capsys)
    assert err.startswith("usage: aoi-sched sweep ") and "--cmax CMAX" in err, err
    assert "aoi-sched sweep: error: unrecognized arguments: --cm 0.5" in err, err


def test_sweep_config_must_be_an_object(tmp_path, capsys):
    err = sweep_config_exits_2(json.dumps([{"cmax": [0.5]}]), tmp_path, capsys)
    assert f"argument --config: {tmp_path / 'config.json'}: expected a JSON object, got list" in err


@pytest.mark.parametrize(
    "text, message",
    [(None, "No such file or directory"), ('{"cmax": [0.5],}', "Expecting property name")],
    ids=["missing", "malformed"],
)
def test_sweep_config_that_cannot_be_read(text, message, tmp_path, capsys):
    err = sweep_config_exits_2(text, tmp_path, capsys)
    assert f"argument --config: cannot read {tmp_path / 'config.json'}: " in err and message in err, err


def sweep_csv(argv, tmp_path, name):
    out = tmp_path / name
    assert main(["sweep", *argv, "--out", str(out)]) == 0
    return out.read_bytes()


def test_sweep_config_values_are_parsed_like_flags(tmp_path, capsys):
    # Strings and integers in the file are flag text: "0.5" is 0.5, and a
    # float setting given 1 is 1.0.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"p0": ["0.5"], "lam": [1], "protocols": ["baseline"], "cmax": [0.5], "horizon": 0}))
    by_file = sweep_csv(["--config", str(cfg)], tmp_path, "file.csv")
    by_flags = sweep_csv(
        ["--p0", "0.5", "--lam", "1", "--protocols", "baseline", "--cmax", "0.5", "--horizon", "0"], tmp_path, "flags.csv"
    )
    assert by_file == by_flags
    assert read_csv(tmp_path / "file.csv")[1][2:4] == ["0.5", "1.0"]


@pytest.mark.parametrize("key, value", [("cmax", 0.5), ("protocols", "arq")], ids=["scalar-grid", "protocols-string"])
def test_sweep_config_scalar_is_a_one_element_grid(key, value, tmp_path, capsys):
    config = {"cmax": [0.5], "protocols": ["arq"], "horizon": 0}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    as_list = sweep_csv(["--config", str(cfg)], tmp_path, "list.csv")
    cfg.write_text(json.dumps({**config, key: value}))
    assert sweep_csv(["--config", str(cfg)], tmp_path, "scalar.csv") == as_list


def test_sweep_config_keys_are_sweep_flags(tmp_path, capsys):
    # Any sweep flag is a key, "quick" with no values; the command line wins.
    cfg = tmp_path / "config.json"
    in_file = tmp_path / "in_file.csv"
    cfg.write_text(json.dumps({
        "cmax": [0.5], "protocols": ["baseline"], "reps": 500, "horizon": 5000,
        "quick": [], "out": str(in_file), "workers": 1,
    }))
    assert main(["sweep", "--config", str(cfg)]) == 0
    quick = sweep_csv(["--cmax", "0.5", "--protocols", "baseline", "--reps", "50", "--horizon", "2000"], tmp_path, "quick.csv")
    assert in_file.read_bytes() == quick
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "flag.csv"), "--reps", "3"]) == 0
    assert read_csv(tmp_path / "flag.csv")[1] != read_csv(in_file)[1]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["simulate", "--threshold", "0"], "--threshold"),
        (["simulate", "--p0", "1.5"], "--p0"),
        (["simulate", "--transmit-prob", "2"], "--transmit-prob"),
        (["simulate", "--lam", "0"], "--lam"),
        (["simulate", "--policy", "periodic", "--cmax", "0"], "--cmax"),
        (["solve", "--nmax", "1"], "--nmax"),
        (["solve", "--rmax", "-1"], "--rmax"),
        (["search-eta", "--cmax", "0"], "--cmax"),
        (["learn", "--cmax", "1.5"], "--cmax"),
        (["arq", "--p", "1", "--cmax", "0.3"], "--p"),
        (["arq", "--p", "0.5", "--cmax", "-0.1"], "--cmax"),
        (["solve", "--eta", "-1"], "--eta"),
        (["solve", "--eta", "nan"], "--eta"),
        (["solve", "--eta", "inf"], "--eta"),
        (["learn", "--tau", "0"], "--tau"),
        (["learn", "--tau", "nan"], "--tau"),
        (["learn", "--tau", "inf"], "--tau"),
        (["learn", "--eta0", "nan"], "--eta0"),
        (["learn", "--eta0", "-5"], "--eta0"),
        (["learn", "--eta-step", "nan"], "--eta-step"),
        (["learn", "--eta-step", "inf"], "--eta-step"),
        (["sweep", "--nmax", "1"], "--nmax"),
    ],
)
def test_value_flags_reject_bad_values(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    # The constructor's own message follows the flag's name.
    assert re.search(rf"error: argument {flag}(/--\w+)?: \w+ .*must", err), err


def test_value_flags_still_name_a_malformed_number(capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--p0", "half"])
    assert "argument --p0: invalid float value: 'half'" in capsys.readouterr().err


def test_sweep_reports_bad_values_as_error_rows(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--p0", "1.5", "0.5", "--lam", "0.5", "--rmax", "3", "--cmax", "0.6",
        "--protocols", "baseline", "--horizon", "0", "--out", str(out),
    ])
    assert rc == 1
    rows = read_csv(out)
    assert rows[1][-1] == "ValueError: p0 must lie in (0, 1), got 1.5"
    assert rows[2][-1] == "" and rows[2][7] != ""
