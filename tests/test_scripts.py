"""The experiment scripts are the CLI's subcommands with fixed settings."""

import ast
import json
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from aoi_sched.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden"  # python scripts/cli_outputs.py tests/golden
BUDGETS = [f"{0.05 * k:.2f}" for k in range(2, 21)]  # 0.10, 0.15, ..., 1.00


def run_script(name, *argv, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exc.value.code


def test_budget_sweep_is_the_sweep_subcommand(tmp_path, monkeypatch, capsys):
    script, cli = tmp_path / "script.csv", tmp_path / "cli.csv"
    assert run_script("budget_sweep.py", "--p0", "0.5", "--horizon", "0", "--out", str(script), monkeypatch=monkeypatch) == 0
    assert main([
        "sweep", "--p0", "0.5", "--lam", "0.5", "--rmax", "3", "--cmax", *BUDGETS,
        "--protocols", "arq", "harq", "baseline", "--horizon", "0", "--out", str(cli),
    ]) == 0
    assert script.read_bytes() == cli.read_bytes()
    assert len(script.read_text().splitlines()) == 1 + 3 * len(BUDGETS)


def test_learning_curves_is_the_learn_subcommand(tmp_path, monkeypatch, capsys):
    script, cli = tmp_path / "script.csv", tmp_path / "cli.csv"
    assert run_script(
        "learning_curves.py", "--reps", "2", "--steps", "200", "--timeline-out", str(script), monkeypatch=monkeypatch
    ) == 0
    script_summary = json.loads(capsys.readouterr().out)
    assert main([
        "learn", "--p0", "0.5", "--lam", "0.5", "--rmax", "3", "--nmax", "100", "--cmax", "0.4",
        "--steps", "200", "--reps", "2", "--timeline-out", str(cli), "--compare-rvi",
    ]) == 0
    assert script_summary == json.loads(capsys.readouterr().out)
    assert "gap" in script_summary
    assert script.read_bytes() == cli.read_bytes()


def test_a_flag_given_to_a_script_overrides_its_own_setting(tmp_path, monkeypatch, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["--p0", "0.7", "--cmax", "0.3", "--protocols", "arq", "--horizon", "0", "--out", str(out)]
    assert run_script("budget_sweep.py", *argv, monkeypatch=monkeypatch) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[1:6] for row in rows] == [["arq", "0.7", "0.5", "3", "0.3"]]

    # An ARQ link in place of the script's HARQ one: the table has no retransmission states.
    qtable = tmp_path / "q.csv"
    argv = ["--reps", "1", "--steps", "50", "--rmax", "0", "--lam", "1", "--timeline-out", str(tmp_path / "tl.csv")]
    assert run_script("learning_curves.py", *argv, "--qtable-out", str(qtable), monkeypatch=monkeypatch) == 0
    assert json.loads(capsys.readouterr().out)["steps"] == 50
    rows = [line.split(",") for line in qtable.read_text().splitlines()[1:]]
    assert len(rows) == 100 and {row[1] for row in rows} == {"0"}
    assert all(row[4] == "" and f"{float(row[2]):.12g}" == row[2] for row in rows)


def test_solve_scan_prints_one_line_per_draw_and_a_summary(monkeypatch, capsys):
    outputs = []
    for _ in range(2):
        assert run_script("solve_scan.py", "--draws", "5", "--seed", "5", monkeypatch=monkeypatch) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    *draws, summary = outputs[0].splitlines()
    assert len(draws) == 5 and all(line.startswith("(") for line in draws)
    solved = sum(len(line.split(") ")[1].split()) == 4 for line in draws)
    errors = sum(line.endswith(") TruncationError") for line in draws)
    assert solved + errors == 5 and 0 < solved
    assert summary.startswith(f"solved {solved} errors {{'TruncationError': {errors}}} evaluations ")


def test_chain_scan_prints_two_lines_per_chain(monkeypatch, capsys):
    outputs = []
    for _ in range(2):
        assert run_script("chain_scan.py", "--draws", "4", "--seed", "1", monkeypatch=monkeypatch) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert len(lines) == 4 * 2 * 2
    words = [line.split(") ")[1].split() for line in lines]
    assert [w[:2] for w in words] == [[kind, answer] for kind in ("table", "randomized") for answer in ("values", "stationary")] * 4
    for w in words:
        if w[1] == "stationary" or w[2] != "None":
            float.fromhex(w[2])
            assert len(w[-1]) == 16


@pytest.mark.parametrize("name, command", [("budget_sweep.py", "sweep"), ("learning_curves.py", "learn")])
def test_help_starts_with_the_script_docstring(name, command, monkeypatch, capsys):
    doc = ast.get_docstring(ast.parse((SCRIPTS / name).read_text()), clean=False)
    assert run_script(name, "--help", monkeypatch=monkeypatch) == 0
    out = capsys.readouterr().out
    assert out.startswith(doc) and f"usage: aoi-sched {command}" in out[len(doc):]


def test_cli_outputs_writes_every_output_of_its_commands(tmp_path, monkeypatch):
    monkeypatch.setenv("AOI_SCHED_OUTDIR", "")  # the script points it at its directory
    assert run_script("cli_outputs.py", str(tmp_path), monkeypatch=monkeypatch) == 0
    commands = [
        "arq", "arq-long-budget", "budget-sweep-exact", "budget-sweep-quick", "budget-sweep-workers", "learn",
        "learn-harq", "learn-steps0", "search-eta", "search-eta-reuse", "simulate-always-new", "simulate-arq-optimal",
        "simulate-batches", "simulate-mixture", "simulate-optimal", "simulate-periodic", "solve-arq", "solve-error", "solve-harq", "sweep-failing", "sweep-stdout", "verify",
        "verify-quick",
    ]
    csvs = [
        "budget-sweep-exact", "budget-sweep-quick", "budget-sweep-workers", "learn-harq-qtable", "learn-qtable",
        "learn-steps0-timeline", "learn-timeline", "search-eta-reuse-trace", "search-eta-trace", "simulate-optimal",
        "simulate-optimal-trace", "simulate-periodic", "solve-arq", "solve-harq", "sweep-failing",
    ]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        [f"{name}.{kind}" for name in commands for kind in ("exit", "stderr", "stdout")] + [f"{name}.csv" for name in csvs]
    )
    exits = {name: (tmp_path / f"{name}.exit").read_text() for name in commands}
    assert exits == {name: "1\n" if name in ("solve-error", "sweep-failing") else "0\n" for name in commands}
    assert (tmp_path / "sweep-stdout.stdout").read_text().startswith("schema,protocol,")
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(path.name for path in tmp_path.iterdir())
    changed = [path.name for path in sorted(tmp_path.iterdir()) if path.read_bytes() != (GOLDEN / path.name).read_bytes()]
    assert changed == [], f"outputs differ from {GOLDEN}: {changed}"


def test_same_as_reports_a_last_bit_difference_either_way(tmp_path, capsys):
    compare = runpy.run_path(str(SCRIPTS / "same_as.py"))["compare"]
    trees = {}
    for name in ("base", "planted"):
        tree = trees[name] = tmp_path / name
        shutil.copytree(SCRIPTS.parent / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
        (tree / "scripts").mkdir()
        shutil.copy(SCRIPTS / "solve_scan.py", tree / "scripts")
    exact = trees["planted"] / "src/aoi_sched/exact.py"
    source = exact.read_text()
    assert source.count("float(pi @ space.delta)") == 1
    exact.write_text(source.replace("float(pi @ space.delta)", "float(pi @ space.delta) * (1.0 + 2.0**-52)"))
    scans = {"solve-scan": ["scripts/solve_scan.py", "--draws", "3", "--seed", "5"]}

    assert compare(trees["base"], trees["base"], scans) == 0
    assert capsys.readouterr().out == "solve-scan: identical\n"
    for base, head in (("base", "planted"), ("planted", "base")):
        assert compare(trees[base], trees[head], scans) == 1
        headline, detail = capsys.readouterr().out.splitlines()
        assert headline == "solve-scan: differs in 1 output(s)" and detail.startswith("  stdout ")


def test_code_lines_counts_the_lines_that_hold_code():
    code_lines = runpy.run_path(str(SCRIPTS / "code_lines.py"))["code_lines"]
    source = '''"""A module docstring,
over two lines."""

# A comment.
total = sum([1,  # a comment after code
             2])
'''
    assert code_lines(source) == 2
    assert code_lines(source + 'def f():\n    """A docstring."""\n    return "a string"\n') == 4


def test_unreached_lines_lists_the_package_lines_a_run_never_executes():
    root = SCRIPTS.parent
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "unreached_lines.py"), "-q", "-p", "no:cacheprovider", "tests/test_policies.py"],
        cwd=root, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *_, count = proc.stdout.splitlines()
    listed = [line for line in proc.stdout.splitlines() if line.startswith("src/aoi_sched/")]
    assert count == f"{len(listed)} unreached lines"
    source = (root / "src/aoi_sched/policies.py").read_text().splitlines()

    def where(text):
        (number,) = [k for k, line in enumerate(source, 1) if text in line]
        return f"src/aoi_sched/policies.py:{number}: {source[number - 1].strip()}"

    # test_policies builds a mixture of a periodic policy, and never describes a mixture.
    assert where("mixture components must be stationary table or threshold policies") not in listed
    assert where('return f"mixture[w=') in listed


def test_bench_pairs_counts_wins_by_each_metrics_direction():
    bench = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    quartiles, summarize = bench["quartiles"], bench["summarize"]
    assert quartiles([9.0, 10.0, 10.0, 11.0]) == {"median": 10.0, "q1": 9.25, "q3": 10.75}
    assert quartiles([5.0]) == {"median": 5.0, "q1": None, "q3": None}
    assert quartiles([]) == {"median": None, "q1": None, "q3": None}

    def run(pair, side, ops, rss):
        return {"pair": pair, "side": side, "result": {"metrics": {"ops": {"value": ops}, "rss": {"value": rss}}}}

    runs = [
        run(0, "base", 10.0, 50.0), run(0, "change", 12.0, 40.0),  # the change wins both
        run(1, "base", 10.0, 50.0), run(1, "change", 10.0, 50.0),  # ties: a win for neither side
        run(2, "base", 11.0, 50.0), run(2, "change", 9.0, 60.0),  # the base wins both
        run(3, "base", 1000.0, 1000.0), {"pair": 3, "side": "change", "result": None},  # a failed run drops its pair
        run(4, "base", 9.0, 50.0), run(4, "change", 13.0, 45.0),  # the change wins both
    ]
    metrics = [{"name": "ops", "unit": "1/s", "better": "higher"}, {"name": "rss", "unit": "MB", "better": "lower"}]
    ops, rss = (summarize(runs, metrics)[name] for name in ("ops", "rss"))
    assert (ops["pairs"], ops["wins"], rss["pairs"], rss["wins"]) == (4, 2, 4, 2)
    assert ops["base"] == {"median": 10.0, "q1": 9.25, "q3": 10.75}
    assert ops["change"] == {"median": 11.0, "q1": 9.25, "q3": 12.75}
    assert ops["median_ratio"] == 1.1 and rss["median_ratio"] == 47.5 / 50.0
    # Medians 1 apart within the base's quartile distance 1.5; 2.5 apart beyond its distance 0.
    assert not ops["medians_apart_beyond_base_iqr"]
    assert rss["medians_apart_beyond_base_iqr"]
