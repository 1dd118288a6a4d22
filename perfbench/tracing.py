"""Spans around the package's layer boundaries, recorded from outside the package.

The package looks its collaborators up by module attribute at call time
(``rvi.solve`` calls ``StateSpace``, ``lagrange`` calls ``solve`` and
``evaluate_exact``, ``simulate.evaluate_simulated`` calls ``run``, ``sarsa.train``
calls ``step``), so replacing those attributes with timing wrappers traces
every layer without touching ``src/``.  Each span records its name, start,
end, parent span and operation id; spans stay in memory and are written out
when the run ends.  A layer's self time is its span duration minus the time
its child spans cover.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from aoi_sched import exact, lagrange, rvi, sarsa, simulate

SIM_KINDS = ("table", "randomized", "threshold", "mixture", "periodic")


def _count_states(tracer, args, out):
    tracer.counts["mdp.build.states"] += len(out)


def _count_sweeps(tracer, args, out):
    tracer.counts["rvi.sweeps"] += out.iterations
    tracer.counts["rvi.state_sweeps"] += out.iterations * len(out.h_array)


def _count_probes(tracer, args, out):
    c = tracer.counts
    c["lagrange.probes"] += len(out.trace)
    for row in out.trace:
        c[f"lagrange.probes.{row.phase}"] += 1
    c["lagrange.distinct_costs"] += len({row.avg_cost for row in out.trace})


def _count_slots(tracer, args, out):
    # run(policy, model, horizon, ...): evaluate_simulated passes horizon positionally.
    tracer.counts["sim.slots"] += args[2]
    tracer.counts[f"sim.slots.{tracer.op_labels[-1]}"] += args[2]


# (owner, attribute, span name, counter fed with the call's result)
TARGETS = (
    (rvi, "StateSpace", "mdp.build", _count_states),
    (exact, "StateSpace", "mdp.build", _count_states),
    (sarsa, "StateSpace", "mdp.build", _count_states),
    (lagrange, "solve", "rvi.solve", _count_sweeps),
    (lagrange, "search_eta_star", "lagrange.search", _count_probes),
    (lagrange, "evaluate_exact", "exact.eval", None),
    (exact, "evaluate_exact", "exact.eval", None),
    (exact, "induced_chain", "exact.chain", None),
    (simulate, "run", "sim.run", _count_slots),
    (sarsa, "make_learner", "learn.make", None),
    (sarsa, "step", "learn.step", None),
    (simulate.SlotEnv, "step", "learn.env", None),
)


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.op_labels: list[str] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(len(self.op_labels) - 1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, args, out)
            return out

        return traced

    def run_op(self, label: str, fn):
        """Run one benchmark operation as a root span with a fresh operation id."""
        self.op_labels.append(label)
        return self.wrap("op", fn)()

    @contextmanager
    def installed(self):
        """Replace every target attribute with its traced wrapper; restore on exit."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TARGETS]
        try:
            for (owner, attr, name, count), (_, _, orig) in zip(TARGETS, saved):
                setattr(owner, attr, self.wrap(name, orig, count))
            yield self
        finally:
            for owner, attr, orig in saved:
                setattr(owner, attr, orig)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint8),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), op_labels=np.array(self.op_labels), **self.arrays()
        )

    def layer_seconds(self) -> dict[str, float]:
        """Per-layer counts and seconds, keyed by the benchmark's layer metric names."""
        a = self.arrays()
        ids = {name: i for i, name in enumerate(self.names)}
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.zeros(len(dur))
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_s = dur - child

        def spans(name):
            if name not in ids:
                return np.zeros(len(dur), dtype=bool)
            return a["name"] == ids[name]

        def total(name, values=dur):
            return float(values[spans(name)].sum())

        def calls(name):
            return int(spans(name).sum())

        c = self.counts
        rvi_self = total("rvi.solve", self_s)
        search = np.flatnonzero(spans("lagrange.search"))
        m = {
            "mdp.build.calls": calls("mdp.build"),
            "mdp.build.states": c["mdp.build.states"],
            "mdp.build.s": total("mdp.build"),
            "rvi.solve.calls": calls("rvi.solve"),
            "rvi.sweeps": c["rvi.sweeps"],
            "rvi.solve.self_s": rvi_self,
            "rvi.ns_per_state_sweep": 1e9 * rvi_self / c["rvi.state_sweeps"] if c["rvi.state_sweeps"] else 0.0,
            "rvi.state_sweeps_per_s": c["rvi.state_sweeps"] / rvi_self if rvi_self > 0 else 0.0,
            "lagrange.probes": c["lagrange.probes"],
            "lagrange.probes.sa": c["lagrange.probes.sa"],
            "lagrange.probes.expand": c["lagrange.probes.expand"],
            "lagrange.probes.bisect": c["lagrange.probes.bisect"],
            "lagrange.distinct_costs": c["lagrange.distinct_costs"],
            "lagrange.useful_ratio": (
                c["lagrange.distinct_costs"] / c["lagrange.probes"] if c["lagrange.probes"] else 0.0
            ),
            "lagrange.search.self_s": total("lagrange.search", self_s),
            # Everything solve_constrained does after the search returns.
            "lagrange.mix.s": float((a["end"][a["parent"][search]] - a["end"][search]).sum()),
            "exact.eval.calls": calls("exact.eval"),
            "exact.eval.self_s": total("exact.eval", self_s),
            "exact.chain.self_s": total("exact.chain", self_s),
            "sim.slots": c["sim.slots"],
            "sim.run.s": total("sim.run"),
            "learn.steps": calls("learn.step"),
            "learn.step.self_s": total("learn.step", self_s),
            "learn.env.s": total("learn.env"),
            "learn.make.self_s": total("learn.make", self_s),
        }
        for kind in SIM_KINDS:
            ops = [i for i, label in enumerate(self.op_labels) if label == kind]
            secs = float(dur[spans("sim.run") & np.isin(a["op"], ops)].sum())
            m[f"sim.slots_per_s.{kind}"] = c[f"sim.slots.{kind}"] / secs if secs > 0 else 0.0
        return m
