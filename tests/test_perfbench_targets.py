"""The benchmark's traced run wraps package attributes by name; each must still exist.

``perfbench/tracing.py`` is read from the checkout, not changed.
"""

import importlib.util
from pathlib import Path
from types import ModuleType

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_resolves_on_the_package():
    found = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(found)
    found.loader.exec_module(tracing)
    for owner, attr, span, _ in tracing.TARGETS:
        home = owner.__name__ if isinstance(owner, ModuleType) else owner.__module__
        assert home.startswith("aoi_sched."), (home, attr)
        assert callable(getattr(owner, attr, None)), f"{span}: {home}.{attr} is gone"


def test_evaluation_reaches_run_through_the_module(monkeypatch):
    # The traced ``sim.slots`` count adds the third positional argument of
    # every ``simulate.run`` call that the benchmark's wrapper sees.
    from aoi_sched import simulate
    from aoi_sched.mdp import ChannelModel
    from aoi_sched.policies import ThresholdPolicy

    calls = []
    real = simulate.run

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(simulate, "run", spy)
    simulate.evaluate_simulated(ThresholdPolicy(4), ChannelModel(0.5, 1.0, 0), 1_234, 3, seed=2)
    assert [len(args) > 2 and args[2] for args in calls] == [1_234] * 3
