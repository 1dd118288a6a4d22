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

