"""The names the benchmark's tracer wraps must exist in the package.

``bench/tracing.py`` wraps functions and methods by (module, attribute
path) only when a traced run installs it, so a deleted or renamed target
would otherwise fail only there.  The file is read as source and run in
a fresh namespace: nothing is installed and nothing under ``bench/`` is
written.  The tracer's commutant-hit counter also reads
``view._comm_cache`` with ``in``, so a view's cache must answer that both
before and after its whole-ring corner is built.
"""

import importlib
import inspect
import runpy
from pathlib import Path

from qpolar import T3, PrimeField
from qpolar.oracle import FiniteRingView

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
NAMES = runpy.run_path(str(TRACING))
TARGETS = sorted(
    set(NAMES["SPANS"].values())
    | {target for targets in NAMES["COUNTERS"].values() for target in targets}
)


def resolves(module: str, path: str) -> bool:
    owner = importlib.import_module(f"qpolar.{module}")
    *cls, attr = path.split(".")
    try:
        if cls:
            found = inspect.getattr_static(getattr(owner, cls[0]), attr)
            return callable(found) or isinstance(found, property)
        return callable(getattr(owner, attr))
    except AttributeError:
        return False


def test_every_traced_target_resolves():
    assert len(TARGETS) > 50
    assert [t for t in TARGETS if not resolves(*t)] == []


def test_the_commutant_cache_answers_in_before_and_after_the_corner():
    view = FiniteRingView(PrimeField(2), T3)
    key = view.keys[1]
    assert key not in view._comm_cache
    view.commutant_keys(key)
    assert key in view._comm_cache
    view._corner(view.one_key)
    assert all(k in view._comm_cache for k in view.keys)
