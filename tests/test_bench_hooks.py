"""The benchmark's tracer patches radrep functions by name; keep them there.

``bench/tracing.py`` replaces each ``(owner, attr)`` of its ``TRACED``
table at the name callers look it up. A refactor that moves or renames
one of them would silently blind a per-layer metric, so fail here first.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_hook_resolves_to_a_radrep_function(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclasses
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for owner, attr, span, _ in tracing.TRACED:
        target = getattr(owner, attr, None)
        assert inspect.isfunction(target), f"{owner.__name__}.{attr} ({span})"
        assert target.__module__.startswith("radrep."), \
            f"{owner.__name__}.{attr} is {target.__module__}.{target.__name__}"
