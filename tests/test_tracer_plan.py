"""The bench tracer wraps names in `nlsground` by module and attribute.

A name bound only for the tracer's PLAN looks unused from inside the
package; this test keeps deleting one from passing the suite silently.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_plan_name_is_bound():
    tracer = _load_tracer()
    for module, attr, _, _ in tracer.PLAN:
        owner, name = tracer._resolve(module, attr)
        assert callable(getattr(owner, name, None)), f"nlsground.{module}.{attr}"
