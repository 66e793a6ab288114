"""The benchmark's traced pass resolves every hook it wraps in the package."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "lwbench" / "tracer.py"


def test_every_traced_layer_call_resolves(monkeypatch):
    # Read-only: no bytecode cache is written next to the benchmark.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("lwbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYER_CALLS
    for module, attr, span, _ in tracer.LAYER_CALLS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"
