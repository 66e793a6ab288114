"""Fixtures shared by several test modules."""

import importlib.util
import sys
from pathlib import Path

import pytest


@pytest.fixture
def benchmark_tracer(monkeypatch):
    """``lwbench/tracer.py`` as a module, loaded without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "lwbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("lwbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer
