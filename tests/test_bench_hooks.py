"""The benchmark's traced pass resolves, and calls, every hook it wraps in the package."""

from collections import Counter

import numpy as np

from lesionwise import (
    LogitVolume,
    Shape,
    build_phantom,
    combined_loss,
    random_instances_spec,
    write_volume,
)
from lesionwise.cli import EXIT_OK, main
from oracles import UNIT

# Hooks that wrap a name the package never calls; the benchmark's tracer
# fixes (ROADMAP item 1) drop them.
DEAD_HOOKS = {"cli.sigmoid", "metrics.voronoi_partition"}


def test_every_traced_layer_call_resolves(benchmark_tracer):
    assert benchmark_tracer.LAYER_CALLS
    for module, attr, span, _ in benchmark_tracer.LAYER_CALLS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


def _counting(fn, key, calls):
    def counted(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return counted


def test_every_traced_layer_call_is_called(benchmark_tracer, tmp_path, monkeypatch):
    # A hook the package stops calling would read 0% in every traced run and
    # fail nothing else: case_metrics once bypassed the wrapped cc_dice.
    calls = Counter()
    hooks = set()
    for module, attr, _, _ in benchmark_tracer.LAYER_CALLS:
        key = f"{module.__name__.removeprefix('lesionwise.')}.{attr}"
        hooks.add(key)
        monkeypatch.setattr(module, attr, _counting(getattr(module, attr), key, calls))
    assert DEAD_HOOKS <= hooks

    gt, lab = build_phantom(random_instances_spec(Shape(16, 12, 10), UNIT, 3, seed=5))
    assert lab.count >= 2
    rng = np.random.default_rng(5)
    logits = LogitVolume(rng.normal(0.0, 2.0, gt.voxels.shape).astype(np.float32), UNIT)
    write_volume(gt, tmp_path / "gt.raw")
    write_volume(logits, tmp_path / "logits.raw")
    (tmp_path / "cases.csv").write_text("gt,pred\ngt.raw,logits.raw\n")
    monkeypatch.setenv("LESIONWISE_THREADS", "1")
    monkeypatch.chdir(tmp_path)
    assert main(["eval", "--manifest", "cases.csv", "--out", "out"]) == EXIT_OK

    # no lab or part, so the loss labels and partitions; blob-dicece alone
    # reaches blob_instance_loss
    for kind in ("cc-dicece", "blob-dicece"):
        combined_loss(kind, logits, gt)

    assert sorted(hooks - DEAD_HOOKS - set(calls)) == []
