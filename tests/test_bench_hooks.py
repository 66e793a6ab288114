"""The benchmark's traced pass resolves every hook it wraps in the package."""


def test_every_traced_layer_call_resolves(benchmark_tracer):
    assert benchmark_tracer.LAYER_CALLS
    for module, attr, span, _ in benchmark_tracer.LAYER_CALLS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"
