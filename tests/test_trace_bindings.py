"""The benchmark's layer tracer (``bench/trace_layers.py``) still finds every
``qregions`` function it wraps, so deleting or renaming a traced name fails
here instead of in a benchmark run."""

import sys
from pathlib import Path

import qregions.experiment  # noqa: F401  (loads every module the tracer patches)

BENCH = str(Path(__file__).resolve().parents[1] / "bench")


def test_every_traced_name_is_bound_and_wrapped():
    sys.path.insert(0, BENCH)
    try:
        import trace_layers
    finally:
        sys.path.remove(BENCH)
    with trace_layers.Tracer() as tracer:
        unbound = sorted(span for span, found in tracer.bindings.items() if not found)
        unwrapped = tracer.unwrapped_bindings()
    assert len(tracer.bindings) == len(trace_layers.Tracer.TARGETS)
    assert unbound == []
    assert unwrapped == []
