"""The benchmark's layer tracer (``bench/trace_layers.py``) still finds every
``qregions`` function it wraps, so deleting or renaming a traced name fails
here instead of in a benchmark run, and the spans it records on a real cell
nest, so the self times it reports are the times of the layers."""

import sys
from pathlib import Path

import pytest

import qregions.experiment  # noqa: F401  (loads every module the tracer patches)

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
# Float error allowed in a span's self time: its duration minus the
# durations of its children, each a difference of ``perf_counter`` reads.
SELF_TIME_FLOOR = -1e-9


def _bench_modules():
    sys.path.insert(0, BENCH)
    try:
        import cells
        import trace_layers
    finally:
        sys.path.remove(BENCH)
    return cells, trace_layers


def test_every_traced_name_is_bound_and_wrapped():
    _, trace_layers = _bench_modules()
    with trace_layers.Tracer() as tracer:
        unbound = sorted(span for span, found in tracer.bindings.items() if not found)
        unwrapped = tracer.unwrapped_bindings()
    assert len(tracer.bindings) == len(trace_layers.Tracer.TARGETS)
    assert unbound == []
    assert unwrapped == []


@pytest.mark.parametrize("workload", ["smoke-naive", "smoke-npdqr", "smoke-stdqr"])
def test_spans_of_a_traced_cell_nest(workload):
    # The tracer keeps one span stack for the process: a span that ends
    # after its parent, or begins before it, means layers ran concurrently
    # and their self times are no longer theirs.
    cells, trace_layers = _bench_modules()
    seed = 1
    with trace_layers.Tracer() as tracer:
        config, prep = cells.set_up(cells.WORKLOADS[workload], seed)
        cells.run_cell(cells.WORKLOADS[workload], config, prep, seed)
    records = tracer.span_records()
    outside = [(name, records[parent][0]) for name, start, end, parent in records
               if parent >= 0 and not records[parent][1] <= start <= end <= records[parent][2]]
    negative = {name: own for name, (_, own) in tracer.durations().items()
                if own < SELF_TIME_FLOOR}
    assert len(records) > 0
    assert outside == []
    assert negative == {}
