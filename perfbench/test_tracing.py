"""Tests of the benchmark's span accounting and instrumentation.

    python3 -m pytest -q perfbench/test_tracing.py
"""

import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import packwise  # noqa: E402
from tracing import Instrumentation, Tracer, _span_wrapper, packwise_modules  # noqa: E402
from workloads import Inputs  # noqa: E402


def test_self_time_is_duration_minus_child_coverage():
    tracer = Tracer()
    # root [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8].
    tracer.spans = [
        ["root", -1, 0.0, 10.0],
        ["b", 0, 1.0, 4.0],
        ["c", 0, 5.0, 9.0],
        ["d", 2, 6.0, 8.0],
        ["b", 0, 9.0, 9.5],
    ]
    stats = tracer.stats()
    assert stats["root"].self_s == pytest.approx(10.0 - 3.0 - 4.0 - 0.5)
    assert stats["c"].self_s == pytest.approx(4.0 - 2.0)
    assert stats["d"].self_s == pytest.approx(2.0)
    assert stats["b"].calls == 2
    assert stats["b"].self_s == pytest.approx(3.5)
    assert stats["b"].durations == [3.0, 0.5]


def test_recorded_self_times_add_up_to_the_root_span():
    tracer = Tracer()
    root = tracer.begin("root")
    for _ in range(3):
        outer = tracer.begin("outer")
        inner = tracer.begin("inner")
        sum(range(10_000))
        tracer.end(inner)
        tracer.end(outer)
    tracer.end(root)
    stats = tracer.stats()
    assert [s[1] for s in tracer.spans] == [-1, 0, 1, 0, 3, 0, 5]
    total = sum(s.self_s for s in stats.values())
    assert total == pytest.approx(stats["root"].durations[0], rel=1e-9)
    assert all(s.self_s >= 0 for s in stats.values())


def test_spans_closed_out_of_order_are_rejected():
    tracer = Tracer()
    a = tracer.begin("a")
    tracer.begin("b")
    with pytest.raises(RuntimeError):
        tracer.end(a)


def test_memory_peak_counts_nested_allocations_in_both_spans():
    tracer = Tracer()

    def inner():
        return np.ones(1_000_000).sum()          # 8 MB buffer

    wrapped_inner = _span_wrapper(tracer, "clustering.dunn", inner)

    def outer():
        small = np.ones(10)
        return wrapped_inner() + small.sum()

    _span_wrapper(tracer, "clustering.ahc", outer)()
    stats = tracer.stats()
    assert 7.5e6 < stats["clustering.dunn"].peak_bytes < 9e6
    assert stats["clustering.ahc"].peak_bytes >= stats["clustering.dunn"].peak_bytes
    assert not tracemalloc.is_tracing()


def _namespaces():
    return {m.__name__: dict(vars(m)) for m in packwise_modules()}


def _small_run():
    inputs = Inputs(3)
    history = inputs.trace(80, 1)
    scaler = packwise.PackingAutoscaler(
        k_range=(2, 4), ga_params=packwise.GaParams(population=8, generations=5))
    scaler.fit(history, inputs.catalog, inputs.vm_catalog)
    for row in inputs.trace(5, 2).counts:
        scaler.predict(row)
    return scaler


def test_traced_run_wraps_calls_between_modules_and_restores_them():
    before = _namespaces()
    tracer = Tracer()
    with Instrumentation(tracer) as inst:
        assert packwise.engine.match is not before["packwise.engine"]["match"]
        assert packwise.clustering.dunn is not before["packwise.clustering"]["dunn"]
        scaler = _small_run()
    assert inst._replaced == []
    after = _namespaces()
    assert after.keys() == before.keys()
    for module, names in before.items():
        for attr, value in names.items():
            assert after[module][attr] is value, f"{module}.{attr} not restored"

    stats = tracer.stats()
    assert stats["engine.build_offline"].calls == 1
    assert stats["lookup.match"].calls == 5
    assert stats["lookup.pearson"].calls == 5 * len(scaler.table_.entries)
    assert stats["demand.demand_for_period"].calls >= 80 + 5
    assert len(tracer.ga_runs) == stats["packing.ga_pack"].calls > 0


def test_attributes_are_restored_when_the_traced_code_raises():
    before = _namespaces()
    with pytest.raises(ZeroDivisionError):
        with Instrumentation(Tracer()):
            1 / 0
    after = _namespaces()
    for module, names in before.items():
        for attr, value in names.items():
            assert after[module][attr] is value
