"""perfbench's traced mode finds every function it wraps by name.

perfbench/tracing.py names the library functions it times as
"<module>.<function>" strings and looks each one up in its packwise module
when a traced run starts; a name that no longer resolves crashes that run.
The file is loaded here as it is, without importing the perfbench package.
It also checks who calls the clustering functions it times, so that each
span counts what its name says.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from packwise import (
    GaParams,
    MissPolicy,
    ServiceCatalog,
    VmType,
    WorkloadTrace,
    build_offline,
    clustering,
    engine,
    run_online,
)

from conftest import planted_trace

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look their module up
    cache, sys.dont_write_bytecode = sys.dont_write_bytecode, True   # write nothing in perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = cache
    return module


tracing = load_tracing()


@pytest.mark.parametrize("name", tracing.SPANS + (tracing.GA_EVOLVE,))
def test_traced_name_resolves(name):
    module_name, attr = name.rsplit(".", 1)
    module = importlib.import_module("packwise." + module_name)
    assert callable(getattr(module, attr, None)), f"packwise.{name} is gone"


@pytest.mark.usefixtures("serial")
def test_select_k_alone_scores_clusterings(monkeypatch):
    # perfbench splits the select_k sweep into kmeans, davies_bouldin and
    # dunn spans by wrapping these module-level names; each scorer runs
    # once per k there, and never inside a clusterer.
    calls = {}

    def counted(name):
        original = getattr(clustering, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(clustering, name, wrapper)

    for name in ("kmeans", "davies_bouldin", "dunn"):
        counted(name)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3)) + rng.integers(0, 4, size=(40, 1)) * 10.0
    clustering.select_k(X, (2, 6), seed=1)
    assert calls == {"kmeans": 5, "davies_bouldin": 5, "dunn": 5}
    calls.clear()
    clustering.kmeans(X, 3, seed=1)
    clustering.ahc(X, 3)
    assert calls == {"kmeans": 1}


def test_recluster_sweeps_through_select_k(monkeypatch):
    # perfbench's select_k, davies_bouldin and dunn spans on a replay count
    # the recluster sweeps only if each recluster calls engine.select_k.
    catalog = ServiceCatalog(np.array([[1.0, 2.0], [2.0, 1.0], [1.0, 1.0]]))
    vms = [VmType("small", np.array([300.0, 300.0]), 1.0),
           VmType("large", np.array([900.0, 900.0]), 2.5)]
    trace, centers, _ = planted_trace(catalog, 5, modes=3, periods=30)
    gp = GaParams(generations=20, seed=1)
    table, _ = build_offline(trace, catalog, vms, k_range=(2, 4), ga_params=gp, seed=1)
    sweeps = []
    real = engine.select_k
    monkeypatch.setattr(engine, "select_k",
                        lambda *a, **kw: sweeps.append(1) or real(*a, **kw))
    online = WorkloadTrace(np.tile(2 * centers.astype(np.int64), (10, 1)))
    sim = run_online(table, online, catalog, vms,
                     miss_policy=MissPolicy(buffer_size=5, k_range=(2, 4), ga_params=gp,
                                            seed=1))
    assert sim.recluster_events >= 1
    assert len(sweeps) == sim.recluster_events
