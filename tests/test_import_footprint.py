"""The library loads numpy only: scipy, which pulls in scipy.linalg and its
BLAS, is for ahc (the CLI's dendrogram) and the tests. Each check runs in a
fresh interpreter, as this test process has scipy loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import packwise

SRC = str(Path(packwise.__file__).resolve().parent.parent)

ROUND_TRIP = """
import numpy as np
from packwise import (GaParams, PackingAutoscaler, ServiceCatalog, SyntheticSpec, VmType,
                      WorkloadTrace, generate_trace)

catalog = ServiceCatalog(np.array([[1, 1, 2], [1, 2, 1], [2, 1, 2], [1, 1, 1], [2, 2, 1]],
                                  dtype=float))
vms = [VmType("small", np.array([200., 200., 300.]), 1.0),
       VmType("medium", np.array([300., 400., 300.]), 1.6),
       VmType("large", np.array([600., 600., 700.]), 2.9)]
centers = np.array([[40, 30, 20, 10, 50], [90, 80, 70, 60, 100], [20, 100, 40, 80, 30]],
                   dtype=float)
trace = generate_trace(SyntheticSpec(mode_centers=centers, noise_sigma=3.0, periods=300,
                                     seed=1), catalog)
model = PackingAutoscaler(k_range=(2, 4), miss_buffer_size=10,
                          ga_params=GaParams(population=20, generations=20), seed=1)
model.fit(trace, catalog, vms)
model.predict(trace.counts[0])
report = model.replay(WorkloadTrace(trace.counts * 2, period_seconds=trace.period_seconds))
assert report.recluster_events > 0
"""


def scipy_loaded_after(code: str) -> list:
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.'))))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy():
    assert scipy_loaded_after("import packwise") == []


def test_fit_replay_predict_load_no_scipy():
    # The replay's drift to 2x demand misses and reclusters, so select_k,
    # dunn and the GA all run.
    assert scipy_loaded_after(ROUND_TRIP) == []
