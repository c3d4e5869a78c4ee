"""The benchmark harness still runs on the library: a 2-s untraced run of
each workload that BENCHMARK.json declares ends on a JSON line with every
check correct.

Each run is a subprocess started from the root of the checkout, as the
benchmark is, with PYTHONDONTWRITEBYTECODE=1, so it leaves no file under
perfbench/.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_two_second_run_is_correct(workload):
    script = BENCHMARK["command"][1:]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, *script, "--workload", workload, "--seed", "1",
         "--seconds", "2", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().split("\n")[-1])
    assert summary["correct"] is True and summary["failed"] == 0, done.stdout
