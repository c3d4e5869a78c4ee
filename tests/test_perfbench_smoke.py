"""The benchmark harness still runs on the library: a 2-s untraced run of
each workload that BENCHMARK.json declares ends on a JSON line with every
check correct, and prints the seed-1 digest pinned below, so a byte-level
change to any workload's outputs fails here. A change that alters outputs
on purpose re-pins DIGESTS and says so.

Each run is a subprocess started from the root of the checkout, as the
benchmark is, with PYTHONDONTWRITEBYTECODE=1, so it leaves no file under
perfbench/.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# The `digest` line of each workload's seed-1 run.
DIGESTS = {
    "build-history": "3934467aa2d5f0d002ab67f02d07eabb29c4a694c74300e6e463b1179a9ffdc3",
    "query-mix": "c4cf2d258305b164987bb721d164c48a689e7beea0e698df0d66780aac733668",
    "replay-shift": "556396d5aa4117ef204b0fa5a27b1a578fa92a49f1ed7308a42659295a9a378f",
}


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
    assert re.findall(r"^  digest = (\w+)$", done.stdout, re.M) == [DIGESTS[workload]]
