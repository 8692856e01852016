"""perfbench/setup_probe.py runs in a fresh interpreter for every workload
and reports how many inputs it generated. The probe only reads perfbench/:
bytecode caching is off, so it writes nothing there."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("workload, instances", [
    ("drawings", 3), ("random-certify", 63), ("enum-small", 4), ("totient-scan", 1)])
def test_setup_probe_generates_each_workload(workload, instances):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "setup_probe.py"), "--workload", workload, "--seed", "1"],
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["instances"] == instances
    assert record["setup_s"] > 0
