"""The benchmark harness in smoke mode: tracer, workloads and goldens stay usable."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
