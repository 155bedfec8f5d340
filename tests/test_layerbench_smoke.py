"""The layerbench smoke script: every workload at its tiny size, both modes."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_layerbench_smoke():
    proc = subprocess.run([sys.executable, "layerbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600,
                          check=False)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert not [line for line in lines if line.startswith("FAIL")]
