"""Smoke test: every workload at its tiny size, untraced and traced.

    python3 layerbench/smoke.py

Runs ``run.py --size tiny`` once per workload and trace mode, one process at a
time, and checks that each run exits 0 with every output correct (round 0 of
the seed also matches its recorded checksum) and prints exactly the metric
names and units that BENCHMARK.json lists for that mode.  Exits 1 on any
mismatch.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def expected_metrics(bench, trace):
    section = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for wl in bench["workloads"]:
        for trace in (0, 1):
            argv = [sys.executable, os.path.join(HERE, "run.py"),
                    "--workload", wl["name"], "--seed", "0", "--seconds", "0",
                    "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True, timeout=170, check=False)
            label = f"{wl['name']} trace={trace}"
            before = len(problems)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                problems.append(f"{label}: outputs not correct: {result}")
            if got != expected_metrics(bench, trace):
                problems.append(f"{label}: metric names or units differ "
                                f"from BENCHMARK.json")
            if len(problems) == before:
                print(f"ok {label}: {result['attempted']} items")
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
