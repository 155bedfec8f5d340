"""Layered exact-output benchmark of lgmf.

    python3 layerbench/run.py --workload residue_gram --seed 1 \
        --seconds 28 --trace 0

Run from the root of a checkout: lgmf is imported from ``src/``.  The workload
runs in one process without threads.  A run builds the workload's inputs, then
repeats rounds (every item of the workload once, on inputs drawn from the seed
and the round number) for ``--seconds`` seconds, checking every round's exact
outputs against ``reference.json`` outside the timed phase.  Round 0 of a seed
listed in ``checksums.json`` must also reproduce the recorded checksum.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  Times are in
reference seconds (speed.py): wall time rescaled by a calibration kernel timed
every 25 ms, so that other tenants slowing the shared host do not show.
``solve_s`` is the median round, ``item_p50_ms``/``item_p90_ms`` are taken
over every item of every round, and ``setup_s`` is the median over separate
fresh interpreters that only import lgmf and build the inputs.
``--trace 1`` runs round 0 with a span wrapper around every public lgmf
function (see spans.py) and prints the per-layer metrics, in wall seconds;
then untraced rounds for the rest of the time give the tracing overhead.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  The line before it gives the problem sizes.  A wrong output
exits 1; a run that cannot start exits 2.

``--record`` recomputes reference.json and checksums.json from the code in
``src/``; run it only at a commit whose outputs are trusted.
"""

from speed import SpeedClock

# set-up time counts from here, in reference seconds (see speed.py)
SETUP_CLOCK = SpeedClock().__enter__()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
CHECKSUMS = os.path.join(HERE, "checksums.json")
SETUP_SAMPLES = 11
RECORDED_SEEDS = range(16)


def fail_start(message):
    print(f"layerbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--record", action="store_true")
    args = p.parse_args(argv)
    if not args.record and args.workload is None:
        p.error("--workload is required")
    return args


def run_round(items, tracer=None, clock=None):
    """Run every item once; returns (outputs, item times by id, round time).

    Times are in reference seconds when a SpeedClock is given, else wall.
    """
    now = time.perf_counter if clock is None else clock.read
    outputs, times = {}, {}
    t0 = now()
    for key, call in items:
        if tracer is not None:
            tracer.item = key
        s = now()
        try:
            outputs[key] = call()
        except Exception as exc:    # an item that raises counts as failed
            outputs[key] = exc
        times[key] = now() - s
    return outputs, times, now() - t0


class Runner:
    def __init__(self, wl, args, checksums):
        self.wl, self.args = wl, args
        self.expected = checksums.get(args.size, {}).get(wl.name, {}).get(
            str(args.seed))
        self.attempted = self.failed = 0
        self.problems = []

    def check(self, rnd, inputs, outputs):
        failed, canon = self.wl.check(inputs, outputs)
        self.attempted += len(outputs)
        self.failed += len(failed)
        for key in sorted(failed):
            out = outputs.get(key)
            if isinstance(out, Exception):
                self.problems.append(f"round {rnd} {key}: raised {out!r}")
            else:
                self.problems.append(f"round {rnd} {key}: wrong output")
        if rnd == 0 and self.expected and digest(canon) != self.expected:
            self.problems.append("round 0 checksum differs from the record")

    def rounds(self, first_inputs, start_round, budget, between=None):
        """Untraced rounds until ``budget`` wall seconds are spent.

        Returns the round times and every item time in reference seconds,
        and the round wall times.  ``between`` runs after each round, outside
        the budget.
        """
        rnd, inputs = start_round, first_inputs
        times, item_times, walls, spent = [], [], [], 0.0
        while True:
            t0 = time.perf_counter()
            if inputs is None:
                inputs = self.wl.build(self.args.seed, rnd)
            w0 = time.perf_counter()
            with SpeedClock() as clock:
                outputs, items, elapsed = run_round(self.wl.items(inputs),
                                                    clock=clock)
            walls.append(time.perf_counter() - w0)
            self.check(rnd, inputs, outputs)
            spent += time.perf_counter() - t0
            times.append(elapsed)
            item_times += items.values()
            rnd, inputs = rnd + 1, None
            if spent + max(walls) > budget:
                return times, item_times, walls
            if between is not None:
                between()


def setup_once(args):
    """Set-up time of one fresh interpreter that only builds the inputs."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--size", args.size,
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        fail_start(f"set-up run failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(wl, args, runner, inputs):
    # set-up samples are spread between rounds, so that a slow spell of the
    # machine does not fall on all of them
    setups = []

    def between():
        if len(setups) < SETUP_SAMPLES:
            setups.append(setup_once(args))

    times, item_times, walls = runner.rounds(inputs, 0, args.seconds,
                                             between)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < (SETUP_SAMPLES if args.size == "full" else 1):
        setups.append(setup_once(args))
    ms = [t * 1000.0 for t in item_times]
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "solve_s": {"value": statistics.median(times), "unit": "s"},
        "item_p50_ms": {"value": quantile(ms, 50), "unit": "ms"},
        "item_p90_ms": {"value": quantile(ms, 90), "unit": "ms"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }
    return metrics, {"round_s": times, "round_wall_s": walls,
                     "item_samples": len(ms), "setup_samples_s": setups}


def trace(wl, args, runner, inputs):
    tracer = Tracer().install()
    try:
        outputs, _, traced = run_round(wl.items(inputs), tracer)
    finally:
        tracer.remove()
    runner.check(0, inputs, outputs)
    _, _, walls = runner.rounds(None, 1, max(args.seconds - traced, 0.0))
    untraced = statistics.median(walls)
    metrics = tracer.metrics()
    metrics["trace.solve_s"] = {"value": traced, "unit": "s"}
    metrics["trace.overhead"] = {"value": traced / untraced, "unit": "ratio"}
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    tracer.write_spans(os.path.join(
        HERE, ".work", f"spans-{wl.name}-{args.seed}.jsonl"))
    return metrics, {"untraced_round_wall_s": walls,
                     "spans_recorded": len(tracer.spans)}


def record(args):
    """Recompute reference.json and the per-seed round-0 checksums."""
    reference, checksums = {}, {}
    names = [args.workload] if args.workload else list(WORKLOADS)
    if os.path.exists(REFERENCE):
        reference = load_json(REFERENCE)
    if os.path.exists(CHECKSUMS):
        checksums = load_json(CHECKSUMS)
    for size in ("tiny", "full"):
        for name in names:
            cls = WORKLOADS[name]
            ref = cls(size, None).record()
            reference.setdefault(size, {})[name] = ref
            wl = cls(size, ref)
            table = checksums.setdefault(size, {}).setdefault(name, {})
            for seed in RECORDED_SEEDS:
                inputs = wl.build(seed, 0)
                outputs, _, wall = run_round(wl.items(inputs))
                failed, canon = wl.check(inputs, outputs)
                if failed:
                    raise RuntimeError(f"{size} {name} seed {seed}: "
                                       f"{sorted(failed)[:5]} fail")
                table[str(seed)] = digest(canon)
                print(f"{size} {name} seed {seed}: {wall:.2f} s", flush=True)
    for path, obj in ((REFERENCE, reference), (CHECKSUMS, checksums)):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=1, sort_keys=True)
            fh.write("\n")


def main(argv=None):
    if not __debug__:
        fail_start("refusing to run under python -O: lgmf re-verifies "
                   "homotopy witnesses with assert")
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lgmf", "__init__.py")):
        fail_start(f"no lgmf sources under {os.path.join(ROOT, 'src')}")
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.record:
        return record(args)
    if args.workload not in WORKLOADS:
        fail_start(f"unknown workload {args.workload!r}; "
                   f"choose from {', '.join(WORKLOADS)}")
    reference = load_json(REFERENCE)[args.size][args.workload]
    wl = WORKLOADS[args.workload](args.size, reference)
    for module in wl.imports:
        importlib.import_module(module)
    inputs = wl.build(args.seed, 0)
    setup = SETUP_CLOCK.read()
    SETUP_CLOCK.__exit__()
    import lgmf
    if not os.path.abspath(lgmf.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        fail_start(f"lgmf imported from {lgmf.__file__}, not from src/")
    if args.setup_only:
        print(f"{setup:.9f}")
        return 0
    runner = Runner(wl, args, load_json(CHECKSUMS))
    step = trace if args.trace else measure
    metrics, counts = step(wl, args, runner, inputs)
    sizes = dict(wl.sizes(), **counts, seed=args.seed, size=args.size)
    for line in runner.problems[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({"sizes": {wl.name: sizes}}, sort_keys=True))
    correct = not runner.problems
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        SETUP_CLOCK.__exit__()     # also when failing before set-up ends
    sys.exit(code)
