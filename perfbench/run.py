"""Cold-run benchmark of the qfibonacci CLI.

    python3 perfbench/run.py --workload words --seed 1 --seconds 15 --trace 0

Run from the repository root.  Each sample runs the whole workload in a
fresh interpreter (perfbench/worker.py), one process at a time and with no
threads, so every package cache starts empty.  Samples repeat until
--seconds have passed; the run reports medians.

--trace 0 prints the end-to-end metrics: wall_s (first `cli.main` call to
last return), setup_s (importing `qfibonacci` and `qfibonacci.cli`,
median of several set-ups), and peak_rss_mb (`ru_maxrss`).
--trace 1 runs pairs of an untraced and a traced sample and prints the
per-layer metrics of tracer.py, plus the tracing overhead.

Every invocation's exit code and stdout digest is checked against
expected.json; a mismatch, a traceback or an exit code outside the CLI's
contract counts as failed and the run goes on.  The line before the
result carries the environment, cpu_s and the raw samples.  The last line
of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads, their reasons and the expected layer effects: README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import layer_metrics  # noqa: E402
from workloads import ANALYTIC_COUNTS, WORKLOADS  # noqa: E402

#: Import-only interpreters per run.  One import takes a few tens of ms and
#: single samples are noisy, so set-up time is the median of these plus the
#: import of every workload sample.
SETUP_PROBES = 15

#: Every run ends within this many seconds, whatever --seconds asks.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


class Runner:
    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.out_dir = root / ".bench_build" / "perfbench"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        # Bytecode is written next to the sources and reused, as for an
        # installed package, so set-up time does not include compiling.
        self.env = {k: v for k, v in os.environ.items() if k not in
                    ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        self.env["PYTHONPATH"] = str(root / "src")

    def worker(self, *args: str) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the sample started")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), *args],
                cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                timeout=timeout, text=True)
        except subprocess.TimeoutExpired:
            raise BenchError(f"sample {args} did not end in time") from None
        if proc.returncode != 0:
            raise BenchError(f"worker {args} exited {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def sample(self, workload: str, order_seed: int,
               trace: Path | None = None) -> dict:
        args = ["--workload", workload, "--order-seed", str(order_seed)]
        if trace is not None:
            args += ["--trace", str(trace)]
        return self.worker(*args)


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    start = time.monotonic()
    runner = Runner(root, start + DEADLINE_S)
    rng = random.Random(seed)
    load_before = os.getloadavg()

    # Writes the bytecode cache, so no timed import compiles.
    runner.worker("--setup-only")
    setups = [runner.worker("--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]

    samples, traced, layer = [], [], []
    while True:
        order_seed = rng.randrange(2 ** 32)
        samples.append(runner.sample(workload, order_seed))
        if trace:
            path = runner.out_dir / f"trace-{workload}-{seed}-{len(traced)}.json"
            traced.append(runner.sample(workload, order_seed, path))
            with open(path) as f:
                layer.append(layer_metrics(json.load(f)))
        if time.monotonic() - start >= seconds:
            break

    every = samples + traced
    attempted = sum(s["attempted"] for s in every)
    failed = sum(s["failed"] for s in every)
    detail = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "environment": _environment(),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "cpu_s": [s["cpu_s"] for s in samples],
        "wall_s": [s["wall_s"] for s in samples],
        "setup_s": setups + [s["setup_s"] for s in every],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        "mismatches": [m for s in every for m in s["mismatches"]],
    }

    median = statistics.median
    if not trace:
        metrics = {
            "wall_s": {"value": median(detail["wall_s"]), "unit": "s"},
            "setup_s": {"value": median(detail["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": median(detail["peak_rss_mb"]), "unit": "MB"},
        }
    else:
        metrics = {name: {"value": median(m[name][0] for m in layer), "unit": unit}
                   for name, (_, unit) in layer[0].items()}
        metrics["cli.stdout_bytes"] = {
            "value": median(s["stdout_bytes"] for s in traced), "unit": "B"}
        traced_wall = median(s["wall_s"] for s in traced)
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": traced_wall - median(detail["wall_s"]), "unit": "s"}
        off = {name: (metrics[name]["value"], want)
               for name, want in ANALYTIC_COUNTS.get(workload, {}).items()
               if metrics[name]["value"] != want}
        metrics["trace.analytic_count_mismatches"] = {"value": len(off),
                                                      "unit": "count"}
        detail["analytic_count_mismatches"] = off
        for name, (got, want) in off.items():
            print(f"perfbench: traced {name} = {got}, analytic {want}",
                  file=sys.stderr)

    for m in detail["mismatches"]:
        same = m["sha256"] == m["expected"]["sha256"]
        print(f"perfbench: failed {m['invocation']}: exit {m['exit']} "
              f"(expected {m['expected']['exit']}), stdout "
              f"{'matches' if same else 'differs'}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qfibonacci" / "cli.py").is_file():
        print("perfbench: run from the repository root; src/qfibonacci "
              "is missing", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
