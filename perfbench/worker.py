"""One benchmark sample, in a fresh interpreter, so every package cache
starts empty the way a user's first call does.

    python3 perfbench/worker.py --workload words --order-seed 7 [--trace FILE]
    python3 perfbench/worker.py --setup-only

The package must be importable (run.py puts `src` on PYTHONPATH).  The
worker times the package import, then calls `qfibonacci.cli.main(argv)`
for each invocation of the workload with stdout captured, checks each
exit code and stdout sha256 against `expected.json`, and prints one JSON
record.  With --trace it installs the layer tracer first and writes the
trace to FILE.  Only `sys` and `time` are loaded before the import is
timed, so the stdlib modules the package needs count toward set-up.
"""

import sys
import time


def _timed_import() -> float:
    t0 = time.perf_counter()
    import qfibonacci  # noqa: F401
    import qfibonacci.cli  # noqa: F401
    return time.perf_counter() - t0


def run_invocations(argvs):
    """Call the CLI for each argv; returns (wall_s, cpu_s, results), where
    each result is (key, exit code, stdout sha256, stdout bytes, error)."""
    import contextlib
    import hashlib
    import io
    import traceback

    from qfibonacci import cli
    from workloads import key

    results = []
    c0 = time.process_time()
    t0 = time.perf_counter()
    for argv in argvs:
        buf = io.StringIO()
        error = None
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
        except Exception:
            code, error = None, traceback.format_exc()
        out = buf.getvalue().encode()
        results.append((key(argv), code, hashlib.sha256(out).hexdigest(),
                        len(out), error))
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return wall, cpu, results


def main() -> int:
    args = sys.argv[1:]
    setup_s = _timed_import()
    import argparse
    import json
    import os
    import resource

    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--order-seed", type=int, default=0)
    parser.add_argument("--trace", default=None,
                        help="trace the layers and write the trace here")
    opts = parser.parse_args(args)
    if opts.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import workloads
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "expected.json")) as f:
        expected = json.load(f)[opts.workload]

    tracer = None
    if opts.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    argvs = workloads.ordered(opts.workload, opts.order_seed)
    wall, cpu, results = run_invocations(argvs)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    mismatches = []
    for name, code, digest, nbytes, error in results:
        want = expected[name]
        if error or code != want["exit"] or digest != want["sha256"]:
            mismatches.append({"invocation": name, "exit": code,
                               "sha256": digest, "expected": want,
                               "error": error})
            if error:
                print(error, file=sys.stderr)

    if tracer is not None:
        with open(opts.trace, "w") as f:
            json.dump(tracer.dump(), f)

    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss_kb / 1024,
        "stdout_bytes": sum(r[3] for r in results),
        "attempted": len(results),
        "failed": len(mismatches),
        "mismatches": mismatches,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
