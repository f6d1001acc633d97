"""Write expected.json: each invocation's exit code and stdout sha256.

    PYTHONPATH=src python3 perfbench/record_expected.py

Run it only on a commit whose outputs are trusted; the benchmark counts
every later difference as a failed invocation.
"""

import json
import os

from worker import run_invocations
from workloads import WORKLOADS


def main() -> None:
    expected = {}
    for name, argvs in WORKLOADS.items():
        _, _, results = run_invocations(argvs)
        expected[name] = {}
        for inv, code, digest, nbytes, error in results:
            if error:
                raise SystemExit(f"{inv} raised:\n{error}")
            expected[name][inv] = {"exit": code, "sha256": digest,
                                   "bytes": nbytes}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected.json")
    with open(path, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
