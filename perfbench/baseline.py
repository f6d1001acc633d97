"""Measure a baseline: ten seeds per workload, then one traced run each.

    python3 perfbench/baseline.py [--out FILE]

Run from the repository root.  For each workload and end-to-end metric it
records the median, the quartiles (`statistics.quantiles(n=4)`), the
spread (q3 - q1) / median and the run count, and checks each spread
against a third of the metric's bound in BENCHMARK.json (set-up time is
reported but not gated).  The traced run adds the layer breakdown and the
analytic count check.  Writes perfbench/baseline.json unless --out says
otherwise; exits 1 when a spread or a count check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 10


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "runs": len(values), "values": values}


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args()

    ok = True
    out = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in names:
        results, details = [], []
        for seed in range(1, RUNS + 1):
            result, detail = bench(workload, seed, spec["run_seconds"], 0)
            results.append(result)
            details.append(detail)
            print(workload, seed, {k: round(v["value"], 4)
                                   for k, v in result["metrics"].items()},
                  file=sys.stderr, flush=True)
        row = {"environment": details[0]["environment"],
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results),
               "samples_per_run": [len(d["wall_s"]) for d in details],
               "sample_wall_s": [d["wall_s"] for d in details],
               "cpu_s": summary([statistics.median(d["cpu_s"]) for d in details]),
               "loadavg_before": [d["loadavg_before"][0] for d in details],
               "metrics": {}}
        ok &= row["failed"] == 0
        for m in spec["end_to_end"]:
            s = summary([r["metrics"][m["name"]]["value"] for r in results])
            s["unit"], s["bound"] = m["unit"], m["bound"]
            s["steady"] = s["spread"] < m["bound"] / 3
            if m["name"] != "setup_s":
                ok &= s["steady"]
            row["metrics"][m["name"]] = s
        traced, _ = bench(workload, 1, spec["run_seconds"], 1)
        row["traced"] = {k: v["value"] for k, v in traced["metrics"].items()}
        ok &= row["traced"]["trace.analytic_count_mismatches"] == 0
        out["workloads"][workload] = row
        print(workload, json.dumps({k: [round(v["median"], 4), round(v["spread"], 4)]
                                    for k, v in row["metrics"].items()}),
              file=sys.stderr, flush=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
