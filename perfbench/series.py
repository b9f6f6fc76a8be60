"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/series.py --seeds 1-10 --workloads verify-symbolic,certificate \
        [--seconds 25] [--trace 0] [--out perfbench/_out/series.json]

Runs ``run.py`` once per (workload, seed), one at a time, and prints for
every metric the median, the quartiles and the interquartile range as a
share of the median (``statistics.quantiles(values, n=4)``), which is the
spread the bounds in BENCHMARK.json are checked against. The summary JSON
records the Python version, ``nproc``, seeds and run count next to the
numbers. Use it for a before/after comparison of two commits: run it in
each checkout with the same arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(HERE / "_out" / "series.json"))
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    summary = {"python": platform.python_version(), "nproc": os.cpu_count(),
               "seconds": args.seconds, "trace": args.trace, "seeds": seeds,
               "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            values_file = Path(args.out).with_name(f"values-{workload}-{seed}.json")
            values_file.unlink(missing_ok=True)
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--values-out", str(values_file)],
                capture_output=True, text=True, cwd=HERE.parent,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            # Every value of the run, the unjudged raw timings included.
            result["metrics"] = json.loads(values_file.read_text())
            values_file.unlink()
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (median, median, median))
            metrics[name] = {
                "unit": runs[0]["metrics"][name]["unit"], "median": median,
                "q1": q1, "q3": q3,
                "iqr_over_median": (q3 - q1) / median if median else None,
                "values": values,
            }
            spread = metrics[name]["iqr_over_median"]
            print(f"  {name:44s} median {median:12.6g} {metrics[name]['unit']:8s} "
                  f"IQR/median {'n/a' if spread is None else f'{spread:.3f}'}")
        summary["workloads"][workload] = {
            "runs": len(runs),
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all(w["correct"] for w in summary["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
