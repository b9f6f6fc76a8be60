"""Benchmark for torus-surgery: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-symbolic --seed 1 --seconds 28 --trace 0

Run from the root of a checkout. The run starts three fresh
interpreters one after another (``worker.py``); each imports the package
from ``src/``, generates its seeded inputs, runs one cheap warm-up command,
and then runs CLI commands in a closed loop for its share of ``--seconds``.
Before each of them and after the last, four more fresh interpreters only
set up, so that ``setup_s`` is the median of nineteen samples spread over
the run.
Every output is checked by the oracles in ``oracles.py``. The last line of
stdout is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a human-readable table.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs one worker that replays its ops with the span tracer (``tracer.py``)
and reports the per-layer metrics, including the tracing overhead.
``--corrupt`` damages every output before the oracles see it, to show that
each oracle trips (the run then fails). ``--values-out FILE`` writes every
value of the run as JSON, the unjudged raw timings included.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402

# A run must end within 180 s; workers still running at this point are killed.
DEADLINE_S = 170
# Fresh interpreters per untraced run that run ops, and the number that only
# set up (one set-up sample each, about 0.15 s) before each and after the last.
WORKERS = 3
SETUP_ONLY_PER_GROUP = 4
REQUIRED = ("BENCHMARK.json", "src/torus_surgery/__init__.py",
            "tests/golden/verify_forms_k2.json", "tests/golden/lemma6.json")


def run_worker(cfg: dict, on_op, timeout_s: float) -> dict:
    """Start one worker, feed its op messages to ``on_op``, and return its
    final message with ``setup_s`` (spawn to ready) added."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-s", str(HERE / "worker.py"), json.dumps(cfg)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(timeout_s, proc.kill)
    watchdog.start()
    setup_s, final = None, None
    try:
        for line in proc.stdout:
            message = json.loads(line)
            if "ready" in message:
                setup_s = time.perf_counter() - start
            elif "op" in message:
                on_op(message)
            elif "done" in message:
                final = message
    except BaseException:
        proc.kill()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or final is None or setup_s is None:
        raise RuntimeError(f"worker exited with code {code} before finishing")
    final["setup_s"] = setup_s
    return final


def percentile_or_none(values, q):
    """The q-quantile, or None when fewer than ten samples lie beyond it."""
    if len(values) * (1 - q) < 10:
        return None
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="damage every output before checking it")
    parser.add_argument("--values-out", type=Path,
                        help="write every value of the run, judged or not, here as JSON")
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a torus-surgery checkout, missing {missing}", file=sys.stderr)
        return 2

    out_dir = HERE / "_out"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    times, refs, units, attempted, failed = [], [], [], 0, 0
    stdout_bytes = []
    problems: list[str] = []

    def on_op(message):
        nonlocal attempted, failed
        phase, index = message["phase"], message["op"]
        if phase == "warmup":
            op = workloads.warmup_op()
        else:
            op = workloads.make_op(args.workload, args.seed, index, workdir / phase)
        stdout = message["stdout"]
        if args.corrupt and op.check != "exit0":
            stdout = oracles.corrupt(op, stdout)
        try:
            found = oracles.check(op, message["code"], stdout, ROOT)
        except Exception as exc:  # output too malformed for the oracle
            found = [f"unreadable output: {exc!r}"]
        if op.out:
            Path(op.out).unlink(missing_ok=True)
        attempted += 1
        if found:
            failed += 1
            problems.append(f"{phase} op {index} ({' '.join(op.argv)}): {found[0]}")
        if phase in ("run", "traced"):
            times.append(message["s"])
            refs.append(message["ref_s"])
            units.append(op.units)
            stdout_bytes.append(message["stdout_bytes"])

    base = {"root": str(ROOT), "workdir": str(workdir), "workload": args.workload,
            "seed": args.seed, "trace": args.trace}
    finals, setups = [], []
    deadline = time.perf_counter() + DEADLINE_S

    def setup_only() -> float:
        return run_worker(dict(base, first_index=0, budget_s=0, setup_only=True),
                          on_op, deadline - time.perf_counter())["setup_s"]

    try:
        if args.trace:
            trace_file = out_dir / f"spans-{args.workload}.csv.gz"
            finals.append(run_worker(dict(base, first_index=0, budget_s=args.seconds,
                                          trace_file=str(trace_file)),
                                     on_op, deadline - time.perf_counter()))
        else:
            for _ in range(WORKERS):
                setups += [setup_only() for _ in range(SETUP_ONLY_PER_GROUP)]
                finals.append(run_worker(dict(base, first_index=len(times),
                                              budget_s=args.seconds / WORKERS),
                                         on_op, deadline - time.perf_counter()))
                setups.append(finals[-1]["setup_s"])
            setups += [setup_only() for _ in range(SETUP_ONLY_PER_GROUP)]
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = failed == 0
    if args.trace:
        values = dict(finals[0]["layer"], **{"cli.stdout_bytes": statistics.fmean(stdout_bytes)})
    else:
        values = {
            "setup_s": statistics.median(setups),
            "op_p50_s": statistics.median(times),
            "throughput_per_s": sum(units) / sum(times),
            "op_p50_ref": statistics.median(t / r for t, r in zip(times, refs)),
            "throughput_per_ref": sum(units) / sum(t / r for t, r in zip(times, refs)),
            "ref_s": statistics.median(refs),
            "peak_rss_mib": statistics.median(f["maxrss_kib"] for f in finals) / 1024,
        }
    # BENCHMARK.json names the metrics and their units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (values[m["name"]], m["unit"])
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    unjudged = {name: (value, "1/s" if name.endswith("_per_s") else "s")
                for name, value in values.items() if name not in metrics}
    if args.values_out:
        args.values_out.write_text(json.dumps(
            {name: {"value": value, "unit": unit}
             for name, (value, unit) in dict(metrics, **unjudged).items()}) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  python {platform.python_version()}  nproc {os.cpu_count()}  "
          f"workers {len(finals)}  ops {len(times)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    for name, (value, unit) in unjudged.items():
        print(f"  {name:48s} {value:14.6g} {unit}  (not judged)")
    if not args.trace:
        p90 = percentile_or_none(times, 0.9)
        print(f"  {'op_p90_s':48s} {'n/a' if p90 is None else f'{p90:14.6g}':>14} s"
              f"  ({len(times)} ops; needs >= 100 for 10 beyond p90)")
    print(f"  {'failed_frac':48s} {failed / max(1, attempted):14.6g} "
          f"({failed} of {attempted} ops, warm-up included)")
    for line in problems[:10]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
