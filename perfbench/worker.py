"""One fresh interpreter of a benchmark run: set up, warm up, then run ops
in a closed loop (one client, one thread) until the time budget is spent.
With ``"setup_only"`` in its config it stops after the warm-up: such a
worker only gives a set-up sample.

Started by ``run.py`` with a JSON config as its only argument. It talks to
the parent through JSON lines on its real stdout: ``{"ready": ...}`` once
set-up is done, one ``{"op": ...}`` per command, and ``{"done": ...}`` at the
end. Commands run in process through ``torus_surgery.cli.main(argv)`` with
stdout and stderr captured, so only the command itself is timed.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import workloads

PIPE = sys.stdout


def send(message: dict):
    PIPE.write(json.dumps(message) + "\n")
    PIPE.flush()


def reference_s() -> float:
    """Time a fixed pure-Python kernel (exact fractions, dict updates,
    tuples) that shares no code with the package. Run between ops, it
    tracks how fast the machine is at that moment: on a shared host the
    same command's wall time drifts by +-20% over tens of seconds."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 4000):
            acc += Fraction(i % 97, i)
            key = (i % 503, i % 7)
            table[key] = table.get(key, 0) + i
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_op(cli, op):
    for path, text in op.files.items():
        Path(path).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = "exception: " + traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


def main():
    cfg = json.loads(sys.argv[1])
    root = Path(cfg["root"])
    workdir = Path(cfg["workdir"])
    sys.path.insert(0, str(root / "src"))
    from torus_surgery import cli
    import torus_surgery

    if Path(torus_surgery.__file__).resolve().parent != (root / "src" / "torus_surgery").resolve():
        raise SystemExit(f"imported torus_surgery from {torus_surgery.__file__}, not {root}/src")

    workload, seed, first = cfg["workload"], cfg["seed"], cfg["first_index"]
    ops: dict[tuple[str, int], workloads.Op] = {}

    def op_at(phase, i):
        """Op i of this worker; each phase writes its files to its own
        directory, so the parent can check one while the next runs."""
        if (phase, i) not in ops:
            phase_dir = workdir / phase
            phase_dir.mkdir(parents=True, exist_ok=True)
            ops[phase, i] = workloads.make_op(workload, seed, first + i, phase_dir)
        return ops[phase, i]

    for i in range(16):
        op_at("run" if not cfg["trace"] else "plain", i)
    warm = workloads.warmup_op()
    elapsed, code, out = run_op(cli, warm)
    send({"ready": True})
    report(warm, "warmup", elapsed, code, out, None)
    if cfg.get("setup_only"):
        send({"done": True})
        return

    def loop(phase, budget, limit=None, reference=True):
        """Run ops from the first until the budget is spent (at least one).
        Return each op's time and its time in reference units (wall time
        over the reference kernel's time around it)."""
        times, rel = [], []
        start = time.perf_counter()
        ref_before = reference_s() if reference else None

        def another():
            # Start another op only if, at the mean op time so far, it is
            # expected to end no more than half an op past the budget.
            spent = time.perf_counter() - start
            return spent * (1 + 0.5 / len(times)) < budget

        while not times or (another() and (limit is None or len(times) < limit)):
            op = op_at(phase, len(times))
            if tracer is not None:
                tracer.begin_op(op.index)
            elapsed, code, out = run_op(cli, op)
            ref_s = None
            if reference:
                ref_after = reference_s()
                ref_s, ref_before = (ref_before + ref_after) / 2, ref_after
                rel.append(elapsed / ref_s)
            report(op, phase, elapsed, code, out, ref_s)
            times.append(elapsed)
        return times, rel

    tracer = None
    budget = cfg["budget_s"]
    if not cfg["trace"]:
        loop("run", budget)
        send({"done": True, "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
        return

    # Traced run: the same ops untraced, then with object counters, then
    # with spans; the first and last give the tracing overhead on identical
    # work.
    _, plain = loop("plain", 0.4 * budget)
    import tracer as tracing

    counter = tracing.ObjectCounter()
    counter.install()
    # No reference kernel here: its fractions would be counted.
    counted, _ = loop("count", 0.2 * budget, limit=len(plain), reference=False)
    counter.uninstall()
    tracer = tracing.Tracer()
    tracer.install()
    _, traced = loop("traced", 0.4 * budget, limit=len(plain))
    trace_path = Path(cfg["trace_file"])
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path)

    units = sum(op_at("traced", i).units for i in range(len(traced)))
    layer = tracer.metrics(len(traced))
    layer.update({name: value / len(counted) for name, value in counter.counts.items()})
    # Traced versus untraced throughput on the same ops, in reference units
    # so that machine drift between the two replays cancels.
    layer["trace.throughput_per_ref"] = units / sum(traced)
    layer["trace.untraced_throughput_per_ref"] = units / sum(plain[:len(traced)])
    layer["trace.overhead_frac"] = (
        layer["trace.untraced_throughput_per_ref"] / layer["trace.throughput_per_ref"] - 1)
    send({"done": True,
          "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
          "layer": layer})


def report(op, phase, elapsed, code, out, ref_s):
    send({"op": op.index, "phase": phase, "s": elapsed, "ref_s": ref_s, "code": code,
          "stdout": out, "stdout_bytes": len(out.encode())})


if __name__ == "__main__":
    main()
