"""Seeded inputs for the benchmark workloads.

Every input is a CLI argv (plus, for sweeps, a tau file to write first) and
the facts the oracles need to judge its output. Op ``index`` of a run with
seed ``seed`` is a pure function of (workload, seed, index), so the parent
process and the worker processes agree on it without sharing state.

Nothing here imports ``torus_surgery``: the generators and the oracles are
kept independent of the code they measure.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("verify-symbolic", "verify-concrete", "sweep-grid", "certificate")

# Every sweep is a full grid over two seeded twists and five consecutive k
# values per slot: 5^4 * 2^4 = 10^4 descriptors, the size of the reference
# 0..9 sweep. Grids with 1 or 3 twists, or 2-3 times the size, cost per
# command from 0.7 to 1.5 times as much as this shape; a mix of shapes in one
# run makes the median jump between them from seed to seed. Single-slot
# sweeps over long k ranges are left out: there, one descriptor can make
# snf's transform entries grow to thousands of digits and take a minute
# (see README.md).
SWEEP_TWISTS = 2
SWEEP_K_VALUES = 5
GRID_SIZE = SWEEP_K_VALUES**4 * SWEEP_TWISTS**4

# One op in four of verify-concrete is the byte-compared k = 2 identity case.
GOLDEN_EVERY = 4

_SHEAR = (1, 1, 0, 1)
_SHEAR_INV = (1, -1, 0, 1)
_ROT = (0, -1, 1, 0)


def _mul(a, b):
    p, q, r, s = a
    e, f, g, h = b
    return (p * e + q * g, p * f + q * h, r * e + s * g, r * f + s * h)


def random_sl2z(rng: random.Random, bound: int = 9) -> tuple[int, int, int, int]:
    """Products of 0-6 shears, inverse shears and quarter rotations with
    every entry at most ``bound`` in absolute value (the twist generator of
    the acceptance suite's symbolic-structure criterion)."""
    while True:
        result = (1, 0, 0, 1)
        for _ in range(rng.randint(0, 6)):
            result = _mul(result, rng.choice([_SHEAR, _SHEAR_INV, _ROT]))
        if max(abs(v) for v in result) <= bound:
            return result


# Values that may start with "-" are passed as "--flag=value", because
# argparse reads a separate "-7,1" as an option.
def _tau_arg(tau) -> str:
    return "--tau=" + ",".join(str(v) for v in tau)


@dataclass
class Op:
    """One CLI command and what its output must satisfy."""

    index: int
    argv: list[str]
    check: str  # oracle: "verify", "golden", "sweep" or "exit0"
    units: int = 1  # work done, for throughput: commands, or descriptors
    golden: str | None = None  # path relative to the checkout root
    grid: dict | None = None  # sweep grid, for the membership check
    files: dict = field(default_factory=dict)  # path -> text written first
    out: str | None = None  # file the command writes its result to


def make_op(workload: str, seed: int, index: int, workdir: Path) -> Op:
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "verify-symbolic":
        argv = ["verify-forms", "--k", "symbolic", _tau_arg(random_sl2z(rng)),
                "--negative-controls", "--json"]
        return Op(index, argv, "verify")
    if workload == "verify-concrete":
        if index % GOLDEN_EVERY == 0:
            return Op(index, ["verify-forms", "--k", "2", "--json"], "golden",
                      golden="tests/golden/verify_forms_k2.json")
        k = rng.choice([-1, 1]) * rng.randint(1, 9)
        argv = ["verify-forms", f"--k={k}", _tau_arg(random_sl2z(rng)),
                "--negative-controls", "--json"]
        return Op(index, argv, "verify")
    if workload == "sweep-grid":
        return _sweep_op(rng, index, workdir)
    if workload == "certificate":
        return Op(index, ["lemma6", "--json"], "golden",
                  golden="tests/golden/lemma6.json")
    raise ValueError(f"unknown workload {workload!r}")


def _sweep_op(rng: random.Random, index: int, workdir: Path) -> Op:
    taus: list[tuple[int, int, int, int]] = []
    while len(taus) < SWEEP_TWISTS:
        tau = random_sl2z(rng)
        if tau not in taus:
            taus.append(tau)
    k_min = rng.randint(-(SWEEP_K_VALUES - 1), 0)
    k_max = k_min + SWEEP_K_VALUES - 1
    tau_path = workdir / f"tau-{index}.json"
    out_path = workdir / f"out-{index}.jsonl"
    argv = ["sweep", f"--k-min={k_min}", f"--k-max={k_max}",
            "--tau-file", str(tau_path), "--out", str(out_path)]
    tau_json = [[[p, q], [r, s]] for p, q, r, s in taus]
    grid = {"k_min": k_min, "k_max": k_max, "taus": tau_json}
    return Op(index, argv, "sweep", units=GRID_SIZE, grid=grid,
              files={str(tau_path): json.dumps(tau_json)}, out=str(out_path))


def warmup_op() -> Op:
    """The command run once in set-up, before measuring. The package has no
    caches to fill, and a fresh worker's first verify-forms or lemma6
    command is within run-to-run noise of its later ones, so this is the
    cheapest command through the CLI's parser, the integer stack and JSON
    output (about 2 ms). Set-up time is then start-up, import and input
    generation, not a whole command timed in raw seconds."""
    return Op(-1, ["h1", "--k=1,2,3,4", "--json"], "exit0")
