"""Output oracles for the benchmark, independent of ``src/`` and ``tests/``.

Each oracle takes an op (from ``workloads``) and what the command produced,
and returns a list of problems; an empty list means the output is correct.
``corrupt`` damages an output the way a bug might, so that ``--corrupt``
runs can show every oracle rejecting bad output.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

AMBIENT_RANK = 6
# Coordinate carrying the w-circle of the i-th embedded 4-torus; the
# z-circle is coordinate 2 for all four (the paper's embedding catalogue).
W_COORDINATE = (3, 4, 5, 6)
Z_COORDINATE = 2
# Smallest b2 of a spin product with vanishing canonical class and
# b1 = 2 or 3 (the paper's signature count).
MIN_PRODUCT_B2 = {2: 23, 3: 27}
SWEEP_ORACLE_SAMPLES = 32
# Descriptors drawn from each sweep's grid, whose class must exist: the
# grid's first descriptor, then seeded draws. A class holding 5% of the grid
# is missed by all of them with probability about 4%, one holding 10% with
# probability 0.1%.
GRID_SAMPLES = 64


def check(op, code, stdout: str, root: Path) -> list[str]:
    if code != 0:
        return [f"exit code {code!r}, expected 0"]
    if op.check == "exit0":
        return []
    if op.check == "golden":
        expected = (root / op.golden).read_text()
        return [] if stdout == expected else [f"output differs from {op.golden}"]
    if op.check == "verify":
        return check_verify(stdout)
    if op.check == "sweep":
        return check_sweep(op, stdout, Path(op.out).read_text())
    raise ValueError(f"unknown oracle {op.check!r}")


def check_verify(stdout: str) -> list[str]:
    """Every positive claim passes and every negative control fails."""
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    problems = []
    checks = doc.get("checks", [])
    names = [c.get("check") for c in checks]
    if names != ["gluing-form-interpolation", "canonical-class-vanishing"]:
        problems.append(f"unexpected checks {names}")
    for c in checks:
        if not c.get("claims"):
            problems.append(f"{c.get('check')}: no claims")
        for claim in c.get("claims", []):
            if claim.get("passed") is not True:
                problems.append(f"{c.get('check')}: claim failed: {claim.get('label')}")
    controls = doc.get("negative_controls", {})
    if sorted(controls) != ["alpha-sign-flip", "dropped-quadratic-term"]:
        problems.append(f"unexpected negative controls {sorted(controls)}")
    for name, rep in controls.items():
        if rep.get("passed") is not False or all(
            c.get("passed") for c in rep.get("claims", [])
        ):
            problems.append(f"negative control {name} was not caught")
    if doc.get("passed") is not True:
        problems.append("document not marked passed")
    return problems


def _det(m: list[list[int]]) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    a = [row[:] for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def group_by_minors(rows: list[list[int]]) -> tuple[int, list[int]]:
    """(rank, torsion) of Z^n / rowspan, from gcds of i x i minors:
    the i-th invariant factor is g_i / g_(i-1)."""
    n = len(rows[0])
    gcds = [1]
    for size in range(1, min(len(rows), n) + 1):
        g = 0
        for rs in itertools.combinations(range(len(rows)), size):
            for cs in itertools.combinations(range(n), size):
                g = math.gcd(g, _det([[rows[r][c] for c in cs] for r in rs]))
        if g == 0:
            break
        gcds.append(g)
    factors = [gcds[i] // gcds[i - 1] for i in range(1, len(gcds))]
    return n - len(factors), [d for d in factors if d > 1]


def closed_form_relations(surgeries) -> list[list[int]]:
    """Attaching circle meridian + k*w, pushed by tau = [[p,q],[r,s]]:
    the meridian dies, k*w goes to q*k*z + s*k*w."""
    rows = []
    for i, entry in enumerate(surgeries):
        k = entry["k"]
        (_, q), (_, s) = entry["tau"]
        row = [0] * AMBIENT_RANK
        row[Z_COORDINATE - 1] += q * k
        row[W_COORDINATE[i] - 1] += s * k
        rows.append(row)
    return rows


def _in_grid(surgeries, grid) -> bool:
    return all(entry["tau"] in grid["taus"]
               and grid["k_min"] <= entry["k"] <= grid["k_max"]
               for entry in surgeries)


def invariants(surgeries) -> dict:
    """A descriptor's class fields, from the minor-gcd normal form of its
    closed-form relation rows."""
    rank, torsion = group_by_minors(closed_form_relations(surgeries))
    product = ("obstructed" if rank in MIN_PRODUCT_B2
               and 15 + rank < MIN_PRODUCT_B2[rank] else "unknown")
    return {"h1": {"rank": rank, "torsion": torsion}, "b1": rank,
            "kahler_obstructed": rank % 2 == 1, "product_status": product}


def _class_key(c) -> tuple:
    return (json.dumps(c["h1"], sort_keys=True), c["b1"], c["kahler_obstructed"],
            c["product_status"])


def grid_samples(op) -> list[list[dict]]:
    """The op's first grid descriptor (every slot at k_min and the first
    twist), then descriptors drawn from the grid, seeded by the op."""
    rng = random.Random(f"oracle/{op.index}/{json.dumps(op.grid, sort_keys=True)}")
    k_values = range(op.grid["k_min"], op.grid["k_max"] + 1)
    first = [{"k": op.grid["k_min"], "tau": op.grid["taus"][0]}] * 4
    return [first] + [[{"k": rng.choice(k_values), "tau": rng.choice(op.grid["taus"])}
                       for _ in range(4)] for _ in range(GRID_SAMPLES - 1)]


def check_sweep(op, stdout: str, out_text: str) -> list[str]:
    """Class counts add up to the grid, classes are distinct, every
    representative lies in the grid, a sample of representatives has the
    first homology the minor-gcd normal form gives, and descriptors drawn
    from the grid each fall in an existing class."""
    problems = []
    if stdout:
        problems.append("sweep with --out wrote to stdout")
    try:
        classes = [json.loads(line) for line in out_text.splitlines()]
    except ValueError as exc:
        return problems + [f"output line is not JSON: {exc}"]
    total = sum(c["count"] for c in classes)
    if total != op.units:
        problems.append(f"class counts add up to {total}, grid has {op.units}")
    keys = {_class_key(c) for c in classes}
    if len(keys) != len(classes):
        problems.append("two classes share the same invariants")
    for c in classes:
        if c["count"] < 1 or not _in_grid(c["representative"]["surgeries"], op.grid):
            problems.append(f"representative outside the grid: {c['representative']}")
            break
    step = max(1, len(classes) // SWEEP_ORACLE_SAMPLES)
    for c in classes[::step]:
        expected = invariants(c["representative"]["surgeries"])
        if _class_key(c) != _class_key(expected):
            problems.append(f"class {c['h1']} b1={c['b1']}: minor-gcd oracle gives "
                            f"{expected['h1']}")
    for surgeries in grid_samples(op):
        expected = invariants(surgeries)
        if _class_key(expected) not in keys:
            problems.append(f"no class {expected['h1']} for grid descriptor {surgeries}")
            break
    return problems


def corrupt(op, stdout: str) -> str:
    """Damage one op's output (stdout, or the --out file in place) the way
    a bug might; the oracle must then reject it."""
    if op.check == "sweep":
        classes = [json.loads(line) for line in Path(op.out).read_text().splitlines()]
        if op.index % 3 == 0:
            classes[0]["h1"]["rank"] += 1
        elif op.index % 3 == 1:
            classes[0]["count"] += 1
        else:  # two classes merged, counts still adding up: the class of
            # the grid's first descriptor, which the oracle always samples
            # (a random class is caught only with the odds noted above)
            key = _class_key(invariants(grid_samples(op)[0]))
            merged = next(c for c in classes if _class_key(c) == key)
            classes.remove(merged)
            classes[0]["count"] += merged["count"]
        Path(op.out).write_text("".join(json.dumps(c) + "\n" for c in classes))
        return stdout
    if op.check == "verify":
        if op.index % 2:  # a positive claim reported as failing
            return _replace_nth(stdout, '"passed": true', '"passed": false', 3)
        # a negative control that no longer trips
        controls = stdout.find('"negative_controls"')
        return stdout[:controls] + stdout[controls:].replace(
            '"passed": false', '"passed": true', 1)
    # golden outputs: one changed byte
    return stdout.replace("1", "7", 1) if "1" in stdout else stdout + " "


def _replace_nth(text: str, old: str, new: str, n: int) -> str:
    pos = -1
    for _ in range(n):
        pos = text.find(old, pos + 1)
        if pos < 0:
            return text + " "
    return text[:pos] + new + text[pos + len(old):]
