"""Acceptance gate: the ten headline criteria, one test each.

Every test prints a single [PASS]/[FAIL] line (visible with pytest -s or
in the captured output) in addition to its assertions, so a run of this
module doubles as the acceptance checklist.
"""

import itertools
import json
import math
import random
import subprocess
import sys

from torus_surgery.lattice import (
    AbelianGroup,
    complement_betti,
    CoordinateSubtorus,
    MINUS_ONE,
    ONE,
    find_dual_torus,
    is_dual_torus,
    lemma_matrix,
    rational_rank,
    snf,
    three_torus_catalog,
)
from torus_surgery.surgery import (
    OBSTRUCTED,
    UNKNOWN,
    SL2Z,
    SurgeryDescriptor,
    h1,
    min_product_b2,
    product_obstruction,
    realize,
    relation_classes,
    report,
)
from torus_surgery.verification import (
    almost_complex_structure,
    check_lemma2,
    check_theorem5,
    negative_control_reports,
)

from matrix_oracles import (
    int_determinant,
    int_mat_mul,
    minor_gcd_invariant_factors,
)
from twisted_oracle import criterion6_twists, direct_theorem5, random_sl2z, verdicts


def announce(number, label, passed):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {label}")
    assert passed, f"criterion {number} failed: {label}"


# -- independent oracles (no shared code with the library paths under test) --


def normal_form_of_cyclic_sum(orders):
    """Invariant-factor normal form of a direct sum of cyclic groups by
    repeated gcd/lcm pair reduction (0 encodes an infinite factor)."""
    values = list(orders)
    changed = True
    while changed:
        changed = False
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                a, b = values[i], values[j]
                g = math.gcd(a, b)
                l = 0 if 0 in (a, b) else (a * b // g if g else 0)
                if (g, l) != (a, b):
                    values[i], values[j] = g, l
                    changed = True
    return (values.count(0), tuple(sorted(v for v in values if v > 1)))


W_COORDINATES = (3, 4, 5, 6)


def closed_form_relations(descriptor):
    rows = []
    for k, tau, w_coord in zip(descriptor.ks, descriptor.taus, W_COORDINATES):
        row = [0] * 6
        row[1] = k * tau.q
        row[w_coord - 1] += k * tau.s
        rows.append(row)
    return rows


def cli(*args):
    command = [
        sys.executable,
        "-c",
        "import sys; from torus_surgery.cli import main; sys.exit(main(sys.argv[1:]))",
        *args,
    ]
    return subprocess.run(command, capture_output=True, text=True)


# -- the ten criteria --------------------------------------------------------


def test_criterion_01_infinite_family():
    """report(realize(0, n, 1, 1)) for n = 2..50: Z^3 + Z/n family."""
    ok = True
    groups = []
    for n in range(2, 51):
        rep = report(realize(0, n, 1, 1))
        groups.append(rep.h1)
        ok = ok and (
            rep.h1 == AbelianGroup(3, (n,))
            and rep.b1 == 3
            and rep.bound_b2 == 18
            and rep.bound_b3 == 32
            and rep.euler == 0
            and rep.kahler_obstructed
            and rep.product_status == OBSTRUCTED
        )
    ok = ok and len(set(groups)) == 49  # pairwise non-isomorphic
    announce(1, "49-member family with distinct torsion", ok)


def test_criterion_02_realization_grid():
    """h1(realize(d1..d4)) isomorphic to Z^2 + sum Z/d_i for all d in 0..6."""
    ok = True
    for targets in itertools.product(range(7), repeat=4):
        group = h1(realize(*targets))
        rank, torsion = normal_form_of_cyclic_sum(targets)
        ok = ok and group == AbelianGroup(2 + rank, torsion)
    announce(2, "2401 realization targets match the independent normal form", ok)


def test_criterion_03_pushforward_oracle():
    """1000 random descriptors: pushforward rows equal the closed form."""
    rng = random.Random(20260823)
    ok = True
    for _ in range(1000):
        descriptor = SurgeryDescriptor(
            tuple(rng.randint(-9, 9) for _ in range(4)),
            tuple(random_sl2z(rng) for _ in range(4)),
        )
        ok = ok and relation_classes(descriptor) == closed_form_relations(
            descriptor
        )
    announce(3, "1000 random relation matrices match the closed form", ok)


def test_criterion_04_complement_certificate():
    """Rank-10 unimodular intersection matrix and (b1, b2) = (6, 17)."""
    matrix = lemma_matrix()
    cert = complement_betti()
    published_dual = CoordinateSubtorus(
        {1, 4}, {c: MINUS_ONE for c in (2, 3, 5, 6)}
    )
    ok = (
        rational_rank(matrix) == 10
        and snf(matrix).invariant_factors == [1] * 10
        and cert.rank == 10
        and cert.cokernel_rank == 6
        and (cert.b1, cert.b2) == (6, 17)
        and all(
            is_dual_torus(find_dual_torus(i), i - 1)
            for i in (1, 2, 3, 4)
        )
        and is_dual_torus(published_dual, 0)
    )
    announce(4, "complement certificate (rank 10, factors 1, b = (6, 17))", ok)


def test_criterion_05_symbolic_interpolation():
    """check_lemma2 with symbolic k: all claims, zero residuals."""
    rep = check_lemma2("symbolic")
    announce(5, "symbolic gluing-form interpolation identities", rep.passed)


def test_criterion_06_symbolic_structure():
    """check_theorem5 with symbolic k: identity twist plus 20 random ones,
    each with the labels and verdicts of the direct twisted computation."""
    ok = True
    for tau in criterion6_twists():
        rep = check_theorem5("symbolic", tau)
        direct = direct_theorem5("symbolic", tau, almost_complex_structure("symbolic"))
        ok = ok and rep.passed and verdicts(rep) == verdicts(direct)
    announce(6, "symbolic structure checks under 21 twists", ok)


def test_criterion_07_product_obstruction():
    """Minimal product b2 and the obstruction trichotomy."""
    ok = (
        min_product_b2(0) == 23
        and min_product_b2(1) == 27
        and product_obstruction(2, 18) == OBSTRUCTED
        and product_obstruction(3, 18) == OBSTRUCTED
        and product_obstruction(6, 21) == UNKNOWN
    )
    announce(7, "product-obstruction arithmetic (23 / 27 / control)", ok)


def test_criterion_08_smith_normal_form():
    """500 random matrices against the minor-gcd oracle."""
    rng = random.Random(8)
    ok = True
    for _ in range(500):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        result = snf(matrix)
        u = [list(r) for r in result.U]
        v = [list(r) for r in result.V]
        d = [list(r) for r in result.D]
        diag = result.diagonal
        ok = ok and (
            int_mat_mul(int_mat_mul(u, matrix), v) == d
            and abs(int_determinant(u)) == 1
            and abs(int_determinant(v)) == 1
            and all(
                value == 0
                for i, row in enumerate(d)
                for j, value in enumerate(row)
                if i != j
            )
            and all(
                (a == 0 and b == 0) or (a != 0 and b % a == 0)
                for a, b in zip(diag, diag[1:])
            )
            and result.invariant_factors == minor_gcd_invariant_factors(matrix)
        )
    announce(8, "500 Smith normal forms match the minor-gcd oracle", ok)


def test_criterion_09_negative_controls():
    """Each single-formula corruption must break a check."""
    controls = negative_control_reports(
        check_lemma2("symbolic"), check_theorem5("symbolic", SL2Z.identity())
    )
    corrupted_catalog_detected = False
    # The eighth 3-torus with its fixed value at coordinate 3 set to +1.
    tori = list(three_torus_catalog())
    tori[7] = CoordinateSubtorus(tori[7].free, {**tori[7].fixed, 3: ONE})
    try:
        lemma_matrix(three_tori=tori)
    except ValueError:
        corrupted_catalog_detected = True
    ok = (
        not controls["alpha-sign-flip"].passed
        and not controls["dropped-quadratic-term"].passed
        and corrupted_catalog_detected
    )
    announce(9, "all three negative controls fail as designed", ok)


def test_criterion_10_cli_determinism():
    """Byte-identical JSON across two runs of each reporting command."""
    ok = True
    for args in (
        ("lemma6", "--json"),
        ("verify-forms", "--k", "symbolic", "--json"),
    ):
        first = cli(*args)
        second = cli(*args)
        ok = ok and (
            first.returncode == 0
            and second.returncode == 0
            and first.stdout == second.stdout
            and first.stdout
            and json.loads(first.stdout)["passed"] is True
        )
    announce(10, "byte-identical JSON output across runs", ok)
