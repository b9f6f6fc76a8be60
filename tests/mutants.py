"""Source mutants that the Tier-1 tests must kill, and their runner.

Each entry of ``MUTANTS`` is (file under ``src/torus_surgery``, exact old
snippet, replacement, node ids of the tests that must fail). For each one
the runner copies ``src/`` to a temporary directory, replaces the snippet,
which must occur exactly once, and runs only the entry's tests against the
copy. A mutant survives when those tests pass. A snippet that is no longer
found is an error, not a skip: a refactor that moves the code updates the
entry. The tests are first run once against the unmutated source, so that a
kill is never a test that fails anyway.

Run from the repository root; it exits 0 when every mutant is killed and
1 otherwise:

    python3 tests/mutants.py

Pytest does not collect this file, since its name does not start with
``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

VERIFICATION = "tests/test_verification.py::"
COEFFICIENTS = "tests/test_coefficients.py::"
CLI = "tests/test_cli.py::"
FORMS = "tests/test_forms.py::"
LATTICE = "tests/test_lattice.py::"
SURGERY = "tests/test_surgery.py::"

MUTANTS = (
    # -- negative controls: the corrupted inputs and claim (e) ---------------
    (
        "verification.py",
        'lemma2.rerun("omega_tilde", omega - alpha)',
        'lemma2.rerun("omega_tilde", omega + alpha)',
        [VERIFICATION + "TestNegativeControls::test_inputs_differ_by_exactly_the_corruption"],
    ),
    (
        "verification.py",
        "matrix[1][3] = RationalFunction.constant(-1)",
        "pass",
        [VERIFICATION + "TestNegativeControls::test_inputs_differ_by_exactly_the_corruption"],
    ),
    (
        "verification.py",
        "matrix[1][3] = RationalFunction.constant(-1)",
        "matrix[3][1] = RationalFunction.constant(-1)",
        [VERIFICATION + "TestNegativeControls::test_inputs_differ_by_exactly_the_corruption"],
    ),
    (
        "verification.py",
        "twist_coframe(tau).pullback(omega), omega",
        "omega, omega",
        [VERIFICATION + "TestNegativeControls::test_determinant_minus_one_twist_fails_exactly_claim_e"],
    ),
    (
        "verification.py",
        '"dx": Form.from_terms((tau.s, "dx"), (tau.q, "dy")),',
        '"dx": Form.from_terms((tau.s, "dx"), (tau.r, "dy")),',
        [VERIFICATION + "TestNaturalityOracle::test_criterion6_twists[2]"],
    ),
    # -- the claim tables: a control reruns exactly what its corruption reaches
    (
        "verification.py",
        '(("j",), lambda j: [',
        '((), lambda j: [',
        [
            VERIFICATION + "TestNegativeControls::test_inputs_differ_by_exactly_the_corruption",
            VERIFICATION + "TestNegativeControls::test_copied_claims_equal_a_full_rerun",
        ],
    ),
    (
        "verification.py",
        '(("omega_tilde",), lambda omega_tilde: [',
        '((), lambda omega_tilde: [',
        [
            VERIFICATION + "TestNegativeControls::test_inputs_differ_by_exactly_the_corruption",
            VERIFICATION + "TestNegativeControls::test_copied_claims_equal_a_full_rerun",
        ],
    ),
    (
        "verification.py",
        "_run(entry, inputs) if name in entry[0] else result",
        "result",
        [
            VERIFICATION + "TestNegativeControls::test_inputs_differ_by_exactly_the_corruption",
            VERIFICATION + "TestNegativeControls::test_copied_claims_equal_a_full_rerun",
        ],
    ),
    (
        "verification.py",
        "if name in entry[0] else result",
        "if name in entry[0][1:] else result",
        [
            VERIFICATION + "TestNegativeControls::test_inputs_differ_by_exactly_the_corruption",
            VERIFICATION + "TestNegativeControls::test_copied_claims_equal_a_full_rerun",
        ],
    ),
    (
        "verification.py",
        "inputs = {**self.inputs, name: value}",
        "inputs = self.inputs",
        [VERIFICATION + "TestNegativeControls::test_inputs_differ_by_exactly_the_corruption"],
    ),
    # -- the normal form of RationalFunction ---------------------------------
    (
        "coefficients.py",
        "_exact(Fraction(-b, norm))",
        "_exact(Fraction(b, norm))",
        [COEFFICIENTS + "TestPackedKernelOracle::test_normalisation_divides_on_pairs"],
    ),
    (
        "coefficients.py",
        "norm = a * a + b * b",
        "norm = a * a - b * b",
        [COEFFICIENTS + "TestGaussianRationalOracle::test_binary_operators"],
    ),
    (
        "coefficients.py",
        "p._scale(inv)._terms.items()",
        "p._scale(lead)._terms.items()",
        [COEFFICIENTS + "TestRationalFunction::test_denominator_leading_coefficient_one"],
    ),
    (
        "coefficients.py",
        "m: (_exact(re), _exact(im)) for m, (re, im)",
        "m: (re, im) for m, (re, im)",
        [COEFFICIENTS + "TestPackedKernelOracle::test_normalisation_divides_on_pairs"],
    ),
    (
        "coefficients.py",
        "return GaussianRational(*value.num._constant())",
        "return GaussianRational(*value.den._constant())",
        [COEFFICIENTS + "TestPolynomial::test_evaluate"],
    ),
    (
        "coefficients.py",
        "for sym in SYMBOLS if self.contains(sym)",
        "for sym in assignment if self.contains(sym)",
        [COEFFICIENTS + "TestPolynomial::test_evaluate_missing_symbol"],
    ),
    # -- ring operations keep the normal form without renormalising ----------
    (
        "coefficients.py",
        "return RationalFunction._of(num, self.den * other.den) if num._terms else _ZERO",
        "return RationalFunction._of(num, self.den * other.den)",
        [COEFFICIENTS + "TestShortCutsMatchGeneralFormula::test_ring_operations_never_normalise"],
    ),
    (
        "coefficients.py",
        "return RationalFunction._of(num, d * d) if num._terms else _ZERO",
        "return RationalFunction._of(num, d * d)",
        [COEFFICIENTS + "TestShortCutsMatchGeneralFormula::test_ring_operations_never_normalise"],
    ),
    (
        "coefficients.py",
        "return RationalFunction._of(num, self.den * other.den) if",
        "return RationalFunction(num, self.den * other.den) if",
        [COEFFICIENTS + "TestShortCutsMatchGeneralFormula::test_ring_operations_never_normalise"],
    ),
    (
        "coefficients.py",
        "return RationalFunction._of(self.num * other.num, self.den * other.den)",
        "return RationalFunction(self.num * other.num, self.den * other.den)",
        [COEFFICIENTS + "TestShortCutsMatchGeneralFormula::test_ring_operations_never_normalise"],
    ),
    (
        "coefficients.py",
        "num = n.derivative(name) * d - n * d.derivative(name)",
        "num = n.derivative(name) * d + n * d.derivative(name)",
        [COEFFICIENTS + "TestRationalFunction::test_derivative_quotient_rule"],
    ),
    (
        "coefficients.py",
        "return RationalFunction._of(num, d * d) if num._terms else _ZERO",
        "return RationalFunction._of(num, d) if num._terms else _ZERO",
        [COEFFICIENTS + "TestRationalFunction::test_derivative_quotient_rule"],
    ),
    # -- printing ------------------------------------------------------------
    (
        "coefficients.py",
        'return text if text[0] == "(" and text.find(")") == len(text) - 1 else f"({text})"',
        'return f"({text})"',
        [
            COEFFICIENTS + "TestRationalFunction::test_non_real_constant_numerator_in_one_pair_of_parentheses",
            FORMS + "TestFormStr::test_each_coefficient_in_one_pair_of_parentheses",
        ],
    ),
    (
        "coefficients.py",
        'raise AttributeError("RationalFunction is immutable")',
        "object.__setattr__(self, name, value)",
        [COEFFICIENTS + "TestImmutable::test_setting_a_field_raises[RationalFunction]"],
    ),
    # -- the positivity certificate's Sylvester pass -------------------------
    (
        "forms.py",
        "a[r] = [p * v - c * w for v, w in zip(a[r], a[m - 1])]",
        "a[r] = [p * v + c * w for v, w in zip(a[r], a[m - 1])]",
        [FORMS + "TestSylvesterOracle::test_first_failing_leading_minor"],
    ),
    # -- lemma 6: subtori, intersections and dual tori -----------------------
    (
        "lattice.py",
        'MINUS_IMAG: "-i"}',
        'MINUS_IMAG: "i"}',
        [LATTICE + "TestRoot8::test_presentation"],
    ),
    (
        "lattice.py",
        "if any(b.fixed.get(c, m) != m for c, m in a.fixed.items()):",
        "if any(b.fixed.get(c) != m for c, m in a.fixed.items()):",
        [LATTICE + "TestIntersect::test_transverse_circle"],
    ),
    (
        "lattice.py",
        "{c: PRIMITIVE if c in pinned else ONE for c in target.free}",
        "{c: PRIMITIVE for c in target.free}",
        [LATTICE + "TestDualTori::test_least_solution_of_exhaustive_enumeration[1]"],
    ),
    (
        "lattice.py",
        "MappingProxyType({c: m % 8 for c, m in self.fixed.items()})",
        "MappingProxyType(self.fixed)",
        [LATTICE + "TestRoot8::test_direct_construction_reduces_and_copies"],
    ),
    (
        "lattice.py",
        "if self.free | fixed.keys() != set(COORDINATES) or self.free & fixed.keys():",
        "if False:",
        [LATTICE + "TestSubtorus::test_partition_enforced"],
    ),
    # -- constructors refuse what their values cannot hold -------------------
    (
        "surgery.py",
        'require_int(k, "k")',
        "pass",
        [SURGERY + "TestDescriptor::test_integer_ks_enforced"],
    ),
    (
        "surgery.py",
        "if not isinstance(tau, SL2Z):",
        "if False:",
        [SURGERY + "TestDescriptor::test_twists_enforced"],
    ),
    (
        "surgery.py",
        "ks, taus = tuple(self.ks), tuple(self.taus)",
        "ks, taus = self.ks, self.taus",
        [SURGERY + "TestDescriptor::test_entries_held_as_tuples"],
    ),
    (
        "surgery.py",
        "if len(base_ks) != 4:",
        "if False:",
        [SURGERY + "TestSweep::test_base_ks_needs_four_entries"],
    ),
    (
        "forms.py",
        " or not _INDICES.issuperset(key):",
        ":",
        [FORMS + "TestWedge::test_constructor_rejects_keys_not_strictly_increasing"],
    ),
    (
        "lattice.py",
        'require_int(self.rank, "rank")',
        "pass",
        [LATTICE + "TestAbelianGroup::test_integer_entries_enforced"],
    ),
    (
        "lattice.py",
        'require_int(d, "torsion coefficient")',
        "pass",
        [LATTICE + "TestAbelianGroup::test_integer_entries_enforced"],
    ),
    # -- relation rows, first homology and the sweep's fold ------------------
    (
        "surgery.py",
        'row[torus.labels["z"] - 1] += tau.q * k',
        'row[torus.labels["z"] - 1] += tau.p * k',
        [SURGERY + "TestRelationClasses::test_matches_closed_form_oracle"],
    ),
    (
        "surgery.py",
        'row[torus.labels["w"] - 1] += tau.s * k',
        'row[torus.labels["w"] - 1] += tau.r * k',
        [SURGERY + "TestRelationClasses::test_matches_closed_form_oracle"],
    ),
    (
        "surgery.py",
        "gcd(d4, b * d3, g * p3)",
        "gcd(d4, b * d3)",
        [SURGERY + "TestFirstHomology::test_matches_minor_gcd_oracle"],
    ),
    (
        "surgery.py",
        "if smallest < entry[1]:",
        "if smallest > entry[1]:",
        [CLI + "TestSweepGolden::test_golden_output[stdout-sweep_grid-argv0]"],
    ),
    # -- the command line's input contract -----------------------------------
    (
        "cli.py",
        "if slot in taus:",
        "if False:",
        [CLI + "TestInputErrors::test_repeated_tau_slot"],
    ),
    (
        "cli.py",
        'r"[+-]?[0-9]+"',
        r'r"[+-]?\d+"',
        [CLI + "TestAsciiIntegers::test_anything_else_refused"],
    ),
    (
        "cli.py",
        '"--slot", type=integer,',
        '"--slot", type=int,',
        [CLI + "TestAsciiIntegers::test_non_ascii_digits_exit_2"],
    ),
    (
        "cli.py",
        '_parse_ints(args.base_k, "--base-k")',
        'tuple(map(int, args.base_k.split(",")))',
        [
            CLI + "TestSweep::test_short_base_k_names_its_flag",
            CLI + "TestSweep::test_bad_base_k_with_an_empty_range",
            CLI + "TestAsciiIntegers::test_non_ascii_digits_exit_2",
        ],
    ),
    (
        "cli.py",
        "bad descriptor file {args.descriptor!r}",
        "bad descriptor file {args.descriptor}",
        [CLI + "TestInputErrors::test_path_with_newline_is_quoted"],
    ),
)


def run_tests(src: Path, node_ids) -> int:
    """Run ``node_ids`` against the package under ``src``; the exit code."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *node_ids]
    return subprocess.run(command, cwd=ROOT, env=env, capture_output=True).returncode


def run_mutant(index: int) -> str | None:
    """None when mutant ``index`` is killed, else what went wrong."""
    name, old, new, node_ids = MUTANTS[index]
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "torus_surgery" / name
        text = path.read_text()
        if text.count(old) != 1:
            return f"snippet found {text.count(old)} times, not once: {old!r}"
        path.write_text(text.replace(old, new))
        code = run_tests(src, node_ids)
    if code == 0:
        return "survived"
    if code != 1:
        return f"pytest exited {code}, not 1 (a failed test)"
    return None


def main() -> int:
    node_ids = sorted({node for *_, nodes in MUTANTS for node in nodes})
    if run_tests(ROOT / "src", node_ids) != 0:
        print("the mutants' tests fail on the unmutated source")
        return 1
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(run_mutant, range(len(MUTANTS))))
    problems = 0
    for (name, old, new, _), problem in zip(MUTANTS, results):
        if problem is not None:
            problems += 1
            print(f"{name}: {old!r} -> {new!r}: {problem}")
    print(f"{len(MUTANTS) - problems} of {len(MUTANTS)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
