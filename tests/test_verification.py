"""End-to-end symbolic identity checks and their negative controls."""

import functools
import json
from fractions import Fraction

from torus_surgery.coefficients import GaussianRational, Polynomial, RationalFunction
from torus_surgery.forms import (
    Form,
    Region,
    mat_determinant,
    mat_equal,
    mat_inverse,
    mat_mul,
    mat_transpose,
    omega_matrix,
)
from torus_surgery.surgery import SL2Z
from torus_surgery.verification import (
    canonical_section,
    canonical_section_flat,
    check_lemma2,
    check_theorem5,
    correction_form,
    eigenform_product,
    gluing_map,
    interpolated_form,
    negative_control_reports,
    standard_symplectic_form,
    twist_coframe,
    unit_scale,
    almost_complex_structure,
)


# The residual the sampled positivity claim gave for the dropped-quadratic-
# term control, computed with a separate determinant for each leading minor
# rather than from the pivots of one elimination: 12 failures at minor 2,
# 2 at minor 4. The sampling oracle below must still reproduce it.
DROPPED_QUADRATIC_POSITIVITY_RESIDUAL = (
    "minor 2 at {'x': Fraction(-9, 20), 'y': Fraction(-3, 5),"
    " 'f': Fraction(8, 9), 'k': Fraction(-3, 1)}: -79/625; "
    "minor 2 at {'x': Fraction(9, 20), 'y': Fraction(3, 5),"
    " 'f': Fraction(10, 9), 'k': Fraction(-3, 1)}: -4; "
    "minor 2 at {'x': Fraction(9, 20), 'y': Fraction(-3, 5),"
    " 'f': Fraction(4, 3), 'k': Fraction(-3, 1)}: -7439/625; "
    "minor 2 at {'x': Fraction(-3, 5), 'y': Fraction(9, 20),"
    " 'f': Fraction(14, 9), 'k': Fraction(-3, 1)}: -72911/2500; "
    "minor 4 at {'x': Fraction(9, 20), 'y': Fraction(3, 5),"
    " 'f': Fraction(10, 9), 'k': Fraction(-2, 1)}: 0; "
    "minor 2 at {'x': Fraction(9, 20), 'y': Fraction(-3, 5),"
    " 'f': Fraction(4, 3), 'k': Fraction(-2, 1)}: -79/625; "
    "minor 2 at {'x': Fraction(-3, 5), 'y': Fraction(9, 20),"
    " 'f': Fraction(14, 9), 'k': Fraction(-2, 1)}: -21766/5625; "
    "minor 4 at {'x': Fraction(9, 20), 'y': Fraction(3, 5),"
    " 'f': Fraction(10, 9), 'k': Fraction(2, 1)}: 0; "
    "minor 2 at {'x': Fraction(9, 20), 'y': Fraction(-3, 5),"
    " 'f': Fraction(4, 3), 'k': Fraction(2, 1)}: -79/625; "
    "minor 2 at {'x': Fraction(-3, 5), 'y': Fraction(9, 20),"
    " 'f': Fraction(14, 9), 'k': Fraction(2, 1)}: -21766/5625; "
    "minor 2 at {'x': Fraction(-9, 20), 'y': Fraction(-3, 5),"
    " 'f': Fraction(8, 9), 'k': Fraction(3, 1)}: -79/625; "
    "minor 2 at {'x': Fraction(9, 20), 'y': Fraction(3, 5),"
    " 'f': Fraction(10, 9), 'k': Fraction(3, 1)}: -4; "
    "minor 2 at {'x': Fraction(9, 20), 'y': Fraction(-3, 5),"
    " 'f': Fraction(4, 3), 'k': Fraction(3, 1)}: -7439/625; "
    "minor 2 at {'x': Fraction(-3, 5), 'y': Fraction(9, 20),"
    " 'f': Fraction(14, 9), 'k': Fraction(3, 1)}: -72911/2500"
)

# The certificate's residual for the same control: the second leading minor
# has negative coefficients (it is negative at 12 of the 56 samples above).
DROPPED_QUADRATIC_CERTIFICATE_RESIDUAL = (
    "minor 2 not certified: (1 + 2*y^2*k^2*f^2 + y^4*k^4*f^4"
    " + -1*x^2*y^2*k^4*f^4 + -1*x^2*y^4*k^6*f^6)/(1 + y^2*k^2*f^2)"
)


# -- test-side sampling oracle for metric positivity ------------------------
# The library proves positivity from certified symbolic minors. This oracle
# is the check it replaced: evaluate the metric at exact rational points and
# test each leading principal minor, here by cofactor expansion.


def positivity_samples(k):
    """Exact rational sample points on the circle x^2 + y^2 = (3/4)^2,
    with f in [0, 1/(x^2+y^2)] and, for symbolic k, k in -3..3."""
    radius = Fraction(3, 4)
    points = []
    for t in (Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
              Fraction(-2), Fraction(1, 2), Fraction(-1, 2), Fraction(3)):
        denom = 1 + t * t
        points.append((radius * (1 - t * t) / denom, radius * 2 * t / denom))
    f_max = 1 / (radius * radius)
    samples = []
    k_values = range(-3, 4) if isinstance(k, str) else [None]
    for kv in k_values:
        for idx, (x, y) in enumerate(points):
            sample = {"x": x, "y": y, "f": f_max * Fraction(idx, len(points))}
            if kv is not None:
                sample["k"] = Fraction(kv)
            samples.append(sample)
    return samples


def cofactor_determinant(matrix):
    """Laplace expansion along the first remaining row, memoised on the
    columns still available."""
    n = len(matrix)

    @functools.cache
    def det(cols):
        row = n - len(cols)
        if not cols:
            return GaussianRational(1)
        total = GaussianRational(0)
        for pos, col in enumerate(cols):
            if matrix[row][col]:
                sign = -1 if pos % 2 else 1
                total = total + sign * matrix[row][col] * det(cols[:pos] + cols[pos + 1:])
        return total

    return det(tuple(range(n)))


def twisted_metric(k, tau, drop_quadratic_term=False):
    """g = omega(., J.) as check_theorem5 builds it, before any change of
    basis: the twisted structure against the twisted form, f abstract."""
    twist, twist_inv = twist_coframe(tau), twist_coframe(tau.inverse())
    j = almost_complex_structure(k, drop_quadratic_term).conjugate_by(twist, twist_inv)
    omega = twist.pullback(interpolated_form(k))
    return mat_mul(omega_matrix(omega), mat_transpose(j.matrix))


def sampled_positivity_residual(metric, samples):
    """The old claim's residual: per sample, the first leading minor that is
    non-real or <= 0; empty when every minor is positive at every sample."""
    failures = []
    for sample in samples:
        values = [[entry.evaluate(sample) for entry in row] for row in metric]
        for m in range(1, len(values) + 1):
            minor = cofactor_determinant([row[:m] for row in values[:m]])
            if not minor.is_real():
                failures.append(f"minor {m} at {sample}: non-real minor")
                break
            if minor.re <= 0:
                failures.append(f"minor {m} at {sample}: {minor.re}")
                break
    return "; ".join(failures)


class TestSamplingOracle:
    def test_reproduces_dropped_quadratic_residual(self):
        metric = twisted_metric("symbolic", SL2Z.identity(), drop_quadratic_term=True)
        residual = sampled_positivity_residual(metric, positivity_samples("symbolic"))
        assert residual == DROPPED_QUADRATIC_POSITIVITY_RESIDUAL
        assert residual.count("minor ") == 14

    def test_certified_metrics_positive_at_every_sample(self):
        for tau in (SL2Z.identity(), SL2Z(2, 3, 1, 2)):
            rep = check_theorem5("symbolic", tau)
            assert rep.passed
            metric = twisted_metric("symbolic", tau)
            assert sampled_positivity_residual(metric, positivity_samples("symbolic")) == ""


class TestGluingFormInterpolation:
    def test_passes_for_concrete_k(self):
        rep = check_lemma2(0)
        assert rep.passed
        rep = check_lemma2(3)
        assert rep.passed

    def test_passes_symbolically(self):
        rep = check_lemma2("symbolic")
        assert rep.passed
        # every labelled family is present
        labels = [c.label for c in rep.claims]
        assert sum(l.startswith("(a)") for l in labels) == 4
        assert sum(l.startswith("(d)") for l in labels) == 2
        assert sum(l.startswith("(e)") for l in labels) == 6

    def test_k_zero_interpolation_is_trivial(self):
        assert interpolated_form(0) == standard_symplectic_form()

    def test_pullback_of_symplectic_form(self):
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        ky = 5 * y
        expected = standard_symplectic_form() + Form.from_terms(
            (-RationalFunction(ky, x * x + y * y), "dx", "dy")
        )
        assert gluing_map(5).pullback(standard_symplectic_form()) == expected

    def test_sign_flip_control_fails_on_outer_agreement(self):
        rep = check_lemma2("symbolic", corrupt_alpha_sign=True)
        assert not rep.passed
        failing = [c for c in rep.claims if not c.passed]
        assert any("(c)" in c.label for c in failing)
        # the residual is twice the correction term on the outer annulus
        outer = [c for c in failing if "outer" in c.label]
        assert outer and outer[0].residual is not None
        corrupted = interpolated_form("symbolic", corrupt_sign=True)
        pulled = gluing_map("symbolic").pullback(standard_symplectic_form())
        residual = corrupted.in_region(Region.OUTER) - pulled
        expected = -2 * correction_form("symbolic").in_region(Region.OUTER)
        assert residual == expected


class TestCanonicalSection:
    def test_flat_section_recovered_at_k_zero(self):
        assert canonical_section(0) == canonical_section_flat()

    def test_unit_normalization(self):
        section = canonical_section("symbolic")
        assert section.coefficient("dx", "dw", "ds1") == RationalFunction.constant(1)

    def test_closed_in_every_region(self):
        section = canonical_section("symbolic")
        for region in (Region.INNER, Region.OUTER):
            assert section.exterior_derivative(region).is_zero()

    def test_eigenform_product_carries_the_unit(self):
        j = almost_complex_structure("symbolic")
        raw = eigenform_product(j)
        assert raw == canonical_section("symbolic") * unit_scale("symbolic")

    def test_unit_scale_never_vanishes(self):
        # real part is the constant 1, so the factor has no zeros
        u = unit_scale("symbolic")
        conj = RationalFunction.constant(2) - u  # 1 - i k x f
        norm_sq = u * conj
        kxf = (
            RationalFunction.variable("k")
            * RationalFunction.variable("x")
            * RationalFunction.variable("f")
        )
        assert norm_sq == RationalFunction.constant(1) + kxf * kxf


class TestCanonicalClassVanishing:
    def test_passes_for_identity_twist(self):
        assert check_theorem5(0).passed
        assert check_theorem5(4).passed

    def test_passes_symbolically(self):
        rep = check_theorem5("symbolic")
        assert rep.passed

    def test_passes_for_generators_of_the_twist_group(self):
        for tau in (SL2Z(1, 1, 0, 1), SL2Z(0, -1, 1, 0)):
            assert check_theorem5("symbolic", tau).passed

    def test_passes_for_asymmetric_twist_and_its_inverse(self):
        tau = SL2Z(2, 3, 1, 2)
        assert check_theorem5(2, tau).passed
        assert check_theorem5(2, tau.inverse()).passed

    def test_positivity_sample_counts(self):
        assert len(positivity_samples(3)) == 8
        assert len(positivity_samples("symbolic")) == 7 * 8

    def test_dropped_quadratic_term_control_fails(self):
        rep = check_theorem5("symbolic", drop_quadratic_term=True)
        assert not rep.passed
        failing = [c.label for c in rep.claims if not c.passed]
        assert any("J^2" in label for label in failing)
        positivity = next(
            c for c in rep.claims
            if c.label == "(b) metric positive definite (certified leading minors)"
        )
        assert not positivity.passed
        assert positivity.residual == DROPPED_QUADRATIC_CERTIFICATE_RESIDUAL


# The shear, the rotation and an asymmetric twist.
TWISTS = (SL2Z(1, 1, 0, 1), SL2Z(0, -1, 1, 0), SL2Z(2, 3, 1, 2))


class TestUnimodularCoframeMaps:
    """The construction builds only determinant-one coframe maps, so no map
    is checked for invertibility when it is made."""

    def test_gluing_maps_have_determinant_one(self):
        for k in ("symbolic", 3):
            assert mat_determinant(gluing_map(k).matrix) == 1

    def test_twists_have_determinant_one(self):
        for tau in TWISTS:
            assert mat_determinant(twist_coframe(tau).matrix) == 1

    def test_twist_of_inverse_is_inverse_twist(self):
        for tau in TWISTS:
            assert mat_equal(
                twist_coframe(tau.inverse()).matrix,
                mat_inverse(twist_coframe(tau).matrix),
            )


class TestNegativeControls:
    def test_both_controls_fail_as_designed(self):
        controls = negative_control_reports("symbolic")
        assert set(controls) == {"alpha-sign-flip", "dropped-quadratic-term"}
        for rep in controls.values():
            assert not rep.passed


class TestReports:
    def test_json_shape_and_determinism(self):
        rep = check_lemma2(1)
        doc = rep.to_json()
        assert doc["check"] == "gluing-form-interpolation"
        assert doc["passed"] is True
        assert all(c["passed"] for c in doc["claims"])
        again = check_lemma2(1).to_json()
        assert json.dumps(doc) == json.dumps(again)

    def test_failing_claim_records_residual(self):
        rep = check_lemma2(1, corrupt_alpha_sign=True)
        failing = [c for c in rep.to_json()["claims"] if not c["passed"]]
        assert failing and all("residual" in c for c in failing)
