"""End-to-end symbolic identity checks and their negative controls."""

import functools
import json
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_surgery import verification
from torus_surgery.coefficients import SYMBOLS, Polynomial, RationalFunction
from torus_surgery.forms import (
    Form,
    LinearOperator,
    Region,
    compose,
    mat_determinant,
    mat_equal,
    mat_identity,
    mat_inverse,
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
    k_coefficient,
    gluing_map_inverse,
    interpolated_form,
    negative_control_reports,
    standard_symplectic_form,
    twist_coframe,
    unit_scale,
    almost_complex_structure,
)

from gaussian_oracle import ONE, ZERO, add, div, mul, pairs, plain_evaluate
from twisted_oracle import (
    criterion6_twists,
    direct_theorem5,
    dropped_quadratic_structure,
    twisted_metric,
    verdicts,
)

IDENTITY = SL2Z.identity()


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
    "minor 2 not certified: 1 + y^2*k^2*f^2 + -1*x^2*y^2*k^4*f^4"
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
    columns still available; entries are (re, im) pairs."""
    n = len(matrix)

    @functools.cache
    def det(cols):
        row = n - len(cols)
        if not cols:
            return ONE
        total = ZERO
        for pos, col in enumerate(cols):
            if matrix[row][col] != ZERO:
                sign = -1 if pos % 2 else 1
                term = mul(matrix[row][col], det(cols[:pos] + cols[pos + 1:]))
                total = add(total, mul((sign, 0), term))
        return total

    return det(tuple(range(n)))


def sample_value(entry, sample):
    """A rational function's value at ``sample``, as an (re, im) pair."""
    return div(*(plain_evaluate(pairs(p), SYMBOLS, sample) for p in (entry.num, entry.den)))


def sampled_positivity_residual(metric, samples):
    """The old claim's residual: per sample, the first leading minor that is
    non-real or <= 0; empty when every minor is positive at every sample."""
    failures = []
    for sample in samples:
        values = [[sample_value(entry, sample) for entry in row] for row in metric]
        for m in range(1, len(values) + 1):
            re, im = cofactor_determinant([row[:m] for row in values[:m]])
            if im != 0:
                failures.append(f"minor {m} at {sample}: non-real minor")
                break
            if re <= 0:
                failures.append(f"minor {m} at {sample}: {re}")
                break
    return "; ".join(failures)


class TestSamplingOracle:
    def test_reproduces_dropped_quadratic_residual(self):
        metric = twisted_metric("symbolic", IDENTITY, dropped_quadratic_structure("symbolic"))
        residual = sampled_positivity_residual(metric, positivity_samples("symbolic"))
        assert residual == DROPPED_QUADRATIC_POSITIVITY_RESIDUAL
        assert residual.count("minor ") == 14

    def test_certified_metrics_positive_at_every_sample(self):
        for tau in (IDENTITY, SL2Z(2, 3, 1, 2)):
            rep = check_theorem5("symbolic", tau)
            assert rep.passed
            metric = twisted_metric("symbolic", tau, almost_complex_structure("symbolic"))
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

    def test_sign_flip_control_fails_on_outer_agreement(self, monkeypatch):
        controls, corrupted, _ = control_inputs(monkeypatch, "symbolic", IDENTITY)
        rep = controls["alpha-sign-flip"]
        assert not rep.passed
        failing = [c for c in rep.claims if not c.passed]
        assert any("(c)" in c.label for c in failing)
        # the residual is twice the correction term on the outer annulus
        outer = [c for c in failing if "outer" in c.label]
        assert outer and outer[0].residual is not None
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
        assert check_theorem5(0, IDENTITY).passed
        assert check_theorem5(4, IDENTITY).passed

    def test_passes_symbolically(self):
        rep = check_theorem5("symbolic", IDENTITY)
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
        rep = negative_control_reports("symbolic", IDENTITY)["dropped-quadratic-term"]
        assert not rep.passed
        failing = [c.label for c in rep.claims if not c.passed]
        assert any("J^2" in label for label in failing)
        positivity = next(
            c for c in rep.claims
            if c.label == "(b) metric positive definite (certified leading minors)"
        )
        assert not positivity.passed
        assert positivity.residual == DROPPED_QUADRATIC_CERTIFICATE_RESIDUAL


class TestDroppedQuadraticMinor:
    """The control's claim (b) detail is a positive multiple of the second
    leading minor of its metric. Pinned before as the unreduced product of
    Gauss-Jordan pivots, it is now the pivot of the division-free pass; the
    two are the same rational function."""

    LABEL = "(b) metric positive definite (certified leading minors)"

    @staticmethod
    def _old_and_new(k):
        """The old pinned minor, (1 + 2a + a^2 - b - a*b)/(1 + a) in normal
        form (monic denominator, so 1/49 for k = -7), and the new 1 + a - b."""
        x, y, f = (Polynomial.variable(s) for s in ("x", "y", "f"))
        kk = Polynomial.variable("k") if k == "symbolic" else k
        a = y**2 * kk**2 * f**2
        b = x**2 * y**2 * kk**4 * f**4
        old = RationalFunction(1 + 2 * a + a * a - b - a * b, 1 + a)
        return old, RationalFunction.from_polynomial(1 + a - b)

    def test_old_pins_print_as_before(self):
        old, _ = self._old_and_new("symbolic")
        assert str(old) == (
            "(1 + 2*y^2*k^2*f^2 + y^4*k^4*f^4 + -1*x^2*y^2*k^4*f^4"
            " + -1*x^2*y^4*k^6*f^6)/(1 + y^2*k^2*f^2)"
        )
        old, _ = self._old_and_new(-7)
        assert str(old) == (
            "(1/49 + 2*y^2*f^2 + 49*y^4*f^4 + -49*x^2*y^2*f^4"
            " + -2401*x^2*y^4*f^6)/(1/49 + y^2*f^2)"
        )

    @pytest.mark.parametrize("k", ["symbolic", -7])
    def test_new_detail_equals_old_minor(self, k):
        old, new = self._old_and_new(k)
        assert old == new
        rep = negative_control_reports(k, IDENTITY)["dropped-quadratic-term"]
        claim = next(c for c in rep.claims if c.label == self.LABEL)
        assert not claim.passed
        assert claim.residual == f"minor 2 not certified: {new}"

    def test_minor_is_the_second_leading_minor(self):
        # Independently of the pass: the cofactor determinant of the
        # metric's leading 2-block is the pinned minor.
        metric = twisted_metric("symbolic", IDENTITY, dropped_quadratic_structure("symbolic"))
        _, new = self._old_and_new("symbolic")
        block = [row[:2] for row in metric[:2]]
        assert block[0][0] * block[1][1] - block[0][1] * block[1][0] == new


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

    def test_twisted_gluing_inverse_conjugates_the_untwisted_inverse(self):
        # The direct twisted oracle inverts the twisted gluing map as the
        # composite around the inverse of the untwisted map.
        phi = gluing_map("symbolic")
        for tau in (SL2Z(2, 3, 1, 2), SL2Z(0, -1, 1, 0)):
            twist, twist_inv = twist_coframe(tau), twist_coframe(tau.inverse())
            twisted = compose(compose(twist_inv, phi), twist)
            assert mat_equal(
                compose(compose(twist_inv, phi.inverse()), twist).matrix,
                mat_inverse(twisted.matrix),
            )


class TestGluingInverse:
    """The gluing map's inverse is the same map with k negated."""

    KS = ("symbolic", 0, 3, -3)

    def test_composes_to_the_identity(self):
        for k in self.KS:
            phi, phi_inv = gluing_map(k), gluing_map_inverse(k)
            for product in (compose(phi, phi_inv), compose(phi_inv, phi)):
                assert mat_equal(product.matrix, mat_identity(6))

    def test_matches_elimination(self):
        for k in self.KS:
            assert mat_equal(
                gluing_map_inverse(k).matrix, mat_inverse(gluing_map(k).matrix)
            )


# -- the naturality reduction of check_theorem5 ------------------------------


def _monomial(c, ex, ey, ef, ek, over_radius):
    x, y, f, k = (RationalFunction.variable(s) for s in ("x", "y", "f", "k"))
    value = c * x.power(ex) * y.power(ey) * f.power(ef) * k.power(ek)
    return value / (x * x + y * y) if over_radius else value


# Small monomials in x, y, f and k, some over x^2 + y^2, so that a region
# substitution of f changes them.
COEFFICIENTS = st.builds(
    _monomial,
    st.integers(min_value=-3, max_value=3).filter(bool),
    *[st.integers(min_value=0, max_value=2)] * 4,
    st.booleans(),
)
KEYS = st.sets(st.integers(min_value=0, max_value=5), max_size=3).map(
    lambda s: tuple(sorted(s))
)
FORMS = st.dictionaries(KEYS, COEFFICIENTS, max_size=3).map(Form)
ONE_FORMS = st.dictionaries(
    st.integers(min_value=0, max_value=5).map(lambda i: (i,)), COEFFICIENTS, max_size=3
).map(Form)


def _sparse_operator(entries):
    matrix = mat_identity(6)
    for (i, j), value in entries.items():
        matrix[i][j] = value
    return LinearOperator(matrix)


OPERATORS = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=5)] * 2), COEFFICIENTS, max_size=6
).map(_sparse_operator)
GENERATORS_OF_SL2Z = (SL2Z(1, 1, 0, 1), SL2Z(1, -1, 0, 1), SL2Z(0, -1, 1, 0))
TAUS = st.lists(st.sampled_from(GENERATORS_OF_SL2Z), max_size=6).map(
    lambda word: functools.reduce(lambda a, b: a @ b, word, SL2Z.identity())
)


class TestTwistNaturality:
    """The lemma behind check_theorem5's reduction: the pullback T* of a
    twist commutes with the operations its claims are built from, and
    fixes omega."""

    @settings(max_examples=30, deadline=None)
    @given(TAUS, FORMS, FORMS)
    def test_pullback_commutes_with_wedge_sum_and_regions(self, tau, a, b):
        t = twist_coframe(tau)
        assert t.pullback(a.wedge(b)) == t.pullback(a).wedge(t.pullback(b))
        assert t.pullback(a + b) == t.pullback(a) + t.pullback(b)
        for region in Region:
            assert t.pullback(a.in_region(region)) == t.pullback(a).in_region(region)

    @settings(max_examples=30, deadline=None)
    @given(TAUS, OPERATORS, ONE_FORMS)
    def test_conjugate_acts_on_pulled_back_forms(self, tau, j, v):
        t, t_inv = twist_coframe(tau), twist_coframe(tau.inverse())
        twisted = j.conjugate_by(t, t_inv)
        assert twisted(t.pullback(v)) == t.pullback(j(v))
        assert mat_equal(
            twisted.square(), LinearOperator(j.square()).conjugate_by(t, t_inv).matrix
        )
        for region in Region:
            assert mat_equal(
                twisted.in_region(region).matrix,
                j.in_region(region).conjugate_by(t, t_inv).matrix,
            )

    @settings(max_examples=30, deadline=None)
    @given(TAUS, OPERATORS, FORMS)
    def test_twisted_composite_pulls_back_as_the_conjugate(self, tau, phi, h):
        t, t_inv = twist_coframe(tau), twist_coframe(tau.inverse())
        twisted = compose(compose(t_inv, phi), t)
        assert twisted.pullback(t.pullback(h)) == t.pullback(phi.pullback(h))

    @settings(max_examples=30, deadline=None)
    @given(TAUS)
    def test_twist_and_its_inverse_fix_omega(self, tau):
        omega = standard_symplectic_form()
        assert twist_coframe(tau).pullback(omega) == omega
        assert twist_coframe(tau.inverse()).pullback(omega) == omega


class TestNaturalityOracle:
    """The reduced check_theorem5 against the direct twisted computation:
    the same labels and verdicts (criterion 6 covers symbolic k)."""

    POSITIVITY = "(b) metric positive definite (certified leading minors)"

    @pytest.mark.parametrize("k", [2, -7, 0])
    def test_criterion6_twists(self, k):
        for tau in criterion6_twists():
            rep = check_theorem5(k, tau)
            assert rep.passed
            assert verdicts(rep) == verdicts(
                direct_theorem5(k, tau, almost_complex_structure(k))
            )

    @pytest.mark.parametrize("k", ["symbolic", 2, -7, 0])
    def test_dropped_quadratic_term(self, k):
        for tau in (*TWISTS, SL2Z(13, 8, 21, 13)):
            rep = negative_control_reports(k, tau)["dropped-quadratic-term"]
            direct = direct_theorem5(k, tau, dropped_quadratic_structure(k))
            assert verdicts(rep) == verdicts(direct)
            # at k = 0 there is no quadratic term to drop
            assert rep.passed == (k == 0)
            # both paths certify the same untwisted metric
            claim = next(c for c in rep.claims if c.label == self.POSITIVITY)
            assert claim in direct.claims


def control_inputs(monkeypatch, k, tau):
    """The controls' reports, and the interpolated form and the almost
    complex structure that ``negative_control_reports`` hands to the claim
    code of lemma 2 and theorem 5."""
    seen = {}

    def spy(real):
        def wrapper(*args):
            seen[real.__name__] = args[-1]
            return real(*args)
        return wrapper

    for name in ("_lemma2_report", "_theorem5_report"):
        monkeypatch.setattr(verification, name, spy(getattr(verification, name)))
    controls = negative_control_reports(k, tau)
    return controls, seen["_lemma2_report"], seen["_theorem5_report"]


# The twists of the "Verify output bytes" CI step.
PINNED_TWISTS = (IDENTITY, SL2Z(13, 8, 21, 13), SL2Z(0, 1, -1, -1), SL2Z(2, 3, 1, 2))


class TestNegativeControls:
    def test_both_controls_fail_as_designed(self):
        controls = negative_control_reports("symbolic", IDENTITY)
        assert set(controls) == {"alpha-sign-flip", "dropped-quadratic-term"}
        for rep in controls.values():
            assert not rep.passed

    @pytest.mark.parametrize("k", ["symbolic", -7])
    def test_inputs_differ_by_exactly_the_corruption(self, monkeypatch, k):
        _, omega_tilde, j = control_inputs(monkeypatch, k, SL2Z(2, 3, 1, 2))
        assert omega_tilde - interpolated_form(k) == -2 * correction_form(k)
        kxf = k_coefficient(k) * RationalFunction.variable("x") * RationalFunction.variable("f")
        difference = [
            [a - b for a, b in zip(row, true_row)]
            for row, true_row in zip(j.matrix, almost_complex_structure(k).matrix)
        ]
        expected = [[RationalFunction.zero()] * 6 for _ in range(6)]
        expected[1][3] = kxf * kxf  # row dy, column dw
        assert mat_equal(difference, expected)
        assert not kxf.is_zero()

    @pytest.mark.parametrize("k", ["symbolic", -7, 2, 0])
    def test_reports_do_not_depend_on_tau(self, k):
        def documents(tau):
            return {n: r.to_json() for n, r in negative_control_reports(k, tau).items()}

        untwisted = documents(IDENTITY)
        for tau in PINNED_TWISTS[1:]:
            assert documents(tau) == untwisted

    @pytest.mark.parametrize("k", ["symbolic", 2])
    def test_determinant_minus_one_twist_fails_exactly_claim_e(self, k):
        # SL2Z refuses this matrix, so it is built as a bare record.
        flip = SimpleNamespace(p=1, q=0, r=0, s=-1)
        rep = check_theorem5(k, flip)
        failing = [c.label for c in rep.claims if not c.passed]
        assert failing == ["(e) twist preserves the symplectic form"]
        assert check_theorem5(k, IDENTITY).passed


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
        rep = negative_control_reports(1, IDENTITY)["alpha-sign-flip"]
        failing = [c for c in rep.to_json()["claims"] if not c["passed"]]
        assert failing and all("residual" in c for c in failing)
