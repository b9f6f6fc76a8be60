"""Exterior algebra: wedge laws, pullbacks, derivatives, operators."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_surgery.coefficients import (
    SYMBOLS,
    GaussianRational,
    Polynomial,
    RationalFunction,
    I,
)
from torus_surgery.forms import (
    GENERATORS,
    CoframeMap,
    Form,
    LinearOperator,
    Region,
    certified_positive,
    compatibility_check,
    compose,
    mat_equal,
    mat_determinant,
    mat_identity,
    mat_inverse,
    mat_mul,
    mat_neg,
    mat_transpose,
    operator_pullback,
    _positivity_failures,
)
from torus_surgery.surgery import SL2Z
from torus_surgery.verification import (
    almost_complex_structure,
    canonical_section,
    gluing_map,
    interpolated_form,
    standard_symplectic_form,
    twist_coframe,
)

from gaussian_oracle import ONE, ZERO, add, mul, pairs, plain_evaluate
from matrix_oracles import int_determinant, int_mat_mul, small_matrices
from twisted_oracle import metric


def is_almost_complex(operator):
    """J^2 = -1 on 1-forms."""
    return mat_equal(operator.square(), mat_neg(mat_identity(len(GENERATORS))))


# -- independent oracle: expand products of constant 1-forms by listing
# -- generator words and counting inversions for the sign ------------------


def _inversion_sign(word):
    sign = 1
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            if word[i] > word[j]:
                sign = -sign
    return sign


def naive_product(*factor_term_lists):
    """Multiply forms given as lists of ((re, im), generator names),
    reducing by antisymmetry at the very end; values are GaussianRationals."""
    words = [(ONE, ())]
    for factors in factor_term_lists:
        words = [
            (mul(c0, c1), w0 + tuple(names))
            for c0, w0 in words
            for c1, *names in factors
        ]
    reduced = {}
    for coeff, word in words:
        indices = tuple(GENERATORS.index(n) for n in word)
        if len(set(indices)) != len(indices):
            continue
        key = tuple(sorted(indices))
        signed = mul(coeff, (_inversion_sign(indices), 0))
        reduced[key] = add(reduced.get(key, ZERO), signed)
    return {k: GaussianRational(*v) for k, v in reduced.items() if v != ZERO}


def gaussian_terms(*factors):
    """``Form.from_terms`` of factors whose coefficients are (re, im) pairs."""
    return Form.from_terms(*((GaussianRational(*c), *names) for c, *names in factors))


def small_forms():
    coeffs = st.integers(min_value=-3, max_value=3)
    keys = st.sets(st.integers(min_value=0, max_value=5), max_size=3).map(
        lambda s: tuple(sorted(s))
    )
    term = st.tuples(keys, coeffs)
    return st.lists(term, max_size=3).map(
        lambda terms: sum(
            (
                Form({key: RationalFunction.constant(c)})
                for key, c in terms
                if c
            ),
            Form.zero(),
        )
    )


def homogeneous_forms(degree):
    coeffs = st.integers(min_value=-3, max_value=3)
    keys = st.sets(
        st.integers(min_value=0, max_value=5),
        min_size=degree,
        max_size=degree,
    ).map(lambda s: tuple(sorted(s)))
    term = st.tuples(keys, coeffs)
    return st.lists(term, max_size=3).map(
        lambda terms: sum(
            (
                Form({key: RationalFunction.constant(c)})
                for key, c in terms
                if c
            ),
            Form.zero(),
        )
    )


class TestFormStr:
    def test_each_coefficient_in_one_pair_of_parentheses(self):
        x = RationalFunction.variable("x")
        assert str(Form.from_terms((GaussianRational(1, 1), "dx"))) == "(1+1*i)*dx"
        assert str(Form.from_terms((GaussianRational(1, 1),))) == "(1+1*i)"
        assert str(Form.from_terms((I, "dx"), (2 * x, "dy", "dz"))) == "(1*i)*dx + (2*x)*dy^dz"
        quotient = Form.from_terms((x / (x + 1), "dx"))
        assert str(quotient) == "((x)/(1 + x))*dx"


class TestWedge:
    def test_square_of_generator_vanishes(self):
        dx = Form.generator("dx")
        assert dx.wedge(dx).is_zero()

    def test_antisymmetry_of_generators(self):
        dx, dy = Form.generator("dx"), Form.generator("dy")
        assert dx.wedge(dy) == -(dy.wedge(dx))

    def test_reordering_absorbed_in_constructor(self):
        assert Form.from_terms((1, "dy", "dx")) == -Form.from_terms((1, "dx", "dy"))
        assert Form.from_terms((1, "dx", "dx")).is_zero()

    @pytest.mark.parametrize(
        "key", [(1, 0), (0, 0), (2, 1, 3), (6,), (-1, 0), (0, 1, 7)], ids=repr
    )
    def test_constructor_rejects_keys_not_strictly_increasing(self, key):
        # Indices outside 0..5 name no generator.
        with pytest.raises(ValueError, match="not strictly increasing indices in 0..5"):
            Form({key: RationalFunction.constant(1)})

    @settings(max_examples=40)
    @given(small_forms(), small_forms(), small_forms())
    def test_associativity_and_distributivity(self, a, b, c):
        assert a.wedge(b.wedge(c)) == a.wedge(b).wedge(c)
        assert a.wedge(b + c) == a.wedge(b) + a.wedge(c)

    @settings(max_examples=40)
    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.data(),
    )
    def test_graded_commutativity(self, p, q, data):
        a = data.draw(homogeneous_forms(p))
        b = data.draw(homogeneous_forms(q))
        sign = (-1) ** (p * q)
        assert a.wedge(b) == b.wedge(a) * sign

    @settings(max_examples=40)
    @given(st.integers(min_value=1, max_value=2).filter(lambda p: p % 2 == 1))
    def test_odd_degree_squares_to_zero_example(self, p):
        form = Form.from_terms((2, "dx"), (3, "dw"), (-1, "ds2"))
        assert form.wedge(form).is_zero()

    def test_top_power_against_naive_expansion(self):
        omega = standard_symplectic_form()
        omega_terms = [(ONE, "dx", "dz"), (ONE, "dw", "dy"), (ONE, "ds1", "ds2")]
        expected = naive_product(omega_terms, omega_terms, omega_terms)
        cubed = omega.wedge_power(3)
        assert set(cubed.terms) == set(expected)
        for key, value in expected.items():
            assert cubed.terms[key] == RationalFunction.constant(value)
        assert cubed == Form.from_terms(
            (6, "dx", "dz", "dw", "dy", "ds1", "ds2")
        )

    def test_random_triple_products_against_naive_expansion(self):
        import random

        rng = random.Random(7)
        for _ in range(25):
            factor_lists = []
            for _ in range(3):
                terms = [
                    (
                        (rng.randint(-4, 4), rng.randint(-2, 2)),
                        *rng.sample(GENERATORS, rng.randint(1, 2)),
                    )
                    for _ in range(2)
                ]
                factor_lists.append(terms)
            forms = [gaussian_terms(*t) for t in factor_lists]
            product = forms[0].wedge(forms[1]).wedge(forms[2])
            expected = naive_product(*factor_lists)
            assert product == Form(
                {k: RationalFunction.constant(v) for k, v in expected.items()}
            )


class TestRegions:
    def test_inner_kills_profile(self):
        f = RationalFunction.variable("f")
        form = Form.from_terms((f, "dx", "dy"))
        assert form.in_region(Region.INNER).is_zero()

    def test_outer_substitutes_radial_inverse(self):
        f = RationalFunction.variable("f")
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        form = Form.from_terms((f, "dx"))
        expected = Form.from_terms(
            (RationalFunction(Polynomial.constant(1), x * x + y * y), "dx")
        )
        assert form.in_region(Region.OUTER) == expected

    def test_middle_is_identity(self):
        f = RationalFunction.variable("f")
        form = Form.from_terms((f, "dx"))
        assert form.in_region(Region.MIDDLE) == form


class TestExteriorDerivative:
    def test_basic(self):
        x = RationalFunction.variable("x")
        y = RationalFunction.variable("y")
        form = Form.from_terms((x * y, "dz"))
        expected = Form.from_terms((y, "dx", "dz"), (x, "dy", "dz"))
        assert form.exterior_derivative(Region.MIDDLE) == expected

    def test_square_is_zero(self):
        x = RationalFunction.variable("x")
        y = RationalFunction.variable("y")
        form = Form.from_terms(
            (x * x * y, "dz"), (y / (x * x + RationalFunction.constant(1)), "dw")
        )
        once = form.exterior_derivative(Region.MIDDLE)
        assert once.exterior_derivative(Region.MIDDLE).is_zero()

    def test_closed_generators(self):
        for name in GENERATORS:
            assert Form.generator(name).exterior_derivative(Region.MIDDLE).is_zero()

    def test_leibniz_rule(self):
        x = RationalFunction.variable("x")
        y = RationalFunction.variable("y")
        a = Form.from_terms((x * y, "dz"))  # degree 1
        b = Form.from_terms((x + y, "dw", "ds1"))  # degree 2
        lhs = a.wedge(b).exterior_derivative(Region.MIDDLE)
        rhs = a.exterior_derivative(Region.MIDDLE).wedge(b) - a.wedge(
            b.exterior_derivative(Region.MIDDLE)
        )
        assert lhs == rhs

    def test_abstract_profile_rejected_in_middle(self):
        f = RationalFunction.variable("f")
        form = Form.from_terms((f, "dz"))
        with pytest.raises(ValueError):
            form.exterior_derivative(Region.MIDDLE)
        # but concrete regions resolve f first
        assert form.exterior_derivative(Region.INNER).is_zero()


class TestCoframeMap:
    def test_identity(self):
        omega = standard_symplectic_form()
        assert CoframeMap.from_images({}).pullback(omega) == omega

    def test_pullback_is_algebra_morphism(self):
        phi = gluing_map(3)
        a = Form.from_terms((1, "dw"), (2, "dx"))
        b = Form.from_terms((1, "dy", "dz"))
        assert phi.pullback(a.wedge(b)) == phi.pullback(a).wedge(phi.pullback(b))
        assert phi.pullback(a + b) == phi.pullback(a) + phi.pullback(b)

    def test_non_invertible_rejected(self):
        singular = CoframeMap.from_images({"dw": Form.generator("dz")})
        with pytest.raises(ValueError, match="singular"):
            singular.inverse()

    def test_inverse(self):
        phi = gluing_map(2)
        inv = phi.inverse()
        dw = Form.generator("dw")
        assert inv.pullback(phi.pullback(dw)) == dw
        assert phi.pullback(inv.pullback(dw)) == dw

    def test_compose_contract(self):
        phi = gluing_map(2)
        shear = CoframeMap.from_images(
            {"dz": Form.from_terms((1, "dz"), (1, "dw"))}
        )
        omega = standard_symplectic_form()
        composed = compose(phi, shear)
        assert composed.pullback(omega) == shear.pullback(phi.pullback(omega))

    def test_compose_contract_through_the_twisted_gluing_map(self):
        tau = SL2Z(2, 3, 1, 2)
        twist, twist_inv = twist_coframe(tau), twist_coframe(tau.inverse())
        phi = gluing_map("symbolic")
        composed = compose(compose(twist_inv, phi), twist)
        for form in (
            Form.from_terms((1, "dw"), (RationalFunction.variable("x"), "dy")),
            standard_symplectic_form(),
            canonical_section("symbolic"),
        ):
            expected = twist.pullback(phi.pullback(twist_inv.pullback(form)))
            assert composed.pullback(form) == expected

    def test_from_images_fixes_absent_generators(self):
        shear = CoframeMap.from_images(
            {"dz": Form.from_terms((1, "dz"), (2, "dw"))}
        )
        for gen in GENERATORS:
            if gen != "dz":
                assert shear.pullback(Form.generator(gen)) == Form.generator(gen)
        assert shear.pullback(Form.generator("dz")) == Form.from_terms(
            (1, "dz"), (2, "dw")
        )

    def test_from_images_rejects_a_two_form_image(self):
        with pytest.raises(ValueError, match="image of dz is not a 1-form"):
            CoframeMap.from_images({"dz": Form.from_terms((1, "dz", "dw"))})


class TestLinearOperator:
    def test_flat_structure_squares_to_minus_identity(self):
        j0 = almost_complex_structure(0)
        assert is_almost_complex(j0)
        assert mat_equal(j0.square(), mat_neg(mat_identity(6)))

    def test_twisted_structure_squares_to_minus_identity(self):
        jk = almost_complex_structure("symbolic")
        assert is_almost_complex(jk)

    def test_swap_is_not_almost_complex(self):
        swap = LinearOperator.from_images(
            {"dx": Form.generator("dy"), "dy": Form.generator("dx")}
        )
        assert not is_almost_complex(swap)

    def test_call_matches_matrix_action(self):
        jk = almost_complex_structure(2)
        dw = Form.generator("dw")
        image = jk(dw)
        for i, gen in enumerate(GENERATORS):
            assert image.coefficient(gen) == jk.matrix[i][GENERATORS.index("dw")]

    def test_call_matches_pullback_on_degrees_zero_and_one(self):
        jk = almost_complex_structure("symbolic")
        x = RationalFunction.variable("x")
        form = Form.function(x) + Form.from_terms((2, "dw"), (x, "dy"), (1, "ds2"))
        assert jk(form) == jk.pullback(form)
        assert jk(form).coefficient() == x

    def test_operator_rejects_higher_degree(self):
        j0 = almost_complex_structure(0)
        with pytest.raises(ValueError):
            j0(Form.from_terms((1, "dx", "dy")))

    def test_conjugation_by_identity(self):
        jk = almost_complex_structure(1)
        identity = CoframeMap.from_images({})
        assert jk.conjugate_by(identity, identity) == jk

    def test_pullback_functoriality(self):
        j0 = almost_complex_structure(0)
        phi = gluing_map(2)
        shear = CoframeMap.from_images(
            {"dz": Form.from_terms((1, "dz"), (2, "dw"))}
        )
        lhs = operator_pullback(compose(phi, shear), j0)
        rhs = operator_pullback(shear, operator_pullback(phi, j0))
        assert lhs == rhs


def _constant_matrix(matrix):
    return [[RationalFunction.constant(v) for v in row] for row in matrix]


class TestMatrixElimination:
    """The field stack's Gauss-Jordan elimination, through the inverse and
    the determinant, against cofactor expansion."""

    @given(small_matrices(square=True))
    @settings(max_examples=60, deadline=None)
    def test_determinant_matches_cofactor_expansion(self, matrix):
        det = mat_determinant(_constant_matrix(matrix))
        assert det == RationalFunction.constant(int_determinant(matrix))

    @given(small_matrices(square=True))
    @settings(max_examples=60, deadline=None)
    def test_inverse_or_singular(self, matrix):
        m = _constant_matrix(matrix)
        if int_determinant(matrix) == 0:
            with pytest.raises(ValueError):
                mat_inverse(m)
        else:
            assert mat_equal(mat_mul(m, mat_inverse(m)), mat_identity(len(m)))

    def test_singular_symbolic_matrix_raises(self):
        x = RationalFunction.variable("x")
        with pytest.raises(ValueError):
            mat_inverse([[x, x * x], [RationalFunction.constant(1), x]])


class TestCompatibility:
    def test_flat_structure_compatible(self):
        rep = compatibility_check(
            almost_complex_structure(0),
            standard_symplectic_form(),
            Region.INNER,
        )
        assert rep.invariant and rep.symmetric
        assert rep.positivity_failures == []

    def test_orientation_reversal_fails_positivity(self):
        j0 = almost_complex_structure(0)
        minus = LinearOperator(mat_neg(j0.matrix))
        rep = compatibility_check(minus, standard_symplectic_form(), Region.INNER)
        # -J preserves omega but induces the negative-definite metric.
        assert rep.invariant and rep.symmetric
        assert rep.positivity_failures

    def test_incompatible_operator_detected(self):
        swap = LinearOperator.from_images(
            {
                "dx": Form.generator("dy"),
                "dy": -Form.generator("dx"),
                "dz": Form.generator("dw"),
                "dw": -Form.generator("dz"),
                "ds1": Form.generator("ds2"),
                "ds2": -Form.generator("ds1"),
            }
        )
        rep = compatibility_check(swap, standard_symplectic_form(), Region.INNER)
        assert not rep.invariant and not rep.symmetric
        assert rep.positivity_failures == ["minor 1 is identically 0"]

    def test_twisted_metric_needs_the_untwisting_basis(self):
        # The twisted metric's first minor has an odd monomial, so it is not
        # certified; this is why check_theorem5 certifies positivity in
        # untwisted coordinates.
        tau = SL2Z(2, 3, 1, 2)
        twist, twist_inv = twist_coframe(tau), twist_coframe(tau.inverse())
        j = almost_complex_structure("symbolic").conjugate_by(twist, twist_inv)
        omega = twist.pullback(interpolated_form("symbolic"))
        bare = compatibility_check(j, omega, Region.MIDDLE)
        assert bare.invariant and bare.symmetric
        assert bare.positivity_failures == [
            "minor 1 not certified: 5 + 4*y^2*k^2*f^2 + -4*x*y*k^2*f^2 + x^2*k^2*f^2"
        ]

    @staticmethod
    def _congruent_metric(u):
        """U g U^T for the untwisted metric g, f abstract."""
        g = metric(almost_complex_structure("symbolic"), interpolated_form("symbolic"))
        return mat_mul(u, mat_mul(g, mat_transpose(u)))

    def test_singular_basis_fails(self):
        basis = mat_identity(6)
        basis[5] = basis[4]
        assert _positivity_failures(self._congruent_metric(basis)) == [
            "minor 6 is identically 0"
        ]

    def test_uncertified_denominator_fails(self):
        # h[0][0] = g[0][0]/(1 + x)^2 is positive wherever it is defined,
        # but its denominator has an odd monomial, so it is not certified.
        basis = mat_identity(6)
        basis[0][0] = RationalFunction.constant(1) / (1 + RationalFunction.variable("x"))
        assert _positivity_failures(self._congruent_metric(basis)) == [
            "minor 1 not certified: (1 + y^2*k^2*f^2)/(1 + 2*x + x^2)"
        ]

    def test_non_real_entry_fails(self):
        basis = mat_identity(6)
        basis[1][1] = RationalFunction.constant(I)
        failures = _positivity_failures(self._congruent_metric(basis))
        assert failures
        assert failures[0].startswith("entry [0][1] is not real")


@st.composite
def sylvester_matrices(draw):
    """Constant integer matrices of size 1-6: Gram matrices B B^T, positive
    semidefinite and singular exactly when B is, or general ones, often
    unsymmetric. Small entries make zero and negative leading minors common."""
    n = draw(st.integers(min_value=1, max_value=6))
    b = [[draw(st.integers(min_value=-2, max_value=2)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        return int_mat_mul(b, [list(col) for col in zip(*b)])
    return b


class TestSylvesterOracle:
    """The certificate's verdict on constant matrices against Sylvester's
    criterion, each leading minor taken by cofactor expansion: no failure
    if and only if every minor is positive, else the first failing minor,
    "identically 0" exactly when that minor is 0."""

    @given(sylvester_matrices())
    @settings(max_examples=200, deadline=None)
    def test_first_failing_leading_minor(self, matrix):
        minors = [
            int_determinant([row[:m] for row in matrix[:m]])
            for m in range(1, len(matrix) + 1)
        ]
        failures = _positivity_failures(_constant_matrix(matrix))
        bad = next((m for m, d in enumerate(minors, 1) if d <= 0), None)
        if bad is None:
            assert failures == []
        elif minors[bad - 1] == 0:
            assert failures == [f"minor {bad} is identically 0"]
        else:
            [failure] = failures
            head, pivot = failure.split(": ")
            assert head == f"minor {bad} not certified"
            # A constant pivot is a positive multiple of a negative minor.
            assert int(pivot) < 0


# -- the positivity certificate: positive constant term, positive real
# -- coefficients on even monomials -----------------------------------------

EVEN_EXPONENTS = st.tuples(*[st.sampled_from((0, 2, 4))] * len(SYMBOLS))
POSITIVE = st.fractions(min_value=Fraction(1, 7), max_value=7, max_denominator=7)
POINTS = st.fixed_dictionaries(
    {s: st.fractions(min_value=-3, max_value=3, max_denominator=5) for s in SYMBOLS}
)
CONSTANT = (0,) * len(SYMBOLS)


@st.composite
def certified_polynomials(draw):
    terms = draw(st.dictionaries(EVEN_EXPONENTS, POSITIVE, max_size=5))
    terms[CONSTANT] = draw(POSITIVE)
    return terms


def _with(terms, exps, coeff):
    changed = dict(terms)
    changed[exps] = coeff
    return Polynomial(changed)


class TestPositivityCertificate:
    @given(certified_polynomials(), POINTS)
    @settings(max_examples=80, deadline=None)
    def test_accepted_and_at_least_the_constant_term(self, terms, point):
        poly = Polynomial(terms)
        assert certified_positive(poly)
        re, im = plain_evaluate(pairs(poly), SYMBOLS, point)
        assert im == 0 and re >= terms[CONSTANT] > 0

    @given(certified_polynomials(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_negative_coefficient_rejected(self, terms, data):
        exps = data.draw(st.sampled_from(sorted(terms)))
        assert not certified_positive(_with(terms, exps, -terms[exps]))

    @given(certified_polynomials(), EVEN_EXPONENTS, st.sampled_from(range(len(SYMBOLS))))
    @settings(max_examples=40, deadline=None)
    def test_odd_exponent_rejected(self, terms, exps, slot):
        odd = tuple(e + 1 if i == slot else e for i, e in enumerate(exps))
        assert not certified_positive(_with(terms, odd, 1))

    @given(certified_polynomials())
    @settings(max_examples=40, deadline=None)
    def test_missing_constant_term_rejected(self, terms):
        del terms[CONSTANT]
        assert not certified_positive(Polynomial(terms))

    @given(certified_polynomials(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_imaginary_coefficient_rejected(self, terms, data):
        exps = data.draw(st.sampled_from(sorted(terms)))
        coeff = GaussianRational(terms[exps], data.draw(st.sampled_from((1, -1))))
        assert not certified_positive(_with(terms, exps, coeff))

    def test_positive_but_not_certifiable_rejected(self):
        # x^2 - 2x + 2 = (x - 1)^2 + 1 > 0, but the rule is only sufficient.
        x = Polynomial.variable("x")
        assert not certified_positive(x * x - 2 * x + 2)
        assert certified_positive(x * x + 2)
