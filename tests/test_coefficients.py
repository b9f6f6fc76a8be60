"""Ring and field laws for the exact coefficient arithmetic."""

import operator
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torus_surgery import coefficients
from torus_surgery.coefficients import (
    SYMBOLS,
    GaussianRational,
    Polynomial,
    RationalFunction,
    I,
)
from torus_surgery.forms import Form

from gaussian_oracle import div, mul, pairs, plain_add, plain_clean, plain_mul


def gaussian_rationals():
    small = st.fractions(
        min_value=-5, max_value=5, max_denominator=6
    )
    return st.builds(GaussianRational, small, small)


def polynomials(max_terms=3, max_exp=2):
    num_symbols = len(SYMBOLS)
    exponents = st.tuples(
        *[st.integers(min_value=0, max_value=max_exp)] * num_symbols
    )
    term = st.tuples(exponents, gaussian_rationals())
    return st.lists(term, max_size=max_terms).map(
        lambda terms: sum(
            (Polynomial({e: c}) for e, c in terms), Polynomial.zero()
        )
    )


def const(value):
    return RationalFunction.constant(value)


class TestGaussianRational:
    """Gaussian rational arithmetic runs on constant rational functions;
    ``GaussianRational`` itself only carries a value to and from the edge."""

    def test_basic_arithmetic(self):
        a = GaussianRational(Fraction(1, 2), Fraction(3))
        b = GaussianRational(2, Fraction(-1, 3))
        assert const(a) + b == GaussianRational(Fraction(5, 2), Fraction(8, 3))
        assert const(a) - a == 0
        assert const(I) * I == -1
        assert -I == GaussianRational(0, -1)

    def test_no_arithmetic_of_its_own(self):
        for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__",
                     "__rtruediv__", "is_real", "coerce"):
            assert name not in vars(GaussianRational)
        with pytest.raises(TypeError):
            I * I

    def test_division_inverts_multiplication(self):
        a = GaussianRational(Fraction(3, 7), Fraction(-2, 5))
        b = GaussianRational(1, 4)
        assert (const(a) * b) / b == a

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            const(1) / const(0)

    @given(gaussian_rationals(), gaussian_rationals(), gaussian_rationals())
    def test_distributivity(self, a, b, c):
        assert const(a) * (const(b) + c) == const(a) * b + const(a) * c

    def test_powers(self):
        assert const(I).power(2) == -1
        assert const(I).power(4) == 1
        assert const(GaussianRational(2, 1)).power(0) == 1


def rationals():
    """Integral and non-integral parts, as ``int`` and as ``Fraction``."""
    return st.one_of(
        st.integers(min_value=-20, max_value=20),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
    )


def assert_parts(g, re, im):
    """``g`` holds ``re + im*i`` in canonical form: each part an ``int``
    when integral and a ``Fraction`` otherwise, never a float."""
    for part, want in ((g.re, re), (g.im, im)):
        assert part == want
        assert type(part) is (int if want.denominator == 1 else Fraction)


def value(rf):
    """A constant rational function's value, read at the edge; in normal
    form its denominator is 1."""
    assert rf.den == 1
    return rf.evaluate({})


class TestGaussianRationalOracle:
    """Every operator on constants against a pair of ``Fraction``s
    computed in ``gaussian_oracle``."""

    @settings(max_examples=200, deadline=None)
    @given(rationals(), rationals(), rationals(), rationals())
    def test_binary_operators(self, a, b, c, d):
        a, b, c, d = map(Fraction, (a, b, c, d))
        x, y = GaussianRational(a, b), GaussianRational(c, d)
        assert_parts(x, a, b)
        assert_parts(value(const(x) + y), a + c, b + d)
        assert_parts(value(const(x) - y), a - c, b - d)
        assert_parts(value(const(x) * y), *mul((a, b), (c, d)))
        assert_parts(-x, -a, -b)
        if (c, d) != (0, 0):
            assert_parts(value(const(x) / y), *div((a, b), (c, d)))
        else:
            with pytest.raises(ZeroDivisionError):
                const(x) / y
        assert (x == y) == ((a, b) == (c, d))
        # Equal values hash equal: a real x equals the Fraction a.
        if b == 0:
            assert x == a and hash(x) == hash(a)
        else:
            assert x != a and hash(x) == hash((a, b))

    @settings(max_examples=200, deadline=None)
    @given(rationals(), rationals(), rationals())
    def test_scalar_on_either_side(self, a, b, s):
        x = const(GaussianRational(a, b))
        a, b, t = Fraction(a), Fraction(b), Fraction(s)
        assert_parts(value(x + s), a + t, b)
        assert_parts(value(s + x), a + t, b)
        assert_parts(value(x - s), a - t, b)
        assert_parts(value(s - x), t - a, -b)
        assert_parts(value(x * s), a * t, b * t)
        assert_parts(value(s * x), a * t, b * t)
        if t:
            assert_parts(value(x / s), a / t, b / t)
        assert (GaussianRational(a, b) == s) == ((a, b) == (t, 0))

    @settings(max_examples=100, deadline=None)
    @given(rationals(), rationals(), st.integers(min_value=0, max_value=6))
    def test_power(self, a, b, n):
        re, im = Fraction(1), Fraction(0)
        a, b = Fraction(a), Fraction(b)
        for _ in range(n):
            re, im = re * a - im * b, re * b + im * a
        assert_parts(value(const(GaussianRational(a, b)).power(n)), re, im)
        if (a, b) != (0, 0):
            assert_parts(value(const(GaussianRational(a, b)).power(-n)), *div((1, 0), (re, im)))

    def test_gaussian_integer_quotients_stay_exact(self):
        half = Fraction(1, 2)
        assert_parts(value(const(1) / GaussianRational(2)), half, 0)
        assert_parts(value(const(I) / 2), 0, half)
        assert_parts(value(const(GaussianRational(4, 2)) / 2), 2, 1)
        assert_parts(value(const(GaussianRational(3, 1)) / I), 1, -3)


class TestGaussianRationalCanonicalForm:
    def test_integral_fraction_is_held_as_int(self):
        assert type(GaussianRational(Fraction(4, 2)).re) is int

    def test_bool_is_the_integer(self):
        assert GaussianRational(True) == GaussianRational(1)
        assert hash(GaussianRational(True)) == hash(GaussianRational(1))
        assert type(GaussianRational(True).re) is int

    def test_hash_ignores_how_an_integer_was_given(self):
        assert hash(GaussianRational(3)) == hash(GaussianRational(Fraction(3)))

    @pytest.mark.parametrize(
        "value, text",
        [
            (GaussianRational(5), "5"),
            (GaussianRational(0, Fraction(-2, 3)), "-2/3*i"),
            (GaussianRational(Fraction(1, 2), -3), "(1/2-3*i)"),
            (GaussianRational(2, 1), "(2+1*i)"),
        ],
    )
    def test_str(self, value, text):
        assert str(value) == text


class TestOnlyExactInputs:
    """Only ints and Fractions enter the tower; anything else is refused,
    not converted."""

    @pytest.mark.parametrize("value", [0.1, 0.5, "3/4", Decimal("0.25")], ids=repr)
    @pytest.mark.parametrize(
        "build",
        [
            GaussianRational,
            lambda v: GaussianRational(0, v),
            Polynomial.constant,
            lambda v: Polynomial({(0,) * len(SYMBOLS): v}),
            RationalFunction.coerce,
            Form.function,
            lambda v: Form.from_terms((v, "dx")),
        ],
        ids=["re", "im", "constant", "terms", "coerce", "function", "from_terms"],
    )
    def test_inexact_part_rejected(self, build, value):
        with pytest.raises(TypeError):
            build(value)

    @pytest.mark.parametrize(
        "exps",
        [(-1, 0, 0, 0), (0.5, 0, 0, 0), (0, "2", 0, 0), (1, 0, 0),
         (2**15, 0, 0, 0), (0, 0, 0, 2**15), (2**16, 0, 0, 0), (0, 2**16, 0, 0)],
        ids=repr,
    )
    def test_exponents_are_nonnegative_ints_one_per_symbol(self, exps):
        with pytest.raises(ValueError):
            Polynomial({exps: 1})

    def test_exact_parts_accepted(self):
        assert GaussianRational(Fraction(3, 4), Fraction(-6, 3)).im == -2
        assert str(Polynomial({(0, 2, 0, 0): Fraction(1, 2)})) == "1/2*y^2"


class TestPolynomial:
    def test_variables_and_constants(self):
        x = Polynomial.variable("x")
        three = Polynomial.constant(3)
        assert x + x == 2 * x
        assert (x + three) - x == three
        assert x * Polynomial.zero() == Polynomial.zero()

    def test_structural_normal_form(self):
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        assert (x + y) - y == x
        assert not ((x * y) - (y * x)).terms  # no zero coefficients stored
        # x*y and -y*x cancel inside one multiplication
        product = (x + y) * (x - y)
        assert product == x * x - y * y
        assert (1, 1, 0, 0) not in product.terms
        f = Form.from_terms((x, "dx"), (y, "dy", "dz"))
        assert (f + (-f)).terms == {}
        g = Form.from_terms((-x, "dx"), (1, "dw"))
        assert set((f + g).terms) == {(1, 2), (3,)}
        assert all(not c.is_zero() for c in (f + g).terms.values())

    @settings(max_examples=40)
    @given(polynomials(), polynomials(), polynomials())
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=40)
    @given(polynomials(), polynomials())
    def test_commutativity(self, a, b):
        assert a * b == b * a
        assert a + b == b + a

    def test_power_matches_repeated_product(self):
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        p = x + 2 * y
        assert p**3 == p * p * p
        assert p**0 == 1
        with pytest.raises(ValueError):
            p ** -1

    def test_derivative(self):
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        p = x * x * y + 3 * x
        assert p.derivative("x") == 2 * x * y + Polynomial.constant(3)
        assert p.derivative("y") == x * x

    def test_evaluate(self):
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        p = RationalFunction.from_polynomial(x * x + I * y)
        values = dict.fromkeys(SYMBOLS, 0) | {"x": Fraction(1, 2), "y": 3}
        assert_parts(p.evaluate(values), Fraction(1, 4), Fraction(3))
        assert_parts(p.evaluate(values | {"y": I}), Fraction(-3, 4), Fraction(0))

    def test_evaluate_missing_symbol(self):
        with pytest.raises(KeyError):
            RationalFunction.variable("k").evaluate({"x": 1})


class TestRationalFunction:
    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(Polynomial.constant(1), Polynomial.zero())

    def test_cross_multiplication_equality(self):
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        # (x^2 - y^2)/(x - y) equals (x + y) without any gcd computation.
        a = RationalFunction(x * x - y * y, x - y)
        b = RationalFunction.from_polynomial(x + y)
        assert a == b

    def test_monomial_content_kept(self):
        # Nothing is cancelled: the pair stays (x^2)/(x^3), equal to 1/x.
        x = Polynomial.variable("x")
        r = RationalFunction(x * x, x * x * x)
        assert r.num == x * x
        assert r.den == x * x * x
        assert str(r) == "(x^2)/(x^3)"
        assert r == RationalFunction(Polynomial.constant(1), x)

    def test_denominator_leading_coefficient_one(self):
        x = Polynomial.variable("x")
        r = RationalFunction(Polynomial.constant(1), 2 * x)
        assert r.den.terms[max(r.den.terms)] == GaussianRational(1)
        assert str(r) == "(1/2)/(x)"

    def test_non_real_constant_numerator_in_one_pair_of_parentheses(self):
        x = Polynomial.variable("x")
        r = RationalFunction(Polynomial.constant(1), GaussianRational(2, 1) * x)
        assert str(r) == "(2/5-1/5*i)/(x)"
        assert str(RationalFunction(x + GaussianRational(1, 1), x)) == "((1+1*i) + x)/(x)"

    @settings(max_examples=30)
    @given(polynomials(max_terms=2, max_exp=1), polynomials(max_terms=2, max_exp=1))
    def test_mutual_inverses(self, a, b):
        if a.is_zero() or b.is_zero():
            return
        r = RationalFunction(a, b)
        s = RationalFunction(b, a)
        assert r * s == RationalFunction.constant(1)

    @settings(max_examples=30)
    @given(
        polynomials(max_terms=2, max_exp=1),
        polynomials(max_terms=2, max_exp=1),
        polynomials(max_terms=2, max_exp=1),
    )
    def test_distributivity(self, a, b, c):
        ra = RationalFunction.from_polynomial(a)
        rb = RationalFunction.from_polynomial(b)
        rc = RationalFunction.from_polynomial(c)
        assert ra * (rb + rc) == ra * rb + ra * rc

    def test_derivative_quotient_rule(self):
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        r = RationalFunction(Polynomial.constant(1), x * x + y * y)
        expected = RationalFunction(
            -2 * x, (x * x + y * y) * (x * x + y * y)
        )
        assert r.derivative("x") == expected

    def test_substitute_radial_profile(self):
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        f = RationalFunction.variable("f")
        outer = f.substitute(
            {"f": RationalFunction(Polynomial.constant(1), x * x + y * y)}
        )
        assert outer == RationalFunction(Polynomial.constant(1), x * x + y * y)

    def test_substitute_zero_denominator_raises(self):
        f = RationalFunction(
            Polynomial.constant(1), Polynomial.variable("f")
        )
        with pytest.raises(ZeroDivisionError):
            f.substitute({"f": RationalFunction.zero()})

    def test_evaluate_pole_raises(self):
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        r = RationalFunction(Polynomial.constant(1), x * x + y * y)
        with pytest.raises(ZeroDivisionError):
            r.evaluate({"x": 0, "y": 0})
        with pytest.raises(ZeroDivisionError):
            RationalFunction(x, x + I * y).evaluate({"x": 1, "y": I})


# -- the short cuts against the general formula -----------------------------
#
# The reference ring operations below build every polynomial through the
# public constructor, and every quotient through the public, normalising
# ``RationalFunction(num, den)``, so they share no short cut with the code
# they check.


def ref_poly(terms):
    return Polynomial(terms)


def ref_add(p, q):
    return packed(plain_add(pairs(p), pairs(q)))


def ref_neg(p):
    return ref_poly({e: -c for e, c in p.terms.items()})


def ref_mul(p, q):
    return packed(plain_mul(pairs(p), pairs(q)))


def ref_one():
    return ref_poly({(0,) * len(SYMBOLS): 1})


def ref_derivative(p, name):
    i = SYMBOLS.index(name)
    return packed({
        e[:i] + (e[i] - 1,) + e[i + 1:]: (c * e[i], d * e[i])
        for e, (c, d) in pairs(p).items()
        if e[i]
    })


def ref_rational(value):
    """``value`` (a rational function or a scalar) as a normalised pair."""
    if isinstance(value, RationalFunction):
        return RationalFunction(value.num, value.den)
    return RationalFunction(ref_poly({(0,) * len(SYMBOLS): value}), ref_one())


SPECIAL_SCALARS = (0, 1, -1, I, Fraction(1, 2))


def rational_operands():
    """Normal-form operands made by the public constructor: the special
    constants, the symbol k, polynomials over 1 and general quotients."""
    one = Polynomial.constant(1)
    nonzero = polynomials().filter(lambda p: not p.is_zero())
    return st.one_of(
        st.sampled_from(SPECIAL_SCALARS).map(
            lambda c: RationalFunction(Polynomial.constant(c), one)
        ),
        st.just(RationalFunction(Polynomial.variable("k"), one)),
        polynomials().map(lambda p: RationalFunction(p, one)),
        st.builds(RationalFunction, polynomials(), nonzero),
    )


def operands():
    """Rational functions, and the scalars the forms layer multiplies by."""
    return st.one_of(
        rational_operands(),
        st.sampled_from(SPECIAL_SCALARS),
        gaussian_rationals(),
    )


def snapshot(value):
    if isinstance(value, RationalFunction):
        return dict(value.num.terms), dict(value.den.terms)
    return value


def assert_same_pair(got, want):
    assert isinstance(got, RationalFunction)
    assert got.num.terms == want.num.terms
    assert got.den.terms == want.den.terms
    assert str(got) == str(want)
    assert_monic(got)


def assert_monic(r):
    """The normal form: a lex-leading denominator coefficient of 1, and
    zero as 0/1."""
    den = pairs(r.den)
    assert den[max(den)] == (1, 0)
    assert r or den == {(0,) * len(SYMBOLS): (1, 0)}


class TestShortCutsMatchGeneralFormula:
    """Every operation returns exactly the normalised pair of the general
    formula, and no operation changes an operand or a shared constant."""

    @settings(max_examples=150, deadline=None)
    @given(
        rational_operands(),
        operands(),
        st.integers(min_value=-3, max_value=3),
        st.sampled_from(SYMBOLS),
    )
    def test_operations(self, a, b, n, name):
        zero = RationalFunction.zero()
        before = [snapshot(a), snapshot(b), snapshot(zero)]
        ra, rb = ref_rational(a), ref_rational(b)
        cross = ref_mul(ra.num, rb.den), ref_mul(rb.num, ra.den)
        den = ref_mul(ra.den, rb.den)
        assert_same_pair(a + b, RationalFunction(ref_add(*cross), den))
        assert_same_pair(b + a, RationalFunction(ref_add(cross[1], cross[0]), den))
        assert_same_pair(
            a - b, RationalFunction(ref_add(cross[0], ref_neg(cross[1])), den)
        )
        product = RationalFunction(ref_mul(ra.num, rb.num), den)
        assert_same_pair(a * b, product)
        assert_same_pair(b * a, product)
        assert_same_pair(-a, RationalFunction(ref_neg(ra.num), ra.den))
        quotient_rule = ref_add(
            ref_mul(ref_derivative(ra.num, name), ra.den),
            ref_neg(ref_mul(ra.num, ref_derivative(ra.den, name))),
        )
        assert_same_pair(a.derivative(name), RationalFunction(quotient_rule, ref_mul(ra.den, ra.den)))
        if rb.is_zero():
            with pytest.raises(ZeroDivisionError):
                a / b
        else:
            assert_same_pair(
                a / b, RationalFunction(ref_mul(ra.num, rb.den), ref_mul(ra.den, rb.num))
            )
        num, den = ref_one(), ref_one()
        for _ in range(abs(n)):
            num, den = ref_mul(num, ra.num), ref_mul(den, ra.den)
        if n >= 0:
            assert_same_pair(a.power(n), RationalFunction(num, den))
        elif ra.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.power(n)
        else:
            assert_same_pair(a.power(n), RationalFunction(den, num))
        if not isinstance(b, RationalFunction):
            assert_same_pair(RationalFunction.constant(b), rb)
        assert_same_pair(
            RationalFunction.from_polynomial(a.num), RationalFunction(a.num, ref_one())
        )
        assert [snapshot(a), snapshot(b), snapshot(zero)] == before
        assert zero.is_zero() and zero.den == 1

    def test_zero_is_shared_and_stays_zero(self):
        x = RationalFunction.variable("x")
        total = RationalFunction.zero()
        for _ in range(3):
            total = total + x
        assert RationalFunction.zero().num.terms == {}
        assert RationalFunction.zero().den.terms == {(0,) * len(SYMBOLS): 1}
        assert total == 3 * x

    def test_ring_operations_never_normalise(self, monkeypatch):
        # The lead of a product is the product of the leads, so monic
        # denominators stay monic and no result goes through __init__.
        x, y, k = (Polynomial.variable(s) for s in ("x", "y", "k"))
        values = [
            RationalFunction(k * x, x * x + y * y),
            RationalFunction(I * y + 1, 2 * x * x + 3 * k),
            RationalFunction.from_polynomial(x - k),
            RationalFunction.constant(GaussianRational(2, 1)),
        ]
        calls = count_inits(monkeypatch, RationalFunction)
        results = []
        for a in values:
            results += [a.power(0), a.power(3), a.derivative("x"), a.derivative("f")]
            results += [a * 3, I * a, a * Fraction(1, 2), -a, a - a]
            results += [op(a, b) for b in values for op in (operator.add, operator.sub, operator.mul)]
        monkeypatch.undo()
        assert calls == []
        for r in results:
            assert_monic(r)


class TestHashAgreesWithEquality:
    @settings(max_examples=100, deadline=None)
    @given(rationals())
    def test_real_values(self, a):
        for value in (GaussianRational(a), Polynomial.constant(a)):
            assert value == a
            assert hash(value) == hash(a)
            assert len({value, a}) == 1

    def test_non_real_constant_polynomial(self):
        value = GaussianRational(Fraction(1, 2), -3)
        assert Polynomial.constant(value) == value
        assert hash(Polynomial.constant(value)) == hash(value)

    def test_zero_polynomial(self):
        assert Polynomial.zero() == 0
        assert hash(Polynomial.zero()) == hash(0)


class TestImmutable:
    """Setting a field raises, on fresh values and on the shared constants
    that operations return."""

    @pytest.mark.parametrize(
        "value, field",
        [
            (GaussianRational(1, 2), "re"),
            (Polynomial.variable("x"), "_terms"),
            (RationalFunction.variable("x"), "num"),
            (Form.from_terms((1, "dx")), "terms"),
            (coefficients._ZERO, "den"),
            (coefficients._ONE, "_terms"),
        ],
        ids=["GaussianRational", "Polynomial", "RationalFunction", "Form", "_ZERO", "_ONE"],
    )
    def test_setting_a_field_raises(self, value, field):
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        assert getattr(value, field) is before


class TestPackingBounds:
    """Each exponent has a 16-bit field and stays below 2**15."""

    @pytest.mark.parametrize("name", SYMBOLS)
    def test_product_past_the_limit_raises(self, name):
        exps = tuple(2**14 if s == name else 0 for s in SYMBOLS)
        half = Polynomial({exps: 1})
        with pytest.raises(ValueError):
            half * half
        with pytest.raises(ValueError):
            Polynomial.variable(name) ** 2**15

    def test_largest_exponent(self):
        assert str(Polynomial.variable("x") ** (2**15 - 1)) == "x^32767"
        top = (2**15 - 1,) * len(SYMBOLS)
        assert set(Polynomial({top: 1}).terms) == {top}

    def test_integral_fraction_parts_equal_their_ints(self):
        x = Polynomial.variable("x")
        y = Polynomial.variable("y")
        half_x = Polynomial({(1, 0, 0, 0): Fraction(1, 2)})
        for value, want in (
            (half_x * 2, x),
            (half_x * (2 * y), x * y),
            (Polynomial.constant(Fraction(1, 2)) * 2, Polynomial.constant(1)),
        ):
            assert value == want and hash(value) == hash(want)
            assert str(value) == str(want)


# -- the packed kernel against a dict of exponent tuples to (re, im) pairs,
# -- written here and sharing no code with it --------------------------------


def plain_terms(entries):
    """Each entry is (exponents as base-4 digits, re, im, denominator); a
    denominator above 1 makes both parts ``Fraction``s."""
    terms = {}
    for code, re, im, den in entries:
        exps = tuple(code // 4**i % 4 for i in reversed(range(len(SYMBOLS))))
        terms[exps] = (Fraction(re, den), Fraction(im, den)) if den > 1 else (re, im)
    return terms


# Four draws per term: drawing exponent tuples and fractions directly cost
# Hypothesis more time than the checks themselves.
PLAIN = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4 ** len(SYMBOLS) - 1),
        st.integers(min_value=-4, max_value=4),
        st.integers(min_value=-4, max_value=4),
        st.sampled_from((1, 1, 2, 3)),
    ),
    max_size=3,
).map(plain_terms)


def packed(p):
    return ref_poly({e: GaussianRational(*c) for e, c in p.items()})


def unpacked(poly):
    return {e: (c.re, c.im) for e, c in poly.terms.items()}


class TestPackedKernelOracle:
    @settings(max_examples=150, deadline=None)
    @given(PLAIN, PLAIN, st.integers(min_value=0, max_value=3), st.sampled_from(SYMBOLS))
    def test_against_plain_dicts(self, p, q, n, name):
        a, b = packed(p), packed(q)
        p, q = plain_clean(p), plain_clean(q)
        assert unpacked(a) == p
        assert unpacked(a + b) == plain_add(p, q)
        assert unpacked(a - b) == plain_add(p, {e: (-c, -d) for e, (c, d) in q.items()})
        assert unpacked(a * b) == plain_mul(p, q)
        power = {(0,) * len(SYMBOLS): (1, 0)}
        for _ in range(n):
            power = plain_mul(power, p)
        assert unpacked(a**n) == power
        assert (a == b) == (p == q)
        assert hash(a) == hash(packed(dict(reversed(list(p.items())))))
        if p == q:
            assert hash(a) == hash(b)
        i = SYMBOLS.index(name)
        assert unpacked(a.derivative(name)) == {
            e[:i] + (e[i] - 1,) + e[i + 1:]: (c * e[i], d * e[i])
            for e, (c, d) in p.items()
            if e[i]
        }
        if p:
            # Normalising 1/a divides by a's lex-leading coefficient, so the
            # packed order must be the exponent tuples' order.
            inverse = div((1, 0), p[max(p)])
            r = RationalFunction(Polynomial.constant(1), a)
            assert unpacked(r.num) == {(0,) * len(SYMBOLS): inverse}
            assert unpacked(r.den) == plain_mul(p, {(0,) * len(SYMBOLS): inverse})

    def test_general_product_builds_no_gaussian_rational(self, monkeypatch):
        x, y, k = (Polynomial.variable(s) for s in ("x", "y", "k"))
        a = 3 * x * x + I * y + Fraction(1, 2) * k
        b = GaussianRational(2, -1) * x * y - 5 * k + 7
        want = plain_mul(unpacked(a), unpacked(b))
        calls = count_inits(monkeypatch, GaussianRational)
        product = a * b
        monkeypatch.undo()
        assert calls == []
        assert unpacked(product) == want

    def test_normalisation_divides_on_pairs(self, monkeypatch):
        # 1/((2 + i)x) = ((2 - i)/5)/x: the leading coefficient is inverted
        # on its (re, im) pair, with no GaussianRational built.
        one = Polynomial.constant(1)
        den = GaussianRational(2, 1) * Polynomial.variable("x")
        calls = count_inits(monkeypatch, GaussianRational)
        r = RationalFunction(one, den)
        monkeypatch.undo()
        assert calls == []
        assert unpacked(r.den) == {(1, 0, 0, 0): (1, 0)}
        assert unpacked(r.num) == {(0,) * len(SYMBOLS): (Fraction(2, 5), Fraction(-1, 5))}
        # The kernel holds an integral part as an int, not as Fraction(1, 1).
        assert [type(part) for pair in r.den._terms.values() for part in pair] == [int, int]


def count_inits(monkeypatch, cls):
    """Record the arguments of every call of ``cls.__init__`` from now
    until ``monkeypatch.undo()``."""
    calls = []
    original = cls.__init__

    def counting(self, *args):
        calls.append(args)
        original(self, *args)

    monkeypatch.setattr(cls, "__init__", counting)
    return calls
