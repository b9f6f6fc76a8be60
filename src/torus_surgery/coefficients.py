"""Exact coefficient arithmetic: Gaussian rationals, sparse multivariate
polynomials over them, and rational functions (quotients of polynomials).

Everything here is immutable and exact; no floats anywhere. Rational
functions are the coefficient ring for differential forms. Every polynomial
lives over the same four symbols: the disk coordinates ``x`` and ``y``, the
twist ``k`` and the radial profile ``f``, which stays abstract until a
substitution such as ``f -> 1/(x^2+y^2)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

#: Symbol order is fixed; monomials are compared lexicographically on it.
SYMBOLS = ("x", "y", "k", "f")

RationalLike = Union[int, Fraction]


class GaussianRational:
    """A number a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def coerce(value: "GaussianRational | RationalLike") -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(value)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return GaussianRational.coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented
        other = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented
        other = GaussianRational.coerce(other)
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __pow__(self, n: int) -> "GaussianRational":
        if n < 0:
            raise ValueError("negative power")
        result = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_real(self) -> bool:
        return self.im == 0

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"

    __repr__ = __str__


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


class Polynomial:
    """Sparse multivariate polynomial over the Gaussian rationals.

    Terms map exponent tuples (aligned with ``SYMBOLS``) to nonzero
    coefficients; the zero polynomial has no terms.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], GaussianRational] | None = None):
        clean: dict[tuple[int, ...], GaussianRational] = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = GaussianRational.coerce(coeff)
                if not coeff:
                    continue
                if len(exps) != len(SYMBOLS):
                    raise ValueError("exponent tuple does not match symbol list")
                clean[tuple(exps)] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls({})

    @classmethod
    def constant(cls, value: GaussianRational | RationalLike) -> "Polynomial":
        return cls({(0,) * len(SYMBOLS): GaussianRational.coerce(value)})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        if name not in SYMBOLS:
            raise ValueError(f"unknown symbol {name!r}")
        return cls({tuple(1 if s == name else 0 for s in SYMBOLS): ONE})

    # -- ring structure ---------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        return Polynomial.constant(other)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            total = terms.get(exps, ZERO) + coeff
            if total:
                terms[exps] = total
            else:
                terms.pop(exps, None)
        return Polynomial(terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        terms: dict[tuple[int, ...], GaussianRational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                total = terms.get(exps, ZERO) + c1 * c2
                if total:
                    terms[exps] = total
                else:
                    terms.pop(exps, None)
        return Polynomial(terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure --------------------------------------------------------

    def contains(self, name: str) -> bool:
        idx = SYMBOLS.index(name)
        return any(exps[idx] > 0 for exps in self.terms)

    def leading(self) -> tuple[tuple[int, ...], GaussianRational]:
        """Lex-largest monomial (exponent tuples compare in the declared
        symbol order) and its coefficient."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms)
        return exps, self.terms[exps]

    def monomial_content(self) -> tuple[int, ...]:
        """Componentwise minimum exponent over all terms."""
        if self.is_zero():
            raise ValueError("zero polynomial has no content")
        return tuple(min(col) for col in zip(*self.terms))

    def shift_down(self, content: tuple[int, ...]) -> "Polynomial":
        terms = {
            tuple(e - c for e, c in zip(exps, content)): coeff
            for exps, coeff in self.terms.items()
        }
        return Polynomial(terms)

    def scale(self, factor: GaussianRational) -> "Polynomial":
        return Polynomial({e: c * factor for e, c in self.terms.items()})

    def derivative(self, name: str) -> "Polynomial":
        idx = SYMBOLS.index(name)
        terms: dict[tuple[int, ...], GaussianRational] = {}
        for exps, coeff in self.terms.items():
            e = exps[idx]
            if e == 0:
                continue
            new = list(exps)
            new[idx] = e - 1
            key = tuple(new)
            total = terms.get(key, ZERO) + coeff * e
            if total:
                terms[key] = total
            else:
                terms.pop(key, None)
        return Polynomial(terms)

    def substitute(
        self, assignment: Mapping[str, "RationalFunction"]
    ) -> "RationalFunction":
        """Replace symbols by rational functions; unmentioned symbols stay."""
        result = RationalFunction.zero()
        for exps, coeff in self.terms.items():
            term = RationalFunction.constant(coeff)
            for sym, e in zip(SYMBOLS, exps):
                if e == 0:
                    continue
                if sym in assignment:
                    value = assignment[sym]
                else:
                    value = RationalFunction.variable(sym)
                term = term * value.power(e)
            result = result + term
        return result

    def evaluate(
        self, assignment: Mapping[str, RationalLike | GaussianRational]
    ) -> GaussianRational:
        total = ZERO
        for exps, coeff in self.terms.items():
            value = coeff
            for sym, e in zip(SYMBOLS, exps):
                if e == 0:
                    continue
                if sym not in assignment:
                    raise KeyError(f"no value supplied for symbol {sym!r}")
                value = value * GaussianRational.coerce(assignment[sym]) ** e
            total = total + value
        return total

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        pieces = []
        for exps in sorted(self.terms):
            coeff = self.terms[exps]
            factors = [
                sym if e == 1 else f"{sym}^{e}"
                for sym, e in zip(SYMBOLS, exps)
                if e > 0
            ]
            if not factors:
                pieces.append(str(coeff))
            elif coeff == ONE:
                pieces.append("*".join(factors))
            else:
                pieces.append(str(coeff) + "*" + "*".join(factors))
        return " + ".join(pieces)

    __repr__ = __str__


class RationalFunction:
    """Quotient of two polynomials, the coefficient field for forms.

    Stored with the common monomial content of numerator and denominator
    cancelled and the denominator's lex-leading coefficient normalized to 1.
    Equality is decided by cross-multiplication, so no multivariate gcd is
    ever needed.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Polynomial.constant(1)
        else:
            nc = num.monomial_content()
            dc = den.monomial_content()
            common = tuple(min(a, b) for a, b in zip(nc, dc))
            if any(common):
                num = num.shift_down(common)
                den = den.shift_down(common)
        _, lead = den.leading()
        if lead != ONE:
            inv = ONE / lead
            num = num.scale(inv)
            den = den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(Polynomial.zero(), Polynomial.constant(1))

    @classmethod
    def constant(cls, value: GaussianRational | RationalLike) -> "RationalFunction":
        return cls(Polynomial.constant(value), Polynomial.constant(1))

    @classmethod
    def variable(cls, name: str) -> "RationalFunction":
        return cls.from_polynomial(Polynomial.variable(name))

    @classmethod
    def from_polynomial(cls, poly: Polynomial) -> "RationalFunction":
        return cls(poly, Polynomial.constant(1))

    # -- field structure --------------------------------------------------

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction.from_polynomial(other)
        return RationalFunction.constant(other)

    def __add__(self, other):
        other = self._coerce(other)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def power(self, n: int) -> "RationalFunction":
        if n < 0:
            return RationalFunction(self.den, self.num).power(-n)
        return RationalFunction(self.num**n, self.den**n)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational, Polynomial)):
            other = self._coerce(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    # Equality is by cross-multiplication, so instances are unhashable.
    __hash__ = None  # type: ignore[assignment]

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def contains(self, name: str) -> bool:
        return self.num.contains(name) or self.den.contains(name)

    def derivative(self, name: str) -> "RationalFunction":
        # Quotient rule, exactly.
        n, d = self.num, self.den
        return RationalFunction(
            n.derivative(name) * d - n * d.derivative(name), d * d
        )

    def substitute(
        self, assignment: Mapping[str, "RationalFunction"]
    ) -> "RationalFunction":
        den = self.den.substitute(assignment)
        if den.is_zero():
            raise ZeroDivisionError(
                "substitution produced a zero denominator"
            )
        return self.num.substitute(assignment) / den

    def evaluate(
        self, assignment: Mapping[str, RationalLike | GaussianRational]
    ) -> GaussianRational:
        den = self.den.evaluate(assignment)
        if not den:
            raise ZeroDivisionError("denominator vanishes at the sample point")
        return self.num.evaluate(assignment) / den

    def __str__(self) -> str:
        if self.den == Polynomial.constant(1):
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


def _gauss_jordan(rows):
    """Gauss-Jordan elimination over an exact field whose zero is falsy
    (``Fraction``, ``GaussianRational`` or ``RationalFunction``).

    Returns the reduced rows and the pivot records of ``_pivot_steps``.
    Rank, determinant, leading minors and inverse are all read off those
    records.
    """
    a = [list(row) for row in rows]
    pivots = list(_pivot_steps(a))
    return a, pivots


def _pivot_steps(a):
    """Reduce the rows ``a`` in place, yielding one ``(found_row, column,
    value)`` record per pivot as soon as it is made: the row the pivot was
    found in before the swap, its column, and its value before its row is
    scaled to 1. Each column's pivot is the first nonzero entry at or below
    the current row; a column with none is skipped. A caller that stops
    early skips the rest of the elimination.
    """
    top = 0
    for col in range(len(a[0]) if a else 0):
        if top == len(a):
            break
        found = next((r for r in range(top, len(a)) if a[r][col]), None)
        if found is None:
            continue
        a[top], a[found] = a[found], a[top]
        value = a[top][col]
        a[top] = [v / value for v in a[top]]
        for r in range(len(a)):
            factor = a[r][col]
            if r != top and factor:
                a[r] = [v - factor * w for v, w in zip(a[r], a[top])]
        top += 1
        yield found, col, value
