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
from types import MappingProxyType
from typing import Mapping, Union

#: Symbol order is fixed; monomials are compared lexicographically on it.
SYMBOLS = ("x", "y", "k", "f")

RationalLike = Union[int, Fraction]


def _exact(part, what: str = "part") -> RationalLike:
    """``part`` as an ``int`` when integral and as a ``Fraction`` only when
    not; anything else, a float included, raises ``TypeError``."""
    if type(part) is int:
        return part
    if not isinstance(part, (int, Fraction)):
        raise TypeError(f"{what} {part!r} is not an int or a Fraction")
    return part.numerator if part.denominator == 1 else part


class GaussianRational:
    """A number a + b*i with exact parts a, b, each an ``int`` or a ``Fraction``.

    The value at the API edge: the ``terms`` view, ``RationalFunction.evaluate``
    and the scalars callers pass in (``I``, ``-I``). It has no arithmetic
    beyond negation; the kernel computes on (re, im) pairs, and a product
    such as ``I * f`` is the rational function's. Each part is held as an
    ``int`` when it is integral and as a ``Fraction`` only when it is not,
    so every value has one form.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", _exact(re, "real part"))
        object.__setattr__(self, "im", _exact(im, "imaginary part"))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if type(other) is not GaussianRational:
            if isinstance(other, (int, Fraction)):
                return self.im == 0 and self.re == other
            if not isinstance(other, GaussianRational):
                return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # A real value equals its ``int`` or ``Fraction``, so it hashes alike.
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}*i)"

    __repr__ = __str__


I = GaussianRational(0, 1)

#: Packed monomials (see ``Polynomial``): each symbol's shift, the field
#: mask, the exponent limit, and every field's guard bit and lowest bit.
_SHIFTS = tuple(range(16 * len(SYMBOLS) - 16, -1, -16))
_FIELD = 0xFFFF
_LIMIT = 1 << 15
_GUARD = sum(_LIMIT << s for s in _SHIFTS)
_ODD = sum(1 << s for s in _SHIFTS)


def _pack(exps) -> int:
    if len(exps) != len(SYMBOLS) or any(type(e) is not int or not 0 <= e < _LIMIT for e in exps):
        raise ValueError(f"exponents {exps} are not one int in 0..{_LIMIT - 1} per symbol")
    return sum(e << s for e, s in zip(exps, _SHIFTS))


def _unpack(monomial: int) -> tuple[int, ...]:
    return tuple((monomial >> s) & _FIELD for s in _SHIFTS)


def parenthesised(value) -> str:
    """``str(value)`` inside one pair of parentheses; a non-real constant
    such as ``(1+1*i)`` prints inside its own pair already."""
    text = str(value)
    return text if text[0] == "(" and text.find(")") == len(text) - 1 else f"({text})"


def _pair(value) -> tuple[RationalLike, RationalLike]:
    """An ``int``, ``Fraction`` or ``GaussianRational`` as an (re, im) pair."""
    if type(value) is int:
        return value, 0
    if isinstance(value, GaussianRational):
        return value.re, value.im
    return _exact(value, "coefficient"), 0


class Polynomial:
    """Sparse multivariate polynomial over the Gaussian rationals.

    Held privately as a dict from packed monomial to nonzero coefficient.
    A monomial is one ``int``, 16 bits per symbol with x highest, so integer
    order is lex order, a monomial product is one addition and "all
    exponents even" is one AND. A coefficient is an (re, im) pair of
    ``int``s, or of ``Fraction``s where needed (``1/(2x)``); a sum or
    product of ``Fraction`` parts may hold an integral ``Fraction``, which
    is equal and hashes alike to its ``int``. Exponents stay
    below 2**15, so a sum of two never carries into the next field:
    ``__init__`` refuses a larger one, and a product that reaches 2**15 sets
    that field's guard bit and raises ``ValueError``. The pair is the only
    scalar arithmetic: ``GaussianRational``s are read at the API edge
    (``constant``, ``__init__``) and built only for ``__str__`` and the
    read-only ``terms`` view.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], GaussianRational] | None = None):
        clean: dict[int, tuple] = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = _pair(coeff)
                if coeff != (0, 0):
                    clean[_pack(exps)] = coeff
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _of(cls, terms: dict[int, tuple]) -> "Polynomial":
        """Wrap ``terms``, packed monomial to nonzero pair, skipping ``__init__``."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "_terms", terms)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self) -> Mapping[tuple[int, ...], GaussianRational]:
        """Read-only view: exponent tuple (aligned with ``SYMBOLS``) to coefficient."""
        return MappingProxyType({_unpack(m): GaussianRational(*c) for m, c in self._terms.items()})

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls._of({})

    @classmethod
    def constant(cls, value: GaussianRational | RationalLike) -> "Polynomial":
        return cls._of({0: pair} if (pair := _pair(value)) != (0, 0) else {})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        if name not in SYMBOLS:
            raise ValueError(f"unknown symbol {name!r}")
        return cls._of({1 << _SHIFTS[SYMBOLS.index(name)]: (1, 0)})

    # -- ring structure ---------------------------------------------------

    @staticmethod
    def coerce(value) -> "Polynomial":
        if isinstance(value, Polynomial):
            return value
        return Polynomial.constant(value)

    def __add__(self, other):
        other = Polynomial.coerce(other)
        terms = dict(self._terms)
        for m, (c, d) in other._terms.items():
            old = terms.get(m)
            terms[m] = (c, d) if old is None else (old[0] + c, old[1] + d)
        return Polynomial._of({m: c for m, c in terms.items() if c != (0, 0)})

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of({m: (-a, -b) for m, (a, b) in self._terms.items()})

    def __sub__(self, other):
        return self + (-Polynomial.coerce(other))

    def __rsub__(self, other):
        return Polynomial.coerce(other) + (-self)

    def __mul__(self, other):
        other = Polynomial.coerce(other)
        factor = other._constant()
        if factor is not None:
            return self._scale(factor)
        factor = self._constant()
        if factor is not None:
            return other._scale(factor)
        terms: dict[int, tuple] = {}
        get = terms.get
        for m1, (a, b) in self._terms.items():
            for m2, (c, d) in other._terms.items():
                m = m1 + m2
                re, im = a * c - b * d, a * d + b * c
                old = get(m)
                terms[m] = (re, im) if old is None else (old[0] + re, old[1] + im)
        if any(m & _GUARD for m in terms):
            raise ValueError(f"an exponent of the product reaches {_LIMIT}")
        return Polynomial._of({m: c for m, c in terms.items() if c != (0, 0)})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result, base = _ONE, self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if type(other) is not Polynomial:
            if isinstance(other, (int, Fraction, GaussianRational)):
                other = Polynomial.constant(other)
            elif not isinstance(other, Polynomial):
                return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # A constant equals its coefficient, so it hashes alike.
        value = self._constant()
        if value is not None:
            return hash(value) if value[1] else hash(value[0])
        return hash(frozenset(self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    def is_real(self) -> bool:
        return all(im == 0 for _, im in self._terms.values())

    def _constant(self) -> tuple[RationalLike, RationalLike] | None:
        """The (re, im) value of a constant polynomial ((0, 0) for zero);
        ``None`` when a symbol occurs."""
        terms = self._terms
        if not terms:
            return 0, 0
        if len(terms) == 1:
            return terms.get(0)
        return None

    # -- structure --------------------------------------------------------

    def contains(self, name: str) -> bool:
        shift = _SHIFTS[SYMBOLS.index(name)]
        return any((m >> shift) & _FIELD for m in self._terms)

    def _scale(self, factor: tuple[RationalLike, RationalLike]) -> "Polynomial":
        """``self`` times the constant whose (re, im) pair is ``factor``."""
        if factor == (1, 0):
            return self
        if factor == (0, 0):
            return Polynomial.zero()
        c, d = factor
        return Polynomial._of(
            {m: (a * c - b * d, a * d + b * c) for m, (a, b) in self._terms.items()}
        )

    def derivative(self, name: str) -> "Polynomial":
        # Distinct monomials have distinct derivatives, so nothing collects.
        shift = _SHIFTS[SYMBOLS.index(name)]
        return Polynomial._of({
            m - (1 << shift): (a * e, b * e)
            for m, (a, b) in self._terms.items()
            if (e := (m >> shift) & _FIELD)
        })

    def substitute(
        self, assignment: Mapping[str, "RationalFunction"]
    ) -> "RationalFunction":
        """Replace symbols by rational functions; unmentioned symbols stay."""
        result = RationalFunction.zero()
        for m, coeff in self._terms.items():
            term = RationalFunction.from_polynomial(Polynomial._of({0: coeff}))
            for sym, e in zip(SYMBOLS, _unpack(m)):
                if e == 0:
                    continue
                if sym in assignment:
                    value = assignment[sym]
                else:
                    value = RationalFunction.variable(sym)
                term = term * value.power(e)
            result = result + term
        return result

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        pieces = []
        for m in sorted(self._terms):
            coeff = self._terms[m]
            factors = [
                sym if e == 1 else f"{sym}^{e}"
                for sym, e in zip(SYMBOLS, _unpack(m))
                if e > 0
            ]
            if not factors:
                pieces.append(str(GaussianRational(*coeff)))
            elif coeff == (1, 0):
                pieces.append("*".join(factors))
            else:
                pieces.append(str(GaussianRational(*coeff)) + "*" + "*".join(factors))
        return " + ".join(pieces)

    __repr__ = __str__


def certified_positive(poly: Polynomial) -> bool:
    """A sufficient test that poly > 0 at every real point: a positive
    constant term, and only positive real coefficients on monomials whose
    exponents are all even. Each such monomial is >= 0, so poly is at least
    its constant term. False does not mean poly takes a value <= 0."""
    return 0 in poly._terms and all(
        im == 0 and re > 0 and not m & _ODD for m, (re, im) in poly._terms.items()
    )


class RationalFunction:
    """Quotient of two polynomials, the coefficient field for forms.

    The one invariant: the denominator's lex-leading coefficient is 1, and
    zero is 0/1. Nothing is cancelled, so ``RationalFunction(x^2, x^3)``
    keeps that pair; it still equals 1/x. ``__init__`` reaches the
    invariant by dividing both sides by that leading coefficient on its
    (re, im) pair; only the public constructor and division (``/``,
    ``power(n < 0)``, ``substitute``) call it. The packed order is a
    monomial order, so the lead of a product is the product of the leads,
    and ``+``, ``-``, ``*``, ``power(n >= 0)``, ``derivative`` and scaling
    by a nonzero constant keep monic denominators monic: they build their
    result with ``_of``, and a numerator that cancels gives the shared zero.

    Equality is decided by cross-multiplication, so no multivariate gcd is
    ever needed. ``num`` and ``den`` share ``Polynomial``'s 2**15 limit.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = _ONE
        lead = den._terms[max(den._terms)]
        if lead != (1, 0):
            # 1/(a + b*i) = (a - b*i)/(a^2 + b^2)
            a, b = lead
            norm = a * a + b * b
            inv = _exact(Fraction(a, norm)), _exact(Fraction(-b, norm))
            # A scaled part may come out an integral Fraction: hold it as an int.
            num, den = (
                Polynomial._of({
                    m: (_exact(re), _exact(im)) for m, (re, im) in p._scale(inv)._terms.items()
                })
                for p in (num, den)
            )
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _of(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Wrap a pair already in normal form, skipping ``__init__``."""
        rf = object.__new__(cls)
        object.__setattr__(rf, "num", num)
        object.__setattr__(rf, "den", den)
        return rf

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalFunction":
        return _ZERO

    @classmethod
    def constant(cls, value: GaussianRational | RationalLike) -> "RationalFunction":
        return cls.from_polynomial(Polynomial.constant(value))

    @classmethod
    def variable(cls, name: str) -> "RationalFunction":
        return cls.from_polynomial(Polynomial.variable(name))

    @classmethod
    def from_polynomial(cls, poly: Polynomial) -> "RationalFunction":
        return cls._of(poly, _ONE)

    # -- field structure --------------------------------------------------

    @staticmethod
    def coerce(value) -> "RationalFunction":
        if isinstance(value, RationalFunction):
            return value
        if isinstance(value, Polynomial):
            return RationalFunction.from_polynomial(value)
        return RationalFunction.constant(value)

    def __add__(self, other):
        other = RationalFunction.coerce(other)
        if other.num.is_zero():
            return self
        if self.num.is_zero():
            return other
        num = self.num * other.den + other.num * self.den
        return RationalFunction._of(num, self.den * other.den) if num._terms else _ZERO

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._of(-self.num, self.den)

    def __sub__(self, other):
        return self + (-RationalFunction.coerce(other))

    def __rsub__(self, other):
        return RationalFunction.coerce(other) + (-self)

    def __mul__(self, other):
        if type(other) is not RationalFunction:
            if type(other) is int or isinstance(other, (int, Fraction, GaussianRational)):
                return self._scale(_pair(other))
            other = RationalFunction.coerce(other)
        factor = other._constant()
        if factor is not None:
            return self._scale(factor)
        factor = self._constant()
        if factor is not None:
            return other._scale(factor)
        return RationalFunction._of(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RationalFunction.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def power(self, n: int) -> "RationalFunction":
        if n < 0:
            return RationalFunction(self.den, self.num).power(-n)
        return RationalFunction._of(self.num**n, self.den**n)

    def __eq__(self, other) -> bool:
        if type(other) is not RationalFunction:
            if isinstance(other, (int, Fraction, GaussianRational, Polynomial)):
                other = RationalFunction.coerce(other)
            elif not isinstance(other, RationalFunction):
                return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    # Equality is by cross-multiplication, so instances are unhashable.
    __hash__ = None  # type: ignore[assignment]

    def is_zero(self) -> bool:
        return not self.num._terms

    def __bool__(self) -> bool:
        return bool(self.num._terms)

    def _constant(self) -> tuple[RationalLike, RationalLike] | None:
        """The (re, im) value of a polynomial constant (denominator 1), or
        ``None``; a quotient such as x/x is not read as one."""
        if self.den._constant() is None:
            return None
        return self.num._constant()

    def _scale(self, factor: tuple[RationalLike, RationalLike]) -> "RationalFunction":
        """``self`` times the constant whose (re, im) pair is ``factor``,
        which scales the numerator and leaves the monic denominator."""
        if factor == (0, 0):
            return _ZERO
        if factor == (1, 0):
            return self
        return RationalFunction._of(self.num._scale(factor), self.den)

    def contains(self, name: str) -> bool:
        return self.num.contains(name) or self.den.contains(name)

    def derivative(self, name: str) -> "RationalFunction":
        # Quotient rule, exactly.
        n, d = self.num, self.den
        num = n.derivative(name) * d - n * d.derivative(name)
        return RationalFunction._of(num, d * d) if num._terms else _ZERO

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
        """The value at a point: each symbol that occurs is replaced by its
        constant (``KeyError`` if it has none), and a pole raises
        ``ZeroDivisionError``."""
        value = self.substitute({
            sym: RationalFunction.constant(assignment[sym])
            for sym in SYMBOLS if self.contains(sym)
        })
        return GaussianRational(*value.num._constant())

    def __str__(self) -> str:
        if self.den == _ONE:
            return str(self.num)
        return f"{parenthesised(self.num)}/{parenthesised(self.den)}"

    __repr__ = __str__


#: The constant-1 denominator and the zero, shared by every result that
#: needs them; like every value here they are never mutated.
_ONE = Polynomial.constant(1)
_ZERO = RationalFunction(Polynomial.zero(), _ONE)

