"""Exterior algebra on the coordinate coframe of the 6-torus model.

Generators are the six coordinate 1-forms (dx, dy, dz, dw, ds1, ds2) with
rational-function coefficients. Forms support wedge products, pullbacks
along coframe maps, exterior derivatives, and linear operators on 1-forms
(used for almost complex structures). The radial profile ``f`` is an
opaque symbol until a region substitution pins it to 0 or 1/(x^2+y^2).
"""

from __future__ import annotations

import enum
from typing import Mapping, Sequence

from .coefficients import (
    SYMBOLS,
    Polynomial,
    RationalFunction,
    _gauss_jordan,
    _pivot_steps,
)

GENERATORS = ("dx", "dy", "dz", "dw", "ds1", "ds2")

#: Base symbol differentiated against each generator (only the disk
#: coordinates carry coefficient dependence in this model).
_GENERATOR_SYMBOL = {"dx": "x", "dy": "y"}


def _sort_indices(indices: Sequence[int]) -> tuple[tuple[int, ...], int] | None:
    """Sort generator indices ascending; None if a repeat kills the term."""
    if len(set(indices)) != len(indices):
        return None
    order = list(indices)
    sign = 1
    # Insertion sort; count transpositions.
    for i in range(1, len(order)):
        j = i
        while j > 0 and order[j - 1] > order[j]:
            order[j - 1], order[j] = order[j], order[j - 1]
            sign = -sign
            j -= 1
    return tuple(order), sign


def _coerce_coeff(value) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, Polynomial):
        return RationalFunction.from_polynomial(value)
    return RationalFunction.constant(value)


class Region(enum.Enum):
    """Where on the surgery disk a formula is evaluated.

    Inner: f = 0; Middle: f abstract; Outer: f = 1/(x^2+y^2).
    """

    INNER = "inner"
    MIDDLE = "middle"
    OUTER = "outer"

    def substitution(self) -> dict[str, RationalFunction] | None:
        if self is Region.INNER:
            return {"f": RationalFunction.zero()}
        if self is Region.OUTER:
            x = Polynomial.variable("x")
            y = Polynomial.variable("y")
            return {
                "f": RationalFunction(
                    Polynomial.constant(1), x * x + y * y
                )
            }
        return None


class Form:
    """Graded sum of wedge monomials in the coordinate coframe.

    Keys are strictly increasing tuples of generator indices; values are
    nonzero rational-function coefficients. The empty map is the zero form.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], RationalFunction] | None = None):
        clean: dict[tuple[int, ...], RationalFunction] = {}
        if terms:
            for key, coeff in terms.items():
                if coeff.is_zero():
                    continue
                if list(key) != sorted(set(key)):
                    raise ValueError(f"key {key} is not strictly increasing")
                clean[tuple(key)] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Form is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "Form":
        return cls({})

    @classmethod
    def from_terms(cls, *terms) -> "Form":
        """Build from (coefficient, generator names...) tuples.

        Generator names may come in any order; antisymmetry signs are
        absorbed here.
        """
        result = cls.zero()
        for coeff, *names in terms:
            coeff = _coerce_coeff(coeff)
            indices = [GENERATORS.index(n) for n in names]
            sorted_key = _sort_indices(indices)
            if sorted_key is None:
                continue
            key, sign = sorted_key
            result = result + cls({key: coeff * sign})
        return result

    @classmethod
    def generator(cls, name: str) -> "Form":
        return cls({(GENERATORS.index(name),): RationalFunction.constant(1)})

    @classmethod
    def function(cls, coeff) -> "Form":
        """Degree-0 form (a coefficient)."""
        return cls({(): _coerce_coeff(coeff)})

    # -- linear structure -------------------------------------------------

    def __add__(self, other: "Form") -> "Form":
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            if key in terms:
                total = terms[key] + coeff
                if total.is_zero():
                    del terms[key]
                else:
                    terms[key] = total
            else:
                terms[key] = coeff
        return Form(terms)

    def __neg__(self) -> "Form":
        return Form({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __mul__(self, scalar) -> "Form":
        scalar = _coerce_coeff(scalar)
        return Form({k: c * scalar for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None  # type: ignore[assignment]

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {len(k) for k in self.terms}

    def coefficient(self, *names: str) -> RationalFunction:
        """Coefficient on the wedge of the named generators (signed)."""
        indices = [GENERATORS.index(n) for n in names]
        sorted_key = _sort_indices(indices)
        if sorted_key is None:
            raise ValueError("repeated generator")
        key, sign = sorted_key
        coeff = self.terms.get(key)
        if coeff is None:
            return RationalFunction.zero()
        return coeff * sign

    # -- multiplicative structure -----------------------------------------

    def wedge(self, other: "Form") -> "Form":
        terms: dict[tuple[int, ...], RationalFunction] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                sorted_key = _sort_indices(k1 + k2)
                if sorted_key is None:
                    continue
                key, sign = sorted_key
                coeff = c1 * c2 * sign
                if key in terms:
                    total = terms[key] + coeff
                    if total.is_zero():
                        del terms[key]
                    else:
                        terms[key] = total
                elif not coeff.is_zero():
                    terms[key] = coeff
        return Form(terms)

    def wedge_power(self, n: int) -> "Form":
        result = Form.function(1)
        for _ in range(n):
            result = result.wedge(self)
        return result

    # -- substitution and calculus ----------------------------------------

    def substitute(self, assignment: Mapping[str, RationalFunction]) -> "Form":
        return Form({k: c.substitute(assignment) for k, c in self.terms.items()})

    def in_region(self, region: Region) -> "Form":
        subst = region.substitution()
        return self if subst is None else self.substitute(subst)

    def exterior_derivative(self, region: Region) -> "Form":
        """d, with coefficients depending on the disk coordinates x, y only."""
        form = self.in_region(region)
        if region is Region.MIDDLE:
            for coeff in form.terms.values():
                if coeff.contains("f"):
                    raise ValueError(
                        "abstract radial profile f is not differentiable "
                        "symbolically; substitute a region first"
                    )
        result = Form.zero()
        for key, coeff in form.terms.items():
            body = Form({key: RationalFunction.constant(1)})
            for gen, sym in _GENERATOR_SYMBOL.items():
                partial = coeff.derivative(sym)
                if partial.is_zero():
                    continue
                result = result + (Form.generator(gen) * partial).wedge(body)
        return result

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        pieces = []
        for key in sorted(self.terms, key=lambda k: (len(k), k)):
            coeff = self.terms[key]
            gens = "^".join(GENERATORS[i] for i in key)
            if not key:
                pieces.append(f"({coeff})")
            else:
                pieces.append(f"({coeff})*{gens}")
        return " + ".join(pieces)

    __repr__ = __str__


# -- small exact matrix helpers over the coefficient field -----------------


def mat_identity(n: int) -> list[list[RationalFunction]]:
    return [
        [RationalFunction.constant(1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]

def mat_neg(m: list[list[RationalFunction]]) -> list[list[RationalFunction]]:
    return [[-v for v in row] for row in m]


def mat_mul(a, b) -> list[list[RationalFunction]]:
    n, mid, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            total = RationalFunction.zero()
            for l in range(mid):
                # Adding a zero leaves num and den as they were, so skipping
                # zero products changes no printed expression.
                if not a[i][l] or not b[l][j]:
                    continue
                total = total + a[i][l] * b[l][j]
            row.append(total)
        out.append(row)
    return out


def mat_transpose(m) -> list[list[RationalFunction]]:
    return [list(col) for col in zip(*m)]


def mat_equal(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_inverse(m: list[list[RationalFunction]]) -> list[list[RationalFunction]]:
    """Gauss-Jordan inverse over the rational-function field: reduce
    [m | I] and read off the right half."""
    n = len(m)
    reduced, pivots = _gauss_jordan(
        [row + unit for row, unit in zip(m, mat_identity(n))]
    )
    if any(col >= n for _, col, _ in pivots):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]


def mat_determinant(m: list[list[RationalFunction]]) -> RationalFunction:
    """The sign of the row swaps times the product of the pivots."""
    _, pivots = _gauss_jordan(m)
    if len(pivots) < len(m):
        return RationalFunction.zero()
    det = RationalFunction.constant(1)
    for step, (found, _, value) in enumerate(pivots):
        det = det * value if found == step else -det * value
    return det


def _images_to_matrix(images: Mapping[str, Form]) -> list[list[RationalFunction]]:
    """Column j = image of generator j expanded in the coframe basis."""
    n = len(GENERATORS)
    matrix = [[RationalFunction.zero() for _ in range(n)] for _ in range(n)]
    for j, gen in enumerate(GENERATORS):
        image = images[gen]
        if image.degrees() - {1}:
            raise ValueError(f"image of {gen} is not a 1-form")
        for key, coeff in image.terms.items():
            matrix[key[0]][j] = coeff
    return matrix


def _matrix_to_images(matrix: Sequence[Sequence[RationalFunction]]) -> dict[str, Form]:
    images = {}
    for j, gen in enumerate(GENERATORS):
        images[gen] = Form(
            {(i,): matrix[i][j] for i in range(len(GENERATORS)) if not matrix[i][j].is_zero()}
        )
    return images


class CoframeMap:
    """Substitution of coordinate 1-forms, e.g. a pullback along a torus map.

    Coefficients pass through unchanged; region substitutions of f are
    applied to forms and operators with ``in_region``. The construction
    builds determinant-one maps only, so ``mat_inverse`` is the one
    invertibility check, made where a map is inverted.
    """

    def __init__(self, images: Mapping[str, Form]):
        self.images = {g: images.get(g, Form.generator(g)) for g in GENERATORS}
        self.matrix = _images_to_matrix(self.images)

    @classmethod
    def identity(cls) -> "CoframeMap":
        return cls({})

    def pullback(self, form: Form) -> Form:
        result = Form.zero()
        for key, coeff in form.terms.items():
            term = Form.function(coeff)
            for idx in key:
                term = term.wedge(self.images[GENERATORS[idx]])
            result = result + term
        return result

    def inverse(self) -> "CoframeMap":
        return CoframeMap(_matrix_to_images(mat_inverse(self.matrix)))


def compose(first: CoframeMap, second: CoframeMap) -> CoframeMap:
    """The map m with pullback(m, h) = pullback(second, pullback(first, h)).

    Matches composition of underlying point maps: ``first`` after ``second``.
    """
    return CoframeMap({g: second.pullback(first.images[g]) for g in GENERATORS})


class LinearOperator:
    """Linear operator on coordinate 1-forms given by its coframe images.

    Houses almost complex structures; nothing here assumes J^2 = -1, that
    is a property to be checked.
    """

    def __init__(self, images: Mapping[str, Form]):
        self.images = {g: images.get(g, Form.generator(g)) for g in GENERATORS}
        self.matrix = _images_to_matrix(self.images)

    @classmethod
    def from_matrix(cls, matrix) -> "LinearOperator":
        return cls(_matrix_to_images(matrix))

    def __call__(self, form: Form) -> Form:
        """Apply to a 1-form (or a degree-0 + degree-1 combination)."""
        result = Form.zero()
        for key, coeff in form.terms.items():
            if len(key) == 0:
                result = result + Form.function(coeff)
            elif len(key) == 1:
                result = result + self.images[GENERATORS[key[0]]] * coeff
            else:
                raise ValueError("operator acts on 1-forms only")
        return result

    def square(self) -> list[list[RationalFunction]]:
        return mat_mul(self.matrix, self.matrix)

    def substitute(self, assignment: Mapping[str, RationalFunction]) -> "LinearOperator":
        return LinearOperator(
            {g: img.substitute(assignment) for g, img in self.images.items()}
        )

    def in_region(self, region: Region) -> "LinearOperator":
        subst = region.substitution()
        return self if subst is None else self.substitute(subst)

    def conjugate_by(self, map_: CoframeMap, inverse: CoframeMap) -> "LinearOperator":
        """T o J o T^-1 where T is the coframe map's linear action; the
        caller supplies the inverse map, which it usually already holds."""
        return LinearOperator.from_matrix(
            mat_mul(map_.matrix, mat_mul(self.matrix, inverse.matrix))
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearOperator):
            return NotImplemented
        return mat_equal(self.matrix, other.matrix)

    __hash__ = None  # type: ignore[assignment]


def operator_pullback(map_: CoframeMap, operator: LinearOperator) -> LinearOperator:
    """phi^*(J) = (phi^*) o J o (phi^*)^-1 on 1-forms."""
    return operator.conjugate_by(map_, map_.inverse())


def omega_matrix(omega: Form) -> list[list[RationalFunction]]:
    """Antisymmetric matrix of a 2-form on the coordinate vector fields."""
    if omega.degrees() - {2}:
        raise ValueError("expected a homogeneous 2-form")
    n = len(GENERATORS)
    matrix = [[RationalFunction.zero() for _ in range(n)] for _ in range(n)]
    for (i, j), coeff in omega.terms.items():
        matrix[i][j] = coeff
        matrix[j][i] = -coeff
    return matrix


def certified_positive(poly: Polynomial) -> bool:
    """A sufficient test that poly > 0 at every real point: a positive
    constant term, and only positive real coefficients on monomials whose
    exponents are all even. Each such monomial is >= 0, so poly is at least
    its constant term. False does not mean poly takes a value <= 0."""
    return (0,) * len(SYMBOLS) in poly.terms and all(
        coeff.is_real() and coeff.re > 0 and not any(e % 2 for e in exps)
        for exps, coeff in poly.terms.items()
    )


class CompatibilityReport:
    """Outcome of checking a candidate almost complex structure against a
    2-form: invariance, symmetry of the induced metric, and positivity
    proved for every real value of the symbols by certified leading
    principal minors.

    ``sample_count`` is 0, since nothing is sampled; it stays because the
    span tracer in ``perfbench/tracer.py`` reads it from every report.
    """

    sample_count = 0

    def __init__(self, invariant, symmetric, positivity_failures):
        self.invariant = invariant
        self.symmetric = symmetric
        self.positivity_failures = positivity_failures

    @property
    def passed(self) -> bool:
        return self.invariant and self.symmetric and not self.positivity_failures


def compatibility_check(
    operator: LinearOperator,
    omega: Form,
    region: Region,
    basis: list[list[RationalFunction]] | None = None,
) -> CompatibilityReport:
    """Check omega(J., J.) = omega and that g = omega(., J.) is a symmetric
    pairing, positive definite for every real value of the symbols.

    The operator on vector fields dual to the coframe action A is A^T.
    Positivity is read from h = U g U^T for the optional change of basis U.
    Any U is sound: if h is positive definite, U is invertible and g is
    positive definite too. A good U (the inverse of a twist) turns g into a
    matrix whose minors are certifiable. Every entry of h must have real
    coefficients, and each leading principal minor of h must have a
    numerator and denominator that pass ``certified_positive``. The rule is
    sufficient, not necessary: whatever it cannot certify is a failure.
    """
    op = operator.in_region(region)
    om = omega.in_region(region)
    big_omega = omega_matrix(om)
    j_vec = mat_transpose(op.matrix)
    metric = mat_mul(big_omega, j_vec)
    lhs = mat_mul(mat_transpose(j_vec), metric)
    invariant = mat_equal(lhs, big_omega)
    symmetric = mat_equal(metric, mat_transpose(metric))
    h = metric
    if basis is not None:
        h = mat_mul(basis, mat_mul(metric, mat_transpose(basis)))
    return CompatibilityReport(invariant, symmetric, _positivity_failures(h))


def _positivity_failures(h: list[list[RationalFunction]]) -> list[str]:
    for i, row in enumerate(h):
        for j, entry in enumerate(row):
            for coeff in (*entry.num.terms.values(), *entry.den.terms.values()):
                if not coeff.is_real():
                    return [f"entry [{i}][{j}] is not real: {entry}"]
    # While every pivot so far sits on the diagonal, the leading minor of
    # size m is the product of the first m pivots; the first pivot off the
    # diagonal (or missing) means that minor is identically 0. The
    # elimination stops at the first minor that fails, so a matrix whose
    # minors swell is not reduced further than needed.
    minor = RationalFunction.constant(1)
    steps = _pivot_steps([list(row) for row in h])
    for m in range(1, len(h) + 1):
        found, col, value = next(steps, (None, None, None))
        if (found, col) != (m - 1, m - 1):
            return [f"minor {m} is identically 0"]
        minor = minor * value
        if not (certified_positive(minor.num) and certified_positive(minor.den)):
            return [f"minor {m} not certified: {minor}"]
    return []
