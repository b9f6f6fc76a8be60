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

from .coefficients import Polynomial, RationalFunction, certified_positive, parenthesised

GENERATORS = ("dx", "dy", "dz", "dw", "ds1", "ds2")
_INDICES = frozenset(range(len(GENERATORS)))

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

    Keys are strictly increasing tuples of generator indices 0..5; values are
    nonzero rational-function coefficients. The empty map is the zero form.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], RationalFunction] | None = None):
        clean: dict[tuple[int, ...], RationalFunction] = {}
        if terms:
            for key, coeff in terms.items():
                if list(key) != sorted(set(key)) or not _INDICES.issuperset(key):
                    raise ValueError(f"key {key} is not strictly increasing indices in 0..5")
                if not coeff.is_zero():
                    clean[tuple(key)] = coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _of(cls, terms: dict[tuple[int, ...], RationalFunction]) -> "Form":
        """Wrap ``terms``, whose keys are already strictly increasing, dropping zeros."""
        form = object.__new__(cls)
        object.__setattr__(form, "terms", {k: c for k, c in terms.items() if not c.is_zero()})
        return form

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
            coeff = RationalFunction.coerce(coeff)
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
        return cls({(): RationalFunction.coerce(coeff)})

    # -- linear structure -------------------------------------------------

    def __add__(self, other: "Form") -> "Form":
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms[key] + coeff if key in terms else coeff
        return Form._of(terms)

    def __neg__(self) -> "Form":
        return Form._of({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __mul__(self, scalar) -> "Form":
        scalar = RationalFunction.coerce(scalar)
        return Form._of({k: c * scalar for k, c in self.terms.items()})

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
                terms[key] = terms[key] + coeff if key in terms else coeff
        return Form._of(terms)

    def wedge_power(self, n: int) -> "Form":
        result = Form.function(1)
        for _ in range(n):
            result = result.wedge(self)
        return result

    # -- substitution and calculus ----------------------------------------

    def substitute(self, assignment: Mapping[str, RationalFunction]) -> "Form":
        return Form._of({k: c.substitute(assignment) for k, c in self.terms.items()})

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
            gens = "^".join(GENERATORS[i] for i in key)
            pieces.append(parenthesised(self.terms[key]) + (f"*{gens}" if key else ""))
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


def _pivot_steps(a):
    """Gauss-Jordan reduce the rows ``a`` in place over an exact field
    whose zero is falsy, yielding one ``(found_row, column, value)`` record
    per pivot as soon as it is made: the row the pivot was found in before
    the swap, its column, and its value before its row is scaled to 1. Each
    column's pivot is the first nonzero entry at or below the current row;
    a column with none is skipped. Inverse and determinant are read off
    these records.
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


def mat_inverse(m: list[list[RationalFunction]]) -> list[list[RationalFunction]]:
    """Gauss-Jordan inverse over the rational-function field: reduce
    [m | I] and read off the right half."""
    n = len(m)
    reduced = [row + unit for row, unit in zip(m, mat_identity(n))]
    pivots = list(_pivot_steps(reduced))
    if any(col >= n for _, col, _ in pivots):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]


def mat_determinant(m: list[list[RationalFunction]]) -> RationalFunction:
    """The sign of the row swaps times the product of the pivots."""
    pivots = list(_pivot_steps([list(row) for row in m]))
    if len(pivots) < len(m):
        return RationalFunction.zero()
    det = RationalFunction.constant(1)
    for step, (found, _, value) in enumerate(pivots):
        det = det * value if found == step else -det * value
    return det


class CoframeMap:
    """Linear substitution of coordinate 1-forms, e.g. a pullback along a
    torus map, held as its matrix: column j is the image of generator j.

    Coefficients pass through unchanged; region substitutions of f are
    applied to forms and operators with ``in_region``. The construction
    builds determinant-one maps only, so ``mat_inverse`` is the one
    invertibility check, made where a map is inverted.
    """

    def __init__(self, matrix: list[list[RationalFunction]]):
        self.matrix = matrix

    @classmethod
    def from_images(cls, images: Mapping[str, Form]):
        """The map sending each named generator to its 1-form image; a
        generator not named maps to itself."""
        n = len(GENERATORS)
        matrix = [[RationalFunction.zero() for _ in range(n)] for _ in range(n)]
        for j, gen in enumerate(GENERATORS):
            image = images.get(gen, Form.generator(gen))
            if image.degrees() - {1}:
                raise ValueError(f"image of {gen} is not a 1-form")
            for key, coeff in image.terms.items():
                matrix[key[0]][j] = coeff
        return cls(matrix)

    def pullback(self, form: Form) -> Form:
        n = len(GENERATORS)
        columns = [
            Form._of({(i,): self.matrix[i][j] for i in range(n)}) for j in range(n)
        ]
        result = Form.zero()
        for key, coeff in form.terms.items():
            term = Form.function(coeff)
            for idx in key:
                term = term.wedge(columns[idx])
            result = result + term
        return result

    def inverse(self) -> "CoframeMap":
        return CoframeMap(mat_inverse(self.matrix))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoframeMap):
            return NotImplemented
        return mat_equal(self.matrix, other.matrix)

    __hash__ = None  # type: ignore[assignment]


def compose(first: CoframeMap, second: CoframeMap) -> CoframeMap:
    """The map m with pullback(m, h) = pullback(second, pullback(first, h)).

    Matches composition of underlying point maps: ``first`` after ``second``.
    """
    return CoframeMap(mat_mul(second.matrix, first.matrix))


class LinearOperator(CoframeMap):
    """Linear operator on coordinate 1-forms, held as its matrix like a
    coframe map.

    Houses almost complex structures; nothing here assumes J^2 = -1, that
    is a property to be checked.
    """

    def __call__(self, form: Form) -> Form:
        """Apply to a 1-form (or a degree-0 + degree-1 combination)."""
        if any(len(key) > 1 for key in form.terms):
            raise ValueError("operator acts on 1-forms only")
        return self.pullback(form)

    def square(self) -> list[list[RationalFunction]]:
        return mat_mul(self.matrix, self.matrix)

    def in_region(self, region: Region) -> "LinearOperator":
        subst = region.substitution()
        if subst is None:
            return self
        # A zero entry stays zero, and substituting into it costs a division.
        return LinearOperator(
            [[v.substitute(subst) if v else v for v in row] for row in self.matrix]
        )

    def conjugate_by(self, map_: CoframeMap, inverse: CoframeMap) -> "LinearOperator":
        """T o J o T^-1 where T is the coframe map's linear action; the
        caller supplies the inverse map, which it usually already holds."""
        return LinearOperator(
            mat_mul(map_.matrix, mat_mul(self.matrix, inverse.matrix))
        )


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


def compatibility_check(
    operator: LinearOperator, omega: Form, region: Region
) -> CompatibilityReport:
    """Check omega(J., J.) = omega and that g = omega(., J.) is a symmetric
    pairing, positive definite for every real value of the symbols.

    The operator on vector fields dual to the coframe action A is A^T.
    Every entry of g must have real coefficients, and each leading
    principal minor of g needs a positive multiple whose numerator and
    denominator pass ``certified_positive``. The rule is sufficient, not
    necessary: what it cannot certify fails. It judges the pair a minor is
    held as, with nothing cancelled, so a minor whose numerator and
    denominator share a monomial factor can fail; no CLI path builds one.
    """
    op = operator.in_region(region)
    om = omega.in_region(region)
    big_omega = omega_matrix(om)
    j_vec = mat_transpose(op.matrix)
    metric = mat_mul(big_omega, j_vec)
    lhs = mat_mul(mat_transpose(j_vec), metric)
    invariant = mat_equal(lhs, big_omega)
    symmetric = mat_equal(metric, mat_transpose(metric))
    return CompatibilityReport(invariant, symmetric, _positivity_failures(metric))


def _positivity_failures(h: list[list[RationalFunction]]) -> list[str]:
    """Sylvester's criterion by a division-free forward pass that stops at
    the first failure. Step m certifies the pivot p = a[m-1][m-1] and sets
    each row r below m to p*row_r - a[r][m-1]*row_m. Each such scaling
    multiplies later leading minors by an already certified pivot, so p_m
    is a positive multiple of minor m of h, and 0 exactly when it is."""
    for i, row in enumerate(h):
        for j, entry in enumerate(row):
            if not (entry.num.is_real() and entry.den.is_real()):
                return [f"entry [{i}][{j}] is not real: {entry}"]
    a = [list(row) for row in h]
    for m in range(1, len(a) + 1):
        p = a[m - 1][m - 1]
        if not p:
            return [f"minor {m} is identically 0"]
        if not (certified_positive(p.num) and certified_positive(p.den)):
            return [f"minor {m} not certified: {p}"]
        for r in range(m, len(a)):
            if c := a[r][m - 1]:
                a[r] = [p * v - c * w for v, w in zip(a[r], a[m - 1])]
    return []
