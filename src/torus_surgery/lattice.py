"""Coordinate subtori of the 6-torus and exact integer linear algebra.

Covers the combinatorics needed for the complement of the four embedded
4-tori: transverse intersections, homology classes of intersection
circles, dual tori constructed from transversality, Smith normal form with
transformation matrices, and finitely generated abelian groups in
invariant-factor form.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .coefficients import _gauss_jordan

COORDINATES = (1, 2, 3, 4, 5, 6)
CIRCLE_LABELS = ("z", "w", "s1", "s2")


@dataclass(frozen=True)
class Root8:
    """An 8th root of unity e^{i*pi*m/4}, stored by exponent mod 8."""

    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "exponent", self.exponent % 8)

    def __mul__(self, other: "Root8") -> "Root8":
        return Root8(self.exponent + other.exponent)

    def __str__(self) -> str:
        names = {0: "1", 2: "i", 4: "-1", 6: "-i"}
        return names.get(self.exponent, f"zeta8^{self.exponent}")

    __repr__ = __str__


ONE = Root8(0)
IMAG = Root8(2)
MINUS_ONE = Root8(4)
MINUS_IMAG = Root8(6)
PRIMITIVE = Root8(1)


class Marker(enum.Enum):
    """Intersection outcomes other than a subtorus: the two subtori share
    no point, or their tangent spaces fail to span."""

    EMPTY = "empty"
    NON_TRANSVERSE = "non-transverse"


EMPTY, NON_TRANSVERSE = Marker


@dataclass(frozen=True)
class CoordinateSubtorus:
    """A subtorus given by free coordinates and fixed root-of-unity values."""

    free: frozenset[int]
    fixed: tuple[tuple[int, Root8], ...]

    @classmethod
    def make(cls, free: Iterable[int], fixed: dict[int, Root8]) -> "CoordinateSubtorus":
        free = frozenset(free)
        if free | set(fixed) != set(COORDINATES) or free & set(fixed):
            raise ValueError("free and fixed must partition the six coordinates")
        return cls(free, tuple(sorted(fixed.items())))

    @property
    def fixed_map(self) -> dict[int, Root8]:
        return dict(self.fixed)

    @property
    def dimension(self) -> int:
        return len(self.free)

    def __str__(self) -> str:
        parts = []
        fixed = self.fixed_map
        for c in COORDINATES:
            parts.append("S1" if c in self.free else str(fixed[c]))
        return "(" + ", ".join(parts) + ")"


def intersect(a: CoordinateSubtorus, b: CoordinateSubtorus):
    """Symmetric intersection with the three-way contract:
    EMPTY on a fixed-value conflict, NON_TRANSVERSE when the free
    directions fail to span, else the intersection subtorus."""
    fa, fb = a.fixed_map, b.fixed_map
    for coord in set(fa) & set(fb):
        if fa[coord] != fb[coord]:
            return EMPTY
    if a.free | b.free != set(COORDINATES):
        return NON_TRANSVERSE
    return CoordinateSubtorus.make(a.free & b.free, {**fa, **fb})


@dataclass(frozen=True)
class EmbeddedTorus:
    """A 4-dimensional coordinate subtorus with its parameter labels
    (z, w, s1, s2) assigned to the free coordinates."""

    name: str
    subtorus: CoordinateSubtorus
    labels: tuple[tuple[str, int], ...]  # label -> coordinate

    def __post_init__(self):
        label_map = dict(self.labels)
        if set(label_map) != set(CIRCLE_LABELS):
            raise ValueError("labels must cover z, w, s1, s2")
        if set(label_map.values()) != set(self.subtorus.free):
            raise ValueError("labels must biject onto the free coordinates")

    def coordinate_of(self, label: str) -> int:
        return dict(self.labels)[label]


@functools.cache
def embedding_catalog() -> tuple[EmbeddedTorus, ...]:
    """The four disjoint embedded 4-tori, one per fourth root of unity in
    the first coordinate; a constant, built once."""
    return (
        EmbeddedTorus(
            "e1",
            CoordinateSubtorus.make({2, 3, 5, 6}, {1: ONE, 4: ONE}),
            (("z", 2), ("w", 3), ("s1", 5), ("s2", 6)),
        ),
        EmbeddedTorus(
            "e2",
            CoordinateSubtorus.make({2, 4, 5, 6}, {1: IMAG, 3: ONE}),
            (("z", 2), ("w", 4), ("s1", 5), ("s2", 6)),
        ),
        EmbeddedTorus(
            "e3",
            CoordinateSubtorus.make({2, 3, 4, 5}, {1: MINUS_ONE, 6: ONE}),
            (("z", 2), ("w", 5), ("s1", 3), ("s2", 4)),
        ),
        EmbeddedTorus(
            "e4",
            CoordinateSubtorus.make({2, 3, 4, 6}, {1: MINUS_IMAG, 5: ONE}),
            (("z", 2), ("w", 6), ("s1", 3), ("s2", 4)),
        ),
    )


def three_torus_catalog(corrupt_w8: bool = False) -> tuple[CoordinateSubtorus, ...]:
    """The ten coordinate 3-tori with the first coordinate free, fixed
    values all -1.

    corrupt_w8 swaps one fixed value of the eighth torus to +1; it exists
    only as a negative control for the certificate tests.
    """
    free_sets = [
        {1, 2, 4},
        {1, 2, 3},
        {1, 2, 6},
        {1, 2, 5},
        {1, 3, 6},
        {1, 3, 5},
        {1, 3, 4},
        {1, 4, 5},
        {1, 4, 6},
        {1, 5, 6},
    ]
    catalog = []
    for idx, free in enumerate(free_sets):
        fixed = {c: MINUS_ONE for c in set(COORDINATES) - free}
        if corrupt_w8 and idx == 7:
            fixed[3] = ONE
        catalog.append(CoordinateSubtorus.make(free, fixed))
    return tuple(catalog)


def circle_class(circle: CoordinateSubtorus, torus: EmbeddedTorus) -> list[int]:
    """Class of an intersection circle in the rank-4 first homology of the
    embedded torus, in the (z, w, s1, s2) basis."""
    if circle.dimension != 1:
        raise ValueError("expected a 1-dimensional subtorus")
    if not circle.free <= torus.subtorus.free:
        raise ValueError("circle is not contained in the embedded torus")
    torus_fixed = torus.subtorus.fixed_map
    circle_fixed = circle.fixed_map
    for coord, value in torus_fixed.items():
        if circle_fixed.get(coord) != value:
            raise ValueError("circle is not contained in the embedded torus")
    coord = next(iter(circle.free))
    vector = [0, 0, 0, 0]
    for pos, label in enumerate(CIRCLE_LABELS):
        if torus.coordinate_of(label) == coord:
            vector[pos] = 1
    return vector


def lemma_matrix(
    three_tori: Sequence[CoordinateSubtorus] | None = None,
) -> list[list[int]]:
    """10 x 16 matrix of intersection-circle classes: row j concatenates
    the class of W_j against each embedded 4-torus (zero block when the
    intersection is empty)."""
    three_tori = three_tori if three_tori is not None else three_torus_catalog()
    rows = []
    for w in three_tori:
        row: list[int] = []
        for torus in embedding_catalog():
            outcome = intersect(w, torus.subtorus)
            if outcome == EMPTY:
                row.extend([0, 0, 0, 0])
            elif outcome == NON_TRANSVERSE:
                raise ValueError(
                    f"non-transverse intersection of {w} with {torus.name}: "
                    "catalog bug"
                )
            else:
                row.extend(circle_class(outcome, torus))
        rows.append(row)
    return rows


def is_dual_torus(
    candidate: CoordinateSubtorus, index: int, embeddings: Sequence[EmbeddedTorus]
) -> bool:
    """True if the candidate meets the index-th embedded torus in exactly
    one transverse point and misses all the others."""
    for i, torus in enumerate(embeddings):
        outcome = intersect(candidate, torus.subtorus)
        if i == index:
            if not isinstance(outcome, CoordinateSubtorus) or outcome.dimension != 0:
                return False
        elif outcome != EMPTY:
            return False
    return True


def find_dual_torus(i: int) -> CoordinateSubtorus:
    """The 2-dimensional subtorus bounding the i-th meridian (i in 1..4).

    Transversality forces it. Meeting the i-th embedded torus in one
    transverse point makes the dual's free coordinates exactly that torus's
    two fixed coordinates. Every embedded torus fixes coordinate 1, which
    the dual leaves free, so the dual misses torus j only by a different
    value on the one other coordinate torus j pins: there it takes
    PRIMITIVE, which no embedded torus uses, and ONE on the remaining
    coordinate. Each coordinate takes its least admissible exponent, so this
    is the lexicographically least solution.
    """
    if i not in (1, 2, 3, 4):
        raise ValueError("embedding index must be 1..4")
    embeddings = embedding_catalog()
    target = embeddings[i - 1].subtorus
    pinned = {c for torus in embeddings for c, _ in torus.subtorus.fixed}
    dual = CoordinateSubtorus.make(
        set(COORDINATES) - target.free,
        {c: PRIMITIVE if c in pinned else ONE for c in target.free},
    )
    if not is_dual_torus(dual, i - 1, embeddings):
        raise ValueError(f"{dual} is not dual to embedding {i}")
    return dual


# -- exact integer linear algebra ------------------------------------------


def rational_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals: the number of pivots of an exact row
    reduction."""
    _, pivots = _gauss_jordan([[Fraction(v) for v in row] for row in matrix])
    return len(pivots)


@dataclass(frozen=True)
class SNFResult:
    """U * M * V = D with U, V unimodular and D diagonal with a
    divisibility chain d1 | d2 | ..."""

    U: tuple[tuple[int, ...], ...]
    D: tuple[tuple[int, ...], ...]
    V: tuple[tuple[int, ...], ...]

    @property
    def diagonal(self) -> list[int]:
        return [self.D[i][i] for i in range(min(len(self.D), len(self.D[0]) if self.D else 0))]

    @property
    def invariant_factors(self) -> list[int]:
        return [d for d in self.diagonal if d != 0]


def _int_identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def int_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free expansion (matrices are tiny)."""
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * int_determinant(minor)
    return total


def snf(matrix: Sequence[Sequence[int]]) -> SNFResult:
    """Smith normal form with tracked unimodular transforms.

    Pivot rule: smallest nonzero absolute value, ties broken row-major,
    which makes the output deterministic.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    a = [list(row) for row in matrix]
    if any(len(row) != n for row in a):
        raise ValueError("ragged matrix")
    u = _int_identity(m)
    v = _int_identity(n)

    def row_op(target, source, factor):
        a[target] = [x + factor * y for x, y in zip(a[target], a[source])]
        u[target] = [x + factor * y for x, y in zip(u[target], u[source])]

    def col_op(target, source, factor):
        for row in a:
            row[target] += factor * row[source]
        for row in v:
            row[target] += factor * row[source]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # Find the pivot: smallest |entry| in the remaining block.
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        if a[t][t] < 0:
            negate_row(t)
        # One reduction pass of the pivot column and row by the pivot. Any
        # remainder is smaller than the pivot, so searching again for the
        # smallest entry terminates.
        for i in range(t + 1, m):
            if a[i][t] != 0:
                row_op(i, t, -(a[i][t] // a[t][t]))
        for j in range(t + 1, n):
            if a[t][j] != 0:
                col_op(j, t, -(a[t][j] // a[t][t]))
        if any(a[i][t] for i in range(t + 1, m)) or any(a[t][j] for j in range(t + 1, n)):
            continue
        # Enforce divisibility against the rest of the block.
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, 1)
            continue
        t += 1
    return SNFResult(
        tuple(tuple(row) for row in u),
        tuple(tuple(row) for row in a),
        tuple(tuple(row) for row in v),
    )


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group in invariant-factor normal form."""

    rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion coefficients must form a divisor chain")
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion coefficients must be at least 2")

    def __str__(self) -> str:
        parts = []
        if self.rank:
            parts.append(f"Z^{self.rank}" if self.rank > 1 else "Z")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}


def quotient_group(ambient_rank: int, relations: Sequence[Sequence[int]]) -> AbelianGroup:
    """Z^n modulo the subgroup generated by the relation rows."""
    if not relations:
        return AbelianGroup(ambient_rank, ())
    if any(len(row) != ambient_rank for row in relations):
        raise ValueError("relation rows must have one entry per generator")
    result = snf(relations)
    factors = result.invariant_factors
    return AbelianGroup(
        ambient_rank - len(factors), tuple(d for d in factors if d > 1)
    )


#: What lemma 6 asserts: a unimodular rank-10 intersection matrix and
#: complement Betti numbers (b1, b2) = (6, 17).
LEMMA6_EXPECTED = dict(
    rank=10, invariant_factors=[1] * 10, cokernel_rank=6, b1=6, b2=17
)


@dataclass(frozen=True)
class ComplementCertificate:
    """Derived homology bookkeeping for the complement of the four
    embedded 4-tori."""

    matrix: tuple[tuple[int, ...], ...]
    matrix_rank: int
    invariant_factors: tuple[int, ...]
    cokernel_rank: int
    dual_tori: tuple[CoordinateSubtorus, ...]
    b1: int
    b2: int

    def summary(self) -> dict:
        """The derived values, keyed as in ``LEMMA6_EXPECTED``."""
        return dict(
            rank=self.matrix_rank, invariant_factors=list(self.invariant_factors),
            cokernel_rank=self.cokernel_rank, b1=self.b1, b2=self.b2,
        )


def complement_betti() -> ComplementCertificate:
    """(b1, b2) of the complement, derived from the intersection matrix and
    the checked dual tori rather than hard-coded.

    b1 = 6 because every meridian bounds a punctured dual torus; the rank-10
    intersection matrix leaves a rank-6 cokernel, and the four-term exact
    sequence gives b2 = 6 + 15 - 4.
    """
    matrix = tuple(map(tuple, lemma_matrix()))
    rank = rational_rank(matrix)
    factors = tuple(snf(matrix).invariant_factors)
    duals = tuple(find_dual_torus(i) for i in (1, 2, 3, 4))
    ambient_rank = len(COORDINATES)
    cokernel_rank = len(matrix[0]) - rank
    b1 = ambient_rank  # meridians bound, so inclusion is an isomorphism
    b2_ambient = math.comb(len(COORDINATES), 2)
    b2 = cokernel_rank + b2_ambient - len(embedding_catalog())
    return ComplementCertificate(matrix, rank, factors, cokernel_rank, duals, b1, b2)
