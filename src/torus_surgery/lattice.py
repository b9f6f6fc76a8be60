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
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

COORDINATES = (1, 2, 3, 4, 5, 6)
CIRCLE_LABELS = ("z", "w", "s1", "s2")

#: Fixed coordinate values are 8th roots of unity e^{i*pi*m/4}, held by
#: their exponent m mod 8.
ONE, PRIMITIVE, IMAG, MINUS_ONE, MINUS_IMAG = 0, 1, 2, 4, 6
_ROOT_NAMES = {ONE: "1", IMAG: "i", MINUS_ONE: "-1", MINUS_IMAG: "-i"}


class Marker(enum.Enum):
    """Intersection outcomes other than a subtorus: the two subtori share
    no point, or their tangent spaces fail to span."""

    EMPTY = "empty"
    NON_TRANSVERSE = "non-transverse"


EMPTY, NON_TRANSVERSE = Marker


@dataclass(frozen=True)
class CoordinateSubtorus:
    """A subtorus given by free coordinates and, read-only, the root
    exponent fixed at each other coordinate."""

    free: frozenset[int]
    fixed: Mapping[int, int]

    def __post_init__(self):
        object.__setattr__(self, "free", frozenset(self.free))
        fixed = MappingProxyType({c: m % 8 for c, m in self.fixed.items()})
        object.__setattr__(self, "fixed", fixed)

    @classmethod
    def make(cls, free: Iterable[int], fixed: Mapping[int, int]) -> "CoordinateSubtorus":
        if set(free) | set(fixed) != set(COORDINATES) or set(free) & set(fixed):
            raise ValueError("free and fixed must partition the six coordinates")
        return cls(free, fixed)

    @property
    def dimension(self) -> int:
        return len(self.free)

    def __str__(self) -> str:
        parts = (
            "S1" if c in self.free
            else _ROOT_NAMES.get(self.fixed[c], f"zeta8^{self.fixed[c]}")
            for c in COORDINATES
        )
        return "(" + ", ".join(parts) + ")"


def intersect(a: CoordinateSubtorus, b: CoordinateSubtorus):
    """Symmetric intersection with the three-way contract:
    EMPTY on a fixed-value conflict, NON_TRANSVERSE when the free
    directions fail to span, else the intersection subtorus."""
    if any(b.fixed.get(c, m) != m for c, m in a.fixed.items()):
        return EMPTY
    if a.free | b.free != set(COORDINATES):
        return NON_TRANSVERSE
    return CoordinateSubtorus.make(a.free & b.free, {**a.fixed, **b.fixed})


@dataclass(frozen=True)
class EmbeddedTorus:
    """A 4-dimensional coordinate subtorus with its parameter labels
    (z, w, s1, s2) assigned to the free coordinates, read-only."""

    name: str
    subtorus: CoordinateSubtorus
    labels: Mapping[str, int]  # label -> coordinate

    def __post_init__(self):
        object.__setattr__(self, "labels", MappingProxyType(dict(self.labels)))
        if set(self.labels) != set(CIRCLE_LABELS):
            raise ValueError("labels must cover z, w, s1, s2")
        if set(self.labels.values()) != set(self.subtorus.free):
            raise ValueError("labels must biject onto the free coordinates")


@functools.cache
def embedding_catalog() -> tuple[EmbeddedTorus, ...]:
    """The four disjoint embedded 4-tori, one per fourth root of unity in
    the first coordinate; a constant, built once."""
    return (
        EmbeddedTorus(
            "e1",
            CoordinateSubtorus.make({2, 3, 5, 6}, {1: ONE, 4: ONE}),
            {"z": 2, "w": 3, "s1": 5, "s2": 6},
        ),
        EmbeddedTorus(
            "e2",
            CoordinateSubtorus.make({2, 4, 5, 6}, {1: IMAG, 3: ONE}),
            {"z": 2, "w": 4, "s1": 5, "s2": 6},
        ),
        EmbeddedTorus(
            "e3",
            CoordinateSubtorus.make({2, 3, 4, 5}, {1: MINUS_ONE, 6: ONE}),
            {"z": 2, "w": 5, "s1": 3, "s2": 4},
        ),
        EmbeddedTorus(
            "e4",
            CoordinateSubtorus.make({2, 3, 4, 6}, {1: MINUS_IMAG, 5: ONE}),
            {"z": 2, "w": 6, "s1": 3, "s2": 4},
        ),
    )


def three_torus_catalog() -> tuple[CoordinateSubtorus, ...]:
    """The ten coordinate 3-tori with the first coordinate free, fixed
    values all -1."""
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
    return tuple(
        CoordinateSubtorus.make(free, {c: MINUS_ONE for c in set(COORDINATES) - free})
        for free in free_sets
    )


def circle_class(circle: CoordinateSubtorus, torus: EmbeddedTorus) -> list[int]:
    """Class of an intersection circle in the rank-4 first homology of the
    embedded torus, in the (z, w, s1, s2) basis."""
    if circle.dimension != 1:
        raise ValueError("expected a 1-dimensional subtorus")
    if not circle.free <= torus.subtorus.free or any(
        circle.fixed[c] != m for c, m in torus.subtorus.fixed.items()
    ):
        raise ValueError("circle is not contained in the embedded torus")
    (coord,) = circle.free
    return [int(torus.labels[label] == coord) for label in CIRCLE_LABELS]


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


def is_dual_torus(candidate: CoordinateSubtorus, index: int) -> bool:
    """True if the candidate meets the index-th embedded torus in exactly
    one transverse point and misses all the others."""
    for i, torus in enumerate(embedding_catalog()):
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
    pinned = {c for torus in embeddings for c in torus.subtorus.fixed}
    dual = CoordinateSubtorus.make(
        set(COORDINATES) - target.free,
        {c: PRIMITIVE if c in pinned else ONE for c in target.free},
    )
    if not is_dual_torus(dual, i - 1):
        raise ValueError(f"{dual} is not dual to embedding {i}")
    return dual


# -- exact integer linear algebra ------------------------------------------


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


def snf(matrix: Sequence[Sequence[int]]) -> SNFResult:
    """Smith normal form with tracked unimodular transforms.

    The m x n matrix M is reduced inside one working matrix
    [[M, I_m], [I_n, 0]]: row operations on the first m rows carry U in the
    right block, and column operations on the first n columns carry V in
    the bottom block.

    Pivot rule: smallest nonzero absolute value, ties broken row-major,
    which makes the output deterministic.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if any(len(row) != n for row in matrix):
        raise ValueError("ragged matrix")
    a = [list(row) + [1 if i == r else 0 for i in range(m)] for r, row in enumerate(matrix)]
    a += [[1 if j == c else 0 for j in range(n)] + [0] * m for c in range(n)]

    def row_op(target, source, factor):
        a[target] = [x + factor * y for x, y in zip(a[target], a[source])]

    def col_op(target, source, factor):
        for row in a:
            row[target] += factor * row[source]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

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
        a[t], a[pivot[0]] = a[pivot[0]], a[t]
        swap_cols(t, pivot[1])
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
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
        # Enforce divisibility against the rest of the block: fold the first
        # row with an entry the pivot does not divide into the pivot row.
        for i, j in itertools.product(range(t + 1, m), range(t + 1, n)):
            if a[i][j] % a[t][t]:
                row_op(t, i, 1)
                break
        else:
            t += 1
    return SNFResult(
        tuple(tuple(row[n:]) for row in a[:m]),
        tuple(tuple(row[:n]) for row in a[:m]),
        tuple(tuple(row[:n]) for row in a[m:]),
    )


def rational_rank(matrix: Sequence[Sequence]) -> int:
    """Rank over the rationals: the number of invariant factors of the
    matrix with its denominators cleared, which scales it by a nonzero
    integer and so keeps its rank. Entries are ints or ``Fraction``s."""
    scale = math.lcm(*(v.denominator for row in matrix for v in row))
    return len(snf([[int(v * scale) for v in row] for row in matrix]).invariant_factors)


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
    rank: int
    invariant_factors: tuple[int, ...]
    cokernel_rank: int
    dual_tori: tuple[CoordinateSubtorus, ...]
    b1: int
    b2: int

    def summary(self) -> dict:
        """The derived values, keyed as in ``LEMMA6_EXPECTED``."""
        values = {key: getattr(self, key) for key in LEMMA6_EXPECTED}
        return {**values, "invariant_factors": list(self.invariant_factors)}


def complement_betti() -> ComplementCertificate:
    """(b1, b2) of the complement, derived from the intersection matrix and
    the checked dual tori rather than hard-coded.

    b1 = 6 because every meridian bounds a punctured dual torus; the rank-10
    intersection matrix leaves a rank-6 cokernel, and the four-term exact
    sequence gives b2 = 6 + 15 - 4.
    """
    matrix = tuple(map(tuple, lemma_matrix()))
    factors = tuple(snf(matrix).invariant_factors)
    rank = len(factors)
    duals = tuple(find_dual_torus(i) for i in (1, 2, 3, 4))
    ambient_rank = len(COORDINATES)
    cokernel_rank = len(matrix[0]) - rank
    b1 = ambient_rank  # meridians bound, so inclusion is an isomorphism
    b2_ambient = math.comb(len(COORDINATES), 2)
    b2 = cokernel_rank + b2_ambient - len(embedding_catalog())
    return ComplementCertificate(matrix, rank, factors, cokernel_rank, duals, b1, b2)
