"""Surgery descriptors and the headline integer computations: relation
classes of the reattached 2-handles, first homology of the surgered
manifolds, Betti-number bounds, and the Kähler / product obstructions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .lattice import AbelianGroup, embedding_catalog

AMBIENT_RANK = 6

OBSTRUCTED = "obstructed"
UNKNOWN = "unknown"


def _require_int(value, name: str) -> None:
    """Reject anything but a true integer: no bool, float or string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True, order=True)
class SL2Z:
    """An integer 2x2 matrix [[p, q], [r, s]] of determinant one."""

    p: int
    q: int
    r: int
    s: int

    def __post_init__(self):
        for name in ("p", "q", "r", "s"):
            _require_int(getattr(self, name), f"twist entry {name}")
        if self.p * self.s - self.q * self.r != 1:
            raise ValueError(
                f"determinant of [[{self.p},{self.q}],[{self.r},{self.s}]] is not 1"
            )

    @classmethod
    def identity(cls) -> "SL2Z":
        return cls(1, 0, 0, 1)

    def inverse(self) -> "SL2Z":
        return SL2Z(self.s, -self.q, -self.r, self.p)

    def __matmul__(self, other: "SL2Z") -> "SL2Z":
        return SL2Z(
            self.p * other.p + self.q * other.r,
            self.p * other.q + self.q * other.s,
            self.r * other.p + self.s * other.r,
            self.r * other.q + self.s * other.s,
        )

    def push_circle(self, z: int, w: int) -> tuple[int, int]:
        """Pushforward on the first homology of the torus directions."""
        return (self.p * z + self.q * w, self.r * z + self.s * w)

    def to_json(self) -> list[list[int]]:
        return [[self.p, self.q], [self.r, self.s]]

    @classmethod
    def from_json(cls, data) -> "SL2Z":
        (p, q), (r, s) = data
        return cls(p, q, r, s)


@dataclass(frozen=True, order=True)
class SurgeryDescriptor:
    """Four twist coefficients and four determinant-one matrices, one per
    embedded 4-torus. Descriptors order by ``ks``, then by each twist's
    ``(p, q, r, s)``."""

    ks: tuple[int, int, int, int]
    taus: tuple[SL2Z, SL2Z, SL2Z, SL2Z]

    def __post_init__(self):
        if len(self.ks) != 4 or len(self.taus) != 4:
            raise ValueError("a descriptor carries exactly four surgeries")

    @classmethod
    def plain(cls, *ks: int) -> "SurgeryDescriptor":
        identity = SL2Z.identity()
        return cls(tuple(ks), (identity,) * 4)

    def to_json(self) -> dict:
        return {
            "surgeries": [
                {"k": k, "tau": tau.to_json()}
                for k, tau in zip(self.ks, self.taus)
            ]
        }

    @classmethod
    def from_json(cls, data) -> "SurgeryDescriptor":
        entries = data["surgeries"]
        if len(entries) != 4:
            raise ValueError("descriptor must list exactly four surgeries")
        for e in entries:
            _require_int(e["k"], "k")
        return cls(
            tuple(e["k"] for e in entries),
            tuple(SL2Z.from_json(e["tau"]) for e in entries),
        )


def relation_classes(descriptor: SurgeryDescriptor) -> list[list[int]]:
    """The four reattachment-circle classes in the rank-6 first homology of
    the complement, derived by composing pushforwards.

    The attaching circle carries class (meridian + k * w-circle); the twist
    acts on the (z, w) pair; the embedding sends z and w to coordinate
    circles per the catalog; the meridian dies in the complement because it
    bounds a punctured dual torus.
    """
    rows = []
    for k, tau, torus in zip(
        descriptor.ks, descriptor.taus, embedding_catalog()
    ):
        z, w = tau.push_circle(0, k)  # attaching circle: meridian + k*w
        row = [0] * AMBIENT_RANK
        row[torus.coordinate_of("z") - 1] += z
        row[torus.coordinate_of("w") - 1] += w
        rows.append(row)
    return rows


def h1(descriptor: SurgeryDescriptor) -> AbelianGroup:
    """First homology of the surgered manifold, read off its relation
    shape."""
    return shape_h1(relation_shape(descriptor))


def _slot_pair(k: int, tau: SL2Z) -> tuple[int, int]:
    return (abs(tau.q * k), abs(tau.s * k))


def relation_shape(descriptor: SurgeryDescriptor) -> tuple[tuple[int, int], ...]:
    """The sorted pairs (|q_i k_i|, |s_i k_i|): everything the first
    homology depends on.

    Relation row i is q_i k_i e_2 + s_i k_i e_{w_i}, with every z-circle at
    coordinate 2 and the w-circles at distinct coordinates. Negating e_{w_i}
    flips the sign of the second entry, negating the row flips both, and
    permuting rows together with their w-coordinates permutes the pairs;
    each is an isomorphism of the quotient.
    """
    return tuple(sorted(map(_slot_pair, descriptor.ks, descriptor.taus)))


def shape_h1(shape: Sequence[tuple[int, int]]) -> AbelianGroup:
    """Z^6 modulo the rows a_i e_2 + b_i e_{w_i}, one per pair (a_i, b_i)
    of a relation shape, by determinantal divisors (Smith's theorem).

    D_j, the gcd of the j x j minors, is the gcd over the j-subsets S of
    rows of prod_{i in S} b_i and of a_m prod_{i in S - m} b_i for m in S:
    any other minor has a zero row or two rows on e_2 alone. Since
    prod_S b = b_m prod_{S - m} b, D_j is the gcd of g_m prod_T b_i over
    the rows m and the (j - 1)-subsets T of the other rows, where
    g_m = gcd(a_m, b_m). Adding the rows one at a time, that gcd follows
    the recurrence of elementary symmetric functions. The invariant
    factors are D_j / D_{j-1}, up to the first D_j = 0.
    """
    # products[r]: gcd of the r-fold products of the b's added so far;
    # divisors[j]: D_j of the rows added so far.
    products = [1] + [0] * len(shape)
    divisors = [0] * (len(shape) + 1)
    for added, (a, b) in enumerate(shape, start=1):
        g = math.gcd(a, b)
        for j in range(added, 0, -1):
            divisors[j] = math.gcd(
                divisors[j], b * divisors[j - 1], g * products[j - 1]
            )
            products[j] = math.gcd(products[j], b * products[j - 1])
    factors = []
    previous = 1
    for divisor in itertools.takewhile(bool, divisors[1:]):
        factors.append(divisor // previous)
        previous = divisor
    return AbelianGroup(
        AMBIENT_RANK - len(factors), tuple(d for d in factors if d > 1)
    )


def min_product_b2(r: int) -> int:
    """Smallest second Betti number of a spin symplectic 4-manifold times a
    torus consistent with vanishing canonical class and b1 = r, derived
    from the signature and characteristic-number constraints at the
    smallest admissible signature defect."""
    if r not in (0, 1):
        raise ValueError("r must be 0 or 1")
    n = 1  # smallest multiple-of-16 signature defect compatible with b+ >= 1
    b_plus = 4 * n + r - 1
    b_minus = 5 * b_plus + 4 - 4 * r
    b2_four_manifold = b_plus + b_minus
    return b2_four_manifold + 2 * r + 1  # Kunneth: cross terms plus the torus


def product_obstruction(b1: int, b2_upper: int) -> str:
    """Obstructed when no spin product can fit under the b2 bound; the
    argument only applies for first Betti number 2 or 3."""
    if b1 < 0 or b2_upper < 0:
        raise ValueError("Betti numbers are non-negative")
    if b1 in (2, 3) and b2_upper < min_product_b2(b1 - 2):
        return OBSTRUCTED
    return UNKNOWN


class _H1Invariants:
    """The invariants that the first homology ``self.h1`` alone fixes."""

    euler = 0  # that of the 6-torus, which torus surgery keeps

    @property
    def b1(self) -> int:
        return self.h1.rank

    @property
    def bound_b2(self) -> int:
        return 15 + self.b1

    @property
    def bound_b3(self) -> int:
        # Euler characteristic zero: 0 = 2 - 2*b1 + 2*b2 - b3 <= 32 - b3.
        return 2 - 2 * self.b1 + 2 * self.bound_b2

    @property
    def kahler_obstructed(self) -> bool:
        return self.b1 % 2 == 1

    @property
    def product_status(self) -> str:
        return product_obstruction(self.b1, self.bound_b2)


@dataclass(frozen=True)
class SurgeryReport(_H1Invariants):
    """All invariants the construction pins down for one descriptor."""

    descriptor: SurgeryDescriptor
    h1: AbelianGroup

    @property
    def relations(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, relation_classes(self.descriptor)))

    def to_json(self) -> dict:
        return {
            "descriptor": self.descriptor.to_json(),
            "h1": self.h1.to_json(),
            "b1": self.b1,
            "bound_b2": self.bound_b2,
            "bound_b3": self.bound_b3,
            "euler": self.euler,
            "kahler_obstructed": self.kahler_obstructed,
            "product_status": self.product_status,
            "relations": [list(row) for row in self.relations],
        }


def report(descriptor: SurgeryDescriptor) -> SurgeryReport:
    return SurgeryReport(descriptor, h1(descriptor))


def realize(d1: int, d2: int, d3: int, d4: int) -> SurgeryDescriptor:
    """A descriptor whose first homology is Z^2 plus Z/d1 ... Z/d4
    (identity twists, k_i = d_i)."""
    for d in (d1, d2, d3, d4):
        if d < 0:
            raise ValueError("target torsion orders must be non-negative")
    return SurgeryDescriptor.plain(d1, d2, d3, d4)


@dataclass(frozen=True)
class SweepClass(_H1Invariants):
    """One isomorphism class found by a parameter sweep."""

    h1: AbelianGroup
    representative: SurgeryDescriptor
    count: int

    def to_json(self) -> dict:
        return {
            "h1": self.h1.to_json(),
            "b1": self.b1,
            "kahler_obstructed": self.kahler_obstructed,
            "product_status": self.product_status,
            "representative": self.representative.to_json(),
            "count": self.count,
        }


def sweep_descriptors(
    k_values: Sequence[int],
    tau_set: Sequence[SL2Z],
    slots: Sequence[int] | None = None,
    base_ks: tuple[int, int, int, int] = (0, 0, 0, 0),
) -> Iterable[SurgeryDescriptor]:
    """Grid of descriptors: the chosen slots range over k_values and every
    slot ranges over tau_set; the remaining k entries come from base_ks."""
    slots = tuple(slots) if slots is not None else (0, 1, 2, 3)
    for ks in itertools.product(k_values, repeat=len(slots)):
        full = list(base_ks)
        for slot, k in zip(slots, ks):
            full[slot] = k
        for taus in itertools.product(tau_set, repeat=4):
            yield SurgeryDescriptor(tuple(full), taus)


def _slot_table(
    k_values: Iterable[int], tau_set: Sequence[SL2Z]
) -> dict[tuple[int, int], list]:
    """pair -> [number of (k, tau) in the slot's grid giving that pair,
    smallest such (k, tau)]."""
    table: dict[tuple[int, int], list] = {}
    for k in k_values:
        for tau in tau_set:
            pair = _slot_pair(k, tau)
            entry = table.get(pair)
            if entry is None:
                table[pair] = [1, (k, tau)]
            else:
                entry[0] += 1
                entry[1] = min(entry[1], (k, tau))
    return table


def _arrangements(multiset: Sequence) -> int:
    """Distinct orderings of a sequence whose equal items are adjacent."""
    runs = [len(list(run)) for _, run in itertools.groupby(multiset)]
    return math.factorial(len(multiset)) // math.prod(map(math.factorial, runs))


def sweep(
    k_values: Sequence[int],
    tau_set: Sequence[SL2Z],
    slots: Sequence[int] | None = None,
    base_ks: tuple[int, int, int, int] = (0, 0, 0, 0),
) -> list[SweepClass]:
    """Invariant classes of the grid that ``sweep_descriptors`` lists, with
    each class's count and smallest descriptor, counted without building
    the grid's descriptors. Classes come out in the order of those
    descriptors.

    H1 depends only on the multiset of slot pairs (|q k|, |s k|) (see
    ``relation_shape``), so each slot's grid is reduced to a table
    pair -> [count, smallest (k, tau)]. When the four tables are equal
    (every slot ranges over the same grid), the sweep walks their
    4-multisets: each stands for its number of distinct orderings times
    the product of its counts of descriptors, and its smallest descriptor
    holds its four slot minima in (k, tau) order, because descriptors order
    by ``ks`` first and no slot can take a pair below that pair's smallest
    k. Otherwise it walks the product of the four tables, whose cells
    have the slot minima in slot order as their smallest descriptor. H1 is
    computed once per multiset or cell, and one entry is held per class.
    """
    varied = range(4) if slots is None else slots
    tables = [
        _slot_table(k_values if slot in varied else (base_ks[slot],), tau_set)
        for slot in range(4)
    ]
    if all(table == tables[0] for table in tables):
        # Entries in the order of their minima, so that every multiset
        # lists its minima sorted.
        entries = sorted(tables[0].items(), key=lambda item: item[1][1])
        cells = (
            (cell, _arrangements(cell))
            for cell in itertools.combinations_with_replacement(entries, 4)
        )
    else:
        cells = (
            (cell, 1)
            for cell in itertools.product(*(table.items() for table in tables))
        )
    groups: dict[AbelianGroup, list] = {}
    for cell, orderings in cells:
        group = shape_h1([pair for pair, _ in cell])
        count = orderings * math.prod(entry[0] for _, entry in cell)
        # (ks, taus) of the cell's smallest descriptor
        smallest = tuple(zip(*(entry[1] for _, entry in cell)))
        held = groups.get(group)
        if held is None:
            groups[group] = [smallest, count]
        else:
            held[1] += count
            if smallest < held[0]:
                held[0] = smallest
    return [
        SweepClass(group, SurgeryDescriptor(ks, taus), count)
        for group, ((ks, taus), count) in sorted(
            groups.items(), key=lambda item: item[1][0]
        )
    ]
