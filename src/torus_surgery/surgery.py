"""Surgery descriptors and the headline integer computations: relation
classes of the reattached 2-handles, first homology of the surgered
manifolds, Betti-number bounds, and the Kähler / product obstructions.
"""

from __future__ import annotations

import functools
import itertools
from math import gcd
from dataclasses import dataclass
from typing import Iterable, Sequence

from .lattice import COORDINATES, AbelianGroup, embedding_catalog, require_int

OBSTRUCTED = "obstructed"
UNKNOWN = "unknown"


@dataclass(frozen=True, order=True)
class SL2Z:
    """An integer 2x2 matrix [[p, q], [r, s]] of determinant one."""

    p: int
    q: int
    r: int
    s: int

    def __post_init__(self):
        for name in ("p", "q", "r", "s"):
            require_int(getattr(self, name), f"twist entry {name}")
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

    def to_json(self) -> list[list[int]]:
        return [[self.p, self.q], [self.r, self.s]]

    @classmethod
    def from_json(cls, data) -> "SL2Z":
        (p, q), (r, s) = data
        return cls(p, q, r, s)


@dataclass(frozen=True, order=True)
class SurgeryDescriptor:
    """Four integer twist coefficients and four ``SL2Z`` matrices, one per
    embedded 4-torus, held as tuples. Descriptors order by ``ks``, then by
    each twist's ``(p, q, r, s)``."""

    ks: tuple[int, int, int, int]
    taus: tuple[SL2Z, SL2Z, SL2Z, SL2Z]

    def __post_init__(self):
        ks, taus = tuple(self.ks), tuple(self.taus)
        if len(ks) != 4 or len(taus) != 4:
            raise ValueError("descriptor must list exactly four surgeries")
        for k in ks:
            if type(k) is not int:  # sweep builds one per class: skip the call
                require_int(k, "k")
        for tau in taus:
            if not isinstance(tau, SL2Z):
                raise TypeError(f"tau must be an SL2Z, got {tau!r}")
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "taus", taus)

    @classmethod
    def plain(cls, *ks: int) -> "SurgeryDescriptor":
        return cls(ks, (SL2Z.identity(),) * 4)

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
        return cls(
            tuple(e["k"] for e in entries),
            tuple(SL2Z.from_json(e["tau"]) for e in entries),
        )


def relation_classes(descriptor: SurgeryDescriptor) -> list[list[int]]:
    """The four reattachment-circle classes in the rank-6 first homology of
    the complement, derived by composing pushforwards.

    The attaching circle carries class (meridian + k * w-circle); the twist
    sends k times the w-circle to (q k, s k) on the (z, w) pair; the
    embedding sends z and w to coordinate circles per the catalog; the
    meridian dies in the complement because it bounds a punctured dual
    torus.
    """
    rows = []
    for k, tau, torus in zip(descriptor.ks, descriptor.taus, embedding_catalog()):
        row = [0] * len(COORDINATES)
        row[torus.labels["z"] - 1] += tau.q * k
        row[torus.labels["w"] - 1] += tau.s * k
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
    of a relation shape of at most four pairs, by determinantal divisors
    (Smith's theorem); a longer shape raises ValueError.

    D_j, the gcd of the j x j minors, is the gcd over the j-subsets S of
    rows of prod_{i in S} b_i and of a_m prod_{i in S - m} b_i for m in S:
    any other minor has a zero row or two rows on e_2 alone. Since
    prod_S b = b_m prod_{S - m} b, D_j is the gcd of g_m prod_T b_i over
    the rows m and the (j - 1)-subsets T of the other rows, where
    g_m = gcd(a_m, b_m). Adding the rows one at a time, that gcd follows
    the recurrence of elementary symmetric functions (``_add_row``).
    """
    if len(shape) > 4:
        raise ValueError(f"a relation shape has at most four pairs, got {len(shape)}")
    return _divisors_group(functools.reduce(_add_row, shape, _NO_ROWS)[4:])


#: (P_1, ..., P_4, D_1, ..., D_4) of no rows: P_r is the gcd of the r-fold
#: products of the b's added so far (P_0 = 1), D_j the gcd of their j x j
#: minors (D_0 = 0).
_NO_ROWS = (0,) * 8


def _add_row(state: tuple[int, ...], pair: tuple[int, int]) -> tuple[int, ...]:
    """The recurrence state after adding the row of ``pair``."""
    p1, p2, p3, p4, d1, d2, d3, d4 = state
    a, b = pair
    g = gcd(a, b)
    return (
        gcd(p1, b), gcd(p2, b * p1), gcd(p3, b * p2), gcd(p4, b * p3),
        gcd(d1, g), gcd(d2, b * d1, g * p1),
        gcd(d3, b * d2, g * p2), gcd(d4, b * d3, g * p3),
    )


def _divisors_group(divisors: tuple[int, ...]) -> AbelianGroup:
    """Z^6 modulo rows with determinantal divisors D_1, ..., D_4: the
    invariant factors are D_j / D_{j-1}, up to the first D_j = 0."""
    chain = (1, *itertools.takewhile(bool, divisors))
    factors = [d // previous for previous, d in zip(chain, chain[1:])]
    return AbelianGroup(
        len(COORDINATES) - len(factors), tuple(d for d in factors if d > 1)
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


def _varied_slots(slots: Sequence[int] | None, base_ks: Sequence[int]) -> tuple[int, ...]:
    """The slots a sweep varies; ``base_ks`` gives the k of every other one."""
    varied = (0, 1, 2, 3) if slots is None else tuple(slots)
    if len(set(varied)) != len(varied) or not set(varied) <= {0, 1, 2, 3}:
        raise ValueError(f"slots must be distinct and in 0..3, got {slots!r}")
    if len(base_ks) != 4:
        raise ValueError(f"base_ks must have exactly four entries, got {base_ks!r}")
    return varied


def sweep_descriptors(
    k_values: Sequence[int],
    tau_set: Sequence[SL2Z],
    slots: Sequence[int] | None = None,
    base_ks: tuple[int, int, int, int] = (0, 0, 0, 0),
) -> Iterable[SurgeryDescriptor]:
    """Grid of descriptors: the chosen slots range over k_values and every
    slot ranges over tau_set; the remaining k entries come from base_ks.
    A repeated slot, one outside 0..3, or a base_ks without four entries
    raises ValueError."""
    slots = _varied_slots(slots, base_ks)
    for ks in itertools.product(k_values, repeat=len(slots)):
        full = list(base_ks)
        for slot, k in zip(slots, ks):
            full[slot] = k
        for taus in itertools.product(tau_set, repeat=4):
            yield SurgeryDescriptor(full, taus)


def _slot_table(
    k_values: Iterable[int], tau_set: Sequence[SL2Z]
) -> dict[tuple[int, int], list]:
    """pair -> [number of (k, tau) in the slot's grid giving that pair,
    smallest such (k, tau)]."""
    table: dict[tuple[int, int], list] = {}
    for k in k_values:
        for tau in tau_set:
            entry = table.setdefault(_slot_pair(k, tau), [0, (k, tau)])
            entry[0] += 1
            entry[1] = min(entry[1], (k, tau))
    return table


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

    H1 depends only on the slot pairs (|q k|, |s k|) (see
    ``relation_shape``), so each slot's grid is reduced to a table
    pair -> [count, smallest (k, tau)]. The sweep folds the four tables
    into a map from the state of ``shape_h1``'s recurrence to
    [number of partial descriptors reaching it, smallest of them]: each
    slot takes one ``_add_row`` step per state and pair. This is exact
    because H1 depends only on the final state, and because descriptors
    order by ``ks``, then by ``taus``, so extending two partial
    descriptors by the same choices keeps their order. After the last
    slot only D_1, ..., D_4 are kept, one entry per class.
    """
    varied = _varied_slots(slots, base_ks)
    states = {_NO_ROWS: [1, ((), ())]}
    for slot in range(4):
        table = _slot_table(
            k_values if slot in varied else (base_ks[slot],), tau_set
        )
        kept = slice(4 if slot == 3 else 0, None)
        folded: dict[tuple[int, ...], list] = {}
        for state, (count, (ks, taus)) in states.items():
            for pair, (n, (k, tau)) in table.items():
                key = _add_row(state, pair)[kept]
                smallest = (ks + (k,), taus + (tau,))
                entry = folded.get(key)
                if entry is None:
                    folded[key] = [count * n, smallest]
                else:
                    entry[0] += count * n
                    if smallest < entry[1]:
                        entry[1] = smallest
        states = folded
    classes = []
    for divisors in sorted(states, key=lambda key: states[key][1]):
        count, smallest = states.pop(divisors)
        group = _divisors_group(divisors)
        classes.append(SweepClass(group, SurgeryDescriptor(*smallest), count))
    return classes
