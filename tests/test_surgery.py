"""Surgery descriptors, first homology, bounds, and obstructions."""

import functools
import itertools
import json
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from torus_surgery import surgery

from torus_surgery.lattice import AbelianGroup, quotient_group
from torus_surgery.surgery import (
    OBSTRUCTED,
    UNKNOWN,
    SL2Z,
    SurgeryDescriptor,
    h1,
    min_product_b2,
    product_obstruction,
    realize,
    relation_classes,
    relation_shape,
    report,
    shape_h1,
    sweep,
    sweep_descriptors,
)

# -- independent oracles ----------------------------------------------------

# slot i attaches along the w-circle of the i-th embedded torus; those
# circles sit at ambient coordinates 3, 4, 5, 6 while every z-label is
# coordinate 2
W_COORDINATES = (3, 4, 5, 6)


def closed_form_relations(descriptor):
    """Row i = k_i * (q_i * e2 + s_i * e_{c(i)})."""
    rows = []
    for k, tau, w_coord in zip(descriptor.ks, descriptor.taus, W_COORDINATES):
        row = [0] * 6
        row[1] = k * tau.q
        row[w_coord - 1] += k * tau.s
        rows.append(row)
    return rows


def normal_form_of_cyclic_sum(orders):
    """Invariant factors of Z/d1 + ... + Z/dm by repeated gcd/lcm pair
    reduction; zero means an infinite cyclic summand."""
    values = list(orders)
    changed = True
    while changed:
        changed = False
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                a, b = values[i], values[j]
                g = math.gcd(a, b)
                l = 0 if 0 in (a, b) else a * b // g if g else 0
                if (g, l) != (a, b):
                    values[i], values[j] = g, l
                    changed = True
    rank = values.count(0)
    torsion = sorted(v for v in values if v > 1)
    return rank, tuple(torsion)


def leibniz_determinant(matrix):
    """Sum over permutations of signed products."""
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)
        )
        term = -1 if inversions % 2 else 1
        for row, col in enumerate(perm):
            term *= matrix[row][col]
        total += term
    return total


@functools.lru_cache(maxsize=None)
def minor_gcd_group(rows):
    """(rank, torsion) of Z^6 modulo the rows, from the gcds of the j x j
    minors (the determinantal divisors)."""
    factors = []
    previous = 1
    for size in range(1, len(rows) + 1):
        g = 0
        for picked in itertools.combinations(rows, size):
            for cols in itertools.combinations(range(6), size):
                g = math.gcd(
                    g, leibniz_determinant([[r[c] for c in cols] for r in picked])
                )
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return 6 - len(factors), tuple(d for d in factors if d > 1)


def descriptor_order(d):
    return d.ks, tuple((t.p, t.q, t.r, t.s) for t in d.taus)


def oracle_sweep(descriptors):
    """(rank, torsion, representative, count) per class, grouping by the
    closed-form relations and their minor gcds, in representative order."""
    members = {}
    for d in descriptors:
        key = minor_gcd_group(tuple(map(tuple, closed_form_relations(d))))
        members.setdefault(key, []).append(d)
    classes = []
    for (rank, torsion), ds in members.items():
        rep = min(ds, key=descriptor_order)
        classes.append((descriptor_order(rep), rank, torsion, rep, len(ds)))
    return [c[1:] for c in sorted(classes)]


def count_calls(monkeypatch, name):
    """Wrap ``surgery.<name>`` for the test and return the list of the
    argument tuples it is called with."""
    calls = []
    original = getattr(surgery, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(surgery, name, wrapper)
    return calls


def random_sl2z(rng, bound=9):
    """Random word in the standard generators, rejected until all entries
    stay within the bound."""
    shear = SL2Z(1, 1, 0, 1)
    rot = SL2Z(0, -1, 1, 0)
    while True:
        result = SL2Z.identity()
        for _ in range(rng.randint(0, 6)):
            step = rng.choice([shear, shear.inverse(), rot])
            result = result @ step
        if max(abs(v) for v in (result.p, result.q, result.r, result.s)) <= bound:
            return result


class TestSL2Z:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            SL2Z(1, 0, 0, 2)
        with pytest.raises(ValueError):
            SL2Z(-1, 0, 0, 1)

    def test_integer_entries_enforced(self):
        for entries in ((1.0, 0, 0, 1), (True, 0, 0, True), ("1", 0, 0, 1)):
            with pytest.raises(TypeError):
                SL2Z(*entries)

    def test_inverse_and_product(self):
        tau = SL2Z(2, 3, 1, 2)
        assert tau @ tau.inverse() == SL2Z.identity()
        assert tau.inverse() @ tau == SL2Z.identity()

    def test_json_round_trip(self):
        tau = SL2Z(2, 3, 1, 2)
        assert SL2Z.from_json(json.loads(json.dumps(tau.to_json()))) == tau


class TestDescriptor:
    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            SurgeryDescriptor((1, 2, 3), (SL2Z.identity(),) * 3)

    def test_json_round_trip(self):
        descriptor = SurgeryDescriptor(
            (1, -2, 0, 9), (SL2Z(1, 1, 0, 1),) + (SL2Z.identity(),) * 3
        )
        data = json.loads(json.dumps(descriptor.to_json()))
        assert SurgeryDescriptor.from_json(data) == descriptor

    def test_from_json_validates_length(self):
        with pytest.raises(ValueError):
            SurgeryDescriptor.from_json({"surgeries": []})


class TestRelationClasses:
    def test_identity_twists_give_diagonal_rows(self):
        descriptor = SurgeryDescriptor.plain(1, 2, 3, 4)
        assert relation_classes(descriptor) == [
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 2, 0, 0],
            [0, 0, 0, 0, 3, 0],
            [0, 0, 0, 0, 0, 4],
        ]

    def test_shear_mixes_in_the_z_circle(self):
        taus = (SL2Z(1, 1, 0, 1),) + (SL2Z.identity(),) * 3
        descriptor = SurgeryDescriptor((2, 0, 0, 0), taus)
        assert relation_classes(descriptor)[0] == [0, 2, 2, 0, 0, 0]

    def test_first_column_always_zero(self):
        rng = random.Random(3)
        for _ in range(50):
            descriptor = SurgeryDescriptor(
                tuple(rng.randint(-9, 9) for _ in range(4)),
                tuple(random_sl2z(rng) for _ in range(4)),
            )
            assert all(row[0] == 0 for row in relation_classes(descriptor))

    def test_matches_closed_form_oracle(self):
        rng = random.Random(99)
        for _ in range(300):
            descriptor = SurgeryDescriptor(
                tuple(rng.randint(-9, 9) for _ in range(4)),
                tuple(random_sl2z(rng) for _ in range(4)),
            )
            assert relation_classes(descriptor) == closed_form_relations(
                descriptor
            )


def random_descriptor(rng, k_bound=12):
    return SurgeryDescriptor(
        tuple(rng.randint(-k_bound, k_bound) for _ in range(4)),
        tuple(random_sl2z(rng) for _ in range(4)),
    )


class TestFirstHomology:
    def test_matches_minor_gcd_oracle(self):
        rng = random.Random(61)
        for _ in range(200):
            descriptor = random_descriptor(rng)
            rows = tuple(map(tuple, closed_form_relations(descriptor)))
            assert h1(descriptor) == AbelianGroup(*minor_gcd_group(rows))

    def test_matches_snf_quotient(self):
        rng = random.Random(67)
        for _ in range(1000):
            descriptor = random_descriptor(rng)
            assert h1(descriptor) == quotient_group(
                6, relation_classes(descriptor)
            )

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=4
        )
    )
    def test_shape_matches_minor_gcd_oracle(self, shape):
        # Row i of the "arrow" matrix: a_i e_2 + b_i e_{w_i}, any pairs,
        # zeros included, and fewer than four rows.
        rows = []
        for (a, b), w in zip(shape, W_COORDINATES):
            row = [0] * 6
            row[1] = a
            row[w - 1] = b
            rows.append(tuple(row))
        assert shape_h1(shape) == AbelianGroup(*minor_gcd_group(tuple(rows)))

    def test_at_most_four_pairs(self):
        assert shape_h1([(1, 2)] * 4) == AbelianGroup(2, (2, 2, 2))
        with pytest.raises(ValueError, match="at most four pairs"):
            shape_h1([(1, 2)] * 5)

    def test_examples(self):
        assert h1(SurgeryDescriptor.plain(0, 5, 1, 1)) == AbelianGroup(3, (5,))
        assert h1(SurgeryDescriptor.plain(0, 0, 0, 0)) == AbelianGroup(6, ())
        assert h1(SurgeryDescriptor.plain(2, 3, 0, 0)) == AbelianGroup(4, (6,))

    def test_rank_bounds(self):
        rng = random.Random(17)
        for _ in range(60):
            descriptor = SurgeryDescriptor(
                tuple(rng.randint(-6, 6) for _ in range(4)),
                tuple(random_sl2z(rng) for _ in range(4)),
            )
            group = h1(descriptor)
            assert 2 <= group.rank <= 6

    def test_invariant_under_k_negation(self):
        rng = random.Random(23)
        for _ in range(40):
            ks = tuple(rng.randint(-6, 6) for _ in range(4))
            taus = tuple(random_sl2z(rng) for _ in range(4))
            slot = rng.randrange(4)
            flipped = tuple(
                -k if i == slot else k for i, k in enumerate(ks)
            )
            assert h1(SurgeryDescriptor(ks, taus)) == h1(
                SurgeryDescriptor(flipped, taus)
            )

    def test_invariant_under_tau_negation(self):
        rng = random.Random(29)
        for _ in range(40):
            ks = tuple(rng.randint(-6, 6) for _ in range(4))
            taus = list(random_sl2z(rng) for _ in range(4))
            slot = rng.randrange(4)
            t = taus[slot]
            negated = list(taus)
            negated[slot] = SL2Z(-t.p, -t.q, -t.r, -t.s)
            assert h1(SurgeryDescriptor(ks, tuple(taus))) == h1(
                SurgeryDescriptor(ks, tuple(negated))
            )


def e_w_flipped(tau):
    """A twist whose relation row has the e_w entry negated: (-p, q, r, -s)
    has determinant ps - qr = 1 and pushes k*w to (q k, -s k)."""
    return SL2Z(-tau.p, tau.q, tau.r, -tau.s)


class TestRelationShape:
    """H1 is unchanged by the moves the relation shape forgets, so the shape
    is a sound key for H1 whatever the embedding catalog says."""

    def random_descriptor(self, rng):
        return SurgeryDescriptor(
            tuple(rng.randint(-7, 7) for _ in range(4)),
            tuple(random_sl2z(rng) for _ in range(4)),
        )

    def test_row_sign_flip(self):
        rng = random.Random(41)
        for _ in range(60):
            d = self.random_descriptor(rng)
            slot = rng.randrange(4)
            ks = tuple(-k if i == slot else k for i, k in enumerate(d.ks))
            flipped = SurgeryDescriptor(ks, d.taus)
            assert relation_classes(flipped)[slot] == [
                -v for v in relation_classes(d)[slot]
            ]
            assert relation_shape(flipped) == relation_shape(d)
            assert h1(flipped) == h1(d)

    def test_e_w_sign_flip(self):
        rng = random.Random(43)
        for _ in range(60):
            d = self.random_descriptor(rng)
            slot = rng.randrange(4)
            taus = tuple(
                e_w_flipped(t) if i == slot else t for i, t in enumerate(d.taus)
            )
            flipped = SurgeryDescriptor(d.ks, taus)
            row = relation_classes(d)[slot]
            flipped_row = relation_classes(flipped)[slot]
            w = W_COORDINATES[slot] - 1
            assert flipped_row[w] == -row[w]
            assert flipped_row[:w] + flipped_row[w + 1:] == row[:w] + row[w + 1:]
            assert relation_shape(flipped) == relation_shape(d)
            assert h1(flipped) == h1(d)

    def test_slot_permutation(self):
        rng = random.Random(47)
        for _ in range(60):
            d = self.random_descriptor(rng)
            order = rng.sample(range(4), 4)
            permuted = SurgeryDescriptor(
                tuple(d.ks[i] for i in order), tuple(d.taus[i] for i in order)
            )
            assert relation_shape(permuted) == relation_shape(d)
            assert h1(permuted) == h1(d)

    def test_equal_shapes_have_equal_h1(self):
        rng = random.Random(53)
        seen = {}
        repeats = 0
        for _ in range(3000):
            d = SurgeryDescriptor(
                tuple(rng.choice((0, 0, 1, -1, 2, -3, 4, 6)) for _ in range(4)),
                tuple(random_sl2z(rng, bound=3) for _ in range(4)),
            )
            shape = relation_shape(d)
            if shape in seen:
                repeats += 1
                assert h1(d) == seen[shape]
            else:
                seen[shape] = h1(d)
        assert repeats > 500


class TestObstructions:
    def test_min_product_b2(self):
        assert min_product_b2(0) == 23
        assert min_product_b2(1) == 27
        with pytest.raises(ValueError):
            min_product_b2(2)

    def test_internal_signature_bookkeeping(self):
        # at the smallest admissible defect: b+ = 3, b- = 19, signature -16
        r = 0
        b_plus = 4 * 1 + r - 1
        b_minus = 5 * b_plus + 4 - 4 * r
        assert (b_plus, b_minus, b_plus - b_minus) == (3, 19, -16)
        assert min_product_b2(0) == b_plus + b_minus + 1

    def test_product_obstruction_examples(self):
        assert product_obstruction(2, 18) == OBSTRUCTED
        assert product_obstruction(3, 18) == OBSTRUCTED
        assert product_obstruction(6, 21) == UNKNOWN

    def test_monotone_in_the_bound(self):
        for b1 in (2, 3):
            for b2 in range(0, 40):
                if product_obstruction(b1, b2) == OBSTRUCTED:
                    assert all(
                        product_obstruction(b1, lower) == OBSTRUCTED
                        for lower in range(0, b2)
                    )

    def test_validation(self):
        with pytest.raises(ValueError):
            product_obstruction(-1, 10)


class TestReport:
    def test_theorem_family_member(self):
        rep = report(realize(0, 5, 1, 1))
        assert rep.h1 == AbelianGroup(3, (5,))
        assert rep.b1 == 3
        assert rep.bound_b2 == 18
        assert rep.bound_b3 == 32
        assert rep.euler == 0
        assert rep.kahler_obstructed
        assert rep.product_status == OBSTRUCTED

    def test_trivial_descriptor(self):
        rep = report(SurgeryDescriptor.plain(0, 0, 0, 0))
        assert rep.h1 == AbelianGroup(6, ())
        assert rep.b1 == 6
        assert not rep.kahler_obstructed
        assert rep.product_status == UNKNOWN

    def test_json_round_trip(self):
        rep = report(realize(2, 3, 4, 5))
        data = json.loads(json.dumps(rep.to_json()))
        assert data["h1"] == rep.h1.to_json()
        assert SurgeryDescriptor.from_json(data["descriptor"]) == rep.descriptor


class TestRealize:
    def test_plain_targets(self):
        descriptor = realize(0, 5, 1, 1)
        assert descriptor.ks == (0, 5, 1, 1)
        assert all(t == SL2Z.identity() for t in descriptor.taus)

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            realize(-1, 0, 0, 0)

    def test_group_matches_cyclic_sum_oracle(self):
        rng = random.Random(41)
        for _ in range(120):
            targets = tuple(rng.randint(0, 10) for _ in range(4))
            group = h1(realize(*targets))
            rank, torsion = normal_form_of_cyclic_sum(targets)
            assert group == AbelianGroup(2 + rank, torsion)

    def test_non_invariant_factor_targets_normalized(self):
        group = h1(realize(2, 3, 4, 5))
        assert group == AbelianGroup(2, (2, 60))
        # the literal factor list (2, 3, 4, 5) is not a divisor chain, so
        # the isomorphism test must go through normal forms
        assert normal_form_of_cyclic_sum((2, 3, 4, 5)) == (0, (2, 60))


class TestSweep:
    def test_binary_grid(self):
        classes = sweep(range(0, 2), [SL2Z.identity()])
        by_rank = {c.b1: c.count for c in classes}
        assert by_rank == {6: 1, 5: 4, 4: 6, 3: 4, 2: 1}
        assert all(not c.h1.torsion for c in classes)

    def test_single_slot_family(self):
        classes = sweep(
            range(2, 11), [SL2Z.identity()], slots=[0], base_ks=(0, 1, 1, 1)
        )
        assert len(classes) == 9
        groups = {c.h1 for c in classes}
        assert groups == {AbelianGroup(2, (n,)) for n in range(2, 11)}

    def test_empty_tau_set(self):
        assert sweep(range(0, 2), []) == []
        assert sweep(range(0, 2), [], slots=[1], base_ks=(1, 2, 3, 4)) == []

    @pytest.mark.parametrize("slots", [[0, 0], [-1], [4], [5], [1, 2, 2]])
    def test_bad_slots_rejected(self, slots):
        # A repeated slot would count its descriptors twice, and one outside
        # 0..3 would index base_ks from the end or past it.
        with pytest.raises(ValueError, match="slots"):
            sweep(range(0, 3), [SL2Z.identity()], slots=slots)
        with pytest.raises(ValueError, match="slots"):
            list(sweep_descriptors(range(0, 3), [SL2Z.identity()], slots=slots))

    def test_deterministic_order(self):
        # The order in which k values, twists and varied slots are listed
        # does not change the classes, their order or their representatives.
        taus = [SL2Z.identity(), SL2Z(1, 1, 0, 1), SL2Z(2, 3, 1, 2)]
        for slots in (None, [0], [2, 0]):
            first = [c.to_json() for c in sweep(range(-1, 2), taus, slots=slots)]
            second = [
                c.to_json()
                for c in sweep(
                    range(1, -2, -1),
                    taus[::-1],
                    slots=None if slots is None else slots[::-1],
                )
            ]
            assert first == second

    def test_holds_one_descriptor_per_class(self, monkeypatch):
        # Every descriptor with k = 0 lands in the class H1 = Z^6, whatever
        # its twists: 500^4 descriptors, one class, one descriptor built.
        built = count_calls(monkeypatch, "SurgeryDescriptor")
        taus = [SL2Z(1, q, 0, 1) for q in range(499, -1, -1)]
        (only,) = sweep([0], taus)
        assert only.count == 500**4
        assert only.representative == SurgeryDescriptor.plain(0, 0, 0, 0)
        assert len(built) == 1


TWIST_POOL = (
    SL2Z.identity(),  # q = 0
    SL2Z(0, -1, 1, 0),  # rotation: s = 0
    SL2Z(1, 1, 0, 1),
    SL2Z(1, -1, 0, 1),
    SL2Z(1, 0, 1, 1),  # q = 0
    SL2Z(2, 3, 1, 2),
    SL2Z(-1, 0, 0, -1),
    SL2Z(2, 1, 1, 1),
)

# Twist lists may be empty and may list a twist twice; such a twist counts
# twice, as it does in sweep_descriptors.
twist_lists = st.lists(st.sampled_from(TWIST_POOL), max_size=3)

small_grids = st.tuples(
    st.integers(-3, 2),
    st.integers(1, 3),
    twist_lists.filter(lambda taus: len(taus) < 3),
    st.none() | st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True),
    st.tuples(*[st.integers(-4, 4)] * 4),
)


def assert_matches_oracle(classes, descriptors):
    expected = oracle_sweep(descriptors)
    assert [
        (c.h1.rank, c.h1.torsion, c.representative, c.count) for c in classes
    ] == expected
    for c in classes:
        assert c.b1 == c.h1.rank
        assert c.kahler_obstructed == (c.b1 % 2 == 1)


class TestSweepOracle:
    """sweep against grouping the descriptors that sweep_descriptors lists
    by the closed-form relations' minor gcds."""

    @staticmethod
    def check(k_values, taus, slots=None, base_ks=(0, 0, 0, 0)):
        descriptors = list(
            sweep_descriptors(k_values, taus, slots=slots, base_ks=base_ks)
        )
        classes = sweep(k_values, taus, slots=slots, base_ks=base_ks)
        assert_matches_oracle(classes, descriptors)

    @settings(max_examples=60, deadline=None)
    @given(grid=small_grids)
    # one slot varied, the others held at non-zero k
    @example(grid=(-2, 3, [TWIST_POOL[2], TWIST_POOL[5]], [2], (-2, 5, 0, 7)))
    # a twist listed twice
    @example(grid=(-1, 3, [TWIST_POOL[5], TWIST_POOL[5]], None, (0, 0, 0, 0)))
    # no twists
    @example(grid=(0, 2, [], [1], (1, 2, 3, 4)))
    # a single k value
    @example(grid=(-3, 1, [TWIST_POOL[1], TWIST_POOL[3]], None, (0, 0, 0, 0)))
    def test_small_grids(self, grid):
        k_min, k_count, taus, slots, base_ks = grid
        self.check(range(k_min, k_min + k_count), taus, slots, base_ks)

    @settings(max_examples=25, deadline=None)
    @given(k_min=st.integers(-4, 2), k_count=st.integers(1, 4), taus=twist_lists)
    def test_full_grids(self, k_min, k_count, taus):
        # Every slot varies over the same k values and twists.
        # At most six (k, tau) per slot keeps the oracle's grid small.
        assume(k_count * len(taus) <= 6)
        self.check(range(k_min, k_min + k_count), taus)


class TestSweepShapeTable:
    """The work a sweep does is bounded by its recurrence states and
    classes, not by its grid."""

    # 3 k values and 3 twists per slot: 9^4 = 6561 descriptors.
    GRID = dict(k_values=range(-1, 2), tau_set=TWIST_POOL[:3])

    def test_steps_bounded_and_no_report(self, monkeypatch):
        # One recurrence step per reachable state and slot pair: a few
        # dozen steps for the whole grid, and no report per class.
        descriptors = list(sweep_descriptors(**self.GRID))
        steps = count_calls(monkeypatch, "_add_row")
        report_calls = count_calls(monkeypatch, "report")
        sweep(**self.GRID)
        assert 0 < len(steps) < len(descriptors) // 100
        assert report_calls == []

    def test_no_descriptor_per_grid_point(self, monkeypatch):
        built = count_calls(monkeypatch, "SurgeryDescriptor")
        classes = sweep(**self.GRID)
        assert sum(c.count for c in classes) == 9**4
        assert len(built) == len(classes) < 9**4 // 100
