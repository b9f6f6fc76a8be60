"""Subtorus combinatorics, Smith normal form, and the complement certificate."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from torus_surgery.lattice import (
    COORDINATES,
    EMPTY,
    IMAG,
    MINUS_IMAG,
    MINUS_ONE,
    NON_TRANSVERSE,
    ONE,
    PRIMITIVE,
    AbelianGroup,
    CoordinateSubtorus,
    complement_betti,
    circle_class,
    embedding_catalog,
    find_dual_torus,
    intersect,
    is_dual_torus,
    lemma_matrix,
    quotient_group,
    rational_rank,
    snf,
    three_torus_catalog,
)

from matrix_oracles import (
    int_determinant,
    int_mat_mul,
    minor_gcd_invariant_factors,
    small_matrices,
)


class TestRoot8:
    def test_presentation(self):
        torus = CoordinateSubtorus(
            {1}, {2: ONE, 3: PRIMITIVE, 4: IMAG, 5: MINUS_ONE, 6: MINUS_IMAG}
        )
        assert str(torus) == "(S1, 1, zeta8^1, i, -1, -i)"

    def test_exponents_reduced_mod_8(self):
        fixed = {c: 9 for c in COORDINATES if c != 1}
        torus = CoordinateSubtorus({1}, fixed)
        assert torus == CoordinateSubtorus({1}, dict.fromkeys(fixed, PRIMITIVE))

    def test_direct_construction_reduces_and_copies(self):
        fixed = {c: 9 for c in COORDINATES if c != 1}
        torus = CoordinateSubtorus({1}, fixed)
        fixed[2] = ONE
        assert torus == CoordinateSubtorus({1}, dict.fromkeys(fixed, PRIMITIVE))
        with pytest.raises(TypeError):
            torus.fixed[2] = ONE


class TestSubtorus:
    def test_partition_enforced(self):
        with pytest.raises(ValueError):
            CoordinateSubtorus({1, 2}, {2: ONE, 3: ONE})
        with pytest.raises(ValueError):
            CoordinateSubtorus({1, 2}, {3: ONE})

    def test_presentation(self):
        torus = CoordinateSubtorus(
            {1, 4}, {2: MINUS_ONE, 3: MINUS_ONE, 5: MINUS_ONE, 6: MINUS_ONE}
        )
        assert str(torus) == "(S1, -1, -1, S1, -1, -1)"


class TestReadOnlyMappings:
    def test_catalog_refuses_item_assignment(self):
        torus = embedding_catalog()[0]
        with pytest.raises(TypeError):
            torus.subtorus.fixed[1] = IMAG
        with pytest.raises(TypeError):
            torus.labels["z"] = 3
        assert torus.subtorus.fixed[1] == ONE and torus.labels["z"] == 2


class TestIntersect:
    def test_empty_on_fixed_conflict(self):
        w1 = three_torus_catalog()[0]  # free {1,2,4}, others fixed -1
        e1 = embedding_catalog()[0].subtorus  # fixed 1:+1, 4:+1
        e2 = embedding_catalog()[1].subtorus  # fixed 1:i, 3:+1
        assert intersect(w1, e2) == EMPTY

    def test_transverse_circle(self):
        w1 = three_torus_catalog()[0]
        e1 = embedding_catalog()[0].subtorus
        outcome = intersect(w1, e1)
        assert isinstance(outcome, CoordinateSubtorus)
        assert outcome.dimension == 1
        assert outcome.free == frozenset({2})

    def test_self_intersection_is_non_transverse(self):
        w1 = three_torus_catalog()[0]
        assert intersect(w1, w1) == NON_TRANSVERSE

    def test_empty_takes_priority_over_non_transverse(self):
        a = CoordinateSubtorus({1}, {c: ONE for c in COORDINATES if c != 1})
        b = CoordinateSubtorus({1}, {c: MINUS_ONE for c in COORDINATES if c != 1})
        assert intersect(a, b) == EMPTY

    def test_symmetry(self):
        tori = [t.subtorus for t in embedding_catalog()] + list(three_torus_catalog())
        for a, b in itertools.combinations(tori, 2):
            assert intersect(a, b) == intersect(b, a)

    def test_dimension_law_on_transverse_pairs(self):
        for w in three_torus_catalog():
            for torus in embedding_catalog():
                outcome = intersect(w, torus.subtorus)
                if isinstance(outcome, CoordinateSubtorus):
                    assert outcome.dimension == w.dimension + 4 - 6


class TestCircleClass:
    def test_examples(self):
        embeddings = embedding_catalog()
        tori = three_torus_catalog()
        # W1 meets the first torus in its z-circle
        c = intersect(tori[0], embeddings[0].subtorus)
        assert circle_class(c, embeddings[0]) == [1, 0, 0, 0]
        # W5 (free {1,3,6}) meets the third torus in its s1-circle
        c = intersect(tori[4], embeddings[2].subtorus)
        assert circle_class(c, embeddings[2]) == [0, 0, 1, 0]

    def test_containment_enforced(self):
        embeddings = embedding_catalog()
        circle = CoordinateSubtorus(
            {2}, {c: MINUS_ONE for c in COORDINATES if c != 2}
        )
        with pytest.raises(ValueError):
            circle_class(circle, embeddings[0])  # fixed values disagree

    def test_dimension_enforced(self):
        embeddings = embedding_catalog()
        with pytest.raises(ValueError):
            circle_class(embeddings[0].subtorus, embeddings[0])


class TestLemmaMatrix:
    def test_shape_rank_and_factors(self):
        matrix = lemma_matrix()
        assert len(matrix) == 10 and all(len(row) == 16 for row in matrix)
        assert rational_rank(matrix) == 10
        assert snf(matrix).invariant_factors == [1] * 10
        assert all(v in (0, 1) for row in matrix for v in row)

    def test_known_rows(self):
        matrix = lemma_matrix()
        # W1 (free {1,2,4}) meets only the first torus, in its z-circle
        assert matrix[0] == [1, 0, 0, 0] + [0] * 12
        # W5 (free {1,3,6}) misses the first and fourth tori and meets the
        # second in its s2-circle and the third in its s1-circle
        assert matrix[4] == [0, 0, 0, 0] + [0, 0, 0, 1] + [0, 0, 1, 0] + [0, 0, 0, 0]

    def test_corrupted_catalog_is_non_transverse(self):
        # The eighth 3-torus with its fixed value at coordinate 3 set to +1.
        tori = list(three_torus_catalog())
        tori[7] = CoordinateSubtorus(tori[7].free, {**tori[7].fixed, 3: ONE})
        with pytest.raises(ValueError):
            lemma_matrix(three_tori=tori)

    def test_rank_invariant_under_row_negation(self):
        rng = random.Random(11)
        matrix = lemma_matrix()
        flipped = [
            [-v for v in row] if rng.random() < 0.5 else list(row)
            for row in matrix
        ]
        assert rational_rank(flipped) == 10
        assert snf(flipped).invariant_factors == [1] * 10


# -- independent oracle: every 2-torus over a five-value alphabet, accepted
# -- by comparing free sets and fixed values directly ------------------------

DUAL_ALPHABET = (ONE, PRIMITIVE, IMAG, MINUS_ONE, MINUS_IMAG)


def dual_torus_candidates():
    for free in itertools.combinations(COORDINATES, 2):
        rest = [c for c in COORDINATES if c not in free]
        for values in itertools.product(DUAL_ALPHABET, repeat=len(rest)):
            yield set(free), dict(zip(rest, values))


def accepted_as_dual(free, fixed, index, embeddings):
    """One transverse point with the index-th torus: complementary free
    sets. Missing any other torus: a coordinate both fix, with different
    values."""
    for j, torus in enumerate(embeddings):
        torus_free = torus.subtorus.free
        if j == index:
            if free & torus_free or free | torus_free != set(COORDINATES):
                return False
        elif all(fixed.get(c, m) == m for c, m in torus.subtorus.fixed.items()):
            return False
    return True


def candidate_key(candidate):
    """Free coordinates ascending, then each fixed value's exponent in
    coordinate order."""
    free, fixed = candidate
    return sorted(free), [(c, fixed[c]) for c in sorted(fixed)]


def least_dual_by_enumeration(index):
    embeddings = embedding_catalog()
    accepted = [
        (free, fixed) for free, fixed in dual_torus_candidates()
        if accepted_as_dual(free, fixed, index, embeddings)
    ]
    assert accepted, f"no candidate accepted for embedding {index + 1}"
    return CoordinateSubtorus(*min(accepted, key=candidate_key))


class TestDualTori:
    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_least_solution_of_exhaustive_enumeration(self, i):
        assert find_dual_torus(i) == least_dual_by_enumeration(i - 1)

    def test_found_for_each_embedding(self):
        embeddings = embedding_catalog()
        for i in (1, 2, 3, 4):
            dual = find_dual_torus(i)
            assert dual.dimension == 2
            assert dual.free == set(embeddings[i - 1].subtorus.fixed)
            assert is_dual_torus(dual, i - 1)

    def test_published_solution_for_first_embedding(self):
        candidate = CoordinateSubtorus(
            {1, 4}, {c: MINUS_ONE for c in (2, 3, 5, 6)}
        )
        assert is_dual_torus(candidate, 0)

    def test_index_validated(self):
        with pytest.raises(ValueError):
            find_dual_torus(5)

    def test_deterministic(self):
        assert find_dual_torus(2) == find_dual_torus(2)


class TestSmithNormalForm:
    def test_examples(self):
        assert snf([[1, 0], [0, 1]]).diagonal == [1, 1]
        assert snf([[2, 4], [6, 8]]).diagonal == [2, 4]
        assert snf([[0, 0], [0, 0]]).diagonal == [0, 0]
        assert snf([[2, 0], [0, 3]]).invariant_factors == [1, 6]

    def test_transforms_are_unimodular_and_consistent(self):
        matrix = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        result = snf(matrix)
        u = [list(r) for r in result.U]
        v = [list(r) for r in result.V]
        d = int_mat_mul(int_mat_mul(u, matrix), v)
        assert d == [list(r) for r in result.D]
        assert abs(int_determinant(u)) == 1
        assert abs(int_determinant(v)) == 1

    def test_transform_entries_stay_small(self):
        # Relation rows of k = (-145, 7, 8, 6) with every twist (1,-1,0,1).
        # A clearing pass that swaps rows and columns partway through grows
        # the transforms here to millions of bits.
        matrix = [
            [0, 145, -145, 0, 0, 0],
            [0, -7, 0, 7, 0, 0],
            [0, -8, 0, 0, 8, 0],
            [0, -6, 0, 0, 0, 6],
        ]
        result = snf(matrix)
        u = [list(r) for r in result.U]
        v = [list(r) for r in result.V]
        assert int_mat_mul(int_mat_mul(u, matrix), v) == [
            list(r) for r in result.D
        ]
        assert all(abs(x).bit_length() < 64 for row in u + v for x in row)
        assert result.invariant_factors == minor_gcd_invariant_factors(matrix)

    def test_property_suite_against_minor_gcd_oracle(self):
        rng = random.Random(20260823)
        for trial in range(120):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            matrix = [
                [rng.randint(-9, 9) for _ in range(n)] for _ in range(m)
            ]
            result = snf(matrix)
            u = [list(r) for r in result.U]
            v = [list(r) for r in result.V]
            assert int_mat_mul(int_mat_mul(u, matrix), v) == [
                list(r) for r in result.D
            ]
            assert abs(int_determinant(u)) == 1
            assert abs(int_determinant(v)) == 1
            diag = result.diagonal
            assert all(x >= 0 for x in diag)
            for a, b in zip(diag, diag[1:]):
                if a == 0:
                    assert b == 0
                else:
                    assert b % a == 0
            # off-diagonal must vanish
            for i, row in enumerate(result.D):
                for j, value in enumerate(row):
                    if i != j:
                        assert value == 0
            assert result.invariant_factors == minor_gcd_invariant_factors(
                matrix
            )

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError):
            snf([[1, 2], [3]])

    # The transforms ride in the borders of one working matrix, so shapes
    # with no rows, no columns or no pivot are where the border could break.
    @pytest.mark.parametrize(
        "matrix",
        [[], [[]], [[], []], [[0]], [[0, 0, 0], [0, 0, 0]], [[0], [0], [0]]],
        ids=["0x0", "1x0", "2x0", "1x1-zero", "2x3-zero", "3x1-zero"],
    )
    def test_edge_shapes(self, matrix):
        m, n = len(matrix), len(matrix[0]) if matrix else 0
        result = snf(matrix)
        u = [list(r) for r in result.U]
        v = [list(r) for r in result.V]
        assert (len(u), len(v)) == (m, n)
        assert all(len(row) == m for row in u) and all(len(row) == n for row in v)
        assert int_mat_mul(int_mat_mul(u, matrix), v) == [list(r) for r in result.D]
        assert [list(r) for r in result.D] == [[0] * n for _ in range(m)]
        assert abs(int_determinant(u)) == 1
        assert abs(int_determinant(v)) == 1
        assert result.invariant_factors == []
        assert rational_rank(matrix) == 0


def rank_by_minors(matrix):
    """Largest size of a nonzero minor."""
    m, n = len(matrix), len(matrix[0])
    for size in range(min(m, n), 0, -1):
        for rows in itertools.combinations(range(m), size):
            for cols in itertools.combinations(range(n), size):
                if int_determinant([[matrix[i][j] for j in cols] for i in rows]):
                    return size
    return 0


class TestRationalRank:
    """Rank over the rationals, read off the Smith normal form of the matrix
    cleared of denominators, against the largest nonzero minor."""

    @given(small_matrices())
    @settings(max_examples=100, deadline=None)
    def test_rank_matches_largest_nonzero_minor(self, matrix):
        assert rational_rank(matrix) == rank_by_minors(matrix)

    def test_clearing_denominators_keeps_rank(self):
        # Scaled by 6 this is [[3, 2], [9, 6]], whose invariant factor is 1.
        matrix = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]
        assert rational_rank(matrix) == 1


class TestAbelianGroup:
    def test_presentation(self):
        assert str(AbelianGroup(3, (5,))) == "Z^3 + Z/5"
        assert str(AbelianGroup(1, ())) == "Z"
        assert str(AbelianGroup(0, (2, 4))) == "Z/2 + Z/4"
        assert str(AbelianGroup(0, ())) == "0"

    def test_validation(self):
        with pytest.raises(ValueError):
            AbelianGroup(-1, ())
        with pytest.raises(ValueError):
            AbelianGroup(0, (4, 2))  # not a divisor chain
        with pytest.raises(ValueError):
            AbelianGroup(0, (1,))  # trivial factor not allowed

    @pytest.mark.parametrize(
        "rank, torsion", [(2.0, ()), (True, ()), (0, (2.0,)), (1, (2, True))], ids=repr
    )
    def test_integer_entries_enforced(self, rank, torsion):
        with pytest.raises(TypeError):
            AbelianGroup(rank, torsion)

    def test_json(self):
        assert AbelianGroup(2, (2, 6)).to_json() == {"rank": 2, "torsion": [2, 6]}


class TestQuotientGroup:
    def test_examples(self):
        assert quotient_group(6, []) == AbelianGroup(6, ())
        assert quotient_group(6, [[0, 5, 0, 0, 0, 0]]) == AbelianGroup(5, (5,))
        assert quotient_group(2, [[2, 0], [0, 2]]) == AbelianGroup(0, (2, 2))

    def test_row_shape_enforced(self):
        with pytest.raises(ValueError):
            quotient_group(3, [[1, 2]])

    def test_invariant_under_row_operations(self):
        rng = random.Random(5)
        for _ in range(30):
            relations = [
                [rng.randint(-6, 6) for _ in range(4)] for _ in range(3)
            ]
            baseline = quotient_group(4, relations)
            # add a multiple of one row to another
            i, j = rng.sample(range(3), 2)
            factor = rng.randint(-3, 3)
            modified = [list(r) for r in relations]
            modified[i] = [
                a + factor * b for a, b in zip(modified[i], modified[j])
            ]
            assert quotient_group(4, modified) == baseline


class TestComplementCertificate:
    def test_derived_values(self):
        cert = complement_betti()
        assert cert.rank == 10
        assert cert.invariant_factors == (1,) * 10
        assert cert.cokernel_rank == 6
        assert cert.b1 == 6
        assert cert.b2 == 17
        assert len(cert.dual_tori) == 4

    def test_dual_tori_are_valid(self):
        cert = complement_betti()
        for i, dual in enumerate(cert.dual_tori):
            assert is_dual_torus(dual, i)
