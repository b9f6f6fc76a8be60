"""Exact matrix oracles and test matrices shared by the test modules.

Nothing here imports ``torus_surgery``: each oracle is an independent
definition (cofactor expansion, gcds of minors, a plain product) that the
library's eliminations are checked against.
"""

import itertools
import math

from hypothesis import strategies as st


def int_determinant(matrix):
    """Exact determinant by cofactor expansion along the first row
    (matrices are tiny). Entries may be ints or ``Fraction``s."""
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


def int_mat_mul(a, b):
    """Plain integer matrix product. A factor with no rows is taken to have
    no columns either, as the square transforms of an empty matrix do."""
    width = len(b[0]) if b else 0
    return [
        [sum(a[i][l] * b[l][j] for l in range(len(b))) for j in range(width)]
        for i in range(len(a))
    ]


def minor_gcd_invariant_factors(matrix):
    """d_k = gcd(k x k minors) / gcd((k-1) x (k-1) minors)."""
    m, n = len(matrix), len(matrix[0]) if matrix else 0
    factors = []
    previous = 1
    for size in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), size):
            for cols in itertools.combinations(range(n), size):
                sub = [[matrix[i][j] for j in cols] for i in rows]
                g = math.gcd(g, int_determinant(sub))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return factors


@st.composite
def small_matrices(draw, square=False):
    """Integer or Fraction matrices up to 5 x 5, zero-heavy so that row
    swaps, skipped pivot columns and singular matrices are common."""
    entries = draw(st.sampled_from((
        st.integers(min_value=-2, max_value=2),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
    )))
    m = draw(st.integers(min_value=1, max_value=5))
    n = m if square else draw(st.integers(min_value=1, max_value=5))
    return [[draw(entries) for _ in range(n)] for _ in range(m)]
