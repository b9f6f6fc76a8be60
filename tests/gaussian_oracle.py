"""Gaussian rational arithmetic on plain (re, im) pairs, for the test oracles.

Nothing here imports ``torus_surgery``: a scalar is a pair of ``int``s or
``Fraction``s, and a polynomial is a dict from exponent tuple to nonzero
pair. The library's kernel and its edge values are checked against these
definitions. ``pair_of`` reads any object with ``re`` and ``im``, such as
a value of a ``Polynomial.terms`` view.
"""

from fractions import Fraction

ZERO = (0, 0)
ONE = (1, 0)


def pair_of(value):
    """An ``int``, a ``Fraction`` or anything with ``re`` and ``im``."""
    if isinstance(value, (int, Fraction)):
        return value, 0
    return value.re, value.im


def add(u, v):
    return u[0] + v[0], u[1] + v[1]


def mul(u, v):
    (a, b), (c, d) = u, v
    return a * c - b * d, a * d + b * c


def div(u, v):
    """u / v as ``Fraction``s; ``ZeroDivisionError`` when v is zero."""
    (a, b), (c, d) = u, v
    norm = Fraction(c * c + d * d)
    if not norm:
        raise ZeroDivisionError("division by a zero pair")
    return (a * c + b * d) / norm, (b * c - a * d) / norm


def power(u, n):
    result = ONE
    for _ in range(n):
        result = mul(result, u)
    return result


def pairs(poly):
    """A ``Polynomial``'s ``terms`` view as a dict of pairs."""
    return {e: pair_of(c) for e, c in poly.terms.items()}


def plain_clean(p):
    return {e: c for e, c in p.items() if c != ZERO}


def plain_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = add(out.get(e, ZERO), c)
    return plain_clean(out)


def plain_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(u + v for u, v in zip(e1, e2))
            out[e] = add(out.get(e, ZERO), mul(c1, c2))
    return plain_clean(out)


def plain_evaluate(p, symbols, point):
    """The value of a dict of pairs at ``point``, symbol to scalar."""
    total = ZERO
    for exps, coeff in p.items():
        for sym, e in zip(symbols, exps):
            if e:
                coeff = mul(coeff, power(pair_of(point[sym]), e))
        total = add(total, coeff)
    return total
