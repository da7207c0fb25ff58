"""Minimal double-double arithmetic for compensated series summation.

A double-double value is a tuple ``(hi, lo)`` with ``hi + lo`` the intended
value and ``|lo| <= ulp(hi)/2``, giving roughly 32 significant decimal
digits.  Only the handful of operations needed by the Bessel power series
are provided.  Algorithms are the classical error-free transformations
(Knuth two-sum, Dekker split product).
"""

_SPLIT = 134217729.0  # 2**27 + 1


def two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_two_sum(a, b):
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def two_prod(a, b):
    p = a * b
    ca = _SPLIT * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLIT * b
    bhi = cb - (cb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def dd_add(x, y):
    s, e = two_sum(x[0], y[0])
    e += x[1] + y[1]
    return quick_two_sum(s, e)


def dd_mul(x, y):
    p, e = two_prod(x[0], y[0])
    e += x[0] * y[1] + x[1] * y[0]
    return quick_two_sum(p, e)


def dd_mul_d(x, a):
    p, e = two_prod(x[0], a)
    e += x[1] * a
    return quick_two_sum(p, e)


def dd_div_d(x, a):
    q1 = x[0] / a
    p, e = two_prod(q1, a)
    q2 = ((x[0] - p) - e + x[1]) / a
    return quick_two_sum(q1, q2)


def dd_sqr_d(a):
    """Exact (hi, lo) representation of a*a for a double a."""
    return two_prod(a, a)
