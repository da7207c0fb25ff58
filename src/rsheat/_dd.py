"""Dekker's error-free product, for double-double arithmetic.

``two_prod(a, b)`` returns (p, e) with p = fl(a*b) and p + e = a*b
exactly (barring underflow), by splitting each factor into two 26-bit
halves with ``SPLIT`` = 2^27 + 1.  The compensated Bessel series and the
trace's pole tail build on it; the series loop writes the same steps out.
"""

SPLIT = 134217729.0  # 2**27 + 1


def two_prod(a, b):
    p = a * b
    ca = SPLIT * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = SPLIT * b
    bhi = cb - (cb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err
