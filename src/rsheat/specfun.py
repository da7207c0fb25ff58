"""From-scratch real-argument Bessel functions I0, I1, K0, K1, J0, J1, Y0, Y1.

Every other module of the package evaluates its kernels through these
routines, so accuracy targets are strict: relative error ~1e-13 for the
exponential family (I, K) and absolute error ~1e-12 for the oscillatory
family (J, Y) on the working ranges.

The module is organised by representation, not by function:

* power series for small argument: ``_jy_series(n, z)`` is the one
  compensated double-double loop of the alternating J/Y series for both
  orders (plain double loses ~6 digits to cancellation near the
  crossover); it sums J_n and the regular part of Y_n from the same
  terms, so J_n and Y_n cost one loop.  The positive-term I/K series are
  plain per-order loops;
* Hankel asymptotic series for large argument, truncated at the smallest
  term (the divergence floor ~exp(-2z) is below 1e-13 for z >= 16), one
  routine per family for both orders: ``_jy_asym(n, z)`` returns J_n and
  Y_n from one P/Q sum; ``_i_asym_scaled`` and ``_k_asym_scaled`` take
  mu = 4 nu^2;
* for K0/K1 on the middle range (1, 16) neither of the above reaches
  1e-13 in double precision, so the integral representation
  e^z K_nu(z) = int_0^inf exp(-2 z sinh^2(u/2)) cosh(nu u) du
  is evaluated by the geometrically convergent trapezoid rule.

``_j0_y0_fused`` also returns J0 - 1 and the regular part of Y0 at full
relative accuracy for the interval spectrum.  ``i0_scaled_checked`` adds
an error estimate to e^{-z} I0(z), which bounds the Friedrichs part of a
trace's ``est_error``.

Scaled variants e^{-z} I(z), e^{z} K(z) are first-class API so callers can
form products like I0(z) e^{-w} without overflow for z up to ~1e6.

All functions are pure and hold no mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._dd import (
    dd_add,
    dd_div_d,
    dd_mul,
    dd_mul_d,
    dd_sqr_d,
)
from .errors import DomainError

# Euler-Mascheroni constant and log 2 to 25 significant digits.  All
# boundary-constant arithmetic elsewhere in the package routes through
# these two literals.
EULER_GAMMA = 0.5772156649015328606065121
LN2 = 0.6931471805599453094172321

_SERIES_CUTOFF = 16.0  # power series below, Hankel asymptotics above
_K_SERIES_CUTOFF = 1.0  # K0/K1 log-series safe (no cancellation) below


@dataclass(frozen=True)
class SpecfunResult:
    """Value plus a conservative absolute error estimate."""

    value: float
    est_abs_error: float


def _check_domain(z, name, positive=False):
    if not isinstance(z, (int, float)) or isinstance(z, bool):
        raise DomainError(f"{name}: argument must be a real number, got {z!r}")
    z = float(z)
    if math.isnan(z) or math.isinf(z):
        raise DomainError(f"{name}: argument must be finite, got {z!r}")
    if positive:
        if z <= 0.0:
            raise DomainError(f"{name}: argument must be > 0, got {z!r}")
    elif z < 0.0:
        raise DomainError(f"{name}: argument must be >= 0, got {z!r}")
    return z


# ----------------------------------------------------------------------
# power series (regular, all-positive-term: plain compensated summation)
# ----------------------------------------------------------------------

def _i0_series(z):
    # I0(z) = sum_k (z^2/4)^k / (k!)^2, positive terms
    u = 0.25 * z * z
    term = 1.0
    total = 1.0
    comp = 0.0
    k = 0
    while True:
        k += 1
        term *= u / (k * k)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if term < 1e-17 * total or k > 400:
            return total


def _i1_series(z):
    # I1(z) = (z/2) sum_k (z^2/4)^k / (k! (k+1)!)
    u = 0.25 * z * z
    term = 1.0
    total = 1.0
    k = 0
    while True:
        k += 1
        term *= u / (k * (k + 1))
        total += term
        if term < 1e-17 * total or k > 400:
            return 0.5 * z * total


def _k0_series(z):
    # K0 = S2 - (log(z/2)+gamma) I0,  S2 = sum_{k>=1} H_k u^k/(k!)^2.
    # For z <= ~1.12 the two parts have the same sign: no cancellation.
    ell = math.log(0.5 * z) + EULER_GAMMA
    return _k0_s2(z) - ell * _i0_series(z)


def _k0_s2(z):
    """S2 = sum_{k>=1} H_k (z^2/4)^k/(k!)^2, the regular part of K0."""
    u = 0.25 * z * z
    p = 1.0
    h = 0.0
    s2 = 0.0
    k = 0
    while True:
        k += 1
        p *= u / (k * k)
        h += 1.0 / k
        term = p * h
        s2 += term
        if term < 1e-18 * (s2 + 1.0) or k > 300:
            return s2


def _k1_series(z):
    # K1 = 1/z + (log(z/2)+gamma) I1 - (z/4) sum_k (H_k+H_{k+1}) u^k/(k!(k+1)!)
    u = 0.25 * z * z
    p = 1.0
    hk = 0.0
    hk1 = 1.0
    s1 = hk + hk1
    k = 0
    while True:
        k += 1
        p *= u / (k * (k + 1))
        hk += 1.0 / k
        hk1 += 1.0 / (k + 1)
        term = p * (hk + hk1)
        s1 += term
        if term < 1e-18 * s1 or k > 300:
            break
    ell = math.log(0.5 * z) + EULER_GAMMA
    return 1.0 / z + ell * _i1_series(z) - 0.25 * z * s1


# ----------------------------------------------------------------------
# compensated power series for the oscillatory family
# ----------------------------------------------------------------------

def _jy_series(n, z, regular=True):
    """(J_n, Y_n, j, r) at z on the series path, n in {0, 1}, from one loop.

    Both sums share p_k = (-u)^k/(k!(k+n)!), u = z^2/4, in double-double:
    j = sum_{k>=0} p_k (so J0 = j, J1 = (z/2) j) and the regular sum
    r = sum_k w_k p_k with w_k = H_k (n = 0) or H_k + H_{k+1} (n = 1):

        Y0 = (2/pi)[(log(z/2)+gamma) J0 - r]
        Y1 = (2/pi)[(log(z/2)+gamma) J1 - 1/z - (z/4) r]

    Each sum stops on its own rule, so J_n does not depend on ``regular``;
    with ``regular=False`` only j is summed and Y_n and r are None.  The
    pair j = (hi, lo) keeps J0 - 1 = (hi - 1) + lo accurate as z -> 0.
    """
    one = (1.0, 0.0)
    u = dd_mul_d(dd_sqr_d(z), 0.25)
    p = j = one
    h = (0.0, 0.0)  # H_k
    h1 = one  # H_{k+1}, order 1 only
    s = (float(n), 0.0)  # k = 0 term: w_0 = n
    j_done, s_done = False, not regular
    k = 0
    while not (j_done and s_done):
        k += 1
        p = dd_div_d(dd_mul(p, u), -float(k * (k + n)))
        if not j_done:
            j = dd_add(j, p)
            j_done = abs(p[0]) < 1e-34 * (abs(j[0]) + 1.0) or k > 400
        if not s_done:
            h = dd_add(h, dd_div_d(one, float(k)))
            if n:
                h1 = dd_add(h1, dd_div_d(one, float(k + 1)))
                term = dd_mul(p, dd_add(h, h1))
            else:
                term = dd_mul(p, h)
            s = dd_add(s, term)
            s_done = abs(term[0]) < 1e-34 * (abs(s[0]) + 1.0) or k > 400
    jn = j[0] + j[1] if n == 0 else 0.5 * z * (j[0] + j[1])
    if not regular:
        return jn, None, j, None
    r = s[0] + s[1]
    ell = math.log(0.5 * z) + EULER_GAMMA
    if n == 0:
        return jn, (2.0 / math.pi) * (ell * jn - r), j, r
    return jn, (2.0 / math.pi) * (ell * jn - 1.0 / z - 0.25 * z * r), j, r


# ----------------------------------------------------------------------
# Hankel asymptotic series
# ----------------------------------------------------------------------

def _hankel_terms(mu, z):
    """Yield a_m = prod_{j<=m} (mu-(2j-1)^2) / (m! (8z)^m), m = 0, 1, ..."""
    a = 1.0
    m = 0
    yield a
    while True:
        m += 1
        a *= (mu - (2 * m - 1) ** 2) / (m * 8.0 * z)
        yield a


def _ik_asym_sum(mu, z, alternate):
    """Sum the I/K asymptotic series to its smallest term.

    Returns (sum, |smallest term|).  ``alternate`` applies the extra
    (-1)^m of the I-family.
    """
    total = 0.0
    prev = math.inf
    smallest = math.inf
    sign = 1.0
    for m, a in enumerate(_hankel_terms(mu, z)):
        t = sign * a if alternate else a
        if abs(a) >= prev or m > 60:
            smallest = prev
            break
        total += t
        prev = abs(a)
        if abs(a) < 1e-18:
            smallest = abs(a)
            break
        sign = -sign
    return total, smallest


def _i_asym_scaled(mu, z):
    """e^{-z} I_nu(z), mu = 4 nu^2, from the Hankel series."""
    s, _ = _ik_asym_sum(mu, z, alternate=True)
    return s / math.sqrt(2.0 * math.pi * z)


def _k_asym_scaled(mu, z):
    """e^{z} K_nu(z), mu = 4 nu^2, from the Hankel series."""
    s, _ = _ik_asym_sum(mu, z, alternate=False)
    return s * math.sqrt(0.5 * math.pi / z)


def _jy_asym_pq(mu, z):
    """P and Q sums of the oscillatory asymptotics, to the smallest term."""
    p = 0.0
    q = 0.0
    prev = math.inf
    for m, a in enumerate(_hankel_terms(mu, z)):
        if abs(a) >= prev or m > 120:
            break
        s = 1.0 if (m // 2) % 2 == 0 else -1.0
        if m % 2 == 0:
            p += s * a
        else:
            q += s * a
        prev = abs(a)
        if abs(a) < 1e-19:
            break
    return p, q


def _jy_asym(n, z):
    """(J_n(z), Y_n(z)), n in {0, 1}, from one P/Q evaluation."""
    p, q = _jy_asym_pq(4.0 * n * n, z)
    w = z - (0.25 + 0.5 * n) * math.pi
    amp = math.sqrt(2.0 / (math.pi * z))
    c, s = math.cos(w), math.sin(w)
    return amp * (p * c - q * s), amp * (p * s + q * c)


# ----------------------------------------------------------------------
# trapezoid integral path for K on the middle range
# ----------------------------------------------------------------------

def _k_integral_scaled(z, order):
    """e^z K_order(z) via trapezoid on exp(-2 z sinh^2(u/2)) cosh(order*u).

    The integrand extends to an analytic function with a singularity only
    at Im u = pi/2, so the trapezoid rule converges like exp(-pi^2/h);
    step halving with node reuse stops at machine precision.
    """
    t_end = 2.0 * math.asinh(math.sqrt(24.0 / z)) + 0.5
    h = t_end / 16.0

    def row(us):
        out = 0.0
        for u in us:
            e = math.exp(-2.0 * z * math.sinh(0.5 * u) ** 2)
            out += e * (math.cosh(u) if order == 1 else 1.0)
        return out

    n = 16
    total = 0.5 + row(h * k for k in range(1, n + 1))  # f(0)=1, half weight
    prev = h * total
    for _ in range(7):
        h *= 0.5
        n *= 2
        total += row(h * k for k in range(1, n + 1, 2))
        cur = h * total
        if abs(cur - prev) <= 1e-16 * abs(cur):
            return cur
        prev = cur
    return prev


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------

def bessel_i0(z):
    z = _check_domain(z, "bessel_i0")
    if z <= _SERIES_CUTOFF:
        return _i0_series(z)
    return math.exp(z) * _i_asym_scaled(0.0, z) if z < 709.0 else math.inf


def bessel_i0_scaled(z):
    """e^{-z} I0(z); finite for every z >= 0."""
    z = _check_domain(z, "bessel_i0_scaled")
    if z <= _SERIES_CUTOFF:
        return math.exp(-z) * _i0_series(z)
    return _i_asym_scaled(0.0, z)


def bessel_i1(z):
    z = _check_domain(z, "bessel_i1")
    if z <= _SERIES_CUTOFF:
        return _i1_series(z)
    return math.exp(z) * _i_asym_scaled(4.0, z) if z < 709.0 else math.inf


def bessel_i1_scaled(z):
    z = _check_domain(z, "bessel_i1_scaled")
    if z <= _SERIES_CUTOFF:
        return math.exp(-z) * _i1_series(z)
    return _i_asym_scaled(4.0, z)


def bessel_k0(z):
    z = _check_domain(z, "bessel_k0", positive=True)
    if z <= _K_SERIES_CUTOFF:
        return _k0_series(z)
    if z < _SERIES_CUTOFF:
        return math.exp(-z) * _k_integral_scaled(z, 0)
    return math.exp(-z) * _k_asym_scaled(0.0, z)


def bessel_k0_scaled(z):
    """e^{z} K0(z)."""
    z = _check_domain(z, "bessel_k0_scaled", positive=True)
    if z <= _K_SERIES_CUTOFF:
        return math.exp(z) * _k0_series(z)
    if z < _SERIES_CUTOFF:
        return _k_integral_scaled(z, 0)
    return _k_asym_scaled(0.0, z)


def bessel_k1(z):
    z = _check_domain(z, "bessel_k1", positive=True)
    if z <= _K_SERIES_CUTOFF:
        return _k1_series(z)
    if z < _SERIES_CUTOFF:
        return math.exp(-z) * _k_integral_scaled(z, 1)
    return math.exp(-z) * _k_asym_scaled(4.0, z)


def bessel_k1_scaled(z):
    z = _check_domain(z, "bessel_k1_scaled", positive=True)
    if z <= _K_SERIES_CUTOFF:
        return math.exp(z) * _k1_series(z)
    if z < _SERIES_CUTOFF:
        return _k_integral_scaled(z, 1)
    return _k_asym_scaled(4.0, z)


def bessel_j0(z):
    z = _check_domain(z, "bessel_j0")
    if z <= _SERIES_CUTOFF:
        return _jy_series(0, z, regular=False)[0]
    return _jy_asym(0, z)[0]


def bessel_j1(z):
    z = _check_domain(z, "bessel_j1")
    if z <= _SERIES_CUTOFF:
        return _jy_series(1, z, regular=False)[0]
    return _jy_asym(1, z)[0]


def _j0_y0_fused(z):
    """(J0, Y0, J0 - 1, c) at z > 0 from one fused evaluation.

    c = (pi/2) Y0 - (log(z/2)+gamma) J0 is the regular part of Y0.  On the
    series path c is the H_k sum itself and J0 - 1 comes from the
    double-double pair, so both keep full relative accuracy as z -> 0,
    where Y0 and J0 - 1 formed from doubles cancel.  J0 and Y0 are
    bit-identical to ``bessel_j0`` and ``bessel_y0``.
    """
    if z <= _SERIES_CUTOFF:
        j0, y0, j, r = _jy_series(0, z)
        return j0, y0, (j[0] - 1.0) + j[1], -r
    j0, y0 = _jy_asym(0, z)
    return j0, y0, j0 - 1.0, 0.5 * math.pi * y0 - (math.log(0.5 * z) + EULER_GAMMA) * j0


def bessel_y0(z):
    z = _check_domain(z, "bessel_y0", positive=True)
    if z <= _SERIES_CUTOFF:
        return _jy_series(0, z)[1]
    return _jy_asym(0, z)[1]


def bessel_y1(z):
    z = _check_domain(z, "bessel_y1", positive=True)
    if z <= _SERIES_CUTOFF:
        return _jy_series(1, z)[1]
    return _jy_asym(1, z)[1]


# ----------------------------------------------------------------------
# checked evaluation (value + error estimate) of e^{-z} I0(z)
# ----------------------------------------------------------------------

_EPS = 2.220446049250313e-16


def i0_scaled_checked(z):
    v = bessel_i0_scaled(z)
    if z <= _SERIES_CUTOFF:
        est = 8.0 * _EPS * abs(v) + 1e-300
    else:
        _, smallest = _ik_asym_sum(0.0, z, alternate=False)
        est = 1.0 / math.sqrt(2.0 * math.pi * z) * (smallest + 4.0 * _EPS)
    return SpecfunResult(v, est)
