"""From-scratch real-argument Bessel functions I0, I1, K0, K1, J0, J1, Y0, Y1.

Every other module of the package evaluates its kernels through these
routines, so accuracy targets are strict: relative error ~1e-13 for the
exponential family (I, K) and absolute error ~1e-12 for the oscillatory
family (J, Y) on the working ranges.

The module is organised by representation, not by function:

* power series for small argument, one loop per family for both
  orders, each summing the function and the regular part of its second
  kind from the same terms: ``_ik_series(n, z)`` gives I_n and K_n,
  ``_jy_series(n, z)`` J_n and Y_n.  The alternating J/Y loop is
  compensated double-double (plain double loses ~6 digits to
  cancellation near the crossover); the positive-term I/K loop is plain
  double, with a compensated I0 sum.  The weights H_k and H_k + H_{k+1}
  do not depend on z: ``_IK_WEIGHTS`` and ``_JY_WEIGHTS``, immutable
  tables built at import, hold them up to each loop's cap;
* Hankel asymptotic series for large argument, truncated at the smallest
  term (the divergence floor ~exp(-2z) is below 1e-13 for z >= 16): one
  generator, ``_hankel_terms``, holds the stop rule, and ``_ik_asym_sum``
  (I/K, cap 60, floor 1e-18: sums near 1) and ``_jy_asym_pq`` (J/Y, cap
  120, floor 1e-19: P and Q share the terms, Q ~ 1/(8z)) add its terms for
  both orders; no cap binds at z > 16, and one (cap, floor) for both
  families would move last bits;
* for K0/K1 on the middle range (1, 16) neither of the above reaches
  1e-13 in double precision, so the integral representation
  e^z K_nu(z) = int_0^inf exp(-2 z sinh^2(u/2)) cosh(nu u) du
  is evaluated by the geometrically convergent trapezoid rule.

The public functions go through one dispatch per family (``_i``, ``_k``,
``_jy``), which picks the path by z and applies e^{+-z} to the path's
native scaling: the series are unscaled, the Hankel and trapezoid paths
scaled.

``_j0_y0_fused`` also returns J0 - 1 and the regular part of Y0 at full
relative accuracy for the interval spectrum.  ``i0_scaled_checked`` adds
an error estimate to e^{-z} I0(z), which bounds the Friedrichs part of a
trace's ``est_error``.

Scaled variants e^{-z} I(z), e^{z} K(z) are first-class API so callers can
form products like I0(z) e^{-w} without overflow for z up to ~1e6.

All functions are pure and hold no mutable state.  The public ones take z
through ``errors.check_real``: z >= 0 for I and J, z > 0 for K and Y.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from ._dd import (
    dd_add,
    dd_div_d,
    dd_mul,
    dd_mul_d,
    dd_sqr_d,
)
from .errors import check_real

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


# ----------------------------------------------------------------------
# power series: one loop per family, for both orders
# ----------------------------------------------------------------------

def _harmonic_weights(zero, add, recip, cap):
    """(w0, w1), k = 0..cap: w0_k = H_k and w1_k = H_k + H_{k+1}, the
    weights of the regular sums for n = 0 and n = 1, summed by ``add``."""
    h = [zero]
    for k in range(1, cap + 2):
        h.append(add(h[-1], recip(k)))
    return tuple(h[:-1]), tuple(add(a, b) for a, b in zip(h, h[1:]))


# up to each regular sum's cap: k > 300 in double, k > 400 in double-double
_IK_WEIGHTS = _harmonic_weights(0.0, operator.add, lambda k: 1.0 / k, 301)
_JY_WEIGHTS = _harmonic_weights((0.0, 0.0), dd_add,
                                lambda k: dd_div_d((1.0, 0.0), float(k)), 401)


def _ik_series(n, z, regular=True):
    """(I_n, K_n, r) at z on the series path, n in {0, 1}, from one loop.

    Both sums share the positive p_k = u^k/(k!(k+n)!), u = z^2/4:
    i = sum_{k>=0} p_k (I0 = i, I1 = (z/2) i; compensated for n = 0) and
    r = sum_k w_k p_k with the weights of ``_IK_WEIGHTS``, which give

        K0 = r - (log(z/2)+gamma) I0
        K1 = 1/z + (log(z/2)+gamma) I1 - (z/4) r,

    with no cancellation in K0 for z <= ~1.12.  Each sum stops on its own
    rule, so I_n does not depend on ``regular``; with ``regular=False``
    only i is summed and K_n and r are None.
    """
    w = _IK_WEIGHTS[n]
    u = 0.25 * z * z
    p = i = 1.0
    comp = 0.0
    r = w[0]  # k = 0 term: w_0 = n
    i_done, r_done = False, not regular
    k = 0
    while not (i_done and r_done):
        k += 1
        p *= u / (k * (k + n))
        if not i_done:
            if n == 0:
                y = p - comp
                t = i + y
                comp = (t - i) - y
                i = t
            else:
                i += p
            i_done = p < 1e-17 * i or k > 400
        if not r_done:
            term = p * w[k]
            r += term
            r_done = term < 1e-18 * (r + 1.0) or k > 300
    i_n = i if n == 0 else 0.5 * z * i
    if not regular:
        return i_n, None, None
    ell = math.log(0.5 * z) + EULER_GAMMA
    if n == 0:
        return i_n, r - ell * i_n, r
    return i_n, 1.0 / z + ell * i_n - 0.25 * z * r, r


def _jy_series(n, z, regular=True):
    """(J_n, Y_n, j, r) at z on the series path, n in {0, 1}, from one loop.

    Both sums share p_k = (-u)^k/(k!(k+n)!), u = z^2/4, in double-double:
    j = sum_{k>=0} p_k (so J0 = j, J1 = (z/2) j) and the regular sum
    r = sum_k w_k p_k with w_k = H_k (n = 0) or H_k + H_{k+1} (n = 1):

        Y0 = (2/pi)[(log(z/2)+gamma) J0 - r]
        Y1 = (2/pi)[(log(z/2)+gamma) J1 - 1/z - (z/4) r]

    The w_k come from ``_JY_WEIGHTS``.  Each sum stops on its own rule, so
    J_n does not depend on ``regular``; with ``regular=False`` only j is
    summed and Y_n and r are None.  The pair j = (hi, lo) keeps
    J0 - 1 = (hi - 1) + lo accurate as z -> 0.
    """
    w = _JY_WEIGHTS[n]
    u = dd_mul_d(dd_sqr_d(z), 0.25)
    p = j = (1.0, 0.0)
    s = w[0]  # k = 0 term: w_0 = n
    j_done, s_done = False, not regular
    k = 0
    while not (j_done and s_done):
        k += 1
        p = dd_div_d(dd_mul(p, u), -float(k * (k + n)))
        if not j_done:
            j = dd_add(j, p)
            j_done = abs(p[0]) < 1e-34 * (abs(j[0]) + 1.0) or k > 400
        if not s_done:
            term = dd_mul(p, w[k])
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

def _hankel_terms(mu, z, cap, floor):
    """Yield a_m = prod_{j<=m} (mu-(2j-1)^2) / (m! (8z)^m), m = 0, 1, ...,
    to the smallest term: stop before a term that does not shrink or whose
    index passes ``cap``, and after the first term below ``floor``."""
    a = 1.0
    for m in range(1, cap + 1):
        yield a
        prev = abs(a)
        a *= (mu - (2 * m - 1) ** 2) / (m * 8.0 * z)
        if prev < floor or abs(a) >= prev:
            return
    yield a


def _ik_asym_sum(mu, z, alternate):
    """(sum, |smallest term|) of the I/K Hankel series, the smallest term
    being the last one summed; ``alternate`` applies the I-family's (-1)^m."""
    step = -1.0 if alternate else 1.0
    total, sign = 0.0, 1.0
    for a in _hankel_terms(mu, z, 60, 1e-18):
        total += sign * a
        sign *= step
    return total, abs(a)


def _i_asym_scaled(mu, z):
    """e^{-z} I_nu(z), mu = 4 nu^2, from the Hankel series."""
    return _ik_asym_sum(mu, z, alternate=True)[0] / math.sqrt(2.0 * math.pi * z)


def _k_asym_scaled(mu, z):
    """e^{z} K_nu(z), mu = 4 nu^2, from the Hankel series."""
    return _ik_asym_sum(mu, z, alternate=False)[0] * math.sqrt(0.5 * math.pi / z)


def _jy_asym_pq(mu, z):
    """P and Q sums of the oscillatory asymptotics, to the smallest term:
    P takes the even terms, Q the odd ones, with signs + + - - ..."""
    p = q = 0.0
    for m, a in enumerate(_hankel_terms(mu, z, 120, 1e-19)):
        if m & 2:
            a = -a
        if m & 1:
            q += a
        else:
            p += a
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
# public API: one dispatch per family, each path in its native scaling
# ----------------------------------------------------------------------

def _i(n, z, scaled):
    """I_n(z), or e^{-z} I_n(z) when ``scaled``."""
    if z <= _SERIES_CUTOFF:
        v = _ik_series(n, z, regular=False)[0]
        return math.exp(-z) * v if scaled else v
    v = _i_asym_scaled(4.0 * n * n, z)
    if scaled:
        return v
    return math.exp(z) * v if z < 709.0 else math.inf


def _k(n, z, scaled):
    """K_n(z), or e^{z} K_n(z) when ``scaled``."""
    if z <= _K_SERIES_CUTOFF:
        v = _ik_series(n, z)[1]
        return math.exp(z) * v if scaled else v
    if z < _SERIES_CUTOFF:
        v = _k_integral_scaled(z, n)
    else:
        v = _k_asym_scaled(4.0 * n * n, z)
    return v if scaled else math.exp(-z) * v


def _jy(n, z, second):
    """J_n(z), or Y_n(z) when ``second``."""
    pair = _jy_series(n, z, regular=second) if z <= _SERIES_CUTOFF else _jy_asym(n, z)
    return pair[1 if second else 0]


def bessel_i0(z):
    return _i(0, check_real(z, "bessel_i0", "z", ">= 0"), False)


def bessel_i0_scaled(z):
    """e^{-z} I0(z); finite for every z >= 0."""
    return _i(0, check_real(z, "bessel_i0_scaled", "z", ">= 0"), True)


def bessel_i1(z):
    return _i(1, check_real(z, "bessel_i1", "z", ">= 0"), False)


def bessel_i1_scaled(z):
    return _i(1, check_real(z, "bessel_i1_scaled", "z", ">= 0"), True)


def bessel_k0(z):
    return _k(0, check_real(z, "bessel_k0", "z", "> 0"), False)


def bessel_k0_scaled(z):
    """e^{z} K0(z)."""
    return _k(0, check_real(z, "bessel_k0_scaled", "z", "> 0"), True)


def bessel_k1(z):
    return _k(1, check_real(z, "bessel_k1", "z", "> 0"), False)


def bessel_k1_scaled(z):
    return _k(1, check_real(z, "bessel_k1_scaled", "z", "> 0"), True)


def bessel_j0(z):
    return _jy(0, check_real(z, "bessel_j0", "z", ">= 0"), False)


def bessel_j1(z):
    return _jy(1, check_real(z, "bessel_j1", "z", ">= 0"), False)


def bessel_y0(z):
    return _jy(0, check_real(z, "bessel_y0", "z", "> 0"), True)


def bessel_y1(z):
    return _jy(1, check_real(z, "bessel_y1", "z", "> 0"), True)


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


# ----------------------------------------------------------------------
# checked evaluation (value + error estimate) of e^{-z} I0(z)
# ----------------------------------------------------------------------

_EPS = 2.220446049250313e-16


def i0_scaled_checked(z):
    """e^{-z} I0(z), bit-identical to ``bessel_i0_scaled``, with an error
    estimate; above the series cutoff one Hankel sum gives both the value
    and the smallest term."""
    z = check_real(z, "i0_scaled_checked", "z", ">= 0")
    if z <= _SERIES_CUTOFF:
        v = _i(0, z, True)
        return SpecfunResult(v, 8.0 * _EPS * abs(v) + 1e-300)
    s, smallest = _ik_asym_sum(0.0, z, alternate=True)
    root = math.sqrt(2.0 * math.pi * z)
    return SpecfunResult(s / root, 1.0 / root * (smallest + 4.0 * _EPS))
