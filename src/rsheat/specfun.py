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
  cancellation near the crossover), its error-free transforms written
  out in the loop body; the positive-term I/K loop is plain
  double, with a compensated I0 sum.  What does not depend on z is in
  immutable tables built at import: the weights H_k and H_k + H_{k+1}
  (``_IK_WEIGHTS``, ``_JY_WEIGHTS``) up to each regular sum's cap, and one
  row per term k = 1..401, the loops' cap, with the divisor k(k+n)
  (``_IK_DIVISORS``) or -k(k+n), w_k and the Dekker split of w_k's high
  part (``_JY_ROWS``);
* Hankel asymptotic series for large argument (the divergence floor
  ~exp(-2z) is below 1e-13 for z >= 16), on one table of coefficients
  c_m = prod_{j<=m} (mu - (2j-1)^2) / (m! 8^m) per order (``_HANKEL``,
  each entry an exact rational rounded once, immutable and built at
  import).  Both families share it: the terms are a_m = c_m z^{-m}, with
  signs (-1)^m for I, + for K and + + - - for J/Y, whose P takes the even
  m and Q the odd m.  Each sum is one Horner pass whose term count N(z)
  (``_hankel_count``) is fixed before the summing starts: up to and
  including the first term below one floor, 1e-19, for both families, or
  up to the smallest term, whichever comes first;
* for J0/Y0/J1/Y1 on the middle range (2, 16], Taylor tables at the
  anchors z0 = 2, 2.5, ..., 16 (``_jy_taylor``): one Horner pass at
  h = z - z0, |h| <= 1/4, gives J0, Y0 and J1 = -J0', Y1 = -Y0'.  The
  32 coefficients per function and anchor come from the Bessel-equation
  recurrence seeded with the series' own values at z0, and a Cauchy
  estimate on |zeta - z0| <= 1 bounds what the terms past them add
  below 1e-17; an anchor's row is built the first time a z near it is
  evaluated.  The series keeps z <= 2, where J0 - 1 and Y0's regular
  part need its relative accuracy as z -> 0;
* for K0/K1 on the middle range (1, 16) neither series nor Hankel reaches
  1e-13 in double precision, so the integral representation
  e^z K_nu(z) = int_0^inf exp(-2 z sinh^2(u/2)) cosh(nu u) du
  takes one trapezoid rule of step 1/8, summed exactly rounded: its
  strip bound (Trefethen-Weideman) is below 4e-19 relative on [0.4, 18].
  Its node factors sinh^2(u/2) and cosh(u) are tables built at import
  (``_K_SINH2``, ``_K_COSH``), up to the last node z = 0.4 takes.

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

All functions are pure.  The one module state is ``_TAYLOR_ROWS``, the
Taylor rows built so far: each is entered complete and depends only on
its anchor, so no value depends on which rows exist.  The public ones take z
through ``errors.check_real``: z >= 0 for I and J, z >= 1e-323 for K and Y.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass

from ._dd import SPLIT, two_prod
from .errors import check_real

# Euler-Mascheroni constant and log 2 to 25 significant digits.  All
# boundary-constant arithmetic elsewhere in the package routes through
# these two literals.
EULER_GAMMA = 0.5772156649015328606065121
LN2 = 0.6931471805599453094172321

_SERIES_CUTOFF = 16.0  # power series (J/Y: Taylor tables) below, Hankel asymptotics above
_TAYLOR_CUTOFF = 2.0  # J/Y: power series at or below, Taylor tables above
_K_SERIES_CUTOFF = 1.0  # K0/K1 log-series safe (no cancellation) below
_Z_MIN = ">= 1e-323"  # K and Y: below it the series' log(0.5 z) has 0.5 z = 0


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


def _dd_add(x, y):
    """x + y for double-double pairs: two_sum of the highs, then quick_two_sum."""
    s = x[0] + y[0]
    b = s - x[0]
    e = (x[0] - (s - b)) + (y[0] - b) + (x[1] + y[1])
    hi = s + e
    return hi, e - (hi - s)


def _dd_recip(k):
    """1/k as a double-double pair: the quotient and its remainder's quotient."""
    q = 1.0 / k
    p, e = two_prod(q, k)
    r = ((1.0 - p) - e) / k
    hi = q + r
    return hi, r - (hi - q)


# up to each regular sum's cap: k > 300 in double, k > 400 in double-double
_IK_WEIGHTS = _harmonic_weights(0.0, operator.add, lambda k: 1.0 / k, 301)
_JY_WEIGHTS = _harmonic_weights((0.0, 0.0), _dd_add, lambda k: _dd_recip(float(k)), 401)


def _split(x):
    """Dekker's split of x into two 26-bit halves (hi, lo), hi + lo = x."""
    c = SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


# per order n, the loops' rows k = 1..401 (the I and J sums' cap): the I/K
# divisor k(k+n), and the J/Y row (-k(k+n), w_k's pair, its high part's split)
_IK_DIVISORS = tuple(tuple(float(k * (k + n)) for k in range(1, 402)) for n in (0, 1))
_JY_ROWS = tuple(tuple((-float(k * (k + n)), *w[k], *_split(w[k][0])) for k in range(1, 402))
                 for n, w in enumerate(_JY_WEIGHTS))


def _ik_series(n, z, regular=True):
    """(I_n, K_n, r) at z on the series path, n in {0, 1}, from one loop.

    Both sums share the positive p_k = u^k/(k!(k+n)!), u = z^2/4:
    i = sum_{k>=0} p_k (I0 = i, I1 = (z/2) i; compensated for n = 0) and
    r = sum_k w_k p_k with the weights of ``_IK_WEIGHTS``, which give

        K0 = r - (log(z/2)+gamma) I0
        K1 = 1/z + (log(z/2)+gamma) I1 - (z/4) r,

    with no cancellation in K0 for z <= ~1.12.  The term ratio's divisor
    k(k+n) comes from ``_IK_DIVISORS``, whose 401 rows cap the i sum; r
    stops past k = 300.  Each sum stops on its own rule, so I_n does not
    depend on ``regular``; with ``regular=False`` only i is summed and K_n
    and r are None.
    """
    w = _IK_WEIGHTS[n]
    u = 0.25 * z * z
    p = i = 1.0
    comp = 0.0
    r = w[0]  # k = 0 term: w_0 = n
    i_done, r_done = False, not regular
    for k, d in enumerate(_IK_DIVISORS[n], 1):
        p *= u / d
        if not i_done:
            if n == 0:
                y = p - comp
                t = i + y
                comp = (t - i) - y
                i = t
            else:
                i += p
            i_done = p < 1e-17 * i
        if not r_done:
            term = p * w[k]
            r += term
            r_done = term < 1e-18 * (r + 1.0) or k > 300
        if i_done and r_done:
            break
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

    Term k reads its row of ``_JY_ROWS``: the divisor -k(k+n), w_k (from
    ``_JY_WEIGHTS``) and the split of w_k's high part; the 401 rows cap
    both sums.  Each sum stops on its own rule, so J_n does not depend on
    ``regular``; with ``regular=False`` only j is summed and Y_n and r are
    None.  The pair j = (hi, lo) keeps J0 - 1 = (hi - 1) + lo accurate as
    z -> 0.

    The double-double steps are written out as their error-free transforms
    (Dekker's split and product, Knuth's two_sum, quick_two_sum): p_{k-1} u,
    its quotient by -k(k+n), j + p_k, p_k w_k and s + p_k w_k.  u's high
    part is split once per call and each p_k's once per term; w_k's is the
    table's.
    """
    a, e = two_prod(z, z)  # u = (z^2)/4 as a pair
    u0, f = two_prod(a, 0.25)
    f += e * 0.25
    a = u0 + f
    u1 = f - (a - u0)
    u0 = a
    u0h, u0l = _split(u0)
    p0, p1, p0h, p0l = 1.0, 0.0, 1.0, 0.0  # p_0 = 1 and its split
    j0, j1 = 1.0, 0.0
    s0, s1 = _JY_WEIGHTS[n][0]  # k = 0 term: w_0 = n
    j_done, s_done = False, not regular
    for d, w0, w1, wh, wl in _JY_ROWS[n]:
        m = p0 * u0  # p_{k-1} u
        e = ((p0h * u0h - m) + p0h * u0l + p0l * u0h) + p0l * u0l
        e += p0 * u1 + p1 * u0
        m0 = m + e
        m1 = e - (m0 - m)
        q = m0 / d  # d = -k(k+n); |d| < 2^26 splits as (d, 0)
        a = q * d
        c = SPLIT * q
        qh = c - (c - q)
        e = (qh * d - a) + (q - qh) * d
        e = (((m0 - a) - e) + m1) / d
        p0 = q + e
        p1 = e - (p0 - q)
        c = SPLIT * p0
        p0h = c - (c - p0)
        p0l = p0 - p0h
        if not j_done:
            a = j0 + p0
            b = a - j0
            e = (j0 - (a - b)) + (p0 - b)
            e += j1 + p1
            j0 = a + e
            j1 = e - (j0 - a)
            j_done = abs(p0) < 1e-34 * (abs(j0) + 1.0)
        if not s_done:
            m = p0 * w0  # term = p_k w_k
            e = ((p0h * wh - m) + p0h * wl + p0l * wh) + p0l * wl
            e += p0 * w1 + p1 * w0
            m0 = m + e
            m1 = e - (m0 - m)
            a = s0 + m0
            b = a - s0
            e = (s0 - (a - b)) + (m0 - b)
            e += s1 + m1
            s0 = a + e
            s1 = e - (s0 - a)
            s_done = abs(m0) < 1e-34 * (abs(s0) + 1.0)
        if j_done and s_done:
            break
    jn = j0 + j1 if n == 0 else 0.5 * z * (j0 + j1)
    if not regular:
        return jn, None, (j0, j1), None
    r = s0 + s1
    ell = math.log(0.5 * z) + EULER_GAMMA
    if n == 0:
        return jn, (2.0 / math.pi) * (ell * jn - r), (j0, j1), r
    return jn, (2.0 / math.pi) * (ell * jn - 1.0 / z - 0.25 * z * r), (j0, j1), r


# ----------------------------------------------------------------------
# Taylor tables for J/Y on the middle range
# ----------------------------------------------------------------------

_TAYLOR_STEP = 0.5  # anchor spacing: every z of (2, 16] is within 1/4 of one
_TAYLOR_TERMS = 32
# anchor index -> row, each entered complete on first use; threads racing
# for an anchor can at worst build its row twice
_TAYLOR_ROWS = {}


def _taylor_row(i):
    """The Taylor coefficients at the anchor z0 = 2 + i/2 of J0, Y0, J1 and
    Y1, k = 0..31, as one 4-tuple per k, highest k first.

    J0 and Y0 solve z y'' + y' + z y = 0, so their coefficients a_k at
    z = z0 + h satisfy
    a_{k+2} = -[(k+1)^2 a_{k+1} + z0 a_k + a_{k-1}] / (z0 (k+1)(k+2)),
    seeded with a_0 = J0(z0), a_1 = -J1(z0) (Y0, -Y1 for Y0) from the
    series; J1 = -J0' and Y1 = -Y0' take -(k+1) a_{k+1}.  An error the
    recurrence makes grows no faster than the coefficients of a solution
    singular at 0, ~z0^{-k}, and enters a value at |h| <= 1/4 times 8^{-k}.

    Term count (Cauchy): on the disk |zeta - z0| <= 1, inside
    |zeta - z0| < z0 where Y0 is analytic, |J0| and |Y0| stay below
    M = 0.81 at every anchor (largest at z0 = 2), so |a_k| <= M.  At
    |h| <= 1/4 the terms past a_31 then add at most
    M 4^{-32} / (1 - 1/4) < 6e-20 to J0 or Y0 and
    M 4^{-31} (32 / (1 - 1/4) + (1/4) / (1 - 1/4)^2) < 8e-18 to J1 or Y1.
    """
    z0 = _TAYLOR_CUTOFF + _TAYLOR_STEP * i
    (j0, y0), (j1, y1) = (_jy_series(n, z0)[:2] for n in (0, 1))
    a = [(j0, y0), (-j1, -y1)]
    prev = (0.0, 0.0)
    for k in range(_TAYLOR_TERMS - 2):
        d = z0 * (k + 1) * (k + 2)
        a.append(tuple(-((k + 1) ** 2 * a1 + z0 * a0 + am) / d
                       for a1, a0, am in zip(a[k + 1], a[k], prev)))
        prev = a[k]
    a.append((0.0, 0.0))  # a_32 is not kept: J1's and Y1's top terms are 0
    return tuple((*a[k], *(-(k + 1) * v for v in a[k + 1]))
                 for k in reversed(range(_TAYLOR_TERMS)))


def _jy_taylor(z):
    """(J0, Y0, J1, Y1) at 2 < z <= 16 from the nearest anchor's Taylor row.

    One Horner pass at h = z - z0 (exact: z and z0 are within a factor 2)
    sums the four series.  The row is built the first time its anchor is
    reached (``_taylor_row``); at an anchor the four values are the
    series' own.
    """
    i = int((z - _TAYLOR_CUTOFF) / _TAYLOR_STEP + 0.5)
    row = _TAYLOR_ROWS.get(i)
    if row is None:
        row = _TAYLOR_ROWS[i] = _taylor_row(i)
    h = z - (_TAYLOR_CUTOFF + _TAYLOR_STEP * i)
    j0 = y0 = j1 = y1 = 0.0
    for a, b, c, d in row:
        j0 = j0 * h + a
        y0 = y0 * h + b
        j1 = j1 * h + c
        y1 = y1 * h + d
    return j0, y0, j1, y1


# ----------------------------------------------------------------------
# Hankel asymptotic series
# ----------------------------------------------------------------------

_HANKEL_FLOOR = 1e-19  # a sum stops after its first term below this


def _hankel_table(mu):
    """The Hankel coefficients of mu = 4 nu^2 (an integer), laid out for
    the Horner passes, and the floor thresholds of ``_hankel_count``.

    c_m = prod_{j<=m} (mu - (2j-1)^2) / (m! 8^m), so the series' terms are
    a_m = c_m z^{-m}; each c_m is the quotient of two exact integers,
    rounded once (int / int is correctly rounded).  a_m falls below the
    floor at z > z_m = (|c_m| / floor)^{1/m}; t_m = min_{k<=m} z_k is
    stored negated, so that it ascends.  The table stops at the largest
    term count any z > 3/8 takes: a_m is summed only at a z with
    |mu - (2m-1)^2| < 8 m z (a_m smaller than a_{m-1}) and z <= t_{m-1}
    (no earlier term below the floor), which no z has once
    |mu - (2m-1)^2| >= 8 m t_{m-1}.

    Returns (c, thresholds, P's coefficients, Q's): P takes the even m, Q
    the odd m, each with the signs + - + - of the J/Y series' + + - -
    pattern, and both are stored highest m first.
    """
    c, thresholds = [1.0], []
    num = den = 1
    t = math.inf
    m = 1
    while abs(mu - (2 * m - 1) ** 2) < 8 * m * t:
        num *= mu - (2 * m - 1) ** 2
        den *= 8 * m
        c.append(num / den)
        t = min(t, (abs(c[-1]) / _HANKEL_FLOOR) ** (1.0 / m))
        thresholds.append(-t)
        m += 1
    p, q = ([-v if i & 1 else v for i, v in enumerate(c[r::2])] for r in (0, 1))
    return tuple(c), tuple(thresholds), tuple(p[::-1]), tuple(q[::-1])


_HANKEL = {float(mu): _hankel_table(mu) for mu in (0, 4)}


def _hankel_count(mu, z):
    """N(z), the number of terms, m = 0..N-1, a Hankel sum at z > 3/8 takes.

    The sum runs up to and including its first term below the floor
    (``_HANKEL_FLOOR``), or up to its smallest term, whichever comes first.
    For real z the remainder past the terms summed is at most the first
    neglected term (DLMF 10.17(iii) for P and Q, 10.40(ii) for K; for the
    alternating I sum 10.40(ii) bounds it by a small multiple of that term).
    Neither count needs the terms: |a_m / a_{m-1}| =
    |mu - (2m-1)^2| / (8 m z) first reaches 1 at
    m = ceil(z + 1/2 + sqrt(z^2 + z + mu/4)), the smallest-term count, and
    the floor count is one past the first m with t_m < z, found by
    bisection.  Where z^2 overflows the root is infinite and the floor's
    count stands.
    """
    n_floor = bisect_right(_HANKEL[mu][1], -z) + 2
    return math.ceil(min(n_floor, z + 0.5 + math.sqrt(z * (z + 1.0) + 0.25 * mu)))


def _ik_asym_sum(mu, z, alternate):
    """(sum, |smallest term|) of the I/K Hankel series: one Horner pass in
    1/z (-1/z with ``alternate``, the I family's (-1)^m) over the N(z)
    terms, and |a_{N-1}| = |c_{N-1}| z^{-(N-1)}, the last term summed."""
    c = _HANKEL[mu][0]
    n = _hankel_count(mu, z)
    x = 1.0 / z
    y = -x if alternate else x
    s = 0.0
    for a in reversed(c[:n]):
        s = s * y + a
    return s, abs(c[n - 1]) * x ** (n - 1)


def _i_asym_scaled(mu, z):
    """e^{-z} I_nu(z), mu = 4 nu^2, from the Hankel series."""
    return _ik_asym_sum(mu, z, alternate=True)[0] / _root_2pi(z)


def _root_2pi(z):
    """sqrt(2 pi z), split as sqrt(2 pi) sqrt(z) only where 2 pi z overflows."""
    w = 2.0 * math.pi * z
    return math.sqrt(w) if w < math.inf else math.sqrt(2.0 * math.pi) * math.sqrt(z)


def _k_asym_scaled(mu, z):
    """e^{z} K_nu(z), mu = 4 nu^2, from the Hankel series."""
    return _ik_asym_sum(mu, z, alternate=False)[0] * math.sqrt(0.5 * math.pi / z)


def _jy_asym_pq(mu, z):
    """P and Q sums of the oscillatory asymptotics over the N(z) terms, signs
    + + - - ...: P takes the even m, Q the odd ones, each one Horner pass in
    w = 1/z^2, Q's times 1/z."""
    _, _, p_rev, q_rev = _HANKEL[mu]
    n = _hankel_count(mu, z)
    x = 1.0 / z
    w = x * x
    p = q = 0.0
    for a in p_rev[len(p_rev) - (n + 1) // 2:]:
        p = p * w + a
    for a in q_rev[len(q_rev) - n // 2:]:
        q = q * w + a
    return p, q * x


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

# the trapezoid's node factors sinh^2(u/2) and cosh(u) at u = k/8, k = 1..47:
# its nodes up to t_end at z = 0.4, the low end of its domain
_K_SINH2 = tuple(math.sinh(k / 16.0) ** 2 for k in range(1, 48))
_K_COSH = tuple(math.cosh(k / 8.0) for k in range(1, 48))


def _k_integral_scaled(z, order):
    """e^z K_order(z), z in [0.4, 18], by the trapezoid rule of step 1/8 on
    int_0^inf exp(-2 z sinh^2(u/2)) cosh(order*u) du, nodes k/8 to t_end.

    On the strip |Im u| <= a < pi/2 the integrand is bounded by
    e^{-z(cosh x cos a - 1)} cosh(order*x), so its integral along either
    edge is at most 2 e^z K(z cos a).  Relative to the full-line value
    2 e^z K(z), the trapezoid rule therefore errs by at most
    2 K(z/2)/K(z)/(e^{16 pi^2/3} - 1) at a = pi/3 (Trefethen-Weideman),
    below 4e-19 for z in [0.4, 18].  The part cut off past t_end is below
    e^{-48} cosh(t_end), and fsum rounds once: what is left is each node's.
    The node factors come from the tables ``_K_SINH2`` and ``_K_COSH``,
    which end at t_end(0.4): a z below 0.4 would lose nodes.
    """
    t_end = 2.0 * math.asinh(math.sqrt(24.0 / z)) + 0.5
    m = -2.0 * z
    fs = [math.exp(m * s) for s in _K_SINH2[:int(8.0 * t_end)]]
    if order == 1:
        fs = [f * c for f, c in zip(fs, _K_COSH)]
    return math.fsum([0.5, *fs]) / 8.0  # f(0) = 1 at half weight


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
    if z <= _TAYLOR_CUTOFF:
        return _jy_series(n, z, regular=second)[second]
    if z <= _SERIES_CUTOFF:
        return _jy_taylor(z)[2 * n + second]
    return _jy_asym(n, z)[second]


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
    return _k(0, check_real(z, "bessel_k0", "z", _Z_MIN), False)


def bessel_k0_scaled(z):
    """e^{z} K0(z)."""
    return _k(0, check_real(z, "bessel_k0_scaled", "z", _Z_MIN), True)


def bessel_k1_scaled(z):
    return _k(1, check_real(z, "bessel_k1_scaled", "z", _Z_MIN), True)


def bessel_j0(z):
    return _jy(0, check_real(z, "bessel_j0", "z", ">= 0"), False)


def bessel_j1(z):
    return _jy(1, check_real(z, "bessel_j1", "z", ">= 0"), False)


def bessel_y0(z):
    return _jy(0, check_real(z, "bessel_y0", "z", _Z_MIN), True)


def bessel_y1(z):
    return _jy(1, check_real(z, "bessel_y1", "z", _Z_MIN), True)


def _j0_y0_fused(z):
    """(J0, Y0, J0 - 1, c) at z > 0 from one fused evaluation.

    c = (pi/2) Y0 - (log(z/2)+gamma) J0 is the regular part of Y0.  On the
    series path (z <= 2) c is the H_k sum itself and J0 - 1 comes from the
    double-double pair, so both keep full relative accuracy as z -> 0,
    where Y0 and J0 - 1 formed from doubles cancel.  Above, on the Taylor
    tables (z <= 16) and the Hankel path, J0 - 1 and c are formed from J0
    and Y0, and J0 - 1 does not cancel: |J0| < 0.41 there.  J0 and Y0 are
    bit-identical to ``bessel_j0`` and ``bessel_y0``.
    """
    if z <= _TAYLOR_CUTOFF:
        j0, y0, j, r = _jy_series(0, z)
        return j0, y0, (j[0] - 1.0) + j[1], -r
    j0, y0 = _jy_taylor(z)[:2] if z <= _SERIES_CUTOFF else _jy_asym(0, z)
    return j0, y0, j0 - 1.0, 0.5 * math.pi * y0 - (math.log(0.5 * z) + EULER_GAMMA) * j0


# ----------------------------------------------------------------------
# checked evaluation (value + error estimate) of e^{-z} I0(z)
# ----------------------------------------------------------------------

_EPS = 2.220446049250313e-16


def i0_scaled_checked(z):
    """e^{-z} I0(z), bit-identical to ``bessel_i0_scaled``, with an error
    estimate.  Above the series cutoff one Horner pass (``_ik_asym_sum``)
    gives both the value and |a_{N-1}|, the last term summed: the smallest
    term or the first below the floor, which estimates the truncation
    error next to 4 eps of rounding."""
    z = check_real(z, "i0_scaled_checked", "z", ">= 0")
    if z <= _SERIES_CUTOFF:
        v = _i(0, z, True)
        return SpecfunResult(v, 8.0 * _EPS * abs(v) + 1e-300)
    s, smallest = _ik_asym_sum(0.0, z, alternate=True)
    root = _root_2pi(z)
    return SpecfunResult(s / root, 1.0 / root * (smallest + 4.0 * _EPS))
