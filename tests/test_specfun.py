"""Special-function accuracy: frozen oracles, dual paths, Wronskians."""

import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from rsheat import DomainError
from rsheat import specfun as sf
from rsheat._dd import two_prod

mp.mp.dps = 30


# ----------------------------------------------------------------------
# independent oracles coded directly in the tests
# ----------------------------------------------------------------------

def series_i0(z, terms=60):
    """Plain power-series oracle, summed to machine convergence."""
    u = z * z / 4.0
    total = term = 1.0
    for k in range(1, terms):
        term *= u / (k * k)
        total += term
    return total


def series_j0(z, terms=60):
    u = z * z / 4.0
    total = term = 1.0
    for k in range(1, terms):
        term *= -u / (k * k)
        total += term
    return total


def bessel_k1(z):
    """K1 as its callers form it: e^{-z} times the scaled value."""
    return sf.bessel_k1_scaled(z) * math.exp(-z)


def test_i0_trivial_and_series_oracle():
    assert sf.bessel_i0(0.0) == 1.0
    assert abs(sf.bessel_i0(1.0) - series_i0(1.0)) <= 1e-15
    # frozen 30-digit value
    assert abs(sf.bessel_i0(1.0) / 1.266065877752008335598 - 1.0) < 1e-14


def test_i0_scaled_large_argument():
    v = sf.bessel_i0_scaled(1000.0)
    assert math.isfinite(v)
    # frozen 30-digit value and the leading-order asymptotic sanity
    assert abs(v / 0.01261724045589125658572 - 1.0) < 1e-13
    assert abs(v - 1.0 / math.sqrt(2000.0 * math.pi)) < 2e-3 * v


@pytest.mark.parametrize("z", [1e300, 2.8e307, 5e307, 1.7e308])
def test_i_scaled_where_2_pi_z_overflows(z):
    # sqrt(2 pi z) in the Hankel normalisation overflows above z ~ 2.86e307,
    # the values themselves are about 1/sqrt(2 pi z) > 3e-155
    with mp.workdps(30):
        zm = mp.mpf(z)
        i0 = float(mp.besseli(0, zm) * mp.exp(-zm))
        i1 = float(mp.besseli(1, zm) * mp.exp(-zm))
    checked = sf.i0_scaled_checked(z)
    for got, want in ((sf.bessel_i0_scaled(z), i0), (sf.bessel_i1_scaled(z), i1),
                      (checked.value, i0)):
        assert abs(got - want) <= 1e-15 * want, (got, want)
    assert 0.0 < checked.est_abs_error < 1e-15 * i0


def test_k0_frozen_values():
    assert abs(sf.bessel_k0(1.0) / 0.4210244382407083333356 - 1.0) < 1e-13
    assert abs(sf.bessel_k0(2.0) / 0.1138938727495334356527 - 1.0) < 1e-13
    assert abs(sf.bessel_k0_scaled(20.0) / 0.2785448766571822239332 - 1.0) < 1e-13


def test_k0_positive_and_decreasing():
    zs = np.geomspace(0.01, 30.0, 200)
    vals = [sf.bessel_k0(float(z)) for z in zs]
    assert all(v > 0.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_j0_trivial_and_first_zero():
    assert sf.bessel_j0(0.0) == 1.0
    # bisection + Newton on the test's own series oracle
    lo, hi = 2.0, 3.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if series_j0(lo) * series_j0(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    assert abs(root - 2.404825557695773) < 1e-12
    assert abs(sf.bessel_j0(root)) < 1e-12


def test_y0_frozen_value_and_small_z_constants():
    assert abs(sf.bessel_y0(1.0) / 0.08825696421567695798293 - 1.0) < 5e-14
    # the small-z expansion carries exactly the gamma and log 2 of kappa
    z = 1e-8
    lead = (2.0 / math.pi) * (math.log(0.5 * z) + sf.EULER_GAMMA)
    assert abs(sf.bessel_y0(z) - lead) < 1e-12


def test_y1_j1_frozen_values():
    assert abs(sf.bessel_j1(1.0) / 0.4400505857449335159597 - 1.0) < 1e-14
    assert abs(sf.bessel_y1(1.0) / -0.7812128213002887165471 - 1.0) < 5e-14


@pytest.mark.parametrize("fn,ref,rel", [
    (sf.bessel_i0, lambda z: mp.besseli(0, z), True),
    (sf.bessel_i1, lambda z: mp.besseli(1, z), True),
    (sf.bessel_k0, lambda z: mp.besselk(0, z), True),
    (bessel_k1, lambda z: mp.besselk(1, z), True),
    (sf.bessel_j0, lambda z: mp.besselj(0, z), False),
    (sf.bessel_j1, lambda z: mp.besselj(1, z), False),
    (sf.bessel_y0, lambda z: mp.bessely(0, z), False),
    (sf.bessel_y1, lambda z: mp.bessely(1, z), False),
])
def test_high_precision_cross_check(fn, ref, rel):
    zs = [1e-6, 0.01, 0.3, 0.9, 1.1, 2.0, 5.0, 8.0, 13.0, 15.9, 16.1, 25.0,
          60.0, 120.0, 400.0]
    for z in zs:
        got = fn(z)
        want = float(ref(mp.mpf(z)))
        if rel:
            assert abs(got / want - 1.0) < 2e-13, (fn.__name__, z)
        else:
            assert abs(got - want) < 1e-12, (fn.__name__, z)


def test_scaled_consistency():
    for z in (0.5, 3.0, 10.0, 40.0, 200.0):
        assert abs(sf.bessel_k0_scaled(z) * math.exp(-z) / sf.bessel_k0(z) - 1.0) < 1e-14
        assert abs(sf.bessel_i0_scaled(z) * math.exp(z) / sf.bessel_i0(z) - 1.0) < 4e-14
        assert abs(sf.bessel_i1_scaled(z) * math.exp(z) / sf.bessel_i1(z) - 1.0) < 4e-14


def test_wronskians_random_grid():
    rng = np.random.default_rng(7)
    zs = np.exp(rng.uniform(math.log(0.02), math.log(60.0), size=100))
    for z in zs:
        z = float(z)
        w_ik = z * (sf.bessel_i0_scaled(z) * sf.bessel_k1_scaled(z)
                    + sf.bessel_i1_scaled(z) * sf.bessel_k0_scaled(z))
        assert abs(w_ik - 1.0) < 1e-10
        w_jy = 0.5 * math.pi * z * (sf.bessel_j1(z) * sf.bessel_y0(z)
                                    - sf.bessel_j0(z) * sf.bessel_y1(z))
        assert abs(w_jy - 1.0) < 1e-10


def test_dual_paths_agree_on_overlap():
    for z in np.linspace(14.0, 18.0, 9):
        z = float(z)
        for n in (0, 1):
            jn, yn, _, _ = sf._jy_series(n, z)
            ja, ya = sf._jy_asym(n, z)
            assert abs(jn - ja) < 1e-11
            assert abs(yn - ya) < 1e-11
        i0 = sf._ik_series(0, z, regular=False)[0]
        assert abs(i0 * math.exp(-z) / sf._i_asym_scaled(0.0, z) - 1.0) < 1e-11
        assert abs(sf._k_integral_scaled(z, 0) / sf._k_asym_scaled(0.0, z) - 1.0) < 1e-11
    for z in np.linspace(0.4, 1.0, 7):
        z = float(z)
        k0 = sf._ik_series(0, z)[1]
        assert abs(k0 - sf._k_integral_scaled(z, 0) * math.exp(-z)) < 1e-11


# The K trapezoid's reference: e^z K_n(z) from the power series in 50-digit
# decimals, where the cancellation of K0 = r - (log(z/2)+gamma) I0 costs
# at most 16 of them on (0.4, 18); checked against mpmath below.

_EULER = Decimal("0.57721566490153286060651209008240243104215933593992")


def _k_scaled_decimal(n, z):
    with localcontext() as ctx:
        ctx.prec = 50
        x = Decimal(z)
        u = x * x / 4
        p, h, k = Decimal(1), Decimal(0), 0
        i_sum = r_sum = Decimal(0)
        while k == 0 or p > Decimal("1e-48") * i_sum:
            h1 = h + Decimal(1) / (k + 1)
            i_sum += p
            r_sum += (h if n == 0 else h + h1) * p
            k += 1
            p = p * u / (k * (k + n))
            h = h1
        ell = (x / 2).ln() + _EULER
        kn = r_sum - ell * i_sum if n == 0 else 1 / x + ell * x / 2 * i_sum - x / 4 * r_sum
        return kn * x.exp()


def test_k_trapezoid_meets_its_certificate():
    # step 1/8 on [0, t_end]: the strip bound leaves < 4e-19 and the cut
    # < e^{-48} cosh(t_end), and the sum is exactly rounded, so what is
    # left is each node's own rounding (the step-halving rule reached 2.2e-15)
    for z in (0.4, 1.0, 3.0, 7.7, 18.0):
        for n in (0, 1):
            ref = mp.besselk(n, z) * mp.exp(z)
            assert abs(mp.mpf(str(_k_scaled_decimal(n, z))) / ref - 1) < 1e-28
    for z in np.geomspace(0.4, 18.0, 1500):
        z = float(z)
        for n in (0, 1):
            ref = _k_scaled_decimal(n, z)
            assert abs(Decimal(sf._k_integral_scaled(z, n)) / ref - 1) <= Decimal(4e-16), (z, n)


def _k_per_node(z, order):
    """The K trapezoid with each node factor formed at its node."""
    t_end = 2.0 * math.asinh(math.sqrt(24.0 / z)) + 0.5
    us = [k / 8.0 for k in range(1, int(8.0 * t_end) + 1)]
    fs = [math.exp(-2.0 * z * math.sinh(0.5 * u) ** 2) for u in us]
    if order == 1:
        fs = [f * math.cosh(u) for f, u in zip(fs, us)]
    return math.fsum([0.5, *fs]) / 8.0


def test_k_trapezoid_tables_keep_the_per_node_bits():
    # sinh^2(u/2) and cosh(u) come from tables built at import, which end
    # at the last node of z = 0.4, the low end of the rule's domain
    assert int(8.0 * (2.0 * math.asinh(math.sqrt(24.0 / 0.4)) + 0.5)) == len(sf._K_SINH2) == 47
    for z in np.geomspace(0.4, 18.0, 1500):
        z = float(z)
        for n in (0, 1):
            assert sf._k_integral_scaled(z, n) == _k_per_node(z, n), (z, n)


# Per-order references for the I/K series: I0 (compensated), I1 (plain) and
# the regular sums of K0 and K1 each in their own loop, with the harmonic
# numbers summed in the loop, so none shares code with ``_ik_series``.

def _in_own_loop(n, z):
    u = 0.25 * z * z
    term = total = 1.0
    comp = 0.0
    k = 0
    while True:
        k += 1
        term *= u / (k * (k + n))
        if n == 0:
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
        else:
            total += term
        if term < 1e-17 * total or k > 400:
            return total if n == 0 else 0.5 * z * total


def _kn_separate_loops(n, z):
    u = 0.25 * z * z
    p, hk, hk1, s = 1.0, 0.0, 1.0, float(n)
    k = 0
    while True:
        k += 1
        p *= u / (k * (k + n))
        hk += 1.0 / k
        hk1 += 1.0 / (k + 1)
        term = p * (hk if n == 0 else hk + hk1)
        s += term
        if term < 1e-18 * (s + 1.0 if n == 0 else s) or k > 300:
            break
    ell = math.log(0.5 * z) + sf.EULER_GAMMA
    if n == 0:
        return s - ell * _in_own_loop(0, z)
    return 1.0 / z + ell * _in_own_loop(1, z) - 0.25 * z * s


def test_ik_series_is_bit_identical_to_separate_loops():
    # one shared loop, one weight table and K1's stop at term < 1e-18 (s + 1)
    # instead of 1e-18 s (s >= 1: the terms it drops are below half an ulp)
    # must not move a single bit
    for z in np.concatenate([np.geomspace(1e-200, 1.0, 300), np.linspace(1e-3, 16.0, 801)]):
        z = float(z)
        for n in (0, 1):
            i_n, k_n, _ = sf._ik_series(n, z)
            assert i_n == sf._ik_series(n, z, regular=False)[0] == _in_own_loop(n, z)
            if z <= 1.0:
                assert k_n == _kn_separate_loops(n, z)
                if n == 0:
                    assert sf.bessel_k0(z) == k_n
                else:
                    assert sf.bessel_k1_scaled(z) == math.exp(z) * k_n


# The references for the Hankel sums: the forward walk's term count (stop
# before a term that does not shrink, after the first term below 1e-19),
# and a Horner pass written out on the coefficients c_m, with each sum's
# signs applied here: (-1)^m for I, + for K, + + - - for J/Y's P and Q.

def _hankel_terms_endless(mu, z):
    a = 1.0
    m = 0
    yield a
    while True:
        m += 1
        a *= (mu - (2 * m - 1) ** 2) / (m * 8.0 * z)
        yield a


def _walk_count(mu, z):
    prev = math.inf
    for m, a in enumerate(_hankel_terms_endless(mu, z)):
        if abs(a) >= prev:
            return m
        if abs(a) < 1e-19:
            return m + 1
        prev = abs(a)


def _horner(coeffs, y):
    s = 0.0
    for a in reversed(coeffs):
        s = s * y + a
    return s


def _ik_asym_sum_own_pass(mu, z, alternate):
    n = sf._hankel_count(mu, z)
    c = sf._HANKEL[mu][0][:n]
    x = 1.0 / z
    return _horner(c, -x if alternate else x), abs(c[-1]) * x ** (n - 1)


def _jy_asym_pq_own_pass(mu, z):
    n = sf._hankel_count(mu, z)
    c = [-a if m & 2 else a for m, a in enumerate(sf._HANKEL[mu][0][:n])]
    x = 1.0 / z
    return _horner(c[0::2], x * x), _horner(c[1::2], x * x) * x


_HANKEL_PIN_ZS = np.concatenate([np.linspace(14.0, 18.0, 4001), np.geomspace(18.0, 5e5, 2000),
                                 [math.nextafter(16.0, 0.0), 16.0, math.nextafter(16.0, 17.0)]])


def test_hankel_sums_are_bit_identical_to_separate_stop_tests():
    # each sum is one Horner pass over the N(z) terms, bit for bit, and N(z)
    # is the count the forward walk's two stop tests give at every point:
    # no point of the grid differs, so no sum there moves by a boundary term
    differ = []
    for z in _HANKEL_PIN_ZS:
        z = float(z)
        for mu in (0.0, 4.0):
            if sf._hankel_count(mu, z) != _walk_count(mu, z):
                differ.append((mu, z))
            for alternate in (True, False):
                got = sf._ik_asym_sum(mu, z, alternate)
                want = _ik_asym_sum_own_pass(mu, z, alternate)
                assert [v.hex() for v in got] == [v.hex() for v in want], (mu, z, alternate)
            got = sf._jy_asym_pq(mu, z)
            assert [v.hex() for v in got] == [v.hex() for v in _jy_asym_pq_own_pass(mu, z)], (
                mu, z)
    assert differ == []


def _exact_hankel_coefficients(mu, count):
    c = [Fraction(1)]
    for m in range(1, count):
        c.append(c[-1] * Fraction(mu - (2 * m - 1) ** 2, 8 * m))
    return c


def test_hankel_coefficients_are_correctly_rounded():
    # every c_m = prod_{j<=m} (mu - (2j-1)^2) / (m! 8^m) is the double
    # nearest its exact value, and P's and Q's layouts hold the same doubles
    for mu in (0, 4):
        c, thresholds, p_rev, q_rev = sf._HANKEL[float(mu)]
        for v, exact in zip(c, _exact_hankel_coefficients(mu, len(c))):
            assert abs(Fraction(v) - exact) <= Fraction(math.ulp(v)) / 2, (mu, v)
        signs = [-1.0 if m & 2 else 1.0 for m in range(len(c))]
        assert p_rev[::-1] == tuple(s * v for s, v in zip(signs[0::2], c[0::2]))
        assert q_rev[::-1] == tuple(s * v for s, v in zip(signs[1::2], c[1::2]))
        assert list(thresholds) == sorted(thresholds)


def test_hankel_count_never_passes_the_smallest_term():
    # exact arithmetic: every term summed is smaller than the one before;
    # a count short of the smallest term ends on the first term below the
    # floor; and every count fits the table, also next to each z where a
    # count changes
    floor = Fraction(1e-19)
    zs = np.concatenate([np.linspace(14.0, 40.0, 2601), np.geomspace(40.0, 1e6, 200),
                         [1e150, 1e300, 1.7e308]])
    for mu in (0, 4):
        c = sf._HANKEL[float(mu)][0]
        exact = _exact_hankel_coefficients(mu, len(c) + 1)
        for z in zs:
            z = float(z)
            n = sf._hankel_count(float(mu), z)
            assert 2 <= n <= len(c), (mu, z, n)
            zf = Fraction(z)
            for m in range(1, n):
                assert abs(mu - (2 * m - 1) ** 2) < 8 * m * zf, (mu, z, m)
            if abs(mu - (2 * n - 1) ** 2) < 8 * n * zf:  # a_n would still shrink
                assert abs(exact[n - 1]) < floor * zf ** (n - 1), (mu, z)
                assert abs(exact[n - 2]) >= floor * zf ** (n - 2), (mu, z)
        edges = [-t for t in sf._HANKEL[float(mu)][1]]
        edges += [abs(mu - (2 * m - 1) ** 2) / (8 * m) for m in range(1, len(c) + 2)]
        for e in edges:
            if e >= 14.0:
                for z in (math.nextafter(e, 0.0), e, math.nextafter(e, math.inf)):
                    assert sf._hankel_count(float(mu), z) <= len(c), (mu, z)


def _neglected(mu, z, k=0):
    """|a_{N+k}| = |c_{N+k}| z^{-N-k}: k = 0 is the first term past the N(z)
    a Hankel sum takes."""
    m = sf._hankel_count(mu, z) + k
    return float(abs(_exact_hankel_coefficients(int(mu), m + 1)[m]) / Fraction(z) ** m)


def test_hankel_jy_against_mpmath():
    # J0, Y0, J1 and Y1 from one _jy_asym per order on 2,001 points of
    # [14, 200] and 201 of [14, 16], absolute error.  Above 16, where they
    # are the public values, each is within 1e-15 (worst 6.0e-16, J1).  On
    # [14, 16] the series' divergence floor is above that, and
    # each error stays within the amplitude sqrt(2/(pi z)) times the sum of
    # the first neglected P and Q terms, a_N and a_{N+1} (DLMF 10.17(iii)).  Y1 comes from the Wronskian
    # J1 Y0 - J0 Y1 = 2/(pi z) at 30 digits.
    worst = [0.0] * 4
    over = 0.0
    with mp.workdps(30):
        for z in np.concatenate([np.linspace(14.0, 200.0, 2001), np.linspace(14.0, 16.0, 201)]):
            z = float(z)
            zm = mp.mpf(z)
            j0, j1, y0 = mp.besselj(0, zm), mp.besselj(1, zm), mp.bessely(0, zm)
            want = (j0, y0, j1, (j1 * y0 - 2 / (mp.pi * zm)) / j0)
            got = (*sf._jy_asym(0, z), *sf._jy_asym(1, z))
            err = [abs(float(g - r)) for g, r in zip(got, want)]
            if z > 16.0:
                worst = [max(w, e) for w, e in zip(worst, err)]
            else:
                amp = math.sqrt(2.0 / (math.pi * z))
                bound = [amp * (_neglected(mu, z) + _neglected(mu, z, 1))
                         for mu in (0.0, 0.0, 4.0, 4.0)]
                over = max(over, *(e / b for e, b in zip(err, bound)))
    assert max(worst) <= 1e-15, worst
    assert over <= 1.0, (over, worst)


def test_hankel_ik_against_mpmath():
    # e^{-z} I0, e^{-z} I1, e^z K0 and e^z K1 from the Hankel sums on 400
    # points of (16, 5e4], relative error, each within 1e-15 (worst 6.5e-16,
    # I0).
    # On 81 points of [14, 16], K's error stays within the first neglected
    # term (DLMF 10.40(ii)) and I's within twice it.  K1 comes from the
    # Wronskian I0 K1 + I1 K0 = 1/z, whose two terms do not cancel.
    worst = [0.0] * 4
    over = 0.0
    with mp.workdps(30):
        for z in np.concatenate([np.geomspace(16.0, 5e4, 401)[1:], np.linspace(14.0, 16.0, 81)]):
            z = float(z)
            zm = mp.mpf(z)
            i0, i1 = (mp.besseli(n, zm) * mp.exp(-zm) for n in (0, 1))
            k0 = mp.besselk(0, zm) * mp.exp(zm)
            want = (i0, i1, k0, (1 / zm - i1 * k0) / i0)
            got = (sf._i_asym_scaled(0.0, z), sf._i_asym_scaled(4.0, z),
                   sf._k_asym_scaled(0.0, z), sf._k_asym_scaled(4.0, z))
            err = [abs(float(g / r - 1)) for g, r in zip(got, want)]
            if z > 16.0:
                worst = [max(w, e) for w, e in zip(worst, err)]
            else:
                bound = [f * _neglected(mu, z) for f, mu in
                         ((2.0, 0.0), (2.0, 4.0), (1.0, 0.0), (1.0, 4.0))]
                over = max(over, *(e / b for e, b in zip(err, bound)))
    assert max(worst) <= 1e-15, worst
    assert over <= 1.0, (over, worst)


# Separate-loop references for the bit-identity tests below: J_n and the
# regular sum of Y_n each have their own loop, written out here on the
# double-double operations below, so neither shares code with the one loop
# under test, which writes these operations out inline.

def two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_two_sum(a, b):  # |a| >= |b|
    s = a + b
    return s, b - (s - a)


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
    return two_prod(a, a)


def test_weights_are_the_double_double_harmonic_sums():
    # _JY_WEIGHTS keeps the bits of H_k summed by dd_add from dd_div_d(1, k)
    h = [(0.0, 0.0)]
    for k in range(1, 403):
        h.append(dd_add(h[-1], dd_div_d((1.0, 0.0), float(k))))
    want = (h[:-1], [dd_add(a, b) for a, b in zip(h, h[1:])])
    for n in (0, 1):
        assert [(a.hex(), b.hex()) for a, b in sf._JY_WEIGHTS[n]] == [
            (a.hex(), b.hex()) for a, b in want[n]]


def test_series_rows_are_the_divisors_and_dekker_splits():
    # the loops read, per k, what they formed per term before: k(k+n) for
    # I/K, and -k(k+n), w_k and the split of w_k's high part for J/Y
    for n in (0, 1):
        assert sf._IK_DIVISORS[n] == tuple(float(k * (k + n)) for k in range(1, 402))
        assert len(sf._JY_ROWS[n]) == 401
        for k, row in enumerate(sf._JY_ROWS[n], 1):
            w0, w1 = sf._JY_WEIGHTS[n][k]
            c = 134217729.0 * w0
            wh = c - (c - w0)
            assert [v.hex() for v in row] == [
                v.hex() for v in (-float(k * (k + n)), w0, w1, wh, w0 - wh)], (n, k)


def _jn_own_loop(n, z):
    u = dd_mul_d(dd_sqr_d(z), 0.25)
    term = total = (1.0, 0.0)
    k = 0
    while True:
        k += 1
        term = dd_div_d(dd_mul(term, u), -float(k * (k + n)))
        total = dd_add(total, term)
        if abs(term[0]) < 1e-34 * (abs(total[0]) + 1.0) or k > 400:
            s = total[0] + total[1]
            return s if n == 0 else 0.5 * z * s


def _yn_separate_loops(n, z):
    """Y_n by the two-loop route: the harmonic sum, then a separate J_n series."""
    u = dd_mul_d(dd_sqr_d(z), 0.25)
    p, hk, hk1, s = (1.0, 0.0), (0.0, 0.0), (1.0, 0.0), (float(n), 0.0)
    k = 0
    while True:
        k += 1
        p = dd_div_d(dd_mul(p, u), -float(k * (k + n)))
        hk = dd_add(hk, dd_div_d((1.0, 0.0), float(k)))
        if n == 0:
            term = dd_mul(p, hk)
        else:
            hk1 = dd_add(hk1, dd_div_d((1.0, 0.0), float(k + 1)))
            term = dd_mul(p, dd_add(hk, hk1))
        s = dd_add(s, term)
        if abs(term[0]) < 1e-34 * (abs(s[0]) + 1.0) or k > 400:
            break
    ell = math.log(0.5 * z) + sf.EULER_GAMMA
    if n == 0:
        return (2.0 / math.pi) * (ell * _jn_own_loop(0, z) - (s[0] + s[1]))
    return (2.0 / math.pi) * (ell * _jn_own_loop(1, z) - 1.0 / z - 0.25 * z * (s[0] + s[1]))


def _jn_yn_asym_own_pq(n, z):
    p, q = sf._jy_asym_pq(4.0 * n * n, z)
    w = z - (0.25 + 0.5 * n) * math.pi
    amp = math.sqrt(2.0 / (math.pi * z))
    return amp * (p * math.cos(w) - q * math.sin(w)), amp * (p * math.sin(w) + q * math.cos(w))


# The Taylor tables' anchors z0 = 2, 2.5, ..., 16, and their Horner pass
# written out: the nearest anchor (ties to the upper one), its coefficients
# of J0, Y0, J1 and Y1, each summed on its own.
_ANCHORS = tuple(2.0 + 0.5 * i for i in range(29))
_ROWS = {}


def _taylor_own_pass(z):
    z0 = min(_ANCHORS, key=lambda a: (abs(z - a), -a))
    i = _ANCHORS.index(z0)
    if i not in _ROWS:
        _ROWS[i] = sf._taylor_row(i)
    h = z - z0
    out = []
    for f in range(4):
        v = 0.0
        for coeffs in _ROWS[i]:
            v = v * h + coeffs[f]
        out.append(v)
    return tuple(out)


_BIT_IDENTITY_GRID = np.concatenate([np.linspace(1e-3, 80.0, 2001),
                                     np.geomspace(1e-200, 1e-3, 50),
                                     [math.nextafter(16.0, 0.0), 16.0, math.nextafter(16.0, 17.0),
                                      2.0, math.nextafter(2.0, 3.0)],
                                     [a + d for a in _ANCHORS for d in (-0.25, 0.25)]])


def test_fused_j0_y0_is_bit_identical_to_separate_routes():
    # one shared loop / one Horner pass / one P-Q call must not move a
    # single bit: the series at z <= 2, the Taylor tables on (2, 16],
    # Hankel above
    for z in _BIT_IDENTITY_GRID:
        z = float(z)
        j0, y0, _, _ = sf._j0_y0_fused(z)
        assert j0 == sf.bessel_j0(z)
        assert y0 == sf.bessel_y0(z)
        if z <= 2.0:
            assert (j0, y0) == (_jn_own_loop(0, z), _yn_separate_loops(0, z))
        elif z <= 16.0:
            assert (j0, y0) == _taylor_own_pass(z)[:2], z
        else:
            assert (j0, y0) == _jn_yn_asym_own_pq(0, z)


def test_order_one_is_bit_identical_to_separate_routes():
    for z in _BIT_IDENTITY_GRID:
        z = float(z)
        j1, y1 = sf.bessel_j1(z), sf.bessel_y1(z)
        if z <= 2.0:
            assert (j1, y1) == (_jn_own_loop(1, z), _yn_separate_loops(1, z))
        elif z <= 16.0:
            assert (j1, y1) == _taylor_own_pass(z)[2:], z
        else:
            assert (j1, y1) == _jn_yn_asym_own_pq(1, z)


def test_taylor_tables_against_mpmath():
    # every point of (2, 16], the anchor midpoints among them, is within
    # the series' own worst error on the same grid (1.7e-16 absolute).
    # Y1 comes from the Wronskian J1 Y0 - J0 Y1 = 2/(pi z) at 30 digits,
    # which keeps more than 20 next to the grid's J0 zeros.
    zs = np.concatenate([np.linspace(2.0, 16.0, 3001)[1:],
                         [a + 0.25 for a in _ANCHORS[:-1]], [math.nextafter(2.0, 3.0)]])
    worst = [0.0] * 4
    with mp.workdps(30):
        for z in zs:
            z = float(z)
            zm = mp.mpf(z)
            j0, j1, y0 = mp.besselj(0, zm), mp.besselj(1, zm), mp.bessely(0, zm)
            want = (j0, y0, j1, (j1 * y0 - 2 / (mp.pi * zm)) / j0)
            got = sf._jy_taylor(z)
            worst = [max(w, abs(float(g - r))) for w, g, r in zip(worst, got, want)]
    assert max(worst) <= 1.7e-16, worst


def test_taylor_coefficients_against_mpmath():
    # the k-th coefficient of each anchor's row against F^(k)(z0)/k!, the
    # derivative from DLMF 10.6.7: 2^k F_nu^(k) = sum_j (-1)^j C(k, j)
    # F_{nu-k+2j}, F_{-n} = (-1)^n F_n.  |a_k| stays below the docstring's
    # Cauchy bound M = 0.81, and the coefficients' errors move a value at
    # |h| = 1/4 by at most 1.2e-16 (mostly the series' error in a_0, a_1).
    with mp.workdps(30):
        for i, z0 in enumerate(_ANCHORS):
            row = sf._taylor_row(i)[::-1]
            assert len(row) == 32
            zm = mp.mpf(z0)
            orders = {"j": [mp.besselj(n, zm) for n in range(33)],
                      "y": [mp.bessely(n, zm) for n in range(33)]}
            moved = [0.0] * 4
            for k, coeffs in enumerate(row):
                for f, (fam, nu) in enumerate((("j", 0), ("y", 0), ("j", 1), ("y", 1))):
                    s = 0
                    for j in range(k + 1):
                        n = nu - k + 2 * j
                        v = orders[fam][abs(n)]
                        s += (-1) ** j * math.comb(k, j) * (-v if n < 0 and n % 2 else v)
                    want = s / (2 ** k * math.factorial(k))
                    if nu == 0:
                        assert abs(want) <= 0.81, (z0, k, f)
                    moved[f] += float(abs(coeffs[f] - want)) / 4 ** k
            assert max(moved) <= 1.2e-16, (z0, moved)


def test_no_taylor_table_at_import():
    # rows are built on first use, one per anchor reached
    code = ("from rsheat import specfun\n"
            "specfun.bessel_j0(1.0), specfun.bessel_y1(20.0)\n"
            "assert specfun._TAYLOR_ROWS == {}\n"
            "specfun.bessel_y0(7.3)\n"
            "assert list(specfun._TAYLOR_ROWS) == [11]\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


@pytest.mark.parametrize("z", [1e-30, 1e-8, 1e-3, 0.5, math.nextafter(2.0, 3.0), 2.5, 3.0,
                               8.0, 15.0, 16.0, 17.0, 40.0])
def test_fused_parts_keep_relative_accuracy(z):
    # J0 - 1 and c = (pi/2) Y0 - (log(z/2)+gamma) J0 both cancel when formed
    # from J0 and Y0 as z -> 0; the fused evaluation returns them directly
    _, _, j0m1, c = sf._j0_y0_fused(z)
    with mp.workdps(40 + 2 * int(abs(math.log10(z)))):  # the reference cancels too
        zm = mp.mpf(z)
        j0 = mp.besselj(0, zm)
        c_ref = mp.pi / 2 * mp.bessely(0, zm) - (mp.log(zm / 2) + mp.euler) * j0
        if z <= 16.0:
            assert abs(j0m1 - (j0 - 1)) <= 1e-15 * abs(j0 - 1)
            assert abs(c - c_ref) <= 1e-15 * abs(c_ref)
        else:  # Hankel path: absolute accuracy
            assert abs(j0m1 - (j0 - 1)) <= 1e-15
            assert abs(c - c_ref) <= 1e-14 * (1.0 + abs(mp.log(zm)))


def test_checked_variants_error_model():
    # e^{-z} I0 is the one checked variant: its estimate bounds the
    # Friedrichs part of a trace's est_error
    for z in np.geomspace(1e-8, 700.0, 60):
        z = float(z)
        res = sf.i0_scaled_checked(z)
        assert math.isfinite(res.est_abs_error)
        assert res.est_abs_error <= 1e-12
        true_err = abs(res.value - float(mp.besseli(0, z) * mp.exp(-z)))
        assert true_err <= max(res.est_abs_error, 4e-16 * abs(res.value))


def test_checked_i0_takes_value_and_smallest_term_from_one_sum():
    # the Hankel stop rule reads only |a_m|: the alternating sum and the
    # all-positive sum stop at the same term, so one sum gives both
    zs = np.concatenate([np.geomspace(16.0, 5e3, 400), np.linspace(15.9, 16.1, 21),
                         np.geomspace(1e-8, 16.0, 60)])
    for z in zs:
        z = float(z)
        res = sf.i0_scaled_checked(z)
        assert res.value == sf.bessel_i0_scaled(z)
        if z > 16.0:
            _, smallest = sf._ik_asym_sum(0.0, z, alternate=False)
            assert res.est_abs_error == (1.0 / math.sqrt(2.0 * math.pi * z)
                                         * (smallest + 4.0 * 2.220446049250313e-16))


NONNEGATIVE = [sf.bessel_i0, sf.bessel_i0_scaled, sf.bessel_j0, sf.bessel_j1,
               sf.bessel_i1, sf.bessel_i1_scaled, sf.i0_scaled_checked]
POSITIVE = [sf.bessel_k0, sf.bessel_k0_scaled, bessel_k1, sf.bessel_k1_scaled,
            sf.bessel_y0, sf.bessel_y1]


def _rejects_non_reals(fn):
    for bad in ("3", 1j, True, None, 10 ** 400, np.float64(-1.0)):
        with pytest.raises(DomainError):
            fn(bad)


@pytest.mark.parametrize("fn", NONNEGATIVE)
def test_domain_errors_nonnegative(fn):
    with pytest.raises(DomainError):
        fn(-1.0)
    with pytest.raises(DomainError):
        fn(math.nan)
    with pytest.raises(DomainError):
        fn(math.inf)
    _rejects_non_reals(fn)


@pytest.mark.parametrize("fn", POSITIVE)
def test_domain_errors_positive(fn):
    with pytest.raises(DomainError):
        fn(0.0)
    with pytest.raises(DomainError):
        fn(-2.0)
    with pytest.raises(DomainError):
        fn(np.int64(0))
    _rejects_non_reals(fn)


@pytest.mark.parametrize("fn", NONNEGATIVE + POSITIVE)
def test_numpy_scalars_give_the_float_value(fn):
    for z in (np.int64(3), np.int32(3), np.float32(3.0), np.float64(3.0), np.float32(0.1)):
        assert fn(z) == fn(float(z))
    assert fn(np.float64(17.5)) == fn(17.5)
