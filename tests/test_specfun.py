"""Special-function accuracy: frozen oracles, dual paths, Wronskians."""

import math

import mpmath as mp
import numpy as np
import pytest

from rsheat import DomainError
from rsheat import specfun as sf

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
    (sf.bessel_k1, lambda z: mp.besselk(1, z), True),
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
        assert abs(sf.bessel_k1_scaled(z) * math.exp(-z) / sf.bessel_k1(z) - 1.0) < 1e-14


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
                assert (sf.bessel_k0 if n == 0 else sf.bessel_k1)(z) == k_n


# The Hankel sums as two separate stop tests on an endless term generator,
# the references for the one stop rule that ``_hankel_terms`` holds: each
# stops before a term that does not shrink or whose index passes its cap,
# and after the first term below its floor.

def _hankel_terms_endless(mu, z):
    a = 1.0
    m = 0
    yield a
    while True:
        m += 1
        a *= (mu - (2 * m - 1) ** 2) / (m * 8.0 * z)
        yield a


def _ik_asym_sum_own_stop(mu, z, alternate):
    total = 0.0
    prev = math.inf
    smallest = math.inf
    sign = 1.0
    for m, a in enumerate(_hankel_terms_endless(mu, z)):
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


def _jy_asym_pq_own_stop(mu, z):
    p = 0.0
    q = 0.0
    prev = math.inf
    for m, a in enumerate(_hankel_terms_endless(mu, z)):
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


def test_hankel_sums_are_bit_identical_to_separate_stop_tests():
    # one stop rule in the generator must not move a single bit of either
    # sum, nor of the smallest term that i0_scaled_checked reads
    zs = np.concatenate([np.linspace(14.0, 18.0, 4001), np.geomspace(18.0, 5e5, 2000),
                         [math.nextafter(16.0, 0.0), 16.0, math.nextafter(16.0, 17.0)]])
    for z in zs:
        z = float(z)
        for mu in (0.0, 4.0):
            for alternate in (True, False):
                got = sf._ik_asym_sum(mu, z, alternate)
                want = _ik_asym_sum_own_stop(mu, z, alternate)
                assert [v.hex() for v in got] == [v.hex() for v in want], (mu, z, alternate)
            got = sf._jy_asym_pq(mu, z)
            assert [v.hex() for v in got] == [v.hex() for v in _jy_asym_pq_own_stop(mu, z)], (
                mu, z)


# Separate-loop references for the bit-identity tests below: J_n and the
# regular sum of Y_n each have their own loop, written out here, so neither
# shares code with the one loop under test.

def _jn_own_loop(n, z):
    from rsheat._dd import dd_add, dd_div_d, dd_mul, dd_mul_d, dd_sqr_d
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
    from rsheat._dd import dd_add, dd_div_d, dd_mul, dd_mul_d, dd_sqr_d
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


_BIT_IDENTITY_GRID = np.concatenate([np.linspace(1e-3, 80.0, 2001),
                                     np.geomspace(1e-200, 1e-3, 50)])


def test_fused_j0_y0_is_bit_identical_to_separate_routes():
    # one shared loop / one P-Q call must not move a single bit
    for z in _BIT_IDENTITY_GRID:
        z = float(z)
        j0, y0, _, _ = sf._j0_y0_fused(z)
        assert j0 == sf.bessel_j0(z)
        assert y0 == sf.bessel_y0(z)
        if z <= 16.0:
            assert (j0, y0) == (_jn_own_loop(0, z), _yn_separate_loops(0, z))
        else:
            assert (j0, y0) == _jn_yn_asym_own_pq(0, z)


def test_order_one_is_bit_identical_to_separate_routes():
    for z in _BIT_IDENTITY_GRID:
        z = float(z)
        j1, y1 = sf.bessel_j1(z), sf.bessel_y1(z)
        if z <= 16.0:
            assert (j1, y1) == (_jn_own_loop(1, z), _yn_separate_loops(1, z))
        else:
            assert (j1, y1) == _jn_yn_asym_own_pq(1, z)


@pytest.mark.parametrize("z", [1e-30, 1e-8, 1e-3, 0.5, 3.0, 15.0, 17.0, 40.0])
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
POSITIVE = [sf.bessel_k0, sf.bessel_k0_scaled, sf.bessel_k1, sf.bessel_k1_scaled,
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
