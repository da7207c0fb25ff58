"""Convolution kernel: cut density, pole residue, Laplace identity."""

import math

import mpmath as mp
import numpy as np
import pytest

from rsheat import (
    BoundaryParam,
    DomainError,
    QuadSpec,
    integrate,
    k1_smooth,
    k_theta,
    laplace_of_k,
    m_main,
    pole_location,
    residue_term,
)
from rsheat.specfun import EULER_GAMMA

# relative tolerance only: the kernel parts fall like 1/kappa^2 near pi/2
REL_SPEC = QuadSpec(rel_tol=1e-13, abs_tol=1e-300)


def contour_k1(t, kap, spec):
    """The smooth part as the Bromwich contour pieces it replaced: the
    segment |zeta| <= 1 of the imaginary axis plus the two unit quarter
    arcs, conjugate pairs summed, (1/pi) Re of each."""
    b = 0.25 * math.pi

    def segment(ys):
        a = 0.5 * np.log(ys) + kap
        return (a * np.cos(t * ys) + b * np.sin(t * ys)) / (a * a + b * b)

    def arcs(phis):
        c = np.cos(phis)
        s = np.sin(phis)
        bb = 0.5 * phis + 0.25 * math.pi
        num = (c * bb - s * kap) * np.cos(t * c) - (s * bb + c * kap) * np.sin(t * c)
        return np.exp(-t * s) * num / (kap * kap + bb * bb)

    return (integrate(segment, 0.0, 1.0, spec).value
            + integrate(arcs, 0.0, 0.5 * math.pi, spec).value) / math.pi


def axis_k(t, radius, kap):
    """The Bromwich integral along the imaginary axis, truncated at R =
    radius: (1/pi) Re int_0^R e^{ity} ((1/2) log y + i pi/4 + kappa)^{-1} dy,
    with [1, R] on quarter-period 12-point Gauss-Legendre panels, 2^16
    panels at a time.  It tends to m_main + k1_smooth, not the pole term."""
    b = 0.25 * math.pi

    def f(ys):
        a = 0.5 * np.log(ys) + kap
        return (a * np.cos(t * ys) + b * np.sin(t * ys)) / (a * a + b * b)

    total = integrate(f, 0.0, 1.0).value
    nodes, weights = np.polynomial.legendre.leggauss(12)
    n_panels = math.ceil((radius - 1.0) / (0.5 * math.pi / t))
    edges = np.linspace(1.0, radius, n_panels + 1)
    for k in range(0, n_panels, 2 ** 16):
        stop = min(k + 2 ** 16, n_panels)
        lo = edges[k:stop, None]
        hi = edges[k + 1:stop + 1, None]
        ys = 0.5 * (lo * (1.0 - nodes) + hi * (1.0 + nodes))
        total += float(np.sum(0.5 * (hi - lo) * weights * f(ys)))
    return total / math.pi


def mp_k1(t, kappa):
    """2 int_0^1 e^{-ty} dy / ((log y + 2 kappa)^2 + pi^2) in mpmath."""
    k2 = 2 * mp.mpf(kappa)
    pts = sorted({-mp.inf, mp.mpf(0), min(-k2, mp.mpf(-1)), min(-mp.log(t + 1), -1)})
    return 2 * mp.quad(lambda u: mp.exp(u - t * mp.exp(u)) / ((u + k2) ** 2 + mp.pi ** 2),
                       pts)


class TestMMain:
    def test_decreasing(self, bp0):
        for t in (0.01, 0.1, 1.0):
            assert m_main(t, bp0) > m_main(2.0 * t, bp0) > 0.0

    def test_riemann_oracle(self, bp0):
        # theta = 0, t = 1 against a 1e6-point Riemann sum
        k2 = 2.0 * bp0.kappa
        n = 1000000
        umax = math.log(46.0 + math.log(46.0))
        us = (np.arange(n) + 0.5) * (umax / n)
        riemann = 2.0 * float(np.sum(
            np.exp(us - np.exp(us)) / ((us + k2) ** 2 + math.pi ** 2))) * (umax / n)
        assert abs(m_main(1.0, bp0) - riemann) < 1e-8

    def test_small_t_log_asymptotics(self, bp0):
        # t log^2 t m_main(t) -> 2, with only 1/log t convergence speed
        for t in (1e-6, 1e-8):
            val = t * math.log(t) ** 2 * m_main(t, bp0)
            assert abs(val - 2.0) < 0.25 * 2.0

    def test_friedrichs_rejected(self, bp_friedrichs):
        with pytest.raises(DomainError):
            m_main(0.1, bp_friedrichs)

    def test_large_t_underflow_regime(self, bp0):
        # beyond t ~ 46 the exponential factor underflows everywhere; the
        # value is essentially zero but the call must stay well-defined
        v = m_main(50.0, bp0)
        assert 0.0 <= v < 1e-20
        assert k_theta(50.0, bp0).main_part == v


class TestK1Smooth:
    def test_matches_contour_reference(self, tight_spec):
        for theta in (0.0, 1.0, 2.4, 3.1):
            bp = BoundaryParam(theta)
            for t in (0.0, 1e-6, 0.5, 5.0, 50.0):
                ref = contour_k1(t, bp.kappa, tight_spec)
                assert abs(k1_smooth(t, bp, tight_spec) - ref) <= 1e-12 * abs(ref)

    def test_against_mpmath_next_to_friedrichs(self):
        # the contour pieces are O(1/kappa) and cancel to O(1/kappa^2) here
        for theta in (math.pi / 2 - 1e-4, math.pi / 2 + 1e-4):
            bp = BoundaryParam(theta)
            for t in (0.0, 0.5, 5.0, 1000.0):
                with mp.workdps(30):
                    ref = mp_k1(mp.mpf(t), bp.kappa)
                    assert abs(k1_smooth(t, bp, REL_SPEC) - ref) <= 1e-13 * ref

    def test_large_t_against_mpmath(self):
        for theta in (0.0, 1.0, 2.4, 3.1):
            bp = BoundaryParam(theta)
            with mp.workdps(30):
                ref = mp_k1(mp.mpf(1000), bp.kappa)
                assert abs(k1_smooth(1000.0, bp, REL_SPEC) - ref) <= 1e-13 * ref
                assert abs(k1_smooth(1000.0, bp) - ref) <= 1e-10 * ref

    def test_bounded_no_growth(self, bp0):
        ts = np.linspace(0.0, 5.0, 26)
        vals = [abs(k1_smooth(float(t), bp0)) for t in ts]
        assert max(vals) < 1.0
        assert max(vals[13:]) <= max(vals[:13])

    def test_smooth_at_zero(self, bp0):
        assert math.isfinite(k1_smooth(0.0, bp0))

    def test_continuity_bounded_jumps(self, bp0):
        ts = np.linspace(0.01, 1.0, 34)
        vals = [k_theta(float(t), bp0).total for t in ts]
        dt = float(ts[1] - ts[0])
        for i in range(len(ts) - 1):
            mid = 0.5 * (float(ts[i]) + float(ts[i + 1]))
            deriv = (k_theta(mid + 0.5 * dt, bp0).total
                     - k_theta(mid - 0.5 * dt, bp0).total) / dt
            assert abs(vals[i + 1] - vals[i]) <= 1.5 * abs(deriv) * dt + 1e-8


class TestResidue:
    def test_theta0_values(self, bp0):
        z0 = pole_location(bp0)
        assert abs(z0 - 4.0 * math.exp(-2.0 * EULER_GAMMA)) < 1e-15
        assert abs(residue_term(0.0, bp0) - 2.0 * z0) < 1e-14

    def test_vanishes_toward_friedrichs(self):
        bp = BoundaryParam(math.pi / 2 - 0.01)
        assert residue_term(1.0, bp) < 1e-80

    def test_flag_off(self, bp0):
        for t in (1e-3, 0.5, 3.0):
            assert k_theta(t, bp0, include_residue=False).residue_part == 0.0

    def test_increasing(self, bp0):
        assert residue_term(1.0, bp0) > residue_term(0.5, bp0) > 0.0


class TestKTheta:
    def test_total_is_sum(self, bp0):
        v = k_theta(0.7, bp0)
        assert v.total == v.main_part + v.smooth_part + v.residue_part
        assert v.main_part > 0.0

    def test_near_friedrichs_decay(self):
        bp = BoundaryParam(math.pi / 2 - 0.01)
        bound = 3.0 / abs(bp.kappa)
        for t in (0.1, 0.5, 1.0):
            assert abs(k_theta(t, bp).total) <= bound

    def test_domain(self, bp0):
        with pytest.raises(DomainError):
            k_theta(0.0, bp0)


class TestLaplaceIdentity:
    def test_matches_target_with_residue(self, bp0):
        z0 = pole_location(bp0)
        zeta = 4.0 * z0
        # (1/2) log(4 z0) + kappa = log 2 exactly
        target = 1.0 / math.log(2.0)
        got = laplace_of_k(zeta, bp0)
        assert abs(got - target) < 1e-3 * target

    def test_fails_without_residue(self, bp0):
        z0 = pole_location(bp0)
        zeta = 4.0 * z0
        target = 1.0 / math.log(2.0)
        got = laplace_of_k(zeta, bp0, include_residue=False)
        assert abs(got - target) >= 2.0 * z0 / (zeta - z0) - 2e-3

    def test_large_zeta_log_decay(self, bp0):
        got = laplace_of_k(1e6, bp0)
        assert abs(got - 2.0 / math.log(1e6)) < 0.2 * 2.0 / math.log(1e6)

    def test_matches_symbol_far_from_zeta_one(self):
        # far below zeta = 1 the residue and cut parts nearly cancel; far
        # above, the cut density is needed far beyond y = 1
        cases = ((math.atan(10.0), (1e-2, 1e-6, 1e-8)), (0.0, (1e6, 1e10, 1e16)))
        for theta, zetas in cases:
            bp = BoundaryParam(theta)
            for zeta in zetas:
                target = 1.0 / (0.5 * math.log(zeta) + bp.kappa)
                assert abs(laplace_of_k(zeta, bp) - target) <= 1e-12 * abs(target)

    def test_finite_up_to_the_largest_double(self):
        # y/(y + zeta) used to overflow past u = log zeta + 46 ~ 709: nan from
        # zeta ~ 1e289 on, with numpy warnings from ~1e288
        bp = BoundaryParam(1.0)
        z0 = pole_location(bp)
        for zeta in (1e100, 1e288, 1e289, 1e300, 1.7e308):
            target = 1.0 / (0.5 * math.log(zeta) + bp.kappa)
            assert abs(laplace_of_k(zeta, bp) - target) <= 1e-14 * target
            off = target - 2.0 * z0 / (zeta - z0)
            got = laplace_of_k(zeta, bp, include_residue=False)
            assert abs(got - off) <= 1e-14 * off
        for zeta in (5e-324, 1e-300):  # without the residue every zeta > 0
            assert math.isfinite(laplace_of_k(zeta, bp, include_residue=False))
        # a pole at 1.04e308, where 2 zeta0 overflows; the target's own
        # log zeta/2 + kappa = 0.25 cancels to ~1e-13
        deep = BoundaryParam(math.pi - math.atan(354.5))
        target = 1.0 / (0.5 * math.log(1.7e308) + deep.kappa)
        assert abs(laplace_of_k(1.7e308, deep) - target) <= 1e-12 * target

    def test_pole_guard(self, bp0):
        z0 = pole_location(bp0)
        with pytest.raises(DomainError):
            laplace_of_k(0.5 * z0, bp0)
        with pytest.raises(DomainError):
            laplace_of_k(-1.0, bp0, include_residue=False)


class TestOrderIndependence:
    def test_segment_integrand_panelization_invariant(self, bp0):
        # permuting the initial subdivision must shift the total by no more
        # than the combined error estimate
        from rsheat import integrate
        b = math.pi / 4.0
        kap = bp0.kappa
        t = 0.6

        def f(ys):
            ys = np.asarray(ys)
            with np.errstate(divide="ignore"):
                a = 0.5 * np.log(np.maximum(ys, 1e-300)) + kap
            return (a * np.cos(t * ys) + b * np.sin(t * ys)) / (a * a + b * b)

        base = integrate(f, 0.0, 1.0)
        for pts in ([0.5], [0.9, 0.3], [0.01, 0.7, 0.2]):
            alt = integrate(f, 0.0, 1.0, points=pts)
            assert abs(alt.value - base.value) <= base.est_error + alt.est_error + 1e-15


class TestBromwich:
    def test_truncation_error_log_ratio(self, bp0):
        # sup over a t-grid kills the oscillatory phase of the endpoint term;
        # the truncation error then scales like 1/log R
        ts = np.linspace(0.5, 1.5, 9)
        sups = {}
        for radius in (1e3, 1e6):
            errs = []
            for t in ts:
                t = float(t)
                assembled = m_main(t, bp0) + k1_smooth(t, bp0)
                errs.append(abs(axis_k(t, radius, bp0.kappa) - assembled))
            sups[radius] = max(errs)
        ratio = sups[1e3] / sups[1e6]
        assert 1.0 <= ratio <= 3.0  # ideal value log(1e6)/log(1e3) = 2, +-50%
