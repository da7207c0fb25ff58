"""Convolution kernel: cut density, pole residue, Laplace identity."""

import math

import mpmath as mp
import numpy as np
import pytest

from rsheat import (
    BoundaryParam,
    DomainError,
    exotic_limit,
    exotic_term,
    integrate,
    k1_smooth,
    k_theta,
    laplace_of_k,
    m_main,
    pole_location,
    residue_term,
)
from rsheat.specfun import EULER_GAMMA
from rsheat.trace import _cut_integrals


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


def mp_part(t, kappa, main):
    """m_main (main) or k1_smooth in mpmath at the working precision:
    2 int e^{u - t e^u} / ((u + 2 kappa)^2 + pi^2) du in u = log y, over
    [0, log1p(800/t)] or [min(log(1/t), 0) - 60, 0], past which the
    integrand is below e^-60 of its peak, with finite breakpoints at the
    peak of e^{u - t e^u} and at the kernel's centre -2 kappa.  mp.quad's
    stop test is absolute, so the integrand is scaled to O(1) at its peak
    c, by e^s: s = log(t ((c + 2 kappa)^2 + pi^2)) + t for the main part,
    whose e^{-t} this takes out, and log(max(t, 1) ((c + 2 kappa)^2 + pi^2))
    for the other.
    """
    t = mp.mpf(t)
    k2 = 2 * mp.mpf(kappa)
    pi2 = mp.pi ** 2
    peak = -mp.log(t)  # +inf at t = 0, where e^u peaks at u = 0
    c = max(peak, 0) if main else min(peak, 0)
    lo, hi = (max(peak - 60, 0), mp.log1p(800 / t)) if main else (c - 60, mp.mpf(0))
    s = mp.log((t if main else max(t, 1)) * ((c + k2) ** 2 + pi2)) + (t if main else 0)

    def f(u):
        d = u + k2
        return mp.exp(u + s - t * mp.exp(u)) / (d * d + pi2)

    pts = sorted({lo, hi} | {p for p in (peak, -k2) if lo < p < hi})
    return 2 * mp.quad(f, pts) * mp.exp(-s)


def mp_exotic(t, kappa):
    """exotic_term in mpmath: -int_0^inf e^{-t e^u} C(u + 2 kappa) du, as
    -e^{-t} int_0^U e^{-t expm1(u)} C du with U = log1p(800/t), past which
    the integrand is below e^-800, breakpoints at the turn u = log(1/t) and
    at the centre -2 kappa, and the integrand scaled to O(1) at the
    breakpoint nearest that centre (mp.quad's stop test is absolute)."""
    t = mp.mpf(t)
    k2 = 2 * mp.mpf(kappa)
    hi = mp.log1p(800 / t)
    turn = -mp.log(t)
    pts = sorted({mp.mpf(0), hi} | {p for p in (turn - 3, turn, turn + 3, -k2 - 5, -k2, -k2 + 5)
                                    if 0 < p < hi})
    s = min((p + k2) ** 2 for p in pts) + mp.pi ** 2

    def f(u):
        return mp.exp(-t * mp.expm1(u)) * s / ((u + k2) ** 2 + mp.pi ** 2)

    return -mp.quad(f, pts) * mp.exp(-t) / s


def mp_cut(ell):
    """J(l) = int_R (1 - exp(-e^v)) C(v - l) dv in mpmath: on [-80, 4], with
    l a breakpoint inside it, plus the arctan tail from 4 less the exp(-e^v)
    part, below 1e-170 past v = 6; below -80 the integrand is under e^v."""
    ell = mp.mpf(ell)

    def lor(v):
        return 1 / ((v - ell) ** 2 + mp.pi ** 2)

    pts = sorted({mp.mpf(-80), mp.mpf(-10), mp.mpf(0), mp.mpf(4)}
                 | ({ell} if -80 < ell < 4 else set()))
    return (mp.quad(lambda v: -mp.expm1(-mp.exp(v)) * lor(v), pts)
            + mp.atan2(mp.pi, 4 - ell) / mp.pi
            - mp.quad(lambda v: mp.exp(-mp.exp(v)) * lor(v), [4, 6]))


class TestFixedRules:
    """The kernel's parts are fixed Gauss-Legendre sums with a strip bound
    (see the ktheta module docstring): relative accuracy at every angle,
    the Friedrichs neighbourhood included, and at every t."""

    THETAS = (0.0, 1.0, 2.4, 3.1, math.pi / 2 - 1e-4, math.pi / 2 + 1e-4)
    TIMES = (1e-305, 1e-100, 1e-10, 1e-4, 1e-2, 0.5, 5.0, 30.0, 100.0)

    def test_parts_against_mpmath(self):
        # m_main(1e3) underflows to 0.0, so the larger t are for k1_smooth
        # alone, whose window reaches 46 below its peak at u = -log t
        with mp.workdps(20):
            for theta in self.THETAS:
                bp = BoundaryParam(theta)
                for t in self.TIMES + (0.0, 1e3, 1e6, 1e10):
                    smooth = k1_smooth(t, bp)
                    ref = mp_part(t, bp.kappa, main=False)
                    assert abs(smooth - ref) <= 1e-15 * ref, (theta, t)
                    if t in (0.0, 1e3, 1e6, 1e10):
                        continue
                    main = m_main(t, bp)
                    ref = mp_part(t, bp.kappa, main=True)
                    assert abs(main - ref) <= 1e-15 * ref, (theta, t)
                    v = k_theta(t, bp, include_residue=False)
                    assert (v.main_part, v.smooth_part) == (main, smooth)

    def test_trace_rules_against_mpmath(self):
        # the trace's two fixed rules: exotic_term, scalar and array, on
        # m_main's rule, and J of the cut integrals F (residue off, F = 2 J),
        # over the same sweep, t = 1e-3 and 1e3, and pi/2 - 1e-6, where the
        # arctan tails in pi/2 - atan(x/pi) form missed J(1e-3) by 4e-11; the
        # t -> 0 limit is such a tail too, which that form missed by 5e-13
        times = self.TIMES + (1e-3, 1e3)
        with mp.workdps(20):
            for theta in self.THETAS + (math.pi / 2 - 1e-6,):
                bp = BoundaryParam(theta)
                k2 = 2 * mp.mpf(bp.kappa)
                arr = exotic_term(np.array(times), bp)
                cut = _cut_integrals(np.array(times), bp, include_residue=False)
                for got_arr, got_j, t in zip(arr, cut / 2.0, times):
                    got = exotic_term(t, bp)
                    assert got == got_arr, (theta, t)
                    ref = float(mp_exotic(t, bp.kappa))
                    assert abs(got - ref) <= 1e-15 * abs(ref), (theta, t)
                    ref = float(mp_cut(mp.log(t) - k2))
                    assert abs(got_j - ref) <= 1e-15 * ref, (theta, t)
                ref = float(-mp.atan2(mp.pi, k2) / mp.pi)
                assert abs(exotic_limit(bp) - ref) <= 1e-15 * abs(ref), theta

    def test_laplace_of_k_against_mpmath(self):
        # residue off: the cut part alone, against its Stieltjes integral in
        # u = log y over a window 50 wider than the logistic's and the
        # kernel's centres, plus the arctan tail; residue on, at
        # zeta >= 2 zeta0, against 1/(log sqrt(zeta) + kappa)
        with mp.workdps(20):
            for theta in (0.0, 1.0, 2.4, 3.1, math.pi / 2 - 1e-4):
                bp = BoundaryParam(theta)
                z0 = pole_location(bp)
                k2 = 2 * mp.mpf(bp.kappa)
                for zeta in (1e-3, 0.5, 2.0, 10.0, 1e3, 1e10):
                    lz = mp.log(zeta)

                    def f(u):
                        return 1 / ((1 + mp.exp(lz - u)) * ((u + k2) ** 2 + mp.pi ** 2))

                    lo, hi = min(lz, -k2) - 50, max(lz, -k2) + 50
                    tail = (mp.pi / 2 - mp.atan((hi + k2) / mp.pi)) / mp.pi
                    ref = 2 * (mp.quad(f, [lo, *sorted({lz, -k2}), hi]) + tail)
                    got = laplace_of_k(zeta, bp, include_residue=False)
                    assert abs(got - ref) <= 1e-15 * ref, (theta, zeta)
                    if zeta >= 2.0 * z0:
                        ref = 1 / (lz / 2 + mp.mpf(bp.kappa))
                        got = laplace_of_k(zeta, bp)
                        assert abs(got - ref) <= 1e-15 * abs(ref), (theta, zeta)


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
                assert abs(k1_smooth(t, bp) - ref) <= 1e-12 * abs(ref)

    def test_against_mpmath_next_to_friedrichs(self):
        # the contour pieces are O(1/kappa) and cancel to O(1/kappa^2) here
        for theta in (math.pi / 2 - 1e-4, math.pi / 2 + 1e-4):
            bp = BoundaryParam(theta)
            for t in (0.0, 0.5, 5.0, 1000.0):
                with mp.workdps(30):
                    ref = mp_part(t, bp.kappa, main=False)
                    assert abs(k1_smooth(t, bp) - ref) <= 1e-13 * ref

    def test_large_t_against_mpmath(self):
        for theta in (0.0, 1.0, 2.4, 3.1):
            bp = BoundaryParam(theta)
            with mp.workdps(30):
                ref = mp_part(1000, bp.kappa, main=False)
                assert abs(k1_smooth(1000.0, bp) - ref) <= 1e-13 * ref

    def test_rows_keep_their_bits_in_any_block(self):
        # each row sums along its own nodes: a time t <= 1 gives the same
        # bits alone and in a block of any size, as t2_part's splits need
        for theta in (0.0, 1.0, 2.4):
            bp = BoundaryParam(theta)
            for n in (1, 2, 3, 5, 8, 13, 21, 64):
                ts = np.geomspace(1e-3, 0.9, n) if n > 1 else np.array([0.37])
                block = k1_smooth(ts, bp)
                assert [v.hex() for v in block] == [
                    k1_smooth(t, bp).hex() for t in ts.tolist()], (theta, n)

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
        # integrating panel by panel over any subdivision must shift the
        # total by no more than the combined error estimate
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
        for pts in ([0.5], [0.3, 0.9], [0.01, 0.2, 0.7]):
            edges = [0.0, *pts, 1.0]
            parts = [integrate(f, a, b) for a, b in zip(edges, edges[1:])]
            alt = sum(p.value for p in parts)
            err = sum(p.est_error for p in parts)
            assert abs(alt - base.value) <= base.est_error + err + 1e-15


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
