"""Trace curves: closed forms, evaluation-order oracles, exotic term."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import k0e, k1e

from rsheat import (
    BoundaryParam,
    DomainError,
    QuadSpec,
    eigenvalues,
    exotic_limit,
    exotic_term,
    friedrichs_trace,
    full_trace,
    oracle_trace,
    pole_location,
    t1_reference,
    tn_trace,
    trace_curve,
)
from rsheat import ktheta, quadrature, trace
from rsheat._dd import two_prod
from rsheat.ktheta import k1_smooth, m_main
from rsheat.quadrature import DEFAULT_SPEC, UNDERFLOW_U, arctan_tail, integrate
from rsheat.specfun import bessel_i0_scaled
from rsheat.trace import (
    _CURVE_BLOCK,
    _GLW_N,
    _GLW_W,
    _PI2,
    _TRQ_C,
    _TRQ_FLAT_S,
    _TRQ_W,
    _W_EDGES,
    _a_conv,
    _friedrichs_trace_res,
    _r_values,
    _trq_values,
    residue_trace_part,
    t1_y_outer,
    t2_part,
    volterra_correction,
)

# the benchmark's trace grid and its times on the flat-TrQ range
CURVE_T = np.geomspace(1e-4, 5e-2, 25)
FLAT_T = [float(t) for t in CURVE_T if t < _TRQ_FLAT_S]
# times from _TRQ_FLAT_S to 0.1, where trace_curve subtracts the Volterra
# integral and full_trace takes the nested route
REMAINDER_T = [0.0298, 0.0386, 0.05, 0.07, 0.1]
FLAT_THETAS = (0.0, 0.3, math.pi / 4, 1.0, 1.5, 31 * math.pi / 64, 2.4, 3.1,
               37 * math.pi / 64)
NESTED_SPEC = QuadSpec(rel_tol=1e-13, abs_tol=1e-300)


def _nested(ts):
    """(T1 + T2, residue trace) of the nested route at NESTED_SPEC for every
    (theta, t) of FLAT_THETAS x ts."""
    out = {}
    for theta in FLAT_THETAS:
        bp = BoundaryParam(theta)
        for t in ts:
            out[theta, t] = (t1_y_outer(t, bp, NESTED_SPEC)
                             + t2_part(t, bp, NESTED_SPEC),
                             residue_trace_part(t, bp, NESTED_SPEC))
    return out


def t1_s_outer(t, bp, spec=DEFAULT_SPEC, eps=1e-6):
    """T1 in the s-outer order, the reference for t1_y_outer: the same double
    integral in the other Fubini order, through m_main instead of the
    y-integrand, so agreement checks the order swap.

    int_0^t M(tau) TrQ(t - tau) dtau in v = log tau, truncated at
    tau = eps*t; the cut [0, eps*t] contributes TrQ(t) * C(eps t) with
    C(a) = int_0^a M = 2 * t1_reference(a) = 2 (exotic_term(a) - exotic_limit),
    added analytically.
    """
    def f(vs):
        taus = np.exp(np.asarray(vs))
        trqs = _trq_values(t - taus)
        return np.array([m_main(float(tau), bp) * float(q) * float(tau)
                         for tau, q in zip(taus, trqs)])

    r = integrate(f, math.log(eps * t), math.log(t), spec)
    return r.value + tn_trace(t) * 2.0 * (exotic_term(eps * t, bp) - exotic_limit(bp))


@pytest.fixture(scope="module")
def nested_parts():
    return _nested(FLAT_T)


@pytest.fixture(scope="module")
def remainder_parts():
    return _nested(REMAINDER_T)


def _cut_integral_mp(ell):
    """J(l) = int_R (1 - exp(-e^v)) dv / ((v - l)^2 + pi^2) in mpmath; above
    v = 4 as the arctan tail minus the exp(-e^v) part, which is below
    1e-170 past v = 6; below v = -60 the integrand is under e^v < 1e-26."""

    def lor(v):
        return 1 / ((v - ell) ** 2 + mp.pi ** 2)

    return (mp.quad(lambda v: -mp.expm1(-mp.exp(v)) * lor(v),
                    [-60] + sorted([ell, mp.mpf(0)]) + [4])
            + (mp.pi / 2 - mp.atan((4 - ell) / mp.pi)) / mp.pi
            - mp.quad(lambda v: mp.exp(-mp.exp(v)) * lor(v), [4, 6]))


def _tn_adaptive(t, spec):
    """TrQ(t) = int_0^{1/2} (1 - exp(-1/(4 t u (1-u)))) du, adaptively in u:
    the integral tn_trace's fixed rule replaces."""

    def f(us):
        g = us * (1.0 - us)
        with np.errstate(divide="ignore", under="ignore"):
            e = np.where(g > 0, np.exp(-1.0 / (4.0 * t * np.maximum(g, 1e-300))), 0.0)
        return 1.0 - e

    return integrate(f, 0.0, 0.5, spec).value


def _r_closed(s):
    """R(s) = 1/2 - TrQ(s) = (Z/2) e^{-Z} (K1 - K0)(Z), Z = 1/(2s), and
    R'(s) = Z^2 e^{-Z} K0(Z), from scipy's scaled K."""
    z = 0.5 / np.asarray(s, dtype=float)
    e = np.exp(-2.0 * z)
    return 0.5 * z * e * (k1e(z) - k0e(z)), z * z * e * k0e(z)


class TestTnTrace:
    def test_below_half_everywhere(self):
        # the deficit is below e^{-1/t}/2: below t ~ 0.0267 it is under
        # half an ulp of 1/2 and the value is exactly 1/2
        for t in np.geomspace(1e-3, 2.0, 15):
            assert tn_trace(float(t)) <= 0.5
        for t in (0.1, 0.5, 2.0):
            assert tn_trace(t) < 0.5

    def test_exponentially_close_to_half(self):
        assert abs(tn_trace(0.05) - 0.5) <= 2.1e-9

    def test_fast_grid_matches_adaptive(self):
        ss = np.geomspace(1e-4, 1.0, 30)
        spec = QuadSpec(rel_tol=1e-13, abs_tol=1e-15)
        for s, f in zip(ss, _trq_values(ss)):
            assert abs(f - _tn_adaptive(float(s), spec)) < 1e-14
            assert abs(f - tn_trace(float(s))) <= 1e-22

    def test_certificate_against_mpmath(self):
        # the strip bound puts the rule within 2e-17 of R at every s > 0;
        # 1e-16 leaves room for the rounding of 1/2 - R
        ss = np.geomspace(1e-3, 1e8, 221)
        with mp.workdps(40):
            for s, value in zip(ss, _trq_values(ss)):
                z = 1 / (2 * mp.mpf(float(s)))
                r = z / 2 * mp.exp(-z) * (mp.besselk(1, z) - mp.besselk(0, z))
                assert abs(value - (mp.mpf(1) / 2 - r)) <= 1e-16

    def test_exactly_half_below_the_flat_point(self):
        # R(s) <= e^{-1/s}/2 < 2^-55 for s < 1/38, so 1/2 - R rounds to 1/2
        # even where the exponentials are summed
        ss = np.concatenate([np.geomspace(1e-12, _TRQ_FLAT_S, 2001)[:-1],
                             [np.nextafter(_TRQ_FLAT_S, 0.0)]])
        assert np.all(_trq_values(ss) == 0.5)
        assert np.all(0.5 - _r_values(ss) == 0.5)
        assert np.all(_r_values(ss) < 2.0 ** -55)
        assert np.array_equal(_trq_values([0.0, -1.0]), [0.5, 0.5])
        assert _TRQ_FLAT_S == 1.0 / 38.0

    def test_node_cut_and_exact_sum(self):
        # _r_values skips the nodes where e^{-c/s} underflows for every s
        # of the call (23 of 161 for s <= 0.1) and sums the rest exactly up
        # to one rounding, so a value does not hang on the call's other times
        ss = np.geomspace(_TRQ_FLAT_S, 1e8, 301)
        batch = _r_values(ss)
        for s, r in zip(ss, batch):
            terms = np.exp(-_TRQ_C / s) * _TRQ_W
            assert np.all(terms[np.count_nonzero(terms):] == 0.0)
            exact = math.fsum(terms)
            assert abs(r - exact) <= 1e-22 + 0.5 * np.spacing(exact)
            assert abs(_r_values(np.array([s]))[0] - r) <= 1e-22
        assert np.count_nonzero(np.exp(-_TRQ_C / 0.1)) == 23

    def test_r_prime_on_the_same_nodes(self):
        # volterra_correction takes R'(s) = sum W c/s^2 e^{-c/s} from the
        # rule; near s_f it is good only to ~4e-9 relative, but R' is below
        # 4e-15 there, so its absolute error stays below 1e-18
        ss = np.geomspace(_TRQ_FLAT_S, 1e8, 241)
        _, ref = _r_closed(ss)
        a = _TRQ_C / ss[:, None]
        rule = (a * a * np.exp(-a)) @ (_TRQ_W / _TRQ_C)
        assert np.all(np.abs(rule - ref) <= 1e-18 + 2e-15 * ref)


class TestFriedrichsTrace:
    def test_short_time_normalization(self):
        t = 1e-4
        v = math.sqrt(4.0 * math.pi * t) * friedrichs_trace(t)
        assert 0.9 <= v <= 1.0

    def test_decreasing(self):
        ts = np.geomspace(1e-3, 1.0, 12)
        vals = [friedrichs_trace(float(t)) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_eigen_sum_cross_check(self):
        # heat sum over frozen j0 zero squares + wall constant 1/4
        j0sq = (5.783185962946784521176, 30.47126234366208639908,
                74.88700679069518344489, 139.0402844264598490016,
                222.9323036176341569546, 326.5633529323284561822,
                449.9335285180355267273, 593.0428696559552880437)
        t = 0.05
        eig_sum = sum(math.exp(-t * lam) for lam in j0sq)
        assert abs(friedrichs_trace(t) - eig_sum - 0.25) <= 0.02


    def test_closed_form_against_mpmath(self):
        with mp.workdps(40):
            for t in np.geomspace(1e-4, 50.0, 41):
                t = float(t)
                z = 1 / (2 * mp.mpf(t))
                ref = z / 2 * mp.exp(-z) * (mp.besseli(0, z) + mp.besseli(1, z))
                value, est = _friedrichs_trace_res(t)
                assert abs(value - ref) <= 1e-14 * ref
                assert abs(value - ref) <= est

    def test_closed_form_against_tight_quadrature(self):
        i0s = np.vectorize(bessel_i0_scaled, otypes=[float])
        spec = QuadSpec(rel_tol=1e-13, abs_tol=1e-16)
        for t in (1e-3, 1e-2, 0.1, 1.0, 10.0):
            quad = integrate(lambda xs: (xs / (2.0 * t)) * i0s(xs * xs / (2.0 * t)),
                             0.0, 1.0, spec).value
            assert abs(friedrichs_trace(t) - quad) <= 1e-13 * quad


class TestT1Routes:
    def test_order_oracle_y_vs_s(self, bp0):
        a = t1_y_outer(0.1, bp0)
        b = t1_s_outer(0.1, bp0)
        assert abs(a - b) < 1e-7

    def test_reference_monotone_in_t(self, bp0):
        assert abs(t1_reference(1e-6, bp0)) <= abs(t1_reference(1e-2, bp0))
        assert t1_reference(1e-6, bp0) > 0.0

    def test_reference_matches_mpmath(self):
        # int_0^inf (1 - exp(-t e^u)) du / ((u + 2 kappa)^2 + pi^2) at 30
        # digits: panels split at u = log(1/t) + (-3, 0, 3, 6), the arctan
        # tail in closed form from u = 60, where 1 - exp(-t e^u) is 1
        for theta in (0.0, 1.0, 2.4):
            bp = BoundaryParam(theta)
            for t in (1e-4, 0.02, 0.05, 3.0):
                cuts = sorted({0.0, 60.0, *(max(0.0, math.log(1.0 / t) + d)
                                            for d in (-3, 0, 3, 6))})
                with mp.workdps(30):
                    k2 = 2 * (mp.euler - mp.log(2) + mp.tan(mp.mpf(theta)))

                    def f(u):
                        return (1 - mp.exp(-t * mp.exp(u))) / ((u + k2) ** 2 + mp.pi ** 2)

                    want = float(sum(mp.quad(f, [a, b]) for a, b in zip(cuts, cuts[1:]))
                                 + (mp.pi / 2 - mp.atan((60 + k2) / mp.pi)) / mp.pi)
                assert abs(t1_reference(t, bp) - want) <= 2e-15 * want, (theta, t)

    def test_reference_riemann_oracle(self, bp_three_quarter):
        t = 0.1
        k2 = 2.0 * bp_three_quarter.kappa
        n = 2000000
        umax = 46.0
        us = (np.arange(n) + 0.5) * (umax / n)
        riemann = float(np.sum(-np.expm1(-t * np.exp(us))
                               / ((us + k2) ** 2 + math.pi ** 2))) * (umax / n)
        riemann += (1.0 / math.pi) * (0.5 * math.pi - math.atan((umax + k2) / math.pi))
        assert abs(t1_reference(t, bp_three_quarter) - riemann) < 1e-7


class TestExoticTerm:
    def test_negative_and_increasing(self, bp0):
        ts = np.geomspace(1e-6, 1e-1, 10)
        vals = [exotic_term(float(t), bp0) for t in ts]
        assert all(v < 0.0 for v in vals)
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_large_t_stays_defined(self, bp0):
        v = exotic_term(50.0, bp0)
        assert -1e-20 < v <= 0.0

    def test_kappa_zero_limit_value(self):
        bp = BoundaryParam(math.atan(math.log(2.0) - 0.5772156649015328606065121))
        assert abs(bp.kappa) < 1e-16
        assert abs(exotic_limit(bp) - (-0.5)) < 1e-15
        # finite-t value against an independently frozen 30-digit quadrature;
        # the t -> 0 limit -1/2 is approached only at 1/log(1/t) speed, so
        # exotic_term(1e-8) is still ~0.056 away from it
        assert abs(exotic_term(1e-8, bp) - (-0.44422241683076577)) < 1e-8
        assert abs(exotic_term(1e-8, bp) - exotic_limit(bp)) > 0.05


class TestCorrectionAndFull:
    def test_friedrichs_branch_exact(self, bp_friedrichs):
        s = full_trace(0.07, bp_friedrichs)
        assert s.parts.correction == 0.0
        assert s.value == s.parts.friedrichs == friedrichs_trace(0.07)
        for part in (lambda: volterra_correction([0.07], bp_friedrichs),
                     lambda: t1_y_outer(0.07, bp_friedrichs),
                     lambda: t2_part(0.07, bp_friedrichs),
                     lambda: residue_trace_part(0.07, bp_friedrichs)):
            with pytest.raises(DomainError):
                part()

    def test_parts_identity(self, bp_quarter):
        s = full_trace(0.05, bp_quarter)
        assert s.value == s.parts.friedrichs + s.parts.correction
        assert s.parts.exotic_ref == pytest.approx(exotic_term(0.05, bp_quarter), abs=1e-12)

    def test_near_friedrichs_from_below(self):
        # kernel decay: approaching Friedrichs from below, the correction
        # vanishes like 1/kappa
        bp = BoundaryParam(math.pi / 2 - 0.01)
        corr = full_trace(0.1, bp).parts.correction
        assert abs(corr) <= 3.0 / abs(bp.kappa)

    def test_near_friedrichs_from_above_unit_jump(self):
        # crossing Friedrichs from above creates a deep bound state; even
        # with the explicit pole term excluded, the Lorentzian bump of the
        # kernel weight at y = e^{-2 kappa} carries one full unit of trace
        # (spectral flow), so the correction sits near 1, not near 0
        bp = BoundaryParam(math.pi / 2 + 0.01)
        corr = t1_y_outer(0.1, bp) + t2_part(0.1, bp)
        assert abs(corr - 1.0) <= 10.0 / abs(bp.kappa)

    def test_residue_trace_linear_in_t(self, bp0):
        t = 1e-3
        z0 = pole_location(bp0)
        assert abs(residue_trace_part(t, bp0) / (z0 * t) - 1.0) < 0.01

    def test_t2_part_small(self, bp0):
        # T2 ~ (1/2) int_0^t K1 = O(t)
        assert abs(t2_part(0.01, bp0)) < 0.01


class TestArrayRoutes:
    """The panel-at-once integrands against the node-by-node routes they
    replaced, written out here as the reference."""

    def test_a_conv_matches_per_y_loop(self):
        def a_conv_one(y, t):
            w_max = min(t * y, 46.0)
            edges = np.append(_W_EDGES[_W_EDGES < w_max], w_max)
            lo = edges[:-1, None]
            hi = edges[1:, None]
            w = 0.5 * (lo * (1.0 - _GLW_N) + hi * (1.0 + _GLW_N))
            vals = np.exp(-w) * _trq_values((t - w / y).ravel()).reshape(w.shape)
            return float(np.sum(0.5 * (hi - lo) * _GLW_W * vals)) / y

        ys = np.exp(np.linspace(0.0, UNDERFLOW_U, 57))
        for t in (1e-4, 1e-2, 0.05, 0.5, 5.0):
            loop = np.array([a_conv_one(float(y), t) for y in ys])
            assert np.all(np.abs(_a_conv(ys, t) - loop) <= 1e-15 * np.abs(loop))

    def test_k1_smooth_array_matches_scalar(self):
        ts = np.array([1e-4, 1e-2, 0.5, 5.0])
        for theta in (0.0, math.pi / 4, 2.4, 3.1):
            bp = BoundaryParam(theta)
            arr = k1_smooth(ts, bp)
            assert arr.shape == ts.shape
            for t, v in zip(ts, arr):
                assert abs(v - k1_smooth(float(t), bp)) <= 1e-15 * v
        assert isinstance(k1_smooth(0.5, BoundaryParam(0.0)), float)
        with pytest.raises(DomainError):
            k1_smooth(np.array([0.1, -0.1]), BoundaryParam(0.0))

    def test_t1_and_t2_match_node_by_node_routes(self, tight_spec):
        for theta in (0.0, 2.4):
            bp = BoundaryParam(theta)
            k2 = 2.0 * bp.kappa
            for t in (1e-3, 5e-2, 0.5, 5.0):
                def f1(us):
                    return np.array([
                        _a_conv(np.array([math.exp(u)]), t)[0] * math.exp(u)
                        / ((u + k2) ** 2 + _PI2) for u in us])

                def f2(ss):
                    return np.array([k1_smooth(t - float(s), bp) * float(q)
                                     for s, q in zip(ss, _trq_values(ss))])

                t1 = (2.0 * integrate(f1, 0.0, UNDERFLOW_U, tight_spec).value
                      + 2.0 * tn_trace(t) * arctan_tail(UNDERFLOW_U, k2))
                t2 = integrate(f2, 0.0, t, tight_spec).value
                assert abs(t1_y_outer(t, bp, tight_spec) - t1) <= 1e-12 * abs(t1)
                assert abs(t2_part(t, bp, tight_spec) - t2) <= 1e-12 * abs(t2)


class TestFlatCorrection:
    """Below _TRQ_FLAT_S the correction is one cut integral (the Volterra
    function), checked against the nested T1/T2/residue route it replaces
    there."""

    def test_matches_nested_route(self, nested_parts):
        for theta in FLAT_THETAS:
            bp = BoundaryParam(theta)
            for residue in (True, False):
                for t in FLAT_T:
                    smooth, res = nested_parts[theta, t]
                    ref = smooth + res if residue else smooth
                    corr = volterra_correction([t], bp, include_residue=residue)[0]
                    assert abs(corr - ref) <= 2e-14 * abs(ref)

    def test_cut_integral_against_mpmath(self):
        with mp.workdps(30):
            for theta, t in ((1.0, 1e-4), (1.0, 3e-3), (1.0, 0.02), (0.0, 1e-3),
                             (2.4, 0.01), (30 * math.pi / 64, 0.01)):
                bp = BoundaryParam(theta)
                ref = _cut_integral_mp(mp.log(t) - 2 * mp.mpf(bp.kappa))
                # without the residue, Q0 F = J below s_f
                j = volterra_correction([t], bp, include_residue=False)[0]
                assert abs(j - ref) <= 5e-16 * ref

    def test_continuous_across_the_switch(self):
        below = float(np.nextafter(_TRQ_FLAT_S, 0.0))
        for theta in FLAT_THETAS:
            bp = BoundaryParam(theta)
            a = full_trace(below, bp).parts.correction
            b = full_trace(_TRQ_FLAT_S, bp).parts.correction
            assert abs(a - b) <= 1e-13 * abs(b)

    def test_domain(self, bp0):
        for ts in ([0.0], [-1e-3], [math.nan], [math.inf], [], [[1e-3]]):
            with pytest.raises(DomainError):
                volterra_correction(ts, bp0)
        assert volterra_correction([_TRQ_FLAT_S, 0.1], bp0).shape == (2,)
        assert np.isfinite(volterra_correction([30.0], bp0)).all()

    def test_est_error_covers_flat_rows(self, nested_parts):
        for theta in FLAT_THETAS:
            bp = BoundaryParam(theta)
            for s in trace_curve(bp, FLAT_T):
                smooth, res = nested_parts[theta, s.t]
                assert abs(s.value - (s.parts.friedrichs + smooth + res)) <= s.est_error


class TestVolterraRemainder:
    """From _TRQ_FLAT_S on trace_curve subtracts int_0^t F(t - s) R'(s) ds
    on a fixed rule, checked against the nested T1/T2/residue route that
    full_trace keeps there."""

    def test_matches_nested_route(self, remainder_parts):
        for theta in FLAT_THETAS:
            bp = BoundaryParam(theta)
            for residue in (True, False):
                for s in trace_curve(bp, REMAINDER_T, include_residue=residue):
                    smooth, res = remainder_parts[theta, s.t]
                    ref = smooth + res if residue else smooth
                    assert abs(s.parts.correction - ref) <= 2e-14 * abs(ref)

    def test_continuous_where_the_far_piece_starts(self):
        # the rule adds s in (0, t/2] from t = 2 s_f on, where it is below
        # R(s_f) < 2^-55 of the row: one ulp of t moves the row by a few
        # ulp, and the residue factor e^{zeta0 t} by zeta0 t ulp more
        t_on = 2.0 * _TRQ_FLAT_S
        ts = [float(np.nextafter(t_on, 0.0)), t_on, float(np.nextafter(t_on, 1.0))]
        for theta in FLAT_THETAS:
            bp = BoundaryParam(theta)
            below, at, above = trace_curve(bp, ts)
            bound = (8.0 + pole_location(bp) * t_on) * 2.0 ** -52
            for a in (below, above):
                assert abs(a.parts.correction - at.parts.correction) \
                    <= bound * abs(at.parts.correction)

    def test_est_error_covers_remainder_rows(self, remainder_parts):
        for theta in FLAT_THETAS:
            bp = BoundaryParam(theta)
            for s in trace_curve(bp, REMAINDER_T):
                smooth, res = remainder_parts[theta, s.t]
                assert abs(s.value - (s.parts.friedrichs + smooth + res)) <= s.est_error

    def test_bound_state_factor_against_mpmath(self):
        # at theta = 37 pi/64 the pole term is 2 Q0 e^{x}, x = zeta0 t up to
        # 185 on the benchmark grid, so one rounding of x would cost 185 ulp;
        # the reference is 2 Q0 (expm1(x) + J) in mpmath, x from the same
        # double zeta0, less the by-parts terms, integrated here adaptively
        # over s (their share is below 1e-12, so double precision suffices)
        rows = [float(t) for t in CURVE_T if t >= 0.0134]
        r_flat = float(_r_closed(_TRQ_FLAT_S)[0])
        for k in (37, 38, 40):
            bp = BoundaryParam(k * math.pi / 64)
            z0 = pole_location(bp)

            def by_parts(ss, t):
                return volterra_correction(t - ss, bp) / 0.5 * _r_closed(ss)[1]

            for s in trace_curve(bp, rows):
                with mp.workdps(40):
                    ell = mp.log(s.t) - 2 * mp.mpf(bp.kappa)
                    head = mp.expm1(mp.mpf(z0) * mp.mpf(s.t)) + _cut_integral_mp(ell)
                rest = 0.0
                if s.t > _TRQ_FLAT_S:
                    gap = s.t - _TRQ_FLAT_S
                    rest = (volterra_correction([gap], bp)[0] / 0.5 * r_flat
                            + integrate(lambda ss: by_parts(ss, s.t), _TRQ_FLAT_S, s.t).value)
                    assert rest <= 1e-12 * float(head)
                ref = float(head - rest)
                assert abs(s.parts.correction - ref) <= 5e-16 * ref


LARGE_T_THETAS = (0.0, 1.0, 2.4)
LARGE_T = (0.2, 1.0, 3.0, 10.0, 30.0)
LARGE_T_SPEC = QuadSpec(rel_tol=1e-14, abs_tol=1e-300)


def _cut_integrals_adaptive(taus, bp):
    """F(tau) = 2 (expm1(zeta0 tau) + J(l)) with J adaptively at LARGE_T_SPEC,
    all tau on one node set, on each panel of the turn of 1 - exp(-e^v), plus
    the arctan tail: the route the fixed rule of _cut_integrals replaced."""
    ell = np.log(taus) - 2.0 * bp.kappa

    def f(vs):
        vs = vs[:, None]
        return -np.expm1(-np.exp(vs)) / ((vs - ell) ** 2 + _PI2)

    edges = (-UNDERFLOW_U, -8.0, -2.0, 0.0, 2.0, math.log(UNDERFLOW_U))
    j = sum(integrate(f, a, b, LARGE_T_SPEC).value for a, b in zip(edges, edges[1:]))
    j = j + arctan_tail(edges[-1], -ell)
    x, d = two_prod(pole_location(bp), taus)  # zeta0 tau = x + d exactly
    return 2.0 * (np.expm1(x) + np.exp(x) * d + j)


def _large_t_correction(t, bp):
    """corr(t) = F(t)/2 - int_0^t F(t - s) R'(s) ds adaptively, with R' from
    scipy's K0 and F from a tight adaptive cut integral."""
    def big_f(taus):
        return _cut_integrals_adaptive(np.asarray(taus, dtype=float), bp)

    def near_s(ss):
        return big_f(t - ss) * _r_closed(ss)[1]

    def near_t(vs):
        # tau = t - s = (t/2) e^v resolves F's 1/log tau end
        taus = 0.5 * t * np.exp(vs)
        return big_f(taus) * _r_closed(t - taus)[1] * taus

    return (0.5 * big_f([t])[0]
            - integrate(near_s, 0.0, 0.5 * t, LARGE_T_SPEC).value
            - integrate(near_t, -UNDERFLOW_U, 0.0, LARGE_T_SPEC).value)


@pytest.fixture(scope="module")
def large_t_refs():
    """The full trace at every (theta, t) of LARGE_T_THETAS x LARGE_T."""
    return {(theta, t): friedrichs_trace(t) + _large_t_correction(t, BoundaryParam(theta))
            for theta in LARGE_T_THETAS for t in LARGE_T}


class TestLargeT:
    """Traces up to t = 30 against an independent reference: the same
    Volterra integral, but adaptive, in other variables, and with R' from
    K0 instead of the TrQ trapezoid."""

    def test_est_error_covers_large_t(self, large_t_refs):
        # full_trace keeps the nested route above s_f
        for theta in LARGE_T_THETAS:
            bp = BoundaryParam(theta)
            for t in LARGE_T[1:]:
                s = full_trace(t, bp)
                assert abs(s.value - large_t_refs[theta, t]) <= s.est_error, (theta, t)

    def test_curve_rows_to_the_last_bits(self, large_t_refs):
        for theta in LARGE_T_THETAS:
            for s in trace_curve(BoundaryParam(theta), LARGE_T):
                ref = large_t_refs[theta, s.t]
                assert abs(s.value - ref) <= 2e-15 * abs(ref), (theta, s.t)


class TestTraceCurve:
    def test_full_trace_in_input_order(self):
        # below s_f a row is full_trace's bit for bit, since J and the exotic
        # term give a row the same bits in any array; above it full_trace
        # takes the nested route, to the tolerance at 0.05 and to its error at 0.2
        ts = [1e-2, 1e-3, 0.05, 0.2, 3e-3]
        for theta in (0.0, math.pi / 4, 2.4):
            bp = BoundaryParam(theta)
            curve = trace_curve(bp, ts)
            assert [s.t for s in curve] == ts
            for s, ref in zip(curve, [full_trace(t, bp) for t in ts]):
                if s.t < _TRQ_FLAT_S:
                    assert s == ref
                    continue
                if s.t > 0.1:
                    assert abs(s.value - ref.value) <= ref.est_error
                    continue
                for a, b in zip((s.parts.friedrichs, s.parts.correction, s.parts.exotic_ref),
                                (ref.parts.friedrichs, ref.parts.correction,
                                 ref.parts.exotic_ref)):
                    assert abs(a - b) <= max(DEFAULT_SPEC.abs_tol, DEFAULT_SPEC.rel_tol * abs(b))
                assert abs(s.value - ref.value) <= 1e-14 * abs(ref.value)

    def test_long_curve_is_its_blocks_joined(self):
        # trace_curve takes _CURVE_BLOCK rows per call, which bounds its
        # memory; the rows of a block do not depend on the other blocks
        ts = np.geomspace(1e-4, 30.0, 2 * _CURVE_BLOCK + 7).tolist()
        bp = BoundaryParam(1.0)
        for residue in (True, False):
            joined = [s for i in range(0, len(ts), _CURVE_BLOCK)
                      for s in trace_curve(bp, ts[i:i + _CURVE_BLOCK], include_residue=residue)]
            assert trace_curve(bp, ts, include_residue=residue) == joined

    def test_curve_takes_two_integrals_and_no_nested_part(self, monkeypatch):
        # one J rule for every F of the curve and one exotic rule, both fixed,
        # with the residue and without; the Friedrichs rows are closed forms
        calls = {"integrate": 0, "nested": 0, "cut": 0, "exotic": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        def nested(*args, **kwargs):
            calls["nested"] += 1

        for mod in (trace, quadrature):
            monkeypatch.setattr(mod, "integrate", counting("integrate", integrate))
        monkeypatch.setattr(trace, "_cut_integrals", counting("cut", trace._cut_integrals))
        monkeypatch.setattr(trace, "_log_tail", counting("exotic", trace._log_tail))
        for name in ("t1_y_outer", "t2_part", "residue_trace_part"):
            monkeypatch.setattr(trace, name, nested)
        # the benchmark's grid, and one that reaches t = 30
        for ts in (CURVE_T, np.geomspace(1e-4, 30.0, 25)):
            for bp, residue, n in ((BoundaryParam(0.3), True, 1), (BoundaryParam(2.4), False, 1),
                                   (BoundaryParam.friedrichs(), True, 0)):
                calls.update(integrate=0, nested=0, cut=0, exotic=0)
                curve = trace_curve(bp, ts, include_residue=residue)
                assert len(curve) == 25 and all(math.isfinite(s.value) for s in curve)
                assert calls == {"integrate": 0, "nested": 0, "cut": n, "exotic": n}


class TestLaplaceCertificate:
    """int_0^inf e^{-zt} correction(t) dt in closed form, a = sqrt(z): TrQ's
    transform (K0^2 - K1^2 + a^-2)(a)/2 times K's, 1/(log a + kappa) for
    z > zeta0 with the residue, less the pole's 2 zeta0/(z - zeta0) without.
    One trace_curve per angle on a log-t rule over [e^-40, 60] checks every
    row of the route at once, t > 0.1 included."""

    X, W = np.polynomial.legendre.leggauss(16)
    EDGES = np.linspace(-40.0, math.log(60.0), 61)
    V = (0.5 * (EDGES[:-1, None] * (1.0 - X) + EDGES[1:, None] * (1.0 + X))).ravel()
    T = np.exp(V)
    WT = np.outer(0.5 * np.diff(EDGES), W).ravel() * T

    @staticmethod
    def _closed_form(z, bp, residue):
        with mp.workdps(30):
            a = mp.sqrt(mp.mpf(z))
            k = 1 / (mp.log(a) + mp.mpf(bp.kappa))
            if not residue:
                z0 = mp.mpf(pole_location(bp))
                k -= 2 * z0 / (z - z0)
            return float((mp.besselk(0, a) ** 2 - mp.besselk(1, a) ** 2 + 1 / a ** 2) / 2 * k)

    @pytest.mark.parametrize("theta", [0.0, 1.0, 2.4])
    @pytest.mark.parametrize("residue", [True, False])
    def test_transform_of_the_curve(self, theta, residue):
        bp = BoundaryParam(theta)
        z0 = pole_location(bp)
        curve = trace_curve(bp, self.T.tolist(), include_residue=residue)
        corr = np.array([s.parts.correction for s in curve])
        for z in ((z0 + 2.0, z0 + 20.0, z0 + 200.0) if residue else (2.0, 20.0, 200.0)):
            ref = self._closed_form(z, bp, residue)
            got = float(np.sum(self.WT * np.exp(-z * self.T) * corr))
            assert abs(got - ref) <= 1e-14 * abs(ref), z


class TestOneSpec:
    S = QuadSpec(rel_tol=1e-11, abs_tol=1e-13)

    def test_one_spec_reaches_every_integral(self, monkeypatch):
        # the spec of a nested part must reach each integral it runs; the
        # curve's rows and the kernel's parts are fixed rules that run none
        seen = {}

        def wrap(mod):
            def recording(f, a, b, spec=DEFAULT_SPEC):
                seen.setdefault(mod.__name__, []).append(spec)
                return integrate(f, a, b, spec)
            return recording

        for mod in (trace, quadrature):
            monkeypatch.setattr(mod, "integrate", wrap(mod))
        bp = BoundaryParam(1.0)
        for part in (trace.t1_y_outer, trace.t2_part, trace.residue_trace_part):
            part(0.2, bp, self.S)
        assert seen.keys() == {"rsheat.trace"} and len(seen["rsheat.trace"]) == 3
        assert all(s is self.S for specs in seen.values() for s in specs)
        seen.clear()
        trace_curve(bp, [1e-3, 0.05, 0.2])
        ktheta.k_theta(0.5, bp)
        ktheta.k_theta(5.0, bp)
        ktheta.laplace_of_k(10.0, bp)
        assert seen == {}
        assert not hasattr(ktheta, "integrate")


class TestThetaDifferenceCertificate:
    """d(theta, t) = correction(theta, t) - [oracle(theta, t) - oracle(pi/2, t)].
    The difference of the two eigenvalue sums cancels the x = 1 wall to all
    orders but the two-wall path C(theta) e^{-1/t}, about 1e-17 at t = 0.025
    (C(0) ~ 3), so below t ~ 0.03 d is rounding: a check of the correction
    route, J's fixed rule included, that runs no quadrature on the oracle
    side."""

    TIMES = [0.002, 0.005, 0.01, 0.02, 0.025]

    def test_correction_is_the_spectral_difference(self):
        friedrichs = eigenvalues(BoundaryParam.friedrichs(), lambda_max=4e4)
        ref = [oracle_trace(t, friedrichs) for t in self.TIMES]
        for theta in (0.0, 0.05, 1.0, 1.5, 2.4, 3 * math.pi / 4, 3.1):
            bp = BoundaryParam(theta)
            spectrum = eigenvalues(bp, lambda_max=4e4)
            for s, fr in zip(trace_curve(bp, self.TIMES), ref):
                o = oracle_trace(s.t, spectrum)
                # the spectra's tails at lambda 4e4 are below 4e-35
                assert max(o.tail_error, fr.tail_error) <= 1e-30
                d = s.parts.correction - (o.value - fr.value)
                assert abs(d) <= 2e-15, (theta, s.t, d)
