"""Heat-kernel building blocks: boundary data, convolutions, extraction."""

import math
import sys
from collections import Counter

import mpmath as mp
import numpy as np
import pytest

from rsheat import quadrature, specfun, verify
from rsheat import (
    BoundaryParam,
    DomainError,
    FitError,
    QuadSpec,
    extract_coeffs,
    friedrichs_kernel,
    integrate,
    nprime,
    q_diag,
    signaling,
)
from rsheat.specfun import EULER_GAMMA, LN2, bessel_k0_scaled, bessel_y0


class TestBoundaryParam:
    def test_kappa_theta0_negative(self, bp0):
        assert abs(bp0.kappa - (EULER_GAMMA - LN2)) < 1e-16
        assert bp0.kappa < 0.0

    def test_kappa_increasing_on_branches(self):
        for grid in (np.linspace(0.0, math.pi / 2 - 0.05, 40),
                     np.linspace(math.pi / 2 + 0.05, math.pi - 1e-6, 40)):
            kappas = [BoundaryParam(float(t)).kappa for t in grid]
            assert all(a < b for a, b in zip(kappas, kappas[1:]))

    def test_friedrichs_flags(self, bp_friedrichs):
        assert bp_friedrichs.is_friedrichs
        assert bp_friedrichs.theta == math.pi / 2
        with pytest.raises(DomainError):
            bp_friedrichs.kappa

    def test_theta_validation(self):
        for bad in (-0.1, math.pi, 7.0, math.nan):
            with pytest.raises(DomainError):
                BoundaryParam(bad)


class TestFriedrichsKernel:
    def test_frozen_value(self):
        # E(1,1,0.5) = I0(1) e^{-1}
        assert abs(friedrichs_kernel(1.0, 1.0, 0.5) / 0.4657596075936404365019 - 1.0) < 1e-13

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, y = rng.uniform(0.01, 3.0, size=2)
            t = rng.uniform(0.01, 2.0)
            a = friedrichs_kernel(float(x), float(y), float(t))
            b = friedrichs_kernel(float(y), float(x), float(t))
            assert a == b
            assert a >= 0.0

    def test_vanishes_at_origin(self):
        assert friedrichs_kernel(0.0, 1.3, 0.2) == 0.0
        assert friedrichs_kernel(0.7, 0.0, 0.2) == 0.0

    def test_no_overflow_at_extreme_ratio(self):
        # x^2/t = 1e6
        v = friedrichs_kernel(10.0, 10.0, 1e-4)
        assert math.isfinite(v) and v > 0.0
        # diagonal large-z form: ~ 1/sqrt(4 pi t)
        assert abs(v * math.sqrt(4.0 * math.pi * 1e-4) - 1.0) < 1e-3

    def test_semigroup(self):
        spec = QuadSpec(rel_tol=1e-11, abs_tol=1e-13)
        for (x, z, a, b) in [(0.5, 1.0, 0.1, 0.2), (1.0, 1.0, 0.3, 0.3)]:
            def f(ys):
                return np.array([
                    friedrichs_kernel(x, float(y), a) * friedrichs_kernel(float(y), z, b)
                    for y in ys])

            conv = integrate(f, 0.0, 20.0, spec).value
            assert abs(conv - friedrichs_kernel(x, z, a + b)) < 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            friedrichs_kernel(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            friedrichs_kernel(-1.0, 1.0, 0.5)


class TestNprime:
    def test_frozen_value(self):
        assert abs(nprime(1.0, 0.25) - 2.0 * math.exp(-1.0)) < 1e-16

    def test_zero_at_origin_and_domain(self):
        assert nprime(0.0, 0.3) == 0.0
        with pytest.raises(DomainError):
            nprime(1.0, -0.1)

    def test_is_boundary_limit_of_kernel(self):
        for x, t in [(0.5, 0.1), (1.0, 0.5), (2.0, 0.05)]:
            eps = 1e-6
            approx = friedrichs_kernel(x, eps, t) / math.sqrt(eps)
            assert abs(approx / nprime(x, t) - 1.0) < 1e-6

    def test_quarter_power_scaling(self):
        # t^{1/4} int_0^1 nprime(x, t) phi(x) dx -> sqrt(2) Gamma(3/4)/2 phi(0)
        const = 0.8665004600923849814447

        def phi(x):
            tau = min(max((x - 0.5) / 0.25, 0.0), 1.0)
            return 1.0 - (6 * tau ** 5 - 15 * tau ** 4 + 10 * tau ** 3)

        t = 1e-4

        def f(xs):
            return np.array([nprime(float(x), t) * phi(float(x)) for x in xs])

        val = integrate(f, 0.0, 1.0).value
        assert abs(t ** 0.25 * val - const) < 1e-3


class TestQDiag:
    def test_zero_at_origin(self):
        assert q_diag(0.0, 0.7) == 0.0

    def test_agrees_with_time_convolution(self):
        spec = QuadSpec(rel_tol=1e-12, abs_tol=1e-14)
        for x in (0.3, 1.0):
            for t in (0.05, 0.5):
                def f(ss):
                    return np.array([nprime(x, t - float(s)) * nprime(x, float(s))
                                     for s in ss])

                brute = integrate(f, 0.0, t, spec).value
                assert abs(q_diag(x, t) - brute) < 1e-12

    def test_unit_integral(self):
        # int_0^1 Q(x, 0.05) dx = 1/2 + O(t^inf)
        val = integrate(lambda xs: q_diag(xs, 0.05), 0.0, 1.0,
                        QuadSpec(rel_tol=1e-11, abs_tol=1e-13)).value
        assert abs(val - 0.5) <= 0.5 * math.exp(-1.0 / 0.05) + 1e-11

    def test_array_matches_k0_closed_form(self):
        # Q(x, t) = (x/2t) K0(x^2/2t) e^{-x^2/2t}
        xs = np.array([1e-3, 1e-2, 0.1, 0.3, 0.7, 1.0])
        for t in (0.05, 0.2, 0.5):
            got = q_diag(xs, t)
            assert got.shape == xs.shape
            for x, q in zip(xs, got):
                with mp.workdps(30):
                    z = mp.mpf(float(x)) ** 2 / (2 * mp.mpf(t))
                    ref = float(mp.mpf(float(x)) / (2 * mp.mpf(t)) * mp.besselk(0, z)
                                * mp.exp(-z))
                assert abs(q - ref) <= 1e-14 * ref
                assert q_diag(float(x), t) == q

    def test_v_integral_against_mpmath(self):
        # F(b) = int_0^inf exp(-b sinh^2(v/2)) dv = e^{b/2} K0(b/2), which
        # q_diag takes from bessel_k0_scaled, against mpmath at the double b
        # itself (b/2 is exact), so that no rounding of b enters
        bs = np.geomspace(1e-300, 1e5, 241)
        with mp.workdps(30):
            for b in bs:
                half = mp.mpf(float(b)) / 2
                ref = mp.exp(half) * mp.besselk(0, half)
                assert abs(bessel_k0_scaled(0.5 * float(b)) - ref) <= 1e-15 * ref, b

    def test_every_entry_equals_its_scalar_call(self):
        # an entry's value depends on its own (x, t) alone: shuffled batches
        # over b = x^2/t in [1e-300, 1e5], with zero,
        # subnormal-e^{-b}, underflowing and b = inf entries among them
        rng = np.random.default_rng(23)
        for t in (1.0, 0.2, 1e-100):
            xs = np.concatenate([np.sqrt(np.geomspace(1.01e-300, 1e5, 200) * t),
                                 np.sqrt(np.array([720.0, 800.0]) * t), [0.0, 1e300]])
            want = np.array([q_diag(float(x), t) for x in xs])
            for _ in range(3):
                order = rng.permutation(xs.size)
                cuts = np.sort(rng.choice(np.arange(1, xs.size), size=3, replace=False))
                for part in np.split(order, cuts):
                    got = q_diag(xs[part], t)
                    assert [v.hex() for v in got] == [v.hex() for v in want[part]]

    def test_array_zero_entries_are_exact(self):
        xs = np.array([0.0, 0.4, 0.0, 1.0])
        got = q_diag(xs, 0.3)
        assert got[0] == 0.0 and got[2] == 0.0
        assert got[1] == q_diag(0.4, 0.3)
        assert got[3] == q_diag(1.0, 0.3)
        assert np.all(q_diag(np.zeros(3), 0.3) == 0.0)

    def test_representable_where_e_minus_b_underflows_or_2t_overflows(self):
        # (x/2t) e^{-b} as one exponential: e^{-b} underflows at b = 746 while
        # x/2t = 1.4e151, 2t overflows at t = 1.7e308, and e^{-b} is
        # subnormal at b = 729
        for x, t in ((2.7313e-149, 1e-300), (1e154, 1.7e308), (3e-150, 1e-302),
                     (2.7e-49, 1e-100)):
            with mp.workdps(40):
                xm, tm = mp.mpf(x), mp.mpf(t)
                z = xm * xm / (2 * tm)
                ref = float(xm / (2 * tm) * mp.besselk(0, z) * mp.exp(-z))
            assert ref > 0.0
            assert abs(q_diag(x, t) - ref) <= 1e-13 * ref, (x, t)

    def test_b_in_range_where_x_squared_underflows(self):
        # b = x (x/t): x^2 underflows at x = 1e-170, but b = 1e-20 is in range
        for x, t in ((1e-170, 1e-320), (1e-160, 1e-310), (3e-155, 1e-305)):
            with mp.workdps(40):
                xm, tm = mp.mpf(x), mp.mpf(t)
                z = xm * xm / (2 * tm)
                ref = float(xm / (2 * tm) * mp.besselk(0, z) * mp.exp(-z))
            assert math.isfinite(ref) and ref > 0.0
            assert abs(q_diag(x, t) - ref) <= 1e-14 * ref, (x, t)
            assert q_diag(np.array([x, 0.0]), t)[0] == q_diag(x, t)

    def test_domain(self):
        with pytest.raises(DomainError):
            q_diag(np.array([0.5, -1e-9]), 0.3)
        with pytest.raises(DomainError):
            q_diag(-0.5, 0.3)
        for t in (0.0, -0.1):
            with pytest.raises(DomainError):
                q_diag(np.array([0.5]), t)
            with pytest.raises(DomainError):
                q_diag(0.5, t)
        # b = x^2/t below 1e-300, where x/t may be subnormal, is refused
        with pytest.raises(DomainError, match="x\\^2/t"):
            q_diag(np.array([0.5, 1e-160]), 1.0)
        with pytest.raises(DomainError, match="x\\^2/t"):
            q_diag(1e-160, 1.0)

    def test_fixed_rules_in_criteria_1_2_7(self):
        # criteria 1, 2 and 7 are fixed Gauss-Legendre sums, which run no
        # adaptive integral, and q_diag takes one K0 value per live entry
        # (from specfun's K dispatch: q_diag has checked b itself)
        watched = {quadrature.integrate.__code__: "integrate",
                   specfun._k.__code__: "k0"}
        calls = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in watched:
                calls[watched[frame.f_code]] += 1

        xs = np.array([0.0, 0.3, 1e300, 1e-3, 0.0, 2.0])
        sys.setprofile(profile)
        try:
            passed = [fn().passed for fn in (verify.criterion_1_tn_closed_form,
                                             verify.criterion_2_laplace_pair,
                                             verify.criterion_7_green_identity)]
            after_criteria = calls.copy()
            q_diag(xs, 0.2)
        finally:
            sys.setprofile(None)
        assert passed == [True] * 3
        assert after_criteria["integrate"] == 0
        assert calls["k0"] - after_criteria["k0"] == 3


class TestSignaling:
    def test_zero_data(self):
        assert signaling(lambda s: np.zeros_like(s), 0.5, 0.4) == 0.0

    def test_scalar_callable_accepted(self, tight_spec):
        vec = signaling(lambda s: np.exp(-s), 0.5, 0.4, tight_spec)
        scal = signaling(lambda s: math.exp(-s), 0.5, 0.4, tight_spec)
        assert vec == scal

    def test_c_minus_recovers_boundary_data(self, tight_spec):
        t = 0.5

        def fvals(xs):
            return np.array([
                signaling(lambda s: np.ones_like(s), float(x), t, tight_spec)
                for x in np.atleast_1d(xs)])

        coeffs = extract_coeffs(fvals)
        assert abs(coeffs.c_minus - 1.0) < 1e-3
        # c_plus of the constant-data solution has the closed form
        # -(1/2) log t + gamma/2 - log 2  (from the Laplace-transform pair)
        c_plus_ref = -0.5 * math.log(t) + 0.5 * EULER_GAMMA - LN2
        assert abs(coeffs.c_plus - c_plus_ref) < 1e-3

    def test_laplace_pair_spot_value(self, tight_spec):
        # int_0^inf e^{-zeta s} (-nprime(x, s)) ds = -sqrt(x) K0(x sqrt(zeta))
        x, zeta = 1.0, 4.0

        def f(vs):
            ss = np.exp(np.asarray(vs))
            return (math.sqrt(x) / 2.0) * np.exp(-x * x / (4.0 * ss) - zeta * ss)

        val = -integrate(f, math.log(x * x / 184.0), math.log(50.0 / zeta),
                         tight_spec).value
        assert abs(val - (-0.1138938727495334356527)) < 1e-10

    def test_heat_equation_residual(self, tight_spec):
        def F(x, t):
            return signaling(lambda s: np.ones_like(s), x, t, tight_spec)

        x, t, h = 0.6, 0.3, 0.01
        dt = (F(x, t + h) - F(x, t - h)) / (2.0 * h)
        fxx = (F(x + h, t) - 2.0 * F(x, t) + F(x - h, t)) / (h * h)
        residual = dt - fxx - F(x, t) / (4.0 * x * x)
        scale = max(abs(dt), abs(fxx))
        assert abs(residual) < 1e-3 * scale
        # halving the step shrinks the residual ~4x (second order)
        h2 = h / 2.0
        dt2 = (F(x, t + h2) - F(x, t - h2)) / (2.0 * h2)
        fxx2 = (F(x + h2, t) - 2.0 * F(x, t) + F(x - h2, t)) / (h2 * h2)
        residual2 = dt2 - fxx2 - F(x, t) / (4.0 * x * x)
        assert abs(residual2) < 0.5 * abs(residual)


class TestExtractCoeffs:
    def test_exact_recovery(self):
        c = extract_coeffs(lambda xs: np.sqrt(xs))
        assert abs(c.c_plus - 1.0) < 1e-10 and abs(c.c_minus) < 1e-10
        c = extract_coeffs(lambda xs: np.sqrt(xs) * np.log(xs))
        assert abs(c.c_plus) < 1e-10 and abs(c.c_minus - 1.0) < 1e-10
        assert c.fit_residual < 1e-12

    def test_y0_small_z_constants(self):
        # f = sqrt(x) Y0(2x): c+ = (2/pi) gamma, c- = 2/pi
        def f(xs):
            return np.sqrt(xs) * np.array([bessel_y0(2.0 * float(x)) for x in xs])

        c = extract_coeffs(f)
        assert abs(c.c_plus - 2.0 * EULER_GAMMA / math.pi) < 2e-3
        assert abs(c.c_minus - 2.0 / math.pi) < 5e-4

    def test_boundary_value_combination(self, bp_quarter):
        c = extract_coeffs(lambda xs: np.sqrt(xs) * (2.0 - np.log(xs)))
        expect = math.cos(bp_quarter.theta) * 2.0 + math.sin(bp_quarter.theta) * (-1.0)
        assert abs(c.boundary_value(bp_quarter) - expect) < 1e-9

    def test_scalar_only_function(self):
        # friedrichs_kernel refuses an array with a DomainError; the fit then
        # calls it once per x: c+ = sqrt(x2)/(2t) e^{-x2^2/4t}, c- = 0
        c = extract_coeffs(lambda x: friedrichs_kernel(x, 0.3, 0.1))
        want = math.sqrt(0.3) / 0.2 * math.exp(-0.09 / 0.4)
        assert abs(c.c_plus - want) <= 1e-3 * want
        assert abs(c.c_minus) <= 1e-3
        both = extract_coeffs(np.vectorize(lambda x: friedrichs_kernel(x, 0.3, 0.1)))
        assert (c.c_plus, c.c_minus) == (both.c_plus, both.c_minus)
        # a domain error that is not about the array is raised again
        with pytest.raises(DomainError, match="x2"):
            extract_coeffs(lambda x: friedrichs_kernel(x, -0.3, 0.1))

    def test_window_validation(self):
        with pytest.raises(DomainError):
            extract_coeffs(lambda xs: np.sqrt(xs), window=(1e-3, 0.2))
        with pytest.raises(DomainError):
            extract_coeffs(lambda xs: np.sqrt(xs), n_points=5)

    def test_degenerate_window_raises(self):
        with pytest.raises(FitError):
            extract_coeffs(lambda xs: np.sqrt(xs),
                           window=(1e-2 * (1.0 - 1e-14), 1e-2), n_points=20)
