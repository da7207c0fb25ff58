"""Spectral oracle: secular functions, interlacing counts, trace sums."""

import io
import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from rsheat import oracle
from rsheat import (
    BoundaryParam,
    DomainError,
    InsufficientSpectrumError,
    eigenvalues,
    j0_zeros,
    oracle_trace,
    secular_negative,
    secular_positive,
)
from rsheat.oracle import Spectrum
from rsheat.specfun import EULER_GAMMA, bessel_j0, bessel_j1, bessel_y1

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

J01_SQ = 5.783185962946784521176
J02_SQ = 30.47126234366208639908

# interlacing angles: both signs of tan(theta), the zero mode, both sides
# of the Friedrichs angle
ANGLES = [0.0, 0.3, math.pi / 4, 1.5, math.pi / 2 - 0.01, math.pi / 2 + 0.01,
          2.4, 3 * math.pi / 4, 3.1]


def _secular_positive_dlam(lam, bp):
    """dS/dlambda of the textbook form (log lam + 2 kappa) J0 - pi Y0."""
    r = math.sqrt(lam)
    if bp.is_friedrichs:
        return -bessel_j1(r) / (2.0 * r)
    dj0 = -bessel_j1(r) / (2.0 * r)  # d/dlam J0(sqrt lam)
    dy0 = -bessel_y1(r) / (2.0 * r)
    return bessel_j0(r) / lam + (math.log(lam) + 2.0 * bp.kappa) * dj0 - math.pi * dy0


def _fine_scan_roots(bp, lambda_max, per_cell=2000):
    """Roots of S on (0, lambda_max] by a brute sign scan at ``per_cell``
    points in each J0-zero-square cell, each refined by plain bisection."""
    edges = [0.0] + [z * z for z in j0_zeros(20) if z * z < lambda_max] + [lambda_max]
    grid = np.concatenate([np.linspace(lo, hi, per_cell + 1)[1:]
                           for lo, hi in zip(edges[:-1], edges[1:])])
    vals = [secular_positive(float(x), bp) for x in grid]
    roots = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if (fa < 0.0) == (fb < 0.0):
            continue
        a, b = float(a), float(b)
        while a < 0.5 * (a + b) < b:
            m = 0.5 * (a + b)
            if (secular_positive(m, bp) < 0.0) == (fa < 0.0):
                a = m
            else:
                b = m
        roots.append(a)
    return roots


class TestSecularPositive:
    def test_friedrichs_vanishes_at_j0_zero_squares(self, bp_friedrichs):
        assert abs(secular_positive(J01_SQ, bp_friedrichs)) < 1e-12

    def test_friedrichs_zeros_are_not_theta0_zeros(self, bp0):
        # S(j01^2) = -pi Y0(j01) = -pi * 0.5104...
        val = secular_positive(J01_SQ, bp0)
        assert val < -1.0

    def test_sign_change_count_on_0_400(self, bp0):
        # brute fine-scan oracle: five sign changes (none in the first
        # interlacing cell: theta = 0 has its lowest eigenvalue exactly at 0)
        lams = np.linspace(1e-6, 400.0, 100000)
        vals = np.array([secular_positive(float(l), bp0) for l in lams])
        sgn = np.sign(vals)
        changes = int(np.sum(sgn[1:] * sgn[:-1] < 0))
        assert changes == 5

    def test_zero_mode_expansion(self, bp0):
        # S(lam) = 2 tan(theta) - lam/2 + O(lam^2): small negative for theta=0
        for lam in (1e-6, 1e-4):
            s = secular_positive(lam, bp0)
            assert s < 0.0
            assert abs(s + lam / 2.0) < 1e-2 * lam


    @pytest.mark.parametrize("lam", [1e-14, 1e-9, 1e-3])
    def test_small_lambda_relative_accuracy_against_mpmath(self, lam):
        # tan(theta) = 1e-12 is lost from kappa in double; S must keep it
        theta = 1e-12
        with mp.workdps(50):
            kappa = mp.euler - mp.log(2) + mp.tan(mp.mpf(theta))
            r = mp.sqrt(mp.mpf(lam))
            ref = (mp.log(lam) + 2 * kappa) * mp.besselj(0, r) - mp.pi * mp.bessely(0, r)
            assert abs(secular_positive(lam, BoundaryParam(theta)) - ref) <= 1e-14 * abs(ref)


class TestSecularNegative:
    def test_three_quarter_bracket(self, bp_three_quarter):
        assert secular_negative(3.0, bp_three_quarter) < 0.0
        assert secular_negative(3.2, bp_three_quarter) > 0.0

    def test_theta0_positive_on_grid(self, bp0):
        for mu in np.geomspace(1e-3, 10.0, 60):
            assert secular_negative(float(mu), bp0) > 0.0

    @pytest.mark.parametrize("theta", [0.0, math.pi / 4, 3 * math.pi / 4])
    def test_small_mu_limit_is_tan_theta(self, theta):
        bp = BoundaryParam(theta)
        assert abs(secular_negative(1e-6, bp) - math.tan(theta)) < 1e-3


class TestEigenvalues:
    def test_friedrichs_first_five(self, bp_friedrichs):
        sp = eigenvalues(bp_friedrichs)
        want = [5.7832, 30.4713, 74.8870, 139.0403, 222.9323]
        for got, ref in zip(sp.eigenvalues[:5], want):
            assert abs(got - ref) < 5e-5

    def test_theta0_zero_mode_and_first_positive(self, bp0):
        sp = eigenvalues(bp0)
        assert sp.eigenvalues[0] == 0.0
        # first positive eigenvalue sits in the second interlacing cell
        first_pos = min(ev for ev in sp.eigenvalues if ev > 0.0)
        assert J01_SQ < first_pos < J02_SQ

    def test_negative_counts(self, bp0, bp_three_quarter):
        assert eigenvalues(bp0).negative_count == 0
        assert eigenvalues(bp_three_quarter).negative_count == 1

    def test_sorted_and_bounded(self, bp_quarter):
        sp = eigenvalues(bp_quarter)
        evs = sp.eigenvalues
        assert all(a < b for a, b in zip(evs, evs[1:]))
        assert evs[-1] <= sp.lambda_max
        assert sp.negative_count <= 1

    def test_bound_state_near_half_line_prediction(self, bp_three_quarter):
        sp = eigenvalues(bp_three_quarter)
        mu = math.sqrt(-sp.eigenvalues[0])
        assert abs(mu - math.exp(-bp_three_quarter.kappa)) < 0.021

    def test_completeness_against_finer_scan(self, bp_quarter):
        sp = eigenvalues(bp_quarter, lambda_max=500.0)
        fine = _fine_scan_roots(bp_quarter, 500.0)
        assert len(sp.eigenvalues) == len(fine)
        for a, b in zip(sp.eigenvalues, fine):
            assert abs(a - b) < 1e-8 * max(1.0, abs(a))

    @pytest.mark.parametrize("theta", ANGLES)
    def test_interlacing_count(self, theta):
        # one eigenvalue per cell between squared J0 zeros, one in
        # (0, j_1^2) iff tan(theta) > 0, one bound state iff tan(theta) < 0
        sp = eigenvalues(BoundaryParam(theta))
        evs = sp.eigenvalues
        tan = math.tan(theta)
        squares = [z * z for z in j0_zeros(25) if z * z <= sp.lambda_max]
        assert sp.negative_count == (tan < 0.0)
        assert evs.count(0.0) == (theta == 0.0)
        assert sum(0.0 < ev < squares[0] for ev in evs) == (tan > 0.0)
        for lo, hi in zip(squares[:-1], squares[1:]):
            assert sum(lo < ev < hi for ev in evs) == 1
        assert sum(ev > squares[-1] for ev in evs) <= 1

    def test_deep_bound_state_is_the_half_line_one(self):
        # kappa ~ -20.5: the wall shift of mu = e^{-kappa} is far below
        # double precision, so the bound state is -e^{-2 kappa}
        bp = BoundaryParam(33 * math.pi / 64)
        sp = eigenvalues(bp)
        want = -math.exp(-2.0 * bp.kappa)
        assert sp.negative_count == 1
        assert abs(sp.eigenvalues[0] - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("theta", [1e-12, 1e-6, 1e-3])
    def test_tiny_tan_theta_first_eigenvalue_against_mpmath(self, theta):
        # kappa formed in mpmath: in double, tan(theta) vanishes from it
        with mp.workdps(50):
            tan = mp.tan(mp.mpf(theta))
            kappa = mp.euler - mp.log(2) + tan

            def s(lam):
                r = mp.sqrt(lam)
                return (mp.log(lam) + 2 * kappa) * mp.besselj(0, r) - mp.pi * mp.bessely(0, r)

            ref = mp.findroot(s, 4 * tan / (1 + tan))
            ev = eigenvalues(BoundaryParam(theta)).eigenvalues[0]
            assert abs(ev - ref) <= 1e-12 * ref

    def test_smallest_tan_theta_first_eigenvalue(self):
        # lambda = 4 tan/(1 + tan) + O(tan^2)
        ev = eigenvalues(BoundaryParam(1e-300)).eigenvalues[0]
        assert abs(ev - 4e-300) <= 1e-12 * 4e-300

    @pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9])
    def test_bound_state_toward_pi_against_mpmath(self, gap):
        # kappa formed in mpmath: log mu + kappa + K0/I0 cancels to tan(theta)
        theta = math.pi - gap
        with mp.workdps(50):
            tan = mp.tan(mp.mpf(theta))
            kappa = mp.euler - mp.log(2) + tan

            def n(mu):
                return (mp.log(mu) + kappa) * mp.besseli(0, mu) + mp.besselk(0, mu)

            ref = -mp.findroot(n, mp.sqrt(-4 * tan)) ** 2
            ev = eigenvalues(BoundaryParam(theta)).eigenvalues[0]
            assert abs(ev - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("theta", [1.6, 2.4, 3 * math.pi / 4, 3.1, 3.14])
    def test_bound_state_matches_plain_bisection(self, theta):
        bp = BoundaryParam(theta)
        a, b = 1e-300, math.exp(-bp.kappa)  # N < 0 near 0, N = K0 > 0 at b
        while a < 0.5 * (a + b) < b:
            m = 0.5 * (a + b)
            if secular_negative(m, bp) < 0.0:
                a = m
            else:
                b = m
        ev = eigenvalues(bp).eigenvalues[0]
        assert abs(ev + a * a) <= 1e-13 * a * a

    def test_phase_newton_evaluation_budget(self, monkeypatch):
        # fused J0/Y0 evaluations per interlacing-cell solve.  Below r = 16 a
        # seed table's root, above it the asymptotic phase's root, is within
        # 4 ulp, so a solve mostly ends after one evaluation.
        oracle._seed_tables()  # built here, outside the counted solves
        fused, solve = oracle._j0_y0_fused, oracle._positive_root
        calls = [0]
        tabled, hankel = [], []

        def counting_fused(z):
            calls[0] += 1
            return fused(z)

        def delimited_solve(lo, hi, tan_theta):
            before = calls[0]
            out = solve(lo, hi, tan_theta)
            (tabled if lo < 16.0 else hankel).append(calls[0] - before)
            return out

        monkeypatch.setattr(oracle, "_j0_y0_fused", counting_fused)
        monkeypatch.setattr(oracle, "_positive_root", delimited_solve)
        for theta in ANGLES:
            eigenvalues(BoundaryParam(theta), lambda_max=4000.0)
        per_cell = tabled + hankel
        assert len(per_cell) >= 9 * 19
        assert len(tabled) >= 9 * 5
        assert sum(tabled) <= 1.2 * len(tabled)
        assert sum(hankel) <= 1.2 * len(hankel)
        assert max(hankel) <= 2
        assert max(per_cell) <= 12

    def test_residual_certification(self, bp_quarter):
        sp = eigenvalues(bp_quarter, lambda_max=500.0)
        evs = sp.eigenvalues
        for i, (ev, res) in enumerate(zip(evs, sp.residuals)):
            if ev <= 0.0:
                continue
            spacing = min(abs(ev - evs[j]) for j in (i - 1, i + 1)
                          if 0 <= j < len(evs))
            slope = abs(_secular_positive_dlam(ev, bp_quarter))
            assert res <= 1e-8 * (1.0 + slope * spacing)

    def test_theta_continuity_of_eigenvalues(self):
        th = 0.3
        sp1 = eigenvalues(BoundaryParam(th), lambda_max=500.0)
        sp2 = eigenvalues(BoundaryParam(th + 0.01), lambda_max=500.0)
        pos1 = [ev for ev in sp1.eigenvalues if ev > 0.0]
        pos2 = [ev for ev in sp2.eigenvalues if ev > 0.0]
        for a, b in zip(pos1[:5], pos2[:5]):
            # |dlam/dtheta| = |2 sec^2(theta) J0(sqrt(lam)) / S'(lam)|
            slope = abs(2.0 * bessel_j0(math.sqrt(a))
                        / (math.cos(th) ** 2 * _secular_positive_dlam(a, BoundaryParam(th))))
            assert abs(b - a) <= 1.5 * slope * 0.01 + 1e-6

    def test_domain_guards(self, bp0):
        with pytest.raises(DomainError):
            eigenvalues(bp0, lambda_max=50.0)
        with pytest.raises(DomainError):
            # kappa ~ -1e4: -e^{-2 kappa} overflows a double
            eigenvalues(BoundaryParam(math.pi / 2 + 1e-4))

    @pytest.mark.parametrize("kwargs", [
        {"lambda_max": math.nan}, {"lambda_max": math.inf}, {"lambda_max": -math.inf}])
    def test_non_finite_and_negative_inputs_raise_before_any_work(self, kwargs, monkeypatch):
        def untouched(n):
            raise AssertionError("the zero table was asked for zeros")

        monkeypatch.setattr(oracle, "j0_zeros", untouched)
        for bp in (BoundaryParam(0.3), BoundaryParam.friedrichs()):
            with pytest.raises(DomainError):
                eigenvalues(bp, **kwargs)

    def test_lambda_max_above_the_limit_raises_before_any_work(self, monkeypatch):
        class Started(Exception):
            pass

        def untouched(n):
            raise Started

        monkeypatch.setattr(oracle, "j0_zeros", untouched)
        for lam in (1e11, math.inf):
            with pytest.raises(DomainError, match="lambda_max"):
                eigenvalues(BoundaryParam(0.3), lambda_max=lam)
        # the limit itself passes the guard
        with pytest.raises(Started):
            eigenvalues(BoundaryParam(0.3), lambda_max=oracle.LAMBDA_MAX_LIMIT)

    def test_second_spectrum_computes_no_zero(self, monkeypatch):
        # the J0 zeros bound every cell at every angle: after one spectrum
        # at lambda_max, another angle at the same lambda_max finds them all
        # in the table and spends no Bessel call on them
        eigenvalues(BoundaryParam(0.3), lambda_max=4000.0)
        zeros, inside, calls = oracle.j0_zeros, [False], []

        def counting(fn):
            def wrapped(z):
                if inside[0]:
                    calls.append(fn.__name__)
                return fn(z)
            return wrapped

        def delimited_zeros(n):
            inside[0] = True
            try:
                return zeros(n)
            finally:
                inside[0] = False

        monkeypatch.setattr(oracle, "bessel_j0", counting(bessel_j0))
        monkeypatch.setattr(oracle, "bessel_j1", counting(bessel_j1))
        monkeypatch.setattr(oracle, "j0_zeros", delimited_zeros)
        for theta in (2.4, math.pi / 2, 0.0):
            eigenvalues(BoundaryParam(theta), lambda_max=4000.0)
        assert calls == []
        # the counter does see a zero the table lacks
        delimited_zeros(len(oracle._J0_ZEROS) + 1)
        assert set(calls) == {"bessel_j0", "bessel_j1"}


class TestOracleTrace:
    def test_single_eigenvalue(self):
        sp = Spectrum(0.0, (1.0,), 4000.0)
        for t in (0.01, 0.5, 2.0):
            assert abs(oracle_trace(t, sp).value - math.exp(-t)) < 1e-15

    def test_bound_state_dominates_large_t(self, bp_three_quarter):
        sp = eigenvalues(bp_three_quarter)
        assert oracle_trace(2.0, sp).value > oracle_trace(1.0, sp).value

    def test_overflowing_bound_state_gives_inf(self, bp_three_quarter):
        # e^{-t lambda_0} overflows once -t lambda_0 > ~709.78: inf, as in
        # full_trace, not an OverflowError
        wide = eigenvalues(BoundaryParam(33 * math.pi / 64))
        assert oracle_trace(0.01, wide).value == math.inf
        sp = eigenvalues(bp_three_quarter)  # lambda_0 = -9.19
        for t in (78.0, 1e300):
            assert oracle_trace(t, sp).value == math.inf
        for t in (0.05, 77.0):  # no overflow: the plain sum, bit for bit
            want = math.fsum(math.exp(-t * ev) for ev in sp.eigenvalues)
            assert oracle_trace(t, sp).value == want

    def test_insufficient_spectrum_guard(self, bp0):
        sp = eigenvalues(bp0)
        with pytest.raises(InsufficientSpectrumError):
            oracle_trace(0.001, sp)

    def test_tail_bound_covers_truncation(self):
        for theta in (0.0, math.pi / 4, 3 * math.pi / 4, math.pi / 2):
            small = eigenvalues(BoundaryParam(theta), lambda_max=300.0)
            big = eigenvalues(BoundaryParam(theta), lambda_max=4000.0)
            for t in (0.01, 0.05, 0.1):
                missing = sum(math.exp(-t * ev) for ev in big.eigenvalues
                              if ev > small.lambda_max)
                assert missing <= small.tail_bound(t)


class TestCsvExport:
    def test_columns_and_roundtrip(self, bp_quarter):
        sp = eigenvalues(bp_quarter, lambda_max=200.0)
        buf = io.StringIO()
        sp.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "index,lambda,secular_residual"
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == sp.eigenvalues[0]  # 17 digits round-trip


def _hankel_cell_seed(lo, hi, tan_theta):
    """The cell seed before the seed tables: the Hankel phase's root, and
    r^2 = 4 tan/(1 + tan) (S = 0 to first order in lambda) on (0, j_1)."""
    if lo == 0.0:
        r = 2.0 * math.sqrt(tan_theta / (1.0 + tan_theta))
    else:
        mid = lo + 0.5 * math.pi
        r = mid + math.atan((2.0 / math.pi) * (math.log(0.5 * mid) + EULER_GAMMA + tan_theta))
    return r if lo < r < hi else 0.5 * (lo + hi)


@pytest.mark.parametrize("lambda_max", [4000.0, 40000.0])
def test_seed_tables_move_no_eigenvalue_past_4_ulp(lambda_max, monkeypatch):
    # the seed changes where Newton starts, never which root it ends at
    thetas = [k * math.pi / 64 for k in range(64)]
    seeded = [eigenvalues(BoundaryParam(theta), lambda_max=lambda_max).eigenvalues
              for theta in thetas]
    monkeypatch.setattr(oracle, "_cell_seed", _hankel_cell_seed)
    for theta, new in zip(thetas, seeded):
        old = eigenvalues(BoundaryParam(theta), lambda_max=lambda_max).eigenvalues
        assert len(new) == len(old), theta
        for a, b in zip(new, old):
            assert abs(a - b) <= 4.0 * math.ulp(b), (theta, a, b)


def test_seed_tables_are_built_once_and_do_not_depend_on_theta(monkeypatch):
    built = []
    build = oracle._seed_table

    def counting_build(lo, hi, n):
        built.append(lo)
        return build(lo, hi, n)

    monkeypatch.setattr(oracle, "_SEED_TABLES", {})
    monkeypatch.setattr(oracle, "_seed_table", counting_build)
    eigenvalues(BoundaryParam(0.3), lambda_max=400.0)
    first = oracle._SEED_TABLES
    for theta in (1.0, 2.4, 3.1, 0.0):
        eigenvalues(BoundaryParam(theta), lambda_max=4000.0)
    assert oracle._SEED_TABLES is first
    assert built == [0.0] + j0_zeros(5)  # one per cell below r = 16
    # rebuilt after a spectrum at another angle, the table is the same
    monkeypatch.setattr(oracle, "_SEED_TABLES", {})
    eigenvalues(BoundaryParam(2.4), lambda_max=400.0)
    assert oracle._SEED_TABLES == first


def test_series_evaluations_per_spectrum(monkeypatch):
    # double-double series evaluations per lambda_max = 4000 spectrum over
    # the 64-point angle grid less k = 33..36 (the benchmark's 60 drawn
    # angles), after a first pass builds the seed tables and Taylor rows.
    # With the series on all of r <= 16 a spectrum made 4.48; the Taylor
    # tables take (2, 16], so only the cell (0, j_1) of tan(theta) > 0
    # evaluates it.
    from rsheat import specfun
    angles = [k * math.pi / 64 for k in range(64) if not 33 <= k <= 36]
    for theta in angles:
        eigenvalues(BoundaryParam(theta), lambda_max=4000.0)
    series = specfun._jy_series
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return series(*args, **kwargs)

    monkeypatch.setattr(specfun, "_jy_series", counting)
    for theta in angles:
        eigenvalues(BoundaryParam(theta), lambda_max=4000.0)
    assert calls[0] <= 0.6 * len(angles)


def test_no_seed_table_at_import():
    code = ("from rsheat import BoundaryParam, oracle, secular_positive\n"
            "secular_positive(50.0, BoundaryParam(0.0))\n"
            "assert oracle._SEED_TABLES == {}\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def _fresh_j0_zeros(n):
    """McMahon seed + Newton on J0/J1, with no table."""
    out = []
    for k in range(1, n + 1):
        beta = (k - 0.25) * math.pi
        z = beta + 1.0 / (8.0 * beta) - 124.0 / (3.0 * (8.0 * beta) ** 3)
        for _ in range(8):
            step = bessel_j0(z) / bessel_j1(z)
            z += step
            if abs(step) <= 4.0 * math.ulp(z):
                break
        out.append(z)
    return out


def test_j0_zeros_table_is_bit_identical_in_any_order(monkeypatch):
    monkeypatch.setattr(oracle, "_J0_ZEROS", ())  # an empty table, as at import
    fresh = _fresh_j0_zeros(60)
    for n in (5, 60, 1, 23, 60, 37, 0):
        assert j0_zeros(n) == fresh[:n]
    assert len(oracle._J0_ZEROS) == 60
    assert j0_zeros(-3) == []  # a negative count is no count, not a slice


def test_j0_zeros_returns_a_new_list():
    first = j0_zeros(10)
    want = list(first)
    first[0] = -1.0
    first.append(99.0)
    del first[3]
    assert j0_zeros(10) == want
    assert j0_zeros(10) is not j0_zeros(10)


def test_j0_zeros_against_frozen():
    z = j0_zeros(5)
    frozen = [2.404825557695772768622, 5.520078110286310649597,
              8.653727912911012216954, 11.79153443901428161374,
              14.93091770848778594776]
    for a, b in zip(z, frozen):
        assert abs(a - b) < 1e-13


def _exact_phase_coefficients(n):
    """d_1, ..., d_n of delta(r) = theta_0(r) - r + pi/4, exactly: theta_0' =
    2/(pi r M^2) is the reciprocal of DLMF 10.18.17's M^2 series at nu = 0,
    1 + sum_k a_k r^{-2k}, integrated term by term."""
    a = [Fraction(1)]
    for k in range(1, n + 1):
        a.append(a[-1] * Fraction(-(2 * k - 1) ** 3, 8 * k))
    c = [Fraction(1)]
    for k in range(1, n + 1):
        c.append(-sum(a[j] * c[k - j] for j in range(1, k + 1)))
    return [c[k] / (1 - 2 * k) for k in range(1, n + 1)]


def test_phase_coefficients_are_the_hankel_phase_series():
    exact = _exact_phase_coefficients(len(oracle._PHASE_COEFFS))
    # DLMF 10.18.18 at mu = 4 nu^2 = 0
    assert exact[:4] == [Fraction(-1, 8), Fraction(25, 384), Fraction(-1073, 5120),
                         Fraction(375733, 229376)]
    assert oracle._PHASE_COEFFS == tuple(float(d) for d in exact)
    # the phase of J0 + i Y0 from r = j_6 up
    with mp.workdps(30):
        for r in (j0_zeros(6)[-1], 20.0, 31.4, 63.0):
            theta0 = mp.atan2(mp.bessely(0, r), mp.besselj(0, r))
            delta = (theta0 - r + mp.pi / 4 + mp.pi) % (2 * mp.pi) - mp.pi
            assert abs(oracle._hankel_delta(r) - delta) <= 3e-16, r


def test_eigenvalues_evaluates_no_bessel_outside_the_solves(monkeypatch):
    # each root's evaluations are its solve's; the one other fused J0/Y0
    # call is S(lambda_max), which decides the partial cell.  The residuals
    # are evaluated when read.
    oracle._seed_tables()
    fused, solve = oracle._j0_y0_fused, oracle._positive_root
    outside, solving = [], [False]

    def counting_fused(z):
        if not solving[0]:
            outside.append(z)
        return fused(z)

    def delimited_solve(lo, hi, tan_theta):
        solving[0] = True
        try:
            return solve(lo, hi, tan_theta)
        finally:
            solving[0] = False

    monkeypatch.setattr(oracle, "_j0_y0_fused", counting_fused)
    monkeypatch.setattr(oracle, "_positive_root", delimited_solve)
    for theta in ANGLES:
        outside.clear()
        sp = eigenvalues(BoundaryParam(theta), lambda_max=4000.0)
        assert outside == [math.sqrt(4000.0)], theta
        positive = sum(1 for ev in sp.eigenvalues if ev > 0.0)
        for _ in range(2):  # one S per positive eigenvalue, on the first read only
            assert len(sp.residuals) == len(sp.eigenvalues)
            assert len(outside) == 1 + positive


def test_residuals_on_first_read_are_the_eager_formula():
    for k in range(64):
        bp = BoundaryParam(k * math.pi / 64)
        sp = eigenvalues(bp, lambda_max=4000.0)
        eager = [abs(secular_positive(ev, bp)) if ev > 0.0
                 else (abs(secular_negative(math.sqrt(-ev), bp)) if ev < 0.0 else 0.0)
                 for ev in sp.eigenvalues]
        assert [r.hex() for r in sp.residuals] == [r.hex() for r in eager], k


def _log_d_derivatives(z, theta):
    """(log D)'' and (log D)''' at z, D(z) = K0(w) + (log w + kappa) I0(w),
    w = sqrt(z), at dps 30.  As K0 = S2 - (log(w/2) + gamma) I0,
    D = sum_k (H_k + tan(theta)) (z/4)^k/(k!)^2, an entire function of z
    whose zeros are -lambda_n, differentiated term by term."""
    with mp.workdps(30):
        z, tan_theta = mp.mpf(z), mp.tan(mp.mpf(theta))
        d = [mp.mpf(0)] * 4
        harmonic, scale, k = mp.mpf(0), mp.mpf(1), 0  # H_k, 1/(4^k (k!)^2)
        while k < 8 or abs(scale * z ** k) > mp.mpf(10) ** -40 * abs(d[0]):
            ck = (harmonic + tan_theta) * scale
            for j in range(min(k, 3) + 1):
                d[j] += ck * mp.ff(k, j) * z ** (k - j)
            k += 1
            harmonic += mp.mpf(1) / k
            scale /= 4 * k * k
        w = mp.sqrt(z)
        closed = (mp.besselk(0, w)
                  + (mp.log(w) + mp.euler - mp.log(2) + tan_theta) * mp.besseli(0, w))
        assert abs(closed - d[0]) <= mp.mpf(10) ** -25 * abs(d[0])
        l1 = d[1] / d[0]
        return d[2] / d[0] - l1 ** 2, d[3] / d[0] - 3 * l1 * d[2] / d[0] + 2 * l1 ** 3


@pytest.mark.parametrize("theta", [0.0, 1.0, 2.4])
def test_resolvent_trace_certificate(theta):
    # D has order 1/2 and vanishes at each -lambda_n, so by Hadamard
    # D(z) = C z^{[theta = 0]} prod (1 + z/lambda_n), the product over the
    # nonzero eigenvalues, and sum_n (lambda_n + z)^{-m} =
    # ((-1)^{m-1}/(m-1)!) (log D)^{(m)}(z): a check of every eigenvalue that
    # knows nothing of the cells, the seeds or Newton.  The sum over the
    # spectrum to lambda_max = 4e4 falls short by its tail, which is
    # positive and, one eigenvalue per cell at the cell's midpoint in r,
    # is overestimated by 1.8-2.0 % (m = 2) and 3.0-3.3 % (m = 3), because
    # each root lies above its cell's midpoint.  The tail starts at
    # lambda_max, not at the spectrum found: the partial cell holding
    # lambda_max joins it iff its root's Hankel-phase position
    # (``_phase_seed``, within 4 ulp of the root) lies past lambda_max.  So a
    # root lost or added below lambda_max, the partial cell's included,
    # moves the ratio by at least 4.8 % (m = 2), and Hankel seeds taken as
    # roots (no Newton above r = 16) move it past the bound.
    lambda_max = 4e4
    evs = eigenvalues(BoundaryParam(theta), lambda_max=lambda_max).eigenvalues
    z = 5.0 if evs[0] >= 0.0 else 2.0 * abs(evs[0]) + 5.0  # a bound state at 2.4
    second, third = _log_d_derivatives(z, theta)
    zeros = j0_zeros(int(math.sqrt(lambda_max) / math.pi) + 3)
    # the partial cell (zeros[p], zeros[p + 1]) holds sqrt(lambda_max)
    p = sum(1 for zk in zeros if zk * zk <= lambda_max) - 1
    root = oracle._phase_seed(zeros[p], math.tan(theta))
    k0 = p if root * root > lambda_max else p + 1  # the first cell whose root lies past lambda_max
    # McMahon's midpoints of (j_{k+1}, j_{k+2}), then the cells past them as an integral
    mids = (np.arange(k0, k0 + 2000) + 1.25) * math.pi
    for m, exact in ((2, -second), (3, third / 2)):
        with mp.workdps(30):
            gap = float(exact - mp.fsum((mp.mpf(ev) + z) ** -m for ev in evs))
        tail = (float(np.sum((mids * mids + z) ** -m))
                + 1.0 / ((2 * m - 1) * math.pi ** (2 * m) * (k0 + 2000.75) ** (2 * m - 1)))
        assert gap > 0.0, (m, gap)
        assert 0.95 <= gap / tail <= 0.99, (m, gap / tail)
