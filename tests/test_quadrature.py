"""Adaptive engine: validation family, honesty, tail handling; the fixed
log-tail rule that m_main and exotic_term share."""

import math

import numpy as np
import pytest

from rsheat import (
    BoundaryParam,
    ConvergenceError,
    DomainError,
    QuadSpec,
    exotic_term,
    integrate,
    m_main,
)
from rsheat.ktheta import _log_tail
from rsheat.specfun import EULER_GAMMA, LN2


def test_polynomial_exact():
    r = integrate(lambda x: x * x, 0.0, 1.0)
    assert abs(r.value - 1.0 / 3.0) < 1e-14
    assert r.evaluations >= 15


def test_log_endpoint_singularity():
    r = integrate(lambda x: np.log(x), 0.0, 1.0)
    assert abs(r.value - (-1.0)) < 1e-10


def test_gaussian_collapse_bound_and_riemann_oracle():
    # int_0^t exp(-t/(4 s (t-s))) ds  <=  t e^{-1/t}
    t = 0.1

    def f(ss):
        ss = np.asarray(ss)
        w = ss * (t - ss)
        with np.errstate(divide="ignore", under="ignore"):
            return np.where(w > 0, np.exp(-t / (4.0 * np.maximum(w, 1e-300))), 0.0)

    r = integrate(f, 0.0, t)
    assert 0.0 < r.value <= t * math.exp(-1.0 / t)
    # brute-force midpoint Riemann oracle
    n = 200000
    ss = (np.arange(n) + 0.5) * (t / n)
    riemann = float(np.sum(f(ss))) * (t / n)
    assert abs(r.value - riemann) < 1e-9


def test_error_estimate_honest_on_validation_family():
    rng = np.random.default_rng(11)
    for _ in range(20):
        deg = rng.integers(0, 9)
        coeffs = rng.normal(size=deg + 1)
        exact = sum(c / (k + 1) for k, c in enumerate(coeffs))

        def poly(xs, c=coeffs):
            return sum(ck * np.asarray(xs) ** k for k, ck in enumerate(c))

        r = integrate(poly, 0.0, 1.0)
        assert abs(r.value - exact) <= 10.0 * r.est_error + 1e-14
    for t in (0.5, 2.0, 10.0):
        r = integrate(lambda y: np.exp(-t * y), 0.0, 50.0 / t)
        exact = (1.0 - math.exp(-50.0)) / t
        assert abs(r.value - exact) <= 10.0 * r.est_error + 1e-14


def test_additivity_random_splits():
    rng = np.random.default_rng(5)

    def f(xs):
        xs = np.asarray(xs)
        return np.sin(3.0 * xs) * np.exp(-xs) + 0.3 * np.cos(xs)

    for _ in range(10):
        a, b = sorted(rng.uniform(-2.0, 3.0, size=2))
        if b - a < 0.1:
            continue
        c = rng.uniform(a + 0.01 * (b - a), b - 0.01 * (b - a))
        r_ab = integrate(f, a, b)
        r_ac = integrate(f, a, c)
        r_cb = integrate(f, c, b)
        combined_err = 2.0 * (r_ab.est_error + r_ac.est_error + r_cb.est_error)
        assert abs(r_ac.value + r_cb.value - r_ab.value) <= combined_err + 1e-14


def test_initial_points_do_not_change_result():
    # integrating panel by panel from any initial subdivision must agree
    # with the whole interval within the combined error estimates
    def f(xs):
        xs = np.asarray(xs)
        return np.exp(-xs) / (1.0 + xs * xs)

    base = integrate(f, 0.0, 4.0)
    for pts in ([1.0], [0.5, 2.5], [0.1, 2.0, 3.9]):
        edges = [0.0, *pts, 4.0]
        parts = [integrate(f, a, b) for a, b in zip(edges, edges[1:])]
        alt = sum(p.value for p in parts)
        err = sum(p.est_error for p in parts)
        assert abs(alt - base.value) <= base.est_error + err + 1e-15


def test_vector_integrand_meets_each_component_tolerance():
    # one easy column, one that needs many panels, one with a slow endpoint,
    # and one a million times smaller than the rest
    spec = QuadSpec(rel_tol=1e-10, abs_tol=1e-15)

    def f(xs):
        return np.stack([xs * xs, 1e3 * np.sin(50.0 * xs), np.sqrt(xs),
                         1e-6 * np.sin(50.0 * xs)], axis=1)

    exact = np.array([1.0 / 3.0, 1e3 * (1.0 - math.cos(50.0)) / 50.0, 2.0 / 3.0,
                      1e-6 * (1.0 - math.cos(50.0)) / 50.0])
    r = integrate(f, 0.0, 1.0, spec)
    assert r.value.shape == r.est_error.shape == (4,)
    tol = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(exact))
    assert np.all(r.est_error <= np.maximum(spec.abs_tol, spec.rel_tol * np.abs(r.value)))
    assert np.all(np.abs(r.value - exact) <= tol)
    hardest = max(integrate(lambda x, k=k: f(x)[:, k], 0.0, 1.0, spec).evaluations
                  for k in range(4))
    assert r.evaluations >= hardest > integrate(lambda x: x * x, 0.0, 1.0, spec).evaluations


def test_single_column_matches_scalar():
    def f(xs):
        return np.exp(-xs) / (1.0 + xs * xs)

    scalar = integrate(f, 0.0, 4.0)
    column = integrate(lambda xs: f(xs)[:, None], 0.0, 4.0)
    assert column.value.shape == (1,)
    assert abs(column.value[0] - scalar.value) <= 1e-15


def test_budget_exhaustion_carries_partial():
    spec = QuadSpec(rel_tol=1e-14, abs_tol=1e-16, max_subdivisions=3)
    with pytest.raises(ConvergenceError) as exc_info:
        integrate(lambda x: np.log(x), 0.0, 1.0, spec)
    partial = exc_info.value.partial
    assert partial is not None
    assert abs(partial.value - (-1.0)) < 0.1


def test_quadspec_validation():
    with pytest.raises(DomainError):
        QuadSpec(rel_tol=0.0)
    for bad in (0, -3, 2.5, 4000.0, np.float64(4000.0), True, math.nan, math.inf, "10", None):
        with pytest.raises(DomainError, match="^QuadSpec: need integer max_subdivisions"):
            QuadSpec(max_subdivisions=bad)
    assert QuadSpec(max_subdivisions=np.int64(7)) == QuadSpec(max_subdivisions=7)
    assert type(QuadSpec(max_subdivisions=np.int64(7)).max_subdivisions) is int
    with pytest.raises(DomainError):
        integrate(lambda x: x, 1.0, 1.0)


def log_tail(t, k2):
    """int_1^inf e^{-ty} dy / ((log y + k2)^2 + pi^2) on the fixed rule."""
    return float(_log_tail(np.array([t]), k2)[0])


def test_log_tail_positive_and_decreasing_in_t():
    vals = [log_tail(t, 0.3) for t in (0.01, 0.05, 0.2, 1.0, 4.0)]
    assert all(v > 0.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_log_tail_small_t_limit_identity():
    # u-substituted t -> 0 form: int_0^inf du/(u^2 + pi^2) = 1/2
    r = integrate(lambda u: 1.0 / (np.asarray(u) ** 2 + math.pi ** 2), 0.0, 2000.0)
    tail = (1.0 / math.pi) * (0.5 * math.pi - math.atan(2000.0 / math.pi))
    assert abs(r.value + tail - 0.5) < 1e-10


def test_log_tail_riemann_oracle():
    # kappa2 = 2 kappa(0), t = 1 against a 1e6-point Riemann sum
    k2 = 2.0 * (EULER_GAMMA - LN2)
    n = 1000000
    umax = math.log(46.0 + math.log(46.0))
    us = (np.arange(n) + 0.5) * (umax / n)
    riemann = float(np.sum(np.exp(us - np.exp(us)) / ((us + k2) ** 2 + math.pi ** 2))) * (umax / n)
    assert abs(log_tail(1.0, k2) - riemann) < 1e-8


def test_log_tail_substitution_consistency():
    # adaptive on [1, Y] in the original variable + analytic bound, t >= 0.01
    k2 = 0.7
    for t in (0.01, 0.1, 1.0):
        def f(ys):
            ys = np.asarray(ys)
            return np.exp(-t * ys) / ((np.log(ys) + k2) ** 2 + math.pi ** 2)

        y_max = 60.0 / t
        direct = integrate(f, 1.0, y_max, QuadSpec(rel_tol=1e-11, abs_tol=1e-13,
                                                   max_subdivisions=20000))
        tail_bound = math.exp(-60.0) / t
        assert abs(log_tail(t, k2) - direct.value) <= direct.est_error + tail_bound + 1e-12


def test_log_tail_policies_agree():
    # the fixed rule against the whole half line mapped to [0, 1) by
    # u = -log(1 - v), adaptively
    k2 = -0.3
    t = 0.5

    def h(vs):
        us = -np.log1p(-vs)
        return np.exp(us - t * np.exp(us)) / ((us + k2) ** 2 + math.pi ** 2) / (1.0 - vs)

    b = integrate(h, 0.0, 1.0 - 1e-16)
    assert abs(log_tail(t, k2) - b.value) <= b.est_error + 1e-12


def test_log_tail_domain():
    # the rule's public entry points refuse t <= 0
    bp = BoundaryParam(0.0)
    for call in (m_main, exotic_term):
        for t in (0.0, -1.0):
            with pytest.raises(DomainError):
                call(t, bp)
    with pytest.raises(DomainError):
        exotic_term(np.array([1e-3, 0.0]), bp)


def test_log_tail_array_of_times_shares_one_node_set():
    # the rows share one fixed set of panels, clipped at each log t up to
    # t = 1 and in w = t(y - 1) above, so a row's nodes depend on its own t
    # alone and an array gives each scalar call's bits
    ts = np.array([1e-300, 1e-30, 1e-4, 3e-3, 0.02, 1.0, 1.5, 30.0, 800.0])
    for per_y in (False, True):
        arr = _log_tail(ts, 0.3, per_y)
        assert arr.shape == ts.shape
        for t, v in zip(ts, arr):
            assert v == _log_tail(np.array([t]), 0.3, per_y)[0]
