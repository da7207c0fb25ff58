"""Polynomial fitting and the exoticness diagnosis."""

import math

import numpy as np
import pytest

from rsheat import BoundaryParam, DomainError, exoticness_report, poly_fit
from rsheat.trace import exotic_term


def second_divided_max(ts, vals):
    """Largest absolute second divided difference (smoothness metric)."""
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(vals, dtype=float)
    out = 0.0
    for i in range(1, len(ts) - 1):
        h1 = ts[i] - ts[i - 1]
        h2 = ts[i + 1] - ts[i]
        d = 2.0 * (vals[i - 1] * h2 - vals[i] * (h1 + h2) + vals[i + 1] * h1)
        out = max(out, abs(d / (h1 * h2 * (h1 + h2))))
    return out


class TestPolyFit:
    def test_exact_polynomial_recovery(self):
        ts = np.linspace(0.01, 1.0, 12)
        fit = poly_fit([(t, 1.0 - 2.0 * t + 3.0 * t * t) for t in ts], 2)
        assert fit.max_residual < 1e-12
        assert abs(fit.coefficients[0] - 1.0) < 1e-10
        assert abs(fit.coefficients[1] + 2.0) < 1e-9
        assert abs(fit.coefficients[2] - 3.0) < 1e-9

    def test_constant_data_degree_zero(self):
        ts = np.linspace(0.1, 1.0, 8)
        fit = poly_fit([(t, 7.25) for t in ts], 0)
        assert abs(fit.coefficients[0] - 7.25) < 1e-13
        assert fit.max_residual < 1e-13

    def test_exotic_data_resists_polynomials(self, bp0):
        ts = np.geomspace(1e-4, 1e-2, 20)
        fit = poly_fit([(float(t), exotic_term(float(t), bp0)) for t in ts], 2)
        # the 1/log t structure leaves a residual thousands of times above
        # quadrature noise (zero data would fit exactly)
        assert fit.max_residual > 1e-3

    def test_guards(self):
        with pytest.raises(DomainError):
            poly_fit([(0.1, 1.0), (0.2, 2.0)], 2)  # too few samples
        with pytest.raises(DomainError):
            poly_fit([(0.1, 1.0), (0.1, 2.0), (0.2, 0.0), (0.3, 0.0),
                      (0.4, 0.0)], 1)  # duplicate t


@pytest.fixture(scope="module")
def report():
    grid = np.geomspace(1e-4, 1e-2, 14)
    return exoticness_report(BoundaryParam(0.0), grid)


class TestExoticnessReport:

    def test_passes_threshold(self, report):
        assert report.passed
        assert report.residual_ratio >= 10.0
        assert report.fit_subtracted.max_residual <= 1e-4

    def test_a0_matches_arctan_constant(self, report, bp0):
        # the subtracted curve tends to t1_reference(0+) + O(t):
        # a0 = (1/pi)(pi/2 - arctan(2 kappa/pi))
        k2 = 2.0 * bp0.kappa
        a0_expected = (1.0 / math.pi) * (0.5 * math.pi - math.atan(k2 / math.pi))
        assert abs(report.fit_subtracted.coefficients[0] - a0_expected) < 1e-4

    def test_smoothness_separation(self, report):
        def model(fit):
            return np.polynomial.polynomial.polyval(report.grid, fit.coefficients)

        raw_resid = np.array(report.d_values) - model(report.fit_raw)
        sub = (np.array(report.d_values) - np.array(report.exotic_values)
               - np.array(report.residue_values))
        sub_resid = sub - model(report.fit_subtracted)
        assert second_divided_max(report.grid, sub_resid) \
            <= 0.1 * second_divided_max(report.grid, raw_resid)

    def test_grid_refinement_stability(self, report):
        grid2 = np.geomspace(1e-4, 1e-2, 28)
        rep2 = exoticness_report(BoundaryParam(0.0), grid2)
        se = max(report.fit_subtracted.coef_stderr[0], 1e-12)
        assert abs(rep2.fit_subtracted.coefficients[0]
                   - report.fit_subtracted.coefficients[0]) <= 3.0 * se

    def test_friedrichs_rejected(self):
        with pytest.raises(DomainError):
            exoticness_report(BoundaryParam.friedrichs(), [1e-3, 2e-3, 4e-3, 8e-3])

    def test_grid_range_guard(self, bp0):
        with pytest.raises(DomainError):
            exoticness_report(bp0, [1e-6, 1e-5, 1e-4, 1e-3])

    def test_overflowing_bound_state_is_named(self):
        # just above pi/2 the bound-state factor e^{zeta0 t} overflows the
        # correction; zeta0 is inf at 1.5718 and 3e94 at 1.58
        for theta in (1.5718, 1.58):
            with pytest.raises(DomainError, match="^exoticness_report: bound state "):
                exoticness_report(BoundaryParam(theta), [1e-4, 1e-3, 2e-3, 4e-3, 1e-2])

    def test_render_text(self, report):
        text = report.render_text()
        assert "residual ratio" in text and "PASS" in text
