"""Fits demonstrating the non-polynomial structure of the trace expansion.

The small-t difference D(t) between a non-Friedrichs trace and the
Friedrichs trace contains, besides an ordinary power series, a term that
expands in inverse powers of log t.  No polynomial captures that: fitting
a low-degree polynomial to D leaves a large structured residual, while
the same fit after subtracting the computed exotic term (and the
bound-state trace part, the residue-on less the residue-off correction)
drops to quadrature noise.  ``exoticness_report`` quantifies this as a
residual ratio with pass threshold ``RATIO_THRESHOLD`` = 10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError, check_int, check_real
from .kernels import BoundaryParam
from .trace import _CURVE_BLOCK, trace_curve, volterra_correction

FIT_DEGREE = 2
RATIO_THRESHOLD = 10.0


@dataclass(frozen=True)
class AsymptoticFit:
    """Least-squares polynomial fit on a t-grid, with diagnostics."""

    coefficients: tuple          # a_0 ... a_d in the unscaled t variable
    coef_stderr: tuple
    max_residual: float


def poly_fit(samples, degree):
    """Fit sum_j a_j t^j by least squares, t scaled to [0, 1] for conditioning.

    ``samples`` are (t, value) pairs with finite t > 0 and finite values, at
    least degree + 3 of them and no t twice (a Python set tests that, so the
    fit needs numpy's core and ``linalg`` only), else DomainError; a
    rank-deficient design raises FitError."""
    degree = check_int(degree, "poly_fit", "degree", 0)
    pairs = [(check_real(t, "poly_fit", "t", "> 0"), check_real(v, "poly_fit", "value"))
             for t, v in samples]
    ts, vals = np.array([t for t, _ in pairs]), np.array([v for _, v in pairs])
    if len(ts) < degree + 3:
        raise DomainError(f"poly_fit: need at least degree+3 = {degree + 3} samples")
    if len(set(ts.tolist())) != len(ts):
        raise DomainError(f"poly_fit: need distinct t, got {ts!r}")
    t_scale = float(np.max(ts))
    design = np.vander(ts / t_scale, degree + 1, increasing=True)
    coef, _, rank, _ = np.linalg.lstsq(design, vals, rcond=None)
    if rank < degree + 1:
        raise FitError("poly_fit: rank-deficient design matrix")
    resid = vals - design @ coef
    dof = max(len(ts) - (degree + 1), 1)
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    scale = np.array([t_scale ** -j for j in range(degree + 1)])
    return AsymptoticFit(
        coefficients=tuple(coef * scale),
        coef_stderr=tuple(np.sqrt(np.maximum(np.diag(cov), 0.0)) * scale),
        max_residual=float(np.max(np.abs(resid))),
    )


@dataclass(frozen=True)
class ExoticnessReport:
    theta: float
    grid: tuple
    d_values: tuple              # correction trace (= full - Friedrichs)
    exotic_values: tuple
    residue_values: tuple
    fit_raw: AsymptoticFit
    fit_exotic_only: AsymptoticFit
    fit_subtracted: AsymptoticFit

    @property
    def residual_ratio(self):
        return self.fit_raw.max_residual / self.fit_subtracted.max_residual

    @property
    def passed(self):
        return self.residual_ratio >= RATIO_THRESHOLD

    def render_text(self):
        a = self.fit_subtracted.coefficients
        se = self.fit_subtracted.coef_stderr
        lines = [
            f"exoticness report  theta = {self.theta:.6f}",
            f"  grid: {len(self.grid)} points in [{min(self.grid):g}, {max(self.grid):g}]",
            f"  raw degree-{len(a) - 1} fit residual:        {self.fit_raw.max_residual:.3e}",
            f"  after exotic subtraction:          {self.fit_exotic_only.max_residual:.3e}",
            f"  after exotic+residue subtraction:  {self.fit_subtracted.max_residual:.3e}",
            f"  residual ratio: {self.residual_ratio:.1f}  "
            f"(threshold {RATIO_THRESHOLD:g}: {'PASS' if self.passed else 'FAIL'})",
        ]
        for j, (c, s) in enumerate(zip(a, se)):
            lines.append(f"  a{j} = {c: .10e} +- {s:.2e}")
        return "\n".join(lines)


def exoticness_report(bp: BoundaryParam, t_grid):
    """Compute D(t), subtract the exotic (and residue-trace) terms, fit both.

    D(t) = full_trace(theta) - full_trace(pi/2) equals the correction trace
    identically, so D and the exotic term are both read off one trace_curve,
    and the residue trace, as the correction is linear in the kernel, is D
    less the residue-off volterra_correction, in trace_curve's blocks.  A grid
    on which the bound-state factor e^{zeta0 t} overflows (theta just above
    pi/2) is a DomainError before any fit.
    """
    if bp.is_friedrichs:
        raise DomainError("exoticness_report: the Friedrichs trace has no exotic term")
    ts = sorted(check_real(t, "exoticness_report", "t") for t in t_grid)
    if not ts or ts[0] < 1e-5 or ts[-1] > 1e-1:
        raise DomainError(f"exoticness_report: need t in [1e-5, 1e-1], got {ts!r}")
    curve = trace_curve(bp, ts)
    d_vals = [s.parts.correction for s in curve]
    if not np.all(np.isfinite(d_vals)):
        raise DomainError("exoticness_report: bound state -e^{-2 kappa} overflows the "
                          f"trace on this grid, kappa = {bp.kappa!r}")
    ex_vals = [s.parts.exotic_ref for s in curve]
    off = [volterra_correction(np.array(ts[i:i + _CURVE_BLOCK]), bp, include_residue=False)
           for i in range(0, len(ts), _CURVE_BLOCK)]
    res_vals = [d - c for d, c in zip(d_vals, np.concatenate(off).tolist())]
    sub1 = [d - e for d, e in zip(d_vals, ex_vals)]
    sub2 = [d - e - r for d, e, r in zip(d_vals, ex_vals, res_vals)]
    return ExoticnessReport(
        theta=bp.theta,
        grid=tuple(ts),
        d_values=tuple(d_vals),
        exotic_values=tuple(ex_vals),
        residue_values=tuple(res_vals),
        fit_raw=poly_fit(zip(ts, d_vals), FIT_DEGREE),
        fit_exotic_only=poly_fit(zip(ts, sub1), FIT_DEGREE),
        fit_subtracted=poly_fit(zip(ts, sub2), FIT_DEGREE),
    )
