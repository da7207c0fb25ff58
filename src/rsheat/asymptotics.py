"""Fits demonstrating the non-polynomial structure of the trace expansion.

The small-t difference D(t) between a non-Friedrichs trace and the
Friedrichs trace contains, besides an ordinary power series, a term that
expands in inverse powers of log t.  No polynomial captures that: fitting
a low-degree polynomial to D leaves a large structured residual, while
the same fit after subtracting the computed exotic term (and the
bound-state trace part, which is analytic but carried along for
bookkeeping) drops to quadrature noise.  ``exoticness_report`` quantifies
this as a residual ratio with pass threshold ``RATIO_THRESHOLD`` = 10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError
from .kernels import BoundaryParam
from .quadrature import DEFAULT_SPEC, QuadSpec
from .trace import residue_trace_part, trace_curve

FIT_DEGREE = 2
RATIO_THRESHOLD = 10.0


@dataclass(frozen=True)
class AsymptoticFit:
    """Least-squares polynomial fit on a t-grid, with diagnostics."""

    coefficients: tuple          # a_0 ... a_d in the unscaled t variable
    coef_stderr: tuple
    max_residual: float
    grid: tuple
    subtracted_terms: tuple      # subset of ("exotic", "residue")

    def model(self, ts):
        ts = np.asarray(ts, dtype=float)
        out = np.zeros_like(ts)
        for j, c in enumerate(self.coefficients):
            out += c * ts ** j
        return out


def _sample_pairs(samples):
    ts, vals = [], []
    for s in samples:
        if hasattr(s, "t") and hasattr(s, "value"):
            ts.append(float(s.t))
            vals.append(float(s.value))
        else:
            ts.append(float(s[0]))
            vals.append(float(s[1]))
    return np.array(ts), np.array(vals)


def poly_fit(samples, degree, subtracted_terms=()):
    """Fit sum_j a_j t^j by least squares, t scaled to [0, 1] for conditioning."""
    ts, vals = _sample_pairs(samples)
    if len(ts) < degree + 3:
        raise DomainError(f"poly_fit: need at least degree+3 = {degree + 3} samples")
    if np.any(ts <= 0.0) or len(np.unique(ts)) != len(ts):
        raise DomainError("poly_fit: t-values must be positive and distinct")
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
        grid=tuple(ts),
        subtracted_terms=tuple(subtracted_terms),
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

    def csv_rows(self):
        yield "t,d_value,exotic,residue,subtracted,raw_fit_residual,subtracted_fit_residual"
        raw_model = self.fit_raw.model(self.grid)
        sub_model = self.fit_subtracted.model(self.grid)
        for i, t in enumerate(self.grid):
            sub = self.d_values[i] - self.exotic_values[i] - self.residue_values[i]
            yield (f"{t:.17g},{self.d_values[i]:.17g},{self.exotic_values[i]:.17g},"
                   f"{self.residue_values[i]:.17g},{sub:.17g},"
                   f"{self.d_values[i] - raw_model[i]:.17g},{sub - sub_model[i]:.17g}")


def exoticness_report(bp: BoundaryParam, t_grid, spec: QuadSpec = DEFAULT_SPEC, *,
                      include_residue=True):
    """Compute D(t), subtract the exotic (and residue-trace) terms, fit both.

    D(t) = full_trace(theta) - full_trace(pi/2) equals the correction trace
    identically, so D and the exotic term are both read off one trace_curve.
    """
    if bp.is_friedrichs:
        raise DomainError("exoticness_report: the Friedrichs trace has no exotic term")
    ts = sorted(float(t) for t in t_grid)
    if not ts or ts[0] < 1e-5 or ts[-1] > 1e-1:
        raise DomainError("exoticness_report: grid must lie within [1e-5, 1e-1]")
    curve = trace_curve(bp, ts, spec, include_residue=include_residue)
    d_vals = [s.parts.correction for s in curve]
    ex_vals = [s.parts.exotic_ref for s in curve]
    if include_residue:
        res_vals = [residue_trace_part(t, bp, spec) for t in ts]
    else:
        res_vals = [0.0] * len(ts)
    sub1 = [d - e for d, e in zip(d_vals, ex_vals)]
    sub2 = [d - e - r for d, e, r in zip(d_vals, ex_vals, res_vals)]
    fit_raw = poly_fit(list(zip(ts, d_vals)), FIT_DEGREE)
    fit_ex = poly_fit(list(zip(ts, sub1)), FIT_DEGREE, subtracted_terms=("exotic",))
    fit_sub = poly_fit(list(zip(ts, sub2)), FIT_DEGREE, subtracted_terms=("exotic", "residue"))
    return ExoticnessReport(
        theta=bp.theta,
        grid=tuple(ts),
        d_values=tuple(d_vals),
        exotic_values=tuple(ex_vals),
        residue_values=tuple(res_vals),
        fit_raw=fit_raw,
        fit_exotic_only=fit_ex,
        fit_subtracted=fit_sub,
    )
