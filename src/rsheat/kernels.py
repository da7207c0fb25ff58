"""Half-line heat kernel building blocks.

The operator is -d^2/dx^2 - 1/(4x^2) on (0, inf).  Functions in the
maximal domain behave like c_plus sqrt(x) + c_minus sqrt(x) log(x) near 0,
and the self-adjoint realizations are cut out by

    cos(theta) c_plus + sin(theta) c_minus = 0,   theta in [0, pi),

with theta = pi/2 the Friedrichs extension (c_minus = 0).  This module
provides the Friedrichs heat kernel, its boundary limit, the diagonal
self-convolution, the driven ("signaling") solution with prescribed
c_minus data, and a numerical extractor for (c_plus, c_minus).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError, check_int, check_real, check_real_array
from .quadrature import DEFAULT_SPEC, UNDERFLOW_U, QuadSpec, integrate
from .specfun import EULER_GAMMA, LN2, bessel_i0_scaled

_HALF_PI = 0.5 * math.pi


@dataclass(frozen=True)
class BoundaryParam:
    """Boundary angle theta and the derived constant kappa.

    kappa = gamma - log 2 + tan(theta) controls every non-Friedrichs
    quantity in the package; it is undefined for the Friedrichs extension
    and accessing it there raises DomainError.
    """

    theta: float

    def __post_init__(self):
        th = check_real(self.theta, "BoundaryParam", "theta", ">= 0")
        if not th < math.pi:
            raise DomainError(f"BoundaryParam: need theta < pi, got {th!r}")
        object.__setattr__(self, "theta", th)

    @classmethod
    def friedrichs(cls):
        return cls(_HALF_PI)

    @property
    def is_friedrichs(self):
        return self.theta == _HALF_PI

    @property
    def kappa(self):
        if self.is_friedrichs:
            raise DomainError("kappa is undefined for the Friedrichs extension")
        return EULER_GAMMA - LN2 + math.tan(self.theta)


@dataclass(frozen=True)
class BoundaryCoeffs:
    """Extracted boundary coefficients of a maximal-domain function: the
    result of ``extract_coeffs``, which they stay with."""

    c_plus: float
    c_minus: float
    fit_residual: float

    def boundary_value(self, bp: BoundaryParam) -> float:
        """cos(theta) c_plus + sin(theta) c_minus."""
        return math.cos(bp.theta) * self.c_plus + math.sin(bp.theta) * self.c_minus


def friedrichs_kernel(x, x2, t):
    """Heat kernel of the Friedrichs extension.

    E(x, x2, t) = sqrt(x x2)/(2t) I0(x x2 / 2t) exp(-(x^2+x2^2)/(4t)),
    evaluated through the scaled Bessel function as
    sqrt(x x2)/(2t) i0_scaled(x x2/2t) exp(-(x-x2)^2/(4t)), which never
    overflows and keeps full relative accuracy for x^2/t up to ~1e6.
    """
    t = check_real(t, "friedrichs_kernel", "t", "> 0")
    x = check_real(x, "friedrichs_kernel", "x", ">= 0")
    x2 = check_real(x2, "friedrichs_kernel", "x2", ">= 0")
    if x == 0.0 or x2 == 0.0:
        return 0.0
    z = x * x2 / (2.0 * t)
    return (math.sqrt(x * x2) / (2.0 * t)) * bessel_i0_scaled(z) * math.exp(
        -((x - x2) ** 2) / (4.0 * t))


def nprime(x, t):
    """Boundary limit sqrt(x)/(2t) exp(-x^2/4t) of the Friedrichs kernel.

    Equals lim_{x2 -> 0} x2^{-1/2} friedrichs_kernel(x, x2, t).
    """
    t = check_real(t, "nprime", "t", "> 0")
    x = check_real(x, "nprime", "x", ">= 0")
    if x == 0.0:
        return 0.0
    return (math.sqrt(x) / (2.0 * t)) * math.exp(-x * x / (4.0 * t))


def q_diag(x, t, spec: QuadSpec = DEFAULT_SPEC):
    """Diagonal time self-convolution of the boundary kernel.

    Q(x, t) = int_0^t nprime(x, t-s) nprime(x, s) ds.  In TrQ's variable,
    s = t u with u = (1 - tanh(v/2))/2, it is (x/2t) e^{-b} times
    int_0^inf exp(-b sinh^2(v/2)) dv, b = x^2/t, which has no endpoint
    singularity and is cut where b sinh^2(v/2) reaches UNDERFLOW_U for the
    smallest b; e^{-b} outside keeps the integrand's rounding small at large
    b.  In closed form Q(x, t) = (x/2t) K0(x^2/2t) e^{-x^2/2t}, which the
    tests use as the reference; the v-integral itself is what is computed.

    ``x`` is a float, giving a float, or a 1-D array, giving an array of
    the same length: its entries share one adaptive v node set, refined
    until each entry meets the tolerance.  Entries with x = 0 are exactly
    0 and stay out of the integral, whose range would be infinite there.
    """
    t = check_real(t, "q_diag", "t", "> 0")
    if not isinstance(x, np.ndarray):
        return float(q_diag(np.array([check_real(x, "q_diag", "x", ">= 0")]), t, spec)[0])
    x = check_real_array(x, "q_diag", "x", ">= 0")
    out = np.zeros_like(x)
    pos = x > 0.0
    if np.any(pos):
        b = x[pos] * x[pos] / t
        v_max = 2.0 * math.asinh(math.sqrt(UNDERFLOW_U / b.min()))
        v_int = integrate(lambda vs: np.exp(-np.multiply.outer(np.sinh(0.5 * vs) ** 2, b)),
                          0.0, v_max, spec).value
        out[pos] = (x[pos] / (2.0 * t)) * np.exp(-b) * v_int
    return out


def signaling(h, x, t, spec: QuadSpec = DEFAULT_SPEC):
    """Driven solution F(h)(x, t) = -int_0^t h(t-s) nprime(x, s) ds.

    Solves the heat equation with zero initial data and boundary data
    c_minus(F(h)(., t)) = h(t).  ``h`` may consume numpy arrays or plain
    scalars.  Integrated in v = log s; below s = x^2/(4 UNDERFLOW_U) the
    Gaussian factor underflows and the integrand is dropped.  No command
    calls it: it stays to show what the boundary condition means for the
    heat kernel, as c_minus of F(h) is h.
    """
    t = check_real(t, "signaling", "t", "> 0")
    x = check_real(x, "signaling", "x", "> 0")
    s_min = x * x / (4.0 * UNDERFLOW_U)
    if s_min >= t:
        return 0.0  # exp(-x^2/4s) < 1e-20 throughout [0, t]
    sq = math.sqrt(x)

    def h_vec(ss):
        try:
            out = np.asarray(h(ss), dtype=float)
            if out.shape == ss.shape:
                return out
        except (TypeError, ValueError):
            pass
        return np.array([float(h(float(s))) for s in ss])

    def f(vs):
        vs = np.asarray(vs)
        ss = np.exp(vs)
        return h_vec(t - ss) * (0.5 * sq) * np.exp(-x * x / (4.0 * ss))

    res = integrate(f, math.log(s_min), math.log(t), spec)
    return -res.value


def extract_coeffs(f, window=(1e-4, 1e-2), n_points=40):
    """Least-squares fit of f against {sqrt(x), sqrt(x) log x} on a log grid.

    The default window [1e-4, 1e-2] balances cancellation in evaluating f
    (below) against contamination by the O(x^{3/2} log x) remainder of
    maximal-domain functions (above).  The boundary combination
    cos(theta) c_plus + sin(theta) c_minus for any angle is available as
    BoundaryCoeffs.boundary_value on the result.  No command calls it: it
    stays to read the boundary condition off a solution, such as
    c_minus = h off ``signaling``.
    """
    x_lo = check_real(window[0], "extract_coeffs", "x_lo", "> 0")
    x_hi = check_real(window[1], "extract_coeffs", "x_hi", "> 0")
    if not x_lo < x_hi <= 0.05:
        raise DomainError(f"extract_coeffs: need x_lo < x_hi <= 0.05, got {window!r}")
    xs = np.geomspace(x_lo, x_hi, check_int(n_points, "extract_coeffs", "n_points", 20))
    try:
        vals = np.asarray(f(xs), dtype=float)
        if vals.shape != xs.shape:
            raise TypeError
    except TypeError:
        vals = np.array([float(f(float(x))) for x in xs])
    design = np.column_stack([np.sqrt(xs), np.sqrt(xs) * np.log(xs)])
    coef, _, rank, sv = np.linalg.lstsq(design, vals, rcond=None)
    if rank < 2 or not np.all(np.isfinite(coef)):
        raise FitError("extract_coeffs: degenerate window (rank-deficient fit)")
    if sv[0] / sv[-1] > 1e13:
        raise FitError("extract_coeffs: window too short, basis nearly collinear")
    resid = float(np.max(np.abs(vals - design @ coef)))
    return BoundaryCoeffs(float(coef[0]), float(coef[1]), resid)
