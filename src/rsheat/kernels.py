"""Half-line heat kernel building blocks.

The operator is -d^2/dx^2 - 1/(4x^2) on (0, inf).  Functions in the
maximal domain behave like c_plus sqrt(x) + c_minus sqrt(x) log(x) near 0,
and the self-adjoint realizations are cut out by

    cos(theta) c_plus + sin(theta) c_minus = 0,   theta in [0, pi),

with theta = pi/2 the Friedrichs extension (c_minus = 0).  This module
provides the Friedrichs heat kernel, its boundary limit, the diagonal
self-convolution, the driven ("signaling") solution with prescribed
c_minus data, and a numerical extractor for (c_plus, c_minus).
``q_diag`` is a closed form in the scaled K0 of ``specfun``, the package's
one K0; ``signaling`` alone runs the adaptive engine.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError, check_int, check_real, check_real_array
from .quadrature import DEFAULT_SPEC, UNDERFLOW_U, QuadSpec, integrate
from .specfun import EULER_GAMMA, LN2, _k, bessel_i0_scaled

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
    sqrt(x x2)/(2t) i0_scaled(z) exp(-b), z = x x2/2t, b = (x-x2)^2/(4t),
    which keeps full relative accuracy for x^2/t up to ~1e6.  sqrt(x x2) is
    sqrt(x) sqrt(x2) and b is (x-x2)/4 ((x-x2)/t), so nothing over- or
    underflows where E does not (see ``_ratio_exp``); above z = 1e17,
    i0_scaled(z) is 1/sqrt(2 pi z) to 1/(8z) < 2^-59: E = e^{-b}/sqrt(4 pi t).
    """
    t = check_real(t, "friedrichs_kernel", "t", "> 0")
    x = check_real(x, "friedrichs_kernel", "x", ">= 0")
    x2 = check_real(x2, "friedrichs_kernel", "x2", ">= 0")
    if x == 0.0 or x2 == 0.0:
        return 0.0
    root = math.sqrt(x) * math.sqrt(x2)
    z = 0.5 * root * (root / t)
    b = 0.25 * (x - x2) * ((x - x2) / t)
    if z > 1e17:
        return _ratio_exp(0.5 / math.sqrt(math.pi), math.sqrt(t), b)
    return 0.5 * bessel_i0_scaled(z) * _ratio_exp(root, t, b)


def nprime(x, t):
    """Boundary limit sqrt(x)/(2t) exp(-x^2/4t) of the Friedrichs kernel.

    Equals lim_{x2 -> 0} x2^{-1/2} friedrichs_kernel(x, x2, t), and is
    formed as that is, with x^2/4t as (x/4)(x/t).
    """
    t = check_real(t, "nprime", "t", "> 0")
    x = check_real(x, "nprime", "x", ">= 0")
    if x == 0.0:
        return 0.0
    return _ratio_exp(0.5 * math.sqrt(x), t, 0.25 * x * (x / t))


def _ratio_exp(c, d, b):
    """(c/d) e^{-b}, c, d > 0, b >= 0 or inf: exp(log c - log d - b) where c/d
    overflows or e^{-b} is subnormal, so it is 0.0 only where it underflows."""
    ratio = c / d
    decay = math.exp(-b)
    if ratio < math.inf and decay >= sys.float_info.min:
        return ratio * decay
    return math.exp(math.log(c) - math.log(d) - b)


def q_diag(x, t):
    """Diagonal time self-convolution of the boundary kernel.

    Q(x, t) = int_0^t nprime(x, t-s) nprime(x, s) ds.  In TrQ's variable,
    s = t u with u = (1 - tanh(v/2))/2, it is (x/2t) e^{-b} F(b), b = x^2/t,
    F(b) = int_0^inf exp(-b sinh^2(v/2)) dv = e^{b/2} K0(b/2), one scaled
    K0 value per entry (``specfun._k``, bit for bit ``bessel_k0_scaled``,
    whose argument check the one on b covers): within 3.1e-16 of mpmath
    over b in [1e-300, 1e5]; e^{-b} adds its condition number b eps.  b
    below 1e-300 is refused: b >= 1e-300 keeps x/t normal (a subnormal x/t
    needs x < 4, so b < 1e-307), and the prefactor (x/2t) e^{-b} its
    relative accuracy.

    ``x`` is a float, giving a float, or a 1-D array, giving an array of
    the same length; each entry equals its own scalar call.  (x/2t) e^{-b}
    is exp(log(x/2t) - b) where e^{-b} is subnormal or 0, as in
    ``_ratio_exp``.  Entries with x = 0 or b = inf are 0.0.
    """
    t = check_real(t, "q_diag", "t", "> 0")
    if not isinstance(x, np.ndarray):
        return float(q_diag(np.array([check_real(x, "q_diag", "x", ">= 0")]), t)[0])
    x = check_real_array(x, "q_diag", "x", ">= 0")
    with np.errstate(over="ignore"):
        # x (x/t), not x^2/t, so b stays in range where x^2 underflows;
        # x/t overflows only where b > 1e293 and Q is 0.0
        x_t = x / t
        b = x * x_t
        x_2t = np.minimum(0.5 * x_t, sys.float_info.max)
    decay = np.exp(-b)
    out = x_2t * decay
    far = decay < sys.float_info.min
    if far.any():
        out[far] = np.exp(np.log(x_2t[far]) - b[far])
    live = np.flatnonzero((x > 0.0) & (b < math.inf))
    if live.size:
        check_real(b[live].min(), "q_diag", "x^2/t", ">= 1e-300")
        out[live] *= [_k(0, 0.5 * v, True) for v in b[live].tolist()]
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
    BoundaryCoeffs.boundary_value on the result.  ``f`` gets the grid as
    one array, or, if it refuses that with a TypeError or DomainError, one
    float at a time.  No command calls it: it stays to read the boundary
    condition off a solution, such as c_minus = h off ``signaling``.
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
    except (TypeError, DomainError):
        vals = np.array([float(f(float(x))) for x in xs])
    design = np.column_stack([np.sqrt(xs), np.sqrt(xs) * np.log(xs)])
    coef, _, rank, sv = np.linalg.lstsq(design, vals, rcond=None)
    if rank < 2 or not np.all(np.isfinite(coef)):
        raise FitError("extract_coeffs: degenerate window (rank-deficient fit)")
    if sv[0] / sv[-1] > 1e13:
        raise FitError("extract_coeffs: window too short, basis nearly collinear")
    resid = float(np.max(np.abs(vals - design @ coef)))
    return BoundaryCoeffs(float(coef[0]), float(coef[1]), resid)
