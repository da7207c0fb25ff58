"""The time-convolution kernel K(t) attached to a boundary angle.

K is the inverse Laplace transform of 1/(log sqrt(zeta) + kappa) with the
principal branch of the logarithm.  Bending the Bromwich line onto the
branch cut zeta = -y, y > 0, leaves the real, positive density
2/((log y + 2 kappa)^2 + pi^2) on the cut plus one real pole, so K splits
into three exactly-summing real parts and no complex arithmetic is needed:

* ``m_main``   -- 2 int_1^inf e^{-ty} ((log y + 2 kappa)^2 + pi^2)^{-1} dy,
  the part carrying the t -> 0 singularity ~ 2/(t log^2 t);
* ``k1_smooth`` -- the same density over y in (0, 1), bounded and smooth;
* ``residue_term`` -- 2 zeta0 e^{t zeta0} with zeta0 = e^{-2 kappa}, the
  residue of e^{t zeta}/(log sqrt(zeta) + kappa) at its positive real pole.
  It matches the half-line bound state at -zeta0.  The flag
  ``include_residue`` keeps the pole-free convention available;
  ``laplace_of_k`` certifies numerically that only the residue-on assembly
  satisfies L K(zeta) = (log sqrt(zeta) + kappa)^{-1}.

``bromwich_truncated`` integrates along the imaginary axis instead, an
independent route that converges to m_main + k1_smooth like 1/log R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .kernels import BoundaryParam
from .quadrature import (
    DEFAULT_SPEC,
    U_CUT,
    UNDERFLOW_U,
    QuadSpec,
    arctan_tail,
    gauss_legendre_panel,
    integrate,
    integrate_log_tail,
)

_PI = math.pi
_PI2 = math.pi * math.pi


@dataclass(frozen=True)
class KernelOptions:
    """Switches and tolerances for assembling the kernel."""

    include_residue: bool = True
    spec: QuadSpec = field(default_factory=lambda: QuadSpec())


DEFAULT_OPTIONS = KernelOptions()


@dataclass(frozen=True)
class KThetaValue:
    main_part: float
    smooth_part: float
    residue_part: float

    @property
    def total(self):
        return self.main_part + self.smooth_part + self.residue_part


def _kappa(bp: BoundaryParam):
    return bp.kappa  # raises DomainError for Friedrichs


def pole_location(bp: BoundaryParam) -> float:
    """zeta0 = e^{-2 kappa}, the positive real zero of log sqrt(zeta) + kappa."""
    k = _kappa(bp)
    try:
        return math.exp(-2.0 * k)
    except OverflowError:
        return math.inf


def m_main(t, bp: BoundaryParam, spec: QuadSpec = DEFAULT_SPEC):
    """Main log-tail integral, positive and strictly decreasing in t."""
    if t <= 0.0 or not math.isfinite(t):
        raise DomainError(f"m_main: need t > 0, got {t!r}")
    k2 = 2.0 * _kappa(bp)
    res = integrate_log_tail(lambda y: np.ones_like(y), t, k2, spec)
    return 2.0 * res.value


def k1_smooth(t, bp: BoundaryParam, opts: KernelOptions = DEFAULT_OPTIONS):
    """The (0, 1) piece of the cut density,
    2 int_0^1 e^{-ty} ((log y + 2 kappa)^2 + pi^2)^{-1} dy.

    Integrated in u = log y over [-UNDERFLOW_U, 0]; the piece cut off below
    is at most 2 e^{-UNDERFLOW_U}/pi^2 ~ 2e-21.  ``t`` is a float, giving a
    float, or a 1-D array, giving an array of the same length: all its
    times share one adaptive node set, refined until each time meets the
    tolerance.
    """
    if isinstance(t, np.ndarray):
        t = t.astype(float)
        if not np.all(np.isfinite(t) & (t >= 0.0)):
            raise DomainError(f"k1_smooth: need t >= 0, got {t!r}")
    elif t < 0.0 or not math.isfinite(t):
        raise DomainError(f"k1_smooth: need t >= 0, got {t!r}")
    k2 = 2.0 * _kappa(bp)

    def f(us):
        us = us[:, None] if isinstance(t, np.ndarray) else us
        ys = np.exp(us)
        return ys * np.exp(-t * ys) / ((us + k2) ** 2 + _PI2)

    return 2.0 * integrate(f, -UNDERFLOW_U, 0.0, opts.spec).value


def residue_term(t, bp: BoundaryParam, opts: KernelOptions | None = None):
    """Pole contribution 2 zeta0 e^{t zeta0}; zero when the flag is off."""
    if t < 0.0 or not math.isfinite(t):
        raise DomainError(f"residue_term: need t >= 0, got {t!r}")
    if opts is not None and not opts.include_residue:
        return 0.0
    z0 = pole_location(bp)
    try:
        return 2.0 * z0 * math.exp(t * z0)
    except OverflowError:
        return math.inf


def k_theta(t, bp: BoundaryParam, opts: KernelOptions = DEFAULT_OPTIONS):
    """Assembled kernel value with its three parts recorded."""
    if t <= 0.0 or not math.isfinite(t):
        raise DomainError(f"k_theta: need t > 0, got {t!r}")
    return KThetaValue(
        main_part=m_main(t, bp, opts.spec),
        smooth_part=k1_smooth(t, bp, opts),
        residue_part=residue_term(t, bp, opts),
    )


def laplace_of_k(zeta, bp: BoundaryParam, opts: KernelOptions = DEFAULT_OPTIONS):
    """Numerical Laplace transform of the assembled kernel at real zeta.

    The residue part transforms in closed form to 2 zeta0/(zeta - zeta0)
    (valid above the pole).  The cut density transforms to its Stieltjes
    form 2 int_0^inf ((log y + 2 kappa)^2 + pi^2)^{-1} (y + zeta)^{-1} dy,
    evaluated in u = log y from min(0, log zeta) - UNDERFLOW_U, where the
    integrand is below e^u/(zeta pi^2), to max(0, log zeta) + U_CUT,
    beyond which y/(y + zeta) is 1 to within e^{-U_CUT} and the analytic
    arctan tail takes over.  The acceptance suite compares the result
    against (log sqrt(zeta) + kappa)^{-1}.
    """
    zeta = float(zeta)
    k2 = 2.0 * _kappa(bp)
    z0 = pole_location(bp)
    if opts.include_residue:
        if zeta <= z0:
            raise DomainError(
                f"laplace_of_k: zeta = {zeta!r} at or below the pole {z0!r}")
        res_part = 2.0 * z0 / (zeta - z0)
    else:
        if zeta <= 0.0:
            raise DomainError(f"laplace_of_k: need zeta > 0, got {zeta!r}")
        res_part = 0.0

    def f(us):
        ys = np.exp(us)
        return ys / ((ys + zeta) * ((us + k2) ** 2 + _PI2))

    log_zeta = math.log(zeta)
    u_hi = max(0.0, log_zeta) + U_CUT
    cut_part = 2.0 * integrate(f, min(0.0, log_zeta) - UNDERFLOW_U, u_hi, opts.spec).value
    cut_part += 2.0 * arctan_tail(u_hi, k2)
    return cut_part + res_part


def bromwich_truncated(t, radius, bp: BoundaryParam, spec: QuadSpec = DEFAULT_SPEC):
    """Truncated inverse-Laplace integral along the imaginary axis.

    (1/pi) Re int_0^R e^{ity} ((1/2) log y + i pi/4 + kappa)^{-1} dy.
    Converges to m_main + k1_smooth as R -> inf with error O(1/log R)
    (the pole contribution is *not* picked up by the axis integral).
    The head [0, 1] is integrated adaptively; the oscillatory range [1, R]
    uses fixed quarter-period composite Gauss-Legendre panels, vectorized.
    """
    if t <= 0.0 or not math.isfinite(t):
        raise DomainError(f"bromwich_truncated: need t > 0, got {t!r}")
    if radius <= 1.0:
        raise DomainError("bromwich_truncated: need radius > 1")
    kap = _kappa(bp)
    b = 0.25 * _PI

    def f(ys):
        a = 0.5 * np.log(ys) + kap
        return (a * np.cos(t * ys) + b * np.sin(t * ys)) / (a * a + b * b)

    head = integrate(f, 0.0, 1.0, spec).value

    nodes, weights = gauss_legendre_panel(12)
    width = 0.5 * _PI / t
    n_panels = int(math.ceil((radius - 1.0) / width))
    edges = np.linspace(1.0, radius, n_panels + 1)
    lo = edges[:-1, None]
    hi = edges[1:, None]
    ys = 0.5 * (lo * (1.0 - nodes) + hi * (1.0 + nodes))
    tail = float(np.sum(0.5 * (hi - lo) * weights * f(ys)))
    return (head + tail) / _PI
