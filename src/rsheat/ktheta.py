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
  It matches the half-line bound state at -zeta0.  ``include_residue=False``
  gives the pole-free convention; ``laplace_of_k`` certifies numerically
  that only the residue-on assembly satisfies
  L K(zeta) = (log sqrt(zeta) + kappa)^{-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_real, check_real_array
from .kernels import BoundaryParam
from .quadrature import (
    DEFAULT_SPEC,
    UNDERFLOW_U,
    QuadSpec,
    arctan_tail,
    integrate,
    integrate_log_tail,
)

_PI2 = math.pi * math.pi


@dataclass(frozen=True)
class KThetaValue:
    main_part: float
    smooth_part: float
    residue_part: float

    @property
    def total(self):
        return self.main_part + self.smooth_part + self.residue_part


def pole_location(bp: BoundaryParam) -> float:
    """zeta0 = e^{-2 kappa}, the positive real zero of log sqrt(zeta) + kappa."""
    try:
        return math.exp(-2.0 * bp.kappa)  # DomainError for Friedrichs
    except OverflowError:
        return math.inf


def m_main(t, bp: BoundaryParam, spec: QuadSpec = DEFAULT_SPEC):
    """Main log-tail integral, positive and strictly decreasing in t."""
    t = check_real(t, "m_main", "t", "> 0")
    k2 = 2.0 * bp.kappa
    res = integrate_log_tail(lambda y: np.ones_like(y), t, k2, spec)
    return 2.0 * res.value


def k1_smooth(t, bp: BoundaryParam, spec: QuadSpec = DEFAULT_SPEC):
    """The (0, 1) piece of the cut density,
    2 int_0^1 e^{-ty} ((log y + 2 kappa)^2 + pi^2)^{-1} dy.

    Integrated in u = log y over [-UNDERFLOW_U, 0]; the piece cut off below
    is at most 2 e^{-UNDERFLOW_U}/pi^2 ~ 2e-21.  ``t`` is a float, giving a
    float, or a 1-D array, giving an array of the same length: all its
    times share one adaptive node set, refined until each time meets the
    tolerance.
    """
    t = (check_real_array if isinstance(t, np.ndarray) else check_real)(
        t, "k1_smooth", "t", ">= 0")
    k2 = 2.0 * bp.kappa

    def f(us):
        us = us[:, None] if isinstance(t, np.ndarray) else us
        ys = np.exp(us)
        return ys * np.exp(-t * ys) / ((us + k2) ** 2 + _PI2)

    return 2.0 * integrate(f, -UNDERFLOW_U, 0.0, spec).value


def residue_term(t, bp: BoundaryParam):
    """Pole contribution 2 zeta0 e^{t zeta0}."""
    t = check_real(t, "residue_term", "t", ">= 0")
    z0 = pole_location(bp)
    try:
        return 2.0 * z0 * math.exp(t * z0)
    except OverflowError:
        return math.inf


def k_theta(t, bp: BoundaryParam, spec: QuadSpec = DEFAULT_SPEC, *,
            include_residue=True):
    """Assembled kernel value with its three parts (residue 0.0 if dropped)."""
    t = check_real(t, "k_theta", "t", "> 0")
    return KThetaValue(
        main_part=m_main(t, bp, spec),
        smooth_part=k1_smooth(t, bp, spec),
        residue_part=residue_term(t, bp) if include_residue else 0.0,
    )


def laplace_of_k(zeta, bp: BoundaryParam, spec: QuadSpec = DEFAULT_SPEC, *,
                 include_residue=True):
    """Numerical Laplace transform of the assembled kernel at real zeta.

    The residue part transforms in closed form to 2 zeta0/(zeta - zeta0)
    (valid above the pole).  The cut density transforms to its Stieltjes
    form 2 int_0^inf ((log y + 2 kappa)^2 + pi^2)^{-1} (y + zeta)^{-1} dy,
    evaluated in u = log y from min(0, log zeta) - UNDERFLOW_U, where the
    integrand is below e^u/(zeta pi^2), to max(0, log zeta) + UNDERFLOW_U,
    beyond which y/(y + zeta) is 1 to within e^{-UNDERFLOW_U} and the
    analytic arctan tail takes over.  The acceptance suite compares the result
    against (log sqrt(zeta) + kappa)^{-1}.
    """
    zeta = check_real(zeta, "laplace_of_k", "zeta", "> 0")
    k2 = 2.0 * bp.kappa
    z0 = pole_location(bp)
    if include_residue and zeta <= z0:
        raise DomainError(f"laplace_of_k: need zeta above the pole {z0!r}, got {zeta!r}")
    res_part = 2.0 * z0 / (zeta - z0) if include_residue else 0.0

    def f(us):
        ys = np.exp(us)
        return ys / ((ys + zeta) * ((us + k2) ** 2 + _PI2))

    log_zeta = math.log(zeta)
    u_hi = max(0.0, log_zeta) + UNDERFLOW_U
    cut_part = 2.0 * integrate(f, min(0.0, log_zeta) - UNDERFLOW_U, u_hi, spec).value
    cut_part += 2.0 * arctan_tail(u_hi, k2)
    return cut_part + res_part
