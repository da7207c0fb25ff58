"""The time-convolution kernel K(t) attached to a boundary angle.

K is the inverse Laplace transform of 1/(log sqrt(zeta) + kappa) with the
principal branch of the logarithm.  Bending the Bromwich line onto the
branch cut zeta = -y, y > 0, leaves the real, positive density
2 C(log y + 2 kappa), C(x) = 1/(x^2 + pi^2), on the cut plus one real
pole, so K splits into three exactly-summing real parts and no complex
arithmetic is needed:

* ``m_main``   -- 2 int_1^inf e^{-ty} C(log y + 2 kappa) dy, the part
  carrying the t -> 0 singularity ~ 2/(t log^2 t);
* ``k1_smooth`` -- the same density over y in (0, 1), bounded and smooth;
* ``residue_term`` -- 2 zeta0 e^{t zeta0} with zeta0 = e^{-2 kappa}, the
  residue of e^{t zeta}/(log sqrt(zeta) + kappa) at its positive real pole.
  It matches the half-line bound state at -zeta0.  ``include_residue=False``
  gives the pole-free convention; ``laplace_of_k`` certifies numerically
  that only the residue-on assembly satisfies
  L K(zeta) = (log sqrt(zeta) + kappa)^{-1}.

Each cut integral is one 16-point Gauss-Legendre sum on fixed panels, with
no tolerance.  On |Im u| <= pi/2 about its log variable u the integrand is
at most e^{Re u}/((Re u + 2 kappa)^2 + pi^2/4) in modulus (the logistic of
``laplace_of_k``: 1 in place of e^{Re u}), since C's poles stay at distance
pi whatever kappa, t and zeta are.  So a panel of width <= 2, whose
Bernstein ellipse rho = 3.43 fits that strip, errs by under
(64/15) rho^-32/(rho^2 - 1) M < 2.9e-18 M, M that bound on the ellipse
(Trefethen, Approximation Theory and Approximation Practice, Thm 19.3).
Below a window's end e^u C grows with u at rate >= 1 - 1/pi, and C varies
by at most 217x over 46 in u, so a cut UNDERFLOW_U below the peak drops
under 3e-17 of the value.  ``k1_smooth``: u = log y over
[-UNDERFLOW_U - log max(1, t), 0], 23 panels up to t = 1.

``m_main`` shares its rule, ``_log_tail``, with ``trace.exotic_term``,
whose integrand is m_main's without the factor y (1 for e^{Re u} in the
bound).  For t <= 1: v = log(ty) on the 25 equal panels (width 1.99) of
``_V_EDGES`` over [-UNDERFLOW_U, log UNDERFLOW_U], each clipped at log t,
so that a row's nodes depend on its own t alone; m_main's 2/t outside.
Above the window e^{-e^v} integrates to e^{-UNDERFLOW_U}, under 1e-18 of
the value; below it, from log t, e^{-e^v} is 1 to within e^{-UNDERFLOW_U},
so exotic_term takes that piece as the difference of two arctan tails, in
closed form.  For t > 1: w = t(y - 1) on ``_W_EDGES``, e^{-t}/t outside,
whose ellipses rho = 4 keep Re(1 + w/t) >= 0.43 (exotic_term's extra
weight 1/(1 + w/t) is at most 2.3 there): under 1.6e-20 M per panel, and
past w = UNDERFLOW_U under 1e-19 of the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_real, check_real_array
from .kernels import BoundaryParam
from .quadrature import UNDERFLOW_U, _T_BOUND, _W_EDGES, _gl_panels, arctan_tail

_PI2 = math.pi * math.pi
# k1_smooth's rule up to t = 1, and m_main's: 25 panels in v = log(ty) up
# to t = 1, _W_EDGES in w = t(y - 1) above
_U_NODES, _U_WEIGHTS = _gl_panels(np.linspace(-UNDERFLOW_U, 0.0, 24))
_Y_NODES = np.exp(_U_NODES)
_V_EDGES = np.linspace(-UNDERFLOW_U, math.log(UNDERFLOW_U), 26)
_W_NODES, _W_WEIGHTS = _gl_panels(_W_EDGES)
_W_DECAY = np.exp(-_W_NODES)


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


def m_main(t, bp: BoundaryParam):
    """Main log-tail part, positive and strictly decreasing in t; 0.0 where
    e^{-t} underflows."""
    t = check_real(t, "m_main", "t", _T_BOUND)
    return 2.0 * float(_log_tail(np.array([t]), 2.0 * bp.kappa)[0])


def _log_tail(ts, k2, per_y=False):
    """int_1^inf e^{-ty} C(log y + k2) dy, or with dy/y for ``per_y``, at
    each t of a 1-D array, on m_main's rule (see the module docstring).  A
    row's value depends on its own t alone: up to t = 1 its panels are
    ``_V_EDGES`` clipped at its log t, summed panel by panel from the left,
    so the zero-width panels below log t add exact zeros, and the call
    leaves out those below every row's log t."""
    out = np.empty(ts.shape)
    low = ts <= 1.0
    if low.any():
        log_t = np.log(ts[low])[:, None]
        first = max(np.searchsorted(_V_EDGES, log_t.min(), side="right") - 1, 0)
        v, w = _gl_panels(np.maximum(_V_EDGES[first:], log_t))
        ev = np.exp(v)
        dens = np.exp(-ev if per_y else v - ev) / ((v - log_t + k2) ** 2 + _PI2)
        panels = (dens * w).reshape(len(log_t), -1, 16).sum(axis=2)
        out[low] = np.cumsum(panels, axis=1)[:, -1]
        if per_y:
            # int C(v - l) over [log t, -UNDERFLOW_U], l = log t - k2, where
            # e^{-e^v} is 1 to within e^{-UNDERFLOW_U}: the difference of the
            # two arctan tails as one atan2, which does not cancel
            d = np.maximum(-UNDERFLOW_U - log_t[:, 0], 0.0)
            out[low] += np.arctan2(math.pi * d, k2 * (k2 + d) + _PI2) / math.pi
        else:
            out[low] /= ts[low]
    if not low.all():
        th = ts[~low]
        r = _W_NODES / th[:, None]
        dens = _W_DECAY / ((np.log1p(r) + k2) ** 2 + _PI2)
        if per_y:
            dens /= 1.0 + r
        with np.errstate(under="ignore"):  # e^{-t} past t ~ 745
            out[~low] = np.exp(-th) / th * (dens * _W_WEIGHTS).sum(axis=1)
    return out


def k1_smooth(t, bp: BoundaryParam):
    """The (0, 1) piece of the cut density.  ``t`` is a float, giving a
    float, or a 1-D array, giving an array from one (times x nodes) block.
    Each row is summed along its own nodes, so a time t <= 1 has the same
    bits alone and in any block; above t = 1 the node set still follows the
    block's largest t.  Past t ~ 1e10 the nodes' rounding near u = -log t
    costs about 1e-16 log t relative."""
    t = (check_real_array if isinstance(t, np.ndarray) else check_real)(
        t, "k1_smooth", "t", ">= 0")
    u, w, y = _U_NODES, _U_WEIGHTS, _Y_NODES
    t_max = t.max() if isinstance(t, np.ndarray) else t
    if t_max > 1.0:  # reach UNDERFLOW_U below e^{u - t e^u}'s peak at -log t
        lo = -UNDERFLOW_U - math.log(t_max)
        u, w = _gl_panels(np.linspace(lo, 0.0, 1 + math.ceil(-0.5 * lo)))
        y = np.exp(u)
    dens = w * y / ((u + 2.0 * bp.kappa) ** 2 + _PI2)
    out = 2.0 * np.sum(np.exp(-np.multiply.outer(t, y)) * dens, axis=-1)
    return out if isinstance(t, np.ndarray) else float(out)


def residue_term(t, bp: BoundaryParam):
    """Pole contribution 2 zeta0 e^{t zeta0}; inf where it overflows."""
    t = check_real(t, "residue_term", "t", ">= 0")
    z0 = pole_location(bp)
    try:
        return 2.0 * z0 * (math.exp(t * z0) if t else 1.0)  # no 0 * inf
    except OverflowError:
        return math.inf


def k_theta(t, bp: BoundaryParam, *, include_residue=True):
    """Assembled kernel value with its three parts (residue 0.0 if dropped)."""
    t = check_real(t, "k_theta", "t", _T_BOUND)
    return KThetaValue(
        main_part=m_main(t, bp),
        smooth_part=k1_smooth(t, bp),
        residue_part=residue_term(t, bp) if include_residue else 0.0,
    )


def laplace_of_k(zeta, bp: BoundaryParam, *, include_residue=True):
    """Numerical Laplace transform of the assembled kernel at real zeta,
    which the acceptance suite compares with (log sqrt(zeta) + kappa)^{-1}.

    The residue part is 2 zeta0/(zeta - zeta0) (above the pole), the cut
    part 2 int_0^inf C(log y + 2 kappa) (y/(y + zeta)) dy/y, in u = log y on
    panels of width <= 2 (the module docstring's bound) from
    min(0, log zeta) - UNDERFLOW_U, below which the integrand is under
    e^u/(zeta pi^2), to max(0, log zeta) + UNDERFLOW_U, then the arctan
    tail.  y/(y + zeta) is the logistic 1/(1 + e^{log zeta - u}), so every
    finite zeta above the pole (residue off: every zeta > 0) gives a
    finite value.
    """
    zeta = check_real(zeta, "laplace_of_k", "zeta", "> 0")
    k2 = 2.0 * bp.kappa
    z0 = pole_location(bp)
    if include_residue and zeta <= z0:
        raise DomainError(f"laplace_of_k: need zeta above the pole {z0!r}, got {zeta!r}")
    res_part = 2.0 * (z0 / (zeta - z0)) if include_residue else 0.0
    log_zeta = math.log(zeta)
    u_lo = min(0.0, log_zeta) - UNDERFLOW_U
    u_hi = max(0.0, log_zeta) + UNDERFLOW_U
    u, w = _gl_panels(np.linspace(u_lo, u_hi, 1 + math.ceil(0.5 * (u_hi - u_lo))))
    with np.errstate(over="ignore"):
        # 0.0 where e^{log zeta - u} overflows, which needs zeta > e^663
        dens = 1.0 / ((1.0 + np.exp(log_zeta - u)) * ((u + k2) ** 2 + _PI2))
    cut_part = 2.0 * (float(dens @ w) + arctan_tail(u_hi, k2))
    return cut_part + res_part
