"""Adaptive Gauss-Kronrod integration, fixed GL panels, the arctan tail.

The engine is a standard globally adaptive G7/K15 scheme: keep a heap of
panels ordered by error estimate, bisect the worst one until the summed
estimate meets the tolerance or the subdivision budget runs out.
Integrands are called with a numpy array of n nodes and return either an
array of shape (n,) or, for m integrals sharing one node set, an array of
shape (n, m); the latter is refined until every one of the m integrals
meets its own tolerance.

No ``rsheat trace`` row and no kernel value runs the engine: those
integrals are fixed rules, 16-point Gauss-Legendre sums on the panels of
``_gl_panels`` or trapezoid sums, each with a bound stated where it is
used.

``UNDERFLOW_U`` is the package's one cut.  Every exponential factor below
e^{-UNDERFLOW_U} ~ 1e-20 is dropped, and a u = log y integral of
c(u)/((u + k)^2 + pi^2) with c -> 1 hands over to the analytic
``arctan_tail`` where c is 1 to within about e^{-UNDERFLOW_U}: UNDERFLOW_U
above its own scale in u (``ktheta.laplace_of_k`` and
``trace.t1_y_outer``), or at u = log UNDERFLOW_U where c = 1 - exp(-e^u)
(``trace._cut_integrals``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, check_int, check_real

UNDERFLOW_U = 46.0
# the smallest t of the Friedrichs closed form in 0.5/t and of m_main's 2/t:
# every public function of t that takes either refuses a smaller t
_T_BOUND = ">= 1e-305"


# geometric panel edges in w = (t-s) y (trace._a_conv) and t(y-1) (m_main)
_W_EDGES = np.array([0.0, 1.0, 3.0, 7.0, 15.0, 31.0, UNDERFLOW_U])
_GLW_N, _GLW_W = np.polynomial.legendre.leggauss(16)
_GLW_LO, _GLW_HI = 1.0 - _GLW_N, 1.0 + _GLW_N


def _gl_panels(edges):
    """16-point Gauss-Legendre nodes and weights on each ``edges`` panel;
    for 2-D edges, one row of nodes per row of edges."""
    lo, hi = edges[..., :-1, None], edges[..., 1:, None]
    shape = edges.shape[:-1] + (-1,)
    nodes = 0.5 * (lo * _GLW_LO + hi * _GLW_HI)
    return nodes.reshape(shape), (0.5 * (hi - lo) * _GLW_W).reshape(shape)


def arctan_tail(u, kappa2):
    """int_u^inf dv / ((v + kappa2)^2 + pi^2), the analytic tail of the
    u = log y integrals: (1/pi) atan2(pi, u + kappa2), a float or, for an
    array u + kappa2, an array.  Not pi/2 - atan(x/pi), which cancels as x
    grows (1e-13 off at x ~ 2e4)."""
    x = u + kappa2
    if isinstance(x, np.ndarray):
        return (1.0 / math.pi) * np.arctan2(math.pi, x)
    return (1.0 / math.pi) * math.atan2(math.pi, x)


# 15-point Kronrod nodes/weights and embedded 7-point Gauss weights
# (QUADPACK dqk15 values).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# all 15 nodes on [-1, 1], ordered
_NODES = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_WEIGHTS_K = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
# Gauss nodes are the odd-index Kronrod nodes (1,3,5,7,9,11,13)
_GAUSS_IDX = np.arange(1, 15, 2)
_WEIGHTS_G = np.concatenate([_WG[:3], [_WG[3]], _WG[2::-1]])


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances and budget for one adaptive integration: finite positive
    tolerances and an integer budget >= 1, else DomainError."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 4000

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            object.__setattr__(self, name, check_real(getattr(self, name), "QuadSpec", name, "> 0"))
        object.__setattr__(self, "max_subdivisions", check_int(
            self.max_subdivisions, "QuadSpec", "max_subdivisions", 1))


@dataclass(frozen=True)
class QuadResult:
    """``value`` and ``est_error`` are floats, or arrays of shape (m,) for
    an integrand returning (n, m)."""

    value: float
    est_error: float
    evaluations: int


DEFAULT_SPEC = QuadSpec()


def _panel(f, a, b):
    """K15 value, G7-K15 error and heap key (the largest error) of a panel."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fx = np.asarray(f(c + h * _NODES))
    if fx.ndim == 1:
        k15 = h * float(np.sum(_WEIGHTS_K * fx))
        g7 = h * float(np.sum(_WEIGHTS_G * fx[_GAUSS_IDX]))
        e = abs(k15 - g7)
        return k15, e, e
    k15 = h * (_WEIGHTS_K @ fx)
    g7 = h * (_WEIGHTS_G @ fx[_GAUSS_IDX])
    e = np.abs(k15 - g7)
    return k15, e, float(e.max())


def _unmet(err, total, spec):
    """Whether some component's error still exceeds its tolerance."""
    if isinstance(err, float):
        return err > max(spec.abs_tol, spec.rel_tol * abs(total))
    return bool(np.any(err > np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))))


def integrate(f, a, b, spec=DEFAULT_SPEC):
    """Adaptively integrate ``f`` over the finite interval [a, b].

    ``f`` receives numpy arrays of interior nodes (endpoints are never
    sampled, so integrable endpoint singularities are allowed) and returns
    shape (n,), or (n, m) for m integrands on one node set; then value and
    est_error have shape (m,), a panel is split in the order of its largest
    component error, and every component must meet
    max(abs_tol, rel_tol * |value_i|).

    Raises ConvergenceError (carrying the partial result) when the
    subdivision budget is exhausted before the tolerance is met.
    """
    a = check_real(a, "integrate", "a")
    b = check_real(b, "integrate", "b")
    if not a < b:
        raise DomainError(f"integrate: need a < b, got [{a!r}, {b!r}]")
    v, e, key = _panel(f, a, b)
    heap = [(-key, 0, a, b, v, e)]
    total, err, evals, counter = v, e, 15, 1
    splits = 0
    while _unmet(err, total, spec):
        if splits >= spec.max_subdivisions or not heap:
            raise ConvergenceError(
                f"integrate: budget exhausted after {splits} subdivisions "
                f"(value={total!r}, est_error={err!r})",
                partial=QuadResult(total, err, evals),
            )
        _, _, lo, hi, v_old, e_old = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1, key1 = _panel(f, lo, mid)
        v2, e2, key2 = _panel(f, mid, hi)
        evals += 30
        # not in place: total and err start as the first panel's arrays
        total = total + (v1 + v2 - v_old)
        err = err + (e1 + e2 - e_old)
        heapq.heappush(heap, (-key1, counter, lo, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-key2, counter, mid, hi, v2, e2))
        counter += 1
        splits += 1

    return QuadResult(total, err, evals)
