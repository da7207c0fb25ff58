"""Adaptive Gauss-Kronrod integration, the log-tail family, fixed GL panels.

The engine is a standard globally adaptive G7/K15 scheme: keep a heap of
panels ordered by error estimate, bisect the worst one until the summed
estimate meets the tolerance or the subdivision budget runs out.
Integrands are called with a numpy array of n nodes and return either an
array of shape (n,) or, for m integrals sharing one node set, an array of
shape (n, m); the latter is refined until every one of the m integrals
meets its own tolerance.

`integrate_log_tail` takes ``exotic_term``'s int_1^inf with the weight
1/((log y + c)^2 + pi^2) in u = log y, cut where exp(u - t e^u)
underflows, with the cut's bound folded into the reported error.

``UNDERFLOW_U`` is the package's one cut.  Every exponential factor below
e^{-UNDERFLOW_U} ~ 1e-20 is dropped, and a u = log y integral of
c(u)/((u + k)^2 + pi^2) with c -> 1 hands over to the analytic
``arctan_tail`` where c is 1 to within about e^{-UNDERFLOW_U}: UNDERFLOW_U
above its own scale in u (``ktheta.laplace_of_k``, as atan2, and
``trace.t1_y_outer``), or at u = log UNDERFLOW_U where c = 1 - exp(-e^u)
(``trace._cut_integrals``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, check_int, check_real, check_real_array

UNDERFLOW_U = 46.0
# the smallest t of a log-tail integral: below ~4.4e-306 its window's end
# (UNDERFLOW_U + u)/t overflows.  Every public function of t that runs one,
# the Friedrichs closed form in 0.5/t or m_main's 2/t refuses a smaller t.
_T_BOUND = ">= 1e-305"


# geometric panel edges in w = (t-s) y (trace._a_conv) and t(y-1) (m_main)
_W_EDGES = np.array([0.0, 1.0, 3.0, 7.0, 15.0, 31.0, UNDERFLOW_U])
_GLW_N, _GLW_W = np.polynomial.legendre.leggauss(16)


def _gl_panels(edges):
    """16-point Gauss-Legendre nodes and weights on each ``edges`` panel."""
    nodes = 0.5 * (np.multiply.outer(edges[:-1], 1.0 - _GLW_N)
                   + np.multiply.outer(edges[1:], 1.0 + _GLW_N))
    return nodes.ravel(), np.multiply.outer(0.5 * np.diff(edges), _GLW_W).ravel()


def arctan_tail(u, kappa2):
    """int_u^inf dv / ((v + kappa2)^2 + pi^2), the analytic tail of the
    u = log y integrals: (1/pi)(pi/2 - arctan((u + kappa2)/pi))."""
    return (1.0 / math.pi) * (0.5 * math.pi - math.atan((u + kappa2) / math.pi))


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


def integrate(f, a, b, spec=DEFAULT_SPEC, points=None):
    """Adaptively integrate ``f`` over the finite interval [a, b].

    ``f`` receives numpy arrays of interior nodes (endpoints are never
    sampled, so integrable endpoint singularities are allowed) and returns
    shape (n,), or (n, m) for m integrands on one node set; then value and
    est_error have shape (m,), a panel is split in the order of its largest
    component error, and every component must meet
    max(abs_tol, rel_tol * |value_i|).  ``points`` optionally lists
    interior breakpoints for the initial panelization.

    Raises ConvergenceError (carrying the partial result) when the
    subdivision budget is exhausted before the tolerance is met.
    """
    a = check_real(a, "integrate", "a")
    b = check_real(b, "integrate", "b")
    if not a < b:
        raise DomainError(f"integrate: need a < b, got [{a!r}, {b!r}]")
    points = [check_real(p, "integrate", "points") for p in points or ()]
    edges = [a, *sorted(p for p in points if a < p < b), b]

    heap = []
    total = 0.0
    err = 0.0
    evals = 0
    counter = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, e, key = _panel(f, lo, hi)
        evals += 15
        total += v
        err += e
        heapq.heappush(heap, (-key, counter, lo, hi, v, e))
        counter += 1

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
        total += v1 + v2 - v_old
        err += e1 + e2 - e_old
        heapq.heappush(heap, (-key1, counter, lo, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-key2, counter, mid, hi, v2, e2))
        counter += 1
        splits += 1

    return QuadResult(total, err, evals)


def _log_tail_umax(t):
    """u with t*e^u - u = UNDERFLOW_U (underflow cut for exp(u - t e^u)).

    Clamped below at a small positive width: for t > ~UNDERFLOW_U the
    exponential factor is already below 1e-20 on all of [0, inf).
    """
    u = math.log(max(UNDERFLOW_U / t, 1e-300))
    for _ in range(4):
        u = math.log(max((UNDERFLOW_U + u) / t, 1e-300))
    return max(u, 0.01)


def integrate_log_tail(g, t, kappa2, spec=DEFAULT_SPEC):
    """int_1^inf e^{-t y} g(y) / ((log y + kappa2)^2 + pi^2) dy.

    Evaluated after u = log y as
    int_0^inf e^{u - t e^u} g(e^u) / ((u + kappa2)^2 + pi^2) du.
    ``g`` must accept numpy arrays and be bounded on [1, inf).

    The integral is cut where the exponential factor underflows
    (t e^u - u >= UNDERFLOW_U) and the truncation bound
    |g| e^{-t e^umax}/t / ((umax+kappa2)^2 + pi^2) is added to the
    reported error.  ``t`` is a float, or a 1-D array whose times share
    one adaptive node set on the smallest time's window [0, max umax];
    value and est_error then have its shape.
    """
    batch = isinstance(t, np.ndarray)
    t = (check_real_array if batch else check_real)(t, "integrate_log_tail", "t", _T_BOUND)
    kappa2 = check_real(kappa2, "integrate_log_tail", "kappa2")
    pi2 = math.pi * math.pi
    umax = _log_tail_umax(float(np.min(t)))

    def h(us):
        us = us[:, None] if batch else np.asarray(us)
        return np.exp(us - t * np.exp(us)) * np.asarray(g(np.exp(us))) / (
            (us + kappa2) ** 2 + pi2)

    res = integrate(h, 0.0, umax, spec)
    g_end = float(np.max(np.abs(np.asarray(g(np.array([math.exp(umax)]))))))
    # int_umax^inf e^{u - t e^u} du = e^{-t e^umax}/t exactly
    tail = g_end * np.exp(-t * math.exp(umax)) / t / ((umax + kappa2) ** 2 + pi2)
    return QuadResult(res.value, res.est_error + tail, res.evaluations)
