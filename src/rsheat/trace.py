"""Heat-trace curves over the unit interval.

The diagonal of the corrected heat kernel integrates to

    full_trace(t) = friedrichs_trace(t) + correction(t),

where the correction is the trace of the double boundary-layer term:
time-convolving the kernel parts against TrQ(s), the traced diagonal
self-convolution of the boundary kernel (``tn_trace``, identically
1/2 + O(t^inf)).  The main contribution T1 is evaluated in the y-outer
(Fubini) order, which avoids the 1/((t-s) log^2(t-s)) endpoint
singularity of the s-outer order entirely; the test suite keeps the
s-outer route as an independent cross-check.  ``t1_y_outer`` splits its
inner convolution on TrQ = 1/2 - R (below): the 1/2 part is J's fixed rule
(below), and R's part runs the adaptive engine on its own error budget,
only above s_f.

u = (1 - tanh(v/2))/2 turns TrQ(s) = int_0^{1/2} (1 - e^{-1/(4s u(1-u))}) du
into 1/2 - R(s), R(s) = int_0^inf e^{-c/s} sech^2(v/2)/4 dv, c = cosh^2(v/2),
which is (Z/2) e^{-Z} (K1 - K0)(Z), Z = 1/(2s), by parts (DLMF 10.32.9).
Re c >= 1/2 on |Im v| <= pi/2, where |sech^2(v/2)|/4 integrates to pi/2,
so the trapezoid rule of step h = 1/4 on [0, 40] is within
(pi/2)/(e^{4 pi^2} - 1) + e^{-40} < 2e-17 of R at every s > 0 (Trefethen
and Weideman, SIAM Review 56, 2014): one rule for TrQ, and R' on its
nodes.  As c >= 1, R(s) <= e^{-1/s}/2 < 2^-55 below s_f = ``_TRQ_FLAT_S``
= 1/38, where TrQ rounds to exactly Q0 = 1/2 and the whole correction
collapses to Q0 F(t), F(tau) = int_0^tau K = 2 nu(zeta0 tau), with nu
the Volterra function, whose Laplace transform is 1/(s log s) (Erdelyi,
Higher Transcendental Functions III, sec. 18.3; Garrappa and Mainardi,
"On Volterra functions and Ramanujan integrals", Analysis 36, 2016).  On
the branch cut this is

    F(tau) = 2 (e^{zeta0 tau} - 1 + J(log tau - 2 kappa)),
    J(l) = int_R (1 - exp(-e^v)) dv / ((v - l)^2 + pi^2),

one positive integral, valid for every tau > 0.  J is one fixed rule for
every l: 16-point Gauss-Legendre on the 13 graded panels of ``_J_EDGES``
over [-UNDERFLOW_U, log UNDERFLOW_U], wide where 1 - exp(-e^v) ~ e^v and
narrow over its turn, plus the arctan tail.  A panel of half-width h errs
by under (64/15) h rho^-32/(rho^2 - 1) M, M the integrand's bound on the
Bernstein ellipse E_rho (Trefethen, Approximation Theory and Approximation
Practice, Thm 19.3).  Take ellipses of half-height b = 3 (1.5 on the last
panel), which keep C(x) = 1/(x^2 + pi^2)'s poles, at distance pi from the
axis whatever l, outside: there |C(v - l)| <= C(Re v - l)/(1 - b^2/pi^2),
C varies by at most 1 + d/pi + d^2/pi^2 over a distance d, and
|1 - exp(-e^v)| <= |e^v| e^{|e^v|} (<= 2 where |Im v| <= pi/2), which is
what lets the panels left of -10 be wide.  With J >= (1 - 1/e) int_0^1 C,
each panel errs by under 5.1e-17 J(l) and all of them by under 1.5e-16 J(l),
at every l; the cut below -UNDERFLOW_U drops under 5e-18 J, and the tail
takes 1 - exp(-e^v) as 1 to within e^{-UNDERFLOW_U}.

T1's 1/2 part, 2H = int_{log t}^{log t + UNDERFLOW_U} (1 - exp(-e^v))
C(v - l) dv at l = log t - 2 kappa, is J's integrand over a window, and
``_t1_half`` takes it on J's panels clipped at log t.  A clipped panel's
ellipse of the same rho is the full panel's image under the homothety about
the kept end, so it lies inside it, and the panel's bound shrinks with its
width.  So 2H errs by under J's 1.5e-16 of (1 - 1/e) int_0^1 C, which 2H
exceeds for t in [e^{-45}, 1]; up to t = 46, C varies by at most 3.7x over
log 46, so under 5.6e-16 of 2H; from t = 46 on every panel is clipped away
and the window is the closed-form tail alone.

Integration by parts over all of (0, t] gives exactly

    correction(t) = Q0 F(t) - int_0^t F(t - s) R'(s) ds,

and ``volterra_correction`` takes the integral on two fixed rules whose
F values are columns of one J rule call: s in [t/2, t] in
v = log(t/(2 tau)), tau = t - s, on the graded panels ``_W_EDGES``,
which resolve F's 1/log tau end; and, from t = 2 s_f on, s in (0, t/2]
in x = log u, u = 1/s in [2/t, 2/t + 46], on 6 equal panels, since
R'(s) s^2 = sum W c e^{-c u} ~ log(1/u) as u -> 0 is smooth in x but not
in u.  Below 2 s_f this piece is below F(t) R(s_f) < 2^-55 F(t) and is
left out, the same cut that leaves the rows below s_f at Q0 F(t).
``trace_curve`` takes this rule for every row, ``_CURVE_BLOCK`` rows per
call, and runs no adaptive integral.  Only ``full_trace`` keeps the nested
T1/T2/residue route above s_f: the benchmark times its parts in a serial
full_trace loop, and it stays the tests' independent check of the
Volterra rule.

``exotic_term`` is the non-polyhomogeneous part of the small-t expansion:
 -int_1^inf e^{-ty} dy / (y((log y + 2 kappa)^2 + pi^2)), an expansion in
powers of 1/log t rather than t, which is what the degree-two fit in
``asymptotics`` isolates.  In v = log(ty) it is
-int_{log t}^inf e^{-e^v} C(v - l) dv, l = log t - 2 kappa: m_main's
integrand without the factor e^v, on m_main's rule (see ``ktheta``).  Its
t -> 0 limit ``exotic_limit`` is the integral without e^{-ty}, so T1's
closed leading part ``t1_reference``, int_1^inf (1 - e^{-ty}) dy /
(y(...)), is exotic_term(t) - exotic_limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._dd import two_prod
from .errors import check_real, check_real_array
from .kernels import BoundaryParam
from .ktheta import _log_tail, k1_smooth, pole_location
from .quadrature import (
    DEFAULT_SPEC,
    UNDERFLOW_U,
    QuadSpec,
    _GLW_N,
    _GLW_W,
    _T_BOUND,
    _W_EDGES,
    _gl_panels,
    arctan_tail,
    integrate,
)
from .specfun import bessel_i1_scaled, i0_scaled_checked

_PI2 = math.pi * math.pi

# TrQ = 1/2 - sum W e^{-c/s}, c = cosh^2(v/2), W = h sech^2(v/2)/4 at v = k h
_TRQ_C = np.cosh(0.125 * np.arange(161)) ** 2
_TRQ_W = 1.0 / (16.0 * _TRQ_C)
_TRQ_W[0] *= 0.5  # the trapezoid's end weight, h = 1/4
_TRQ_FLAT_S = 1.0 / 38.0

# J's rule: 13 graded panels on [-UNDERFLOW_U, log UNDERFLOW_U], panel by
# panel, with 1 - exp(-e^v) in the weights
_J_EDGES = np.array([-UNDERFLOW_U, -34.0, -26.0, -20.0, -15.0, -11.0, -8.0, -6.0, -4.0,
                     -2.5, -1.0, 0.5, 2.0, math.log(UNDERFLOW_U)])
_J_NODES, _J_WEIGHTS = (a.reshape(-1, 16) for a in _gl_panels(_J_EDGES))
_J_WEIGHTS = _J_WEIGHTS * -np.expm1(-np.exp(_J_NODES))

# volterra_correction's rule on s in [t/2, t], the 96 nodes of _W_EDGES in
# v = log(t/(2 tau)): tau = (t/2) _V_TAU
_V_NODES, _V_WEIGHTS = _gl_panels(_W_EDGES)
_V_TAU = np.exp(-_V_NODES)
# and on s in (0, t/2]: 6 equal panels of 16 nodes in x = log(1/s), on [0, 1]
_X_NODES = ((np.arange(6)[:, None] + 0.5 * (1.0 + _GLW_N)) / 6.0).ravel()
_X_WEIGHTS = np.tile(_GLW_W / 12.0, 6)
# trace_curve's rows per volterra_correction call, ~150 KB each above 2 s_f:
# it bounds a curve's memory, and the CLI's and benchmark's grids fit in one
_CURVE_BLOCK = 64


@dataclass(frozen=True)
class TraceParts:
    friedrichs: float
    correction: float
    exotic_ref: float


@dataclass(frozen=True)
class TraceSample:
    """One point of a heat-trace curve."""

    t: float
    value: float
    est_error: float
    parts: TraceParts


def _trq_nodes(c_max):
    """(c, W) at c <= c_max; R' cuts at 746 s_max, past which e^{-c/s} is
    0.0 (23 nodes at 0.1), and _r_values and _a_r_conv where its terms are
    invisible."""
    n = np.searchsorted(_TRQ_C, c_max, side="right")
    return _TRQ_C[:n], _TRQ_W[:n]


def _r_values(s):
    """R(s) = 1/2 - TrQ(s), s > 0, on the nodes with c <= 1 + UNDERFLOW_U s_max
    (10 at s_max = 0.05, 13 at 0.1): a dropped term is below e^{-46} of the
    first (c = 1), so the kept ones hold all but 2^-60 of the full sum.  Their
    parts on the 2^-30 grid add exactly, so the sum is within ~1e-23 of theirs
    at any node count.  Where R is well above 2^-31 that is one rounding, and
    a value hangs on its call's s_max (through the node count) only at a
    rounding tie; below it the terms add as floats, to a few ulp."""
    c, w = _trq_nodes(1.0 + UNDERFLOW_U * s.max(initial=0.0))
    with np.errstate(under="ignore"):
        terms = np.exp(-c / s[:, None]) * w
    hi = (terms + 2.0 ** 22) - 2.0 ** 22
    return hi.sum(axis=1) + (terms - hi).sum(axis=1)


def _trq_values(s):
    """TrQ on an array of times: 0.5 - R, and 0.5 below _TRQ_FLAT_S, where
    _r_values is not called."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    out = np.full(s.shape, 0.5)
    live = s >= _TRQ_FLAT_S
    if live.any():
        out[live] -= _r_values(s[live])
    return out


def tn_trace(t):
    """(1/2t) int_0^t (1 - exp(-t/(4 s (t-s)))) ds = int_0^1 q_diag(x, t) dx,
    1/2 - R(t) with 0 < R(t) <= e^{-1/t}/2: exactly 1/2 below t ~ 0.0267."""
    t = check_real(t, "tn_trace", "t", "> 0")
    return float(_trq_values(t)[0])


def friedrichs_trace(t):
    """int_0^1 (x/2t) I0(x^2/2t) e^{-x^2/2t} dx; ~ 1/sqrt(4 pi t) as t -> 0."""
    return _friedrichs_trace_res(check_real(t, "friedrichs_trace", "t", _T_BOUND))[0]


def _friedrichs_trace_res(t):
    """(value, est_error) of the Friedrichs trace in closed form.

    With y = x^2/2t the trace is (1/2) int_0^Z e^{-y} I0(y) dy, Z = 1/2t,
    and d/dy[y e^{-y}(I0 + I1)] = e^{-y} I0 gives (Z/2)(I0s(Z) + I1s(Z)).
    The error is that of the two scaled Bessel values; I1's Hankel terms
    approach I0's in size (|a_m(4)/a_m(0)| -> 1), so I0's estimate bounds
    both.  ``t`` is a checked float.
    """
    z = 0.5 / t
    i0s = i0_scaled_checked(z)
    return 0.5 * z * (i0s.value + bessel_i1_scaled(z)), z * i0s.est_abs_error


def _a_r_conv(ys, t):
    """A_R(y, t) = int_0^t e^{-(t-s) y} R(s) ds via w = (t-s) y panels, R = 0
    below _TRQ_FLAT_S: the R part of A = (1 - e^{-ty})/(2y) - A_R.

    ``ys`` is an array.  The fixed w-panels are clipped at each
    w_max = min(t y, UNDERFLOW_U), which gives the panels beyond it zero
    width, so every y uses the same (6 panels x 16 nodes) block.  R is one
    (nodes, s-points) block on the nodes c <= 1 + UNDERFLOW_U t that
    _r_values keeps at s <= t, s clamped at s_f and R zeroed below it; its
    einsum adds each s-point's terms in node order, set by the node count
    alone (not @, whose order follows the block's shape).
    """
    y = np.asarray(ys, dtype=float)[:, None]
    w, wts = _gl_panels(np.minimum(_W_EDGES, np.minimum(t * y, UNDERFLOW_U)))
    s = t - w / y
    c, cw = _trq_nodes(1.0 + UNDERFLOW_U * t)
    # in place: one block allocation (~320 KB at t = 5), not two
    terms = -c[:, None] / np.maximum(s, _TRQ_FLAT_S).ravel()
    with np.errstate(under="ignore"):
        np.exp(terms, out=terms)
    r = np.einsum("k,kj->j", cw, terms).reshape(s.shape)
    return np.sum(wts * np.exp(-w) * np.where(s >= _TRQ_FLAT_S, r, 0.0), axis=1) / y[:, 0]


def _t1_half(t, k2):
    """2H = int_{log t}^{log t + UNDERFLOW_U} (1 - exp(-e^v)) C(v - l) dv at
    l = log t - k2, T1's 1/2 part (see the module docstring): J's panels
    clipped at log t, and above log UNDERFLOW_U, where 1 - exp(-e^v) is 1,
    C's integral as one atan2, not a difference of arctan tails."""
    log_t = math.log(t)
    v, w = _gl_panels(np.maximum(_J_EDGES, log_t))
    body = float(np.sum(-np.expm1(-np.exp(v)) * w / ((v - (log_t - k2)) ** 2 + _PI2)))
    # C's argument runs over [lo, k2 + UNDERFLOW_U], of length d; d is formed
    # without k2, which would leave it ulp(k2) off near the Friedrichs angle
    gap = max(_J_EDGES[-1] - log_t, 0.0)
    d = UNDERFLOW_U - gap
    lo = k2 + gap
    return body + math.atan2(math.pi * d, lo * (k2 + UNDERFLOW_U) + _PI2) / math.pi


def t1_y_outer(t, bp: BoundaryParam, spec: QuadSpec = DEFAULT_SPEC):
    """T1 in the y-outer order, 2 int_1^inf A(y, t) C(log y) dy, with
    A = int_0^t e^{-(t-s) y} TrQ(s) ds and C(u) = 1/((u + 2 kappa)^2 + pi^2).

    TrQ = 1/2 - R makes it 2 (H - P + TrQ(t) arctan_tail(46)).  H, the 1/2
    part, is int_0^46 (1 - e^{-t e^u})/2 C du: in v = u + log t it is J's
    integrand, and ``_t1_half`` takes it on J's fixed rule, within 1.5e-16
    of H on [e^{-45}, 1] and 5.6e-16 to t = 46 (see the module docstring).
    P, R's part, is int_0^46 A_R(e^u, t) e^u C du >= 0, the one integral
    that ``spec`` reaches: on spec's rel_tol and an abs_tol of
    min(rel_tol, 2^-45) (H + TrQ(t) arctan_tail(46)) >= T1/2, which ties
    its error to T1's size.  R = 0 below _TRQ_FLAT_S, and P is not taken.
    """
    t = check_real(t, "t1_y_outer", "t", "> 0")
    k2 = 2.0 * bp.kappa

    def p(us):
        ys = np.exp(us)
        return _a_r_conv(ys, t) * ys / ((us + k2) ** 2 + _PI2)

    h2 = _t1_half(t, k2)
    tail = tn_trace(t) * arctan_tail(UNDERFLOW_U, k2)
    pv = 0.0
    if t >= _TRQ_FLAT_S:
        p_spec = QuadSpec(spec.rel_tol, min(spec.rel_tol, 2.0 ** -45) * (0.5 * h2 + tail),
                          spec.max_subdivisions)
        pv = integrate(p, 0.0, UNDERFLOW_U, p_spec).value
    return h2 - 2.0 * pv + 2.0 * tail


def exotic_term(t, bp: BoundaryParam):
    """-int_1^inf e^{-ty} dy / (y ((log y + 2 kappa)^2 + pi^2)).

    Negative, increasing toward 0 in t; tends to -(1/pi) atan2(pi, 2 kappa)
    as t -> 0, approaching it only at 1/log(1/t) speed.  On m_main's rule,
    whose integrand this is without the factor y (see ``ktheta``).  ``t``
    is a float, or a 1-D array, each entry on nodes of its own t.
    """
    batch = isinstance(t, np.ndarray)
    t = (check_real_array if batch else check_real)(t, "exotic_term", "t", _T_BOUND)
    out = -_log_tail(np.atleast_1d(t), 2.0 * bp.kappa, per_y=True)
    return out if batch else float(out[0])


def exotic_limit(bp: BoundaryParam):
    """Exact t -> 0 limit of exotic_term: -(1/pi) atan2(pi, 2 kappa)."""
    return -arctan_tail(0.0, 2.0 * bp.kappa)


def t1_reference(t, bp: BoundaryParam):
    """int_1^inf (1 - e^{-ty}) dy / (y ((log y + 2 kappa)^2 + pi^2)).

    The closed-form leading part of T1; T1 - t1_reference = O(t^inf).
    Positive and increasing in t; exactly exotic_term(t) - exotic_limit.
    """
    t = check_real(t, "t1_reference", "t", _T_BOUND)
    return exotic_term(t, bp) - exotic_limit(bp)


def t2_part(t, bp: BoundaryParam, spec: QuadSpec = DEFAULT_SPEC):
    """T2 = int_0^t K1(t-s) TrQ(s) ds (smooth kernel part convolution)."""
    t = check_real(t, "t2_part", "t", "> 0")
    bp.kappa  # reject Friedrichs early

    def f(ss):
        return k1_smooth(t - ss, bp) * _trq_values(ss)

    return integrate(f, 0.0, t, spec).value


def residue_trace_part(t, bp: BoundaryParam, spec: QuadSpec = DEFAULT_SPEC):
    """int_0^t 2 zeta0 e^{(t-s) zeta0} TrQ(s) ds; ~ zeta0 t as t -> 0."""
    t = check_real(t, "residue_trace_part", "t", "> 0")
    z0 = pole_location(bp)
    if z0 * t > 700.0:
        return math.inf

    def f(ss):
        ss = np.asarray(ss)
        return 2.0 * z0 * np.exp((t - ss) * z0) * _trq_values(ss)

    return integrate(f, 0.0, t, spec).value


def _cut_integrals(taus, bp: BoundaryParam, *, include_residue=True):
    """F(tau) = int_0^tau K on a 1-D array of tau > 0, each on the same
    fixed rule (see the module docstring for J's bound).

    F = 2 (expm1(x) + J(l)), the expm1 only with include_residue, where
    x = zeta0 tau and l = log tau - 2 kappa (finite even where zeta0
    underflows).  zeta0 tau = x + d exactly (two_prod), and expm1(x) + e^x d
    is e^{x+d} - 1 to within d^2, so the rounding of x is not amplified
    x-fold at large x; as in residue_trace_part, x > 700 gives inf.
    """
    ell = np.log(taus) - 2.0 * bp.kappa
    total = np.zeros(ell.shape)
    for v, w in zip(_J_NODES, _J_WEIGHTS):
        # a panel at a time, (taus, 16): each tau's sum runs alone, the same
        # in any array
        total += np.sum(w / ((ell[:, None] - v) ** 2 + _PI2), axis=1)
    total += arctan_tail(_J_EDGES[-1], -ell)
    if include_residue:
        with np.errstate(invalid="ignore", over="ignore"):
            x, d = two_prod(pole_location(bp), taus)
            xc = np.minimum(x, 700.0)
            total += np.where(x > 700.0, math.inf, np.expm1(xc) + np.exp(xc) * d)
    return 2.0 * total


def volterra_correction(ts, bp: BoundaryParam, *, include_residue=True):
    """The correction trace on a 1-D array of times t > 0, with every cut
    integral F of the call in one _cut_integrals call.

    Q0 F(t) below _TRQ_FLAT_S; above it less int_0^t F(t - s) R'(s) ds,
    on [t/2, t] in tau = t - s = (t/2) _V_TAU and, from t = 2 s_f, on
    (0, t/2] in x = log(1/s) (see the module docstring).
    """
    ts = check_real_array(ts, "volterra_correction", "t", "> 0")
    live = ts >= _TRQ_FLAT_S
    up = ts[live]
    far = up >= 2.0 * _TRQ_FLAT_S
    taus = np.multiply.outer(0.5 * up, _V_TAU)
    # u = 1/s = e^x on [2/t, 2/t + 46]: past it R' s^2 is below e^{-46} of its value at 2/t
    u_lo = 2.0 / up[far]
    x_span = np.log1p(UNDERFLOW_U / u_lo)
    us = u_lo[:, None] * np.exp(x_span[:, None] * _X_NODES)
    f = _cut_integrals(np.concatenate([ts, taus.ravel(), (up[far, None] - 1.0 / us).ravel()]),
                       bp, include_residue=include_residue)
    out = 0.5 * f[:ts.size]
    f_tau = f[ts.size:ts.size + taus.size].reshape(taus.shape)
    f_s = f[ts.size + taus.size:].reshape(us.shape)
    c, w = _trq_nodes(746.0 * ts.max())
    with np.errstate(under="ignore"):
        # R'(s) = sum W c/s^2 e^{-c/s} = sum (W/c) a^2 e^{-a}, a = c/s, at
        # s = t - tau: one (rows, 96, n) block, n = 23 at t = 0.1, 46 at 30;
        # each sum runs along a row's own last axis (not @, whose order
        # follows the block's shape), so a row has the same bits in any call
        a = c / (up[:, None] - taus)[:, :, None]
        # e^{-a} is 0.0 past a = 745.14: those entries skip exp's slow
        # underflow path and are zeroed after it
        dead = a > 745.2
        decay = np.exp(-np.where(dead, 0.0, a))
        decay[dead] = 0.0
        r_prime = np.sum(a * a * decay * (w / c), axis=-1)
        rest = np.sum(f_tau * r_prime * taus * _V_WEIGHTS, axis=-1)
        # R'(s) s^2 = sum W c e^{-c u}, and ds/s^2 = u dx
        r_s2 = np.sum(np.exp(-np.multiply.outer(us, c)) * (w * c), axis=-1)
        rest[far] += np.sum(f_s * r_s2 * us * _X_WEIGHTS, axis=-1) * x_span
    # F increases, so rest is finite wherever Q0 F(t) is
    out[live] -= np.where(np.isinf(out[live]), 0.0, rest)
    return out


def _sample(t, fr, fr_err, corr, exotic):
    # the formula of the adaptive routes at DEFAULT_SPEC, which bounds the
    # fixed rules' error with room to spare
    est = fr_err + max(DEFAULT_SPEC.abs_tol, DEFAULT_SPEC.rel_tol * abs(corr)) * 4.0
    return TraceSample(t, fr + corr, est, TraceParts(fr, corr, exotic))


def full_trace(t, bp: BoundaryParam):
    """Assembled trace sample at DEFAULT_SPEC, residue included; the
    Friedrichs branch has zero correction.  Above s_f the correction is
    T1 + T2 + residue trace on the nested route, below it volterra_correction."""
    t = check_real(t, "full_trace", "t", _T_BOUND)
    fr, fr_err = _friedrichs_trace_res(t)
    if bp.is_friedrichs:
        return TraceSample(t, fr, fr_err, TraceParts(fr, 0.0, 0.0))
    if t < _TRQ_FLAT_S:
        corr = float(volterra_correction([t], bp)[0])
    else:
        corr = t1_y_outer(t, bp) + t2_part(t, bp) + residue_trace_part(t, bp)
    return _sample(t, fr, fr_err, corr, exotic_term(t, bp))


def trace_curve(bp: BoundaryParam, ts, *, include_residue=True):
    """full_trace at each time of the grid, in input order.

    Each block of _CURVE_BLOCK times shares one volterra_correction and one
    exotic_term call, on fixed rules: no row runs an adaptive integral.
    Above s_f a row can differ from full_trace's by the nested route's error.
    """
    ts = [check_real(t, "trace_curve", "t", _T_BOUND) for t in ts]
    if bp.is_friedrichs:
        return [full_trace(t, bp) for t in ts]
    out = []
    for i in range(0, len(ts), _CURVE_BLOCK):
        block = ts[i:i + _CURVE_BLOCK]
        arr = np.array(block)
        corr = volterra_correction(arr, bp, include_residue=include_residue)
        out += [_sample(t, *_friedrichs_trace_res(t), c, e)
                for t, c, e in zip(block, corr.tolist(), exotic_term(arr, bp).tolist())]
    return out
