"""The time-convolution kernel K(t) attached to a boundary angle.

K is the inverse Laplace transform of 1/(log sqrt(zeta) + kappa) with the
principal branch of the logarithm (cut along the negative real axis).  It
splits into three exactly-summing parts:

* ``m_main``   -- 2 int_1^inf e^{-ty} ((log y + 2 kappa)^2 + pi^2)^{-1} dy,
  the part carrying the t -> 0 singularity ~ 2/(t log^2 t);
* ``k1_smooth`` -- three bounded smooth contour pieces: the segment
  |zeta| <= 1 of the imaginary axis plus two unit quarter-circle arcs
  picked up when rotating the rays e^{+-i pi/2} [1, inf) onto the real
  direction;
* ``residue_term`` -- 2 zeta0 e^{t zeta0} with zeta0 = e^{-2 kappa}, the
  residue of e^{t zeta}/(log sqrt(zeta) + kappa) at its positive real pole.
  The pole sits between the Bromwich line and the imaginary axis, so the
  axis representation alone misses it; it matches the half-line bound
  state at -zeta0.  The flag ``include_residue`` keeps both conventions
  available; ``laplace_of_k`` certifies numerically that only the
  residue-on assembly satisfies L K(zeta) = (log sqrt(zeta) + kappa)^{-1}.

All complex arithmetic is confined to this module; everything exported is
real.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .kernels import BoundaryParam
from .quadrature import (
    DEFAULT_SPEC,
    QuadResult,
    QuadSpec,
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
    contour_spec: QuadSpec = field(default_factory=lambda: QuadSpec())
    tail_spec: QuadSpec = field(default_factory=lambda: QuadSpec())


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


def log_sqrt(zeta: complex) -> complex:
    """Principal-branch log sqrt(zeta) = (log|zeta| + i arg zeta)/2."""
    arg = cmath.phase(zeta)
    assert -_PI < arg <= _PI, "principal branch violated"
    return 0.5 * complex(math.log(abs(zeta)), arg)


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


def _outer(xs, t):
    """Nodes as a column when t is an array, so integrands return (n, m)."""
    xs = np.asarray(xs)
    return xs[:, None] if isinstance(t, np.ndarray) else xs


def _k1_segment_res(t, kap, spec) -> QuadResult:
    # (1/pi) Re int_0^1 e^{ity} ((1/2)log y + i pi/4 + kappa)^{-1} dy
    b = 0.25 * _PI

    def f(ys):
        ys = _outer(ys, t)
        with np.errstate(divide="ignore"):
            a = 0.5 * np.log(np.maximum(ys, 1e-300)) + kap
        return (a * np.cos(t * ys) + b * np.sin(t * ys)) / (a * a + b * b)

    r = integrate(f, 0.0, 1.0, spec)
    return QuadResult(r.value / _PI, r.est_error / _PI, r.evaluations)


def _k1_arcs_res(t, kap, spec) -> QuadResult:
    # (1/pi) Re int_0^{pi/2} i e^{i phi} e^{i t e^{i phi}}
    #                        (i(phi/2 + pi/4) + kappa)^{-1} dphi
    def f(phis):
        phis = _outer(phis, t)
        c = np.cos(phis)
        s = np.sin(phis)
        b = 0.5 * phis + 0.25 * _PI
        tc = t * c
        num = (c * b - s * kap) * np.cos(tc) - (s * b + c * kap) * np.sin(tc)
        return np.exp(-t * s) * num / (kap * kap + b * b)

    r = integrate(f, 0.0, 0.5 * _PI, spec)
    return QuadResult(r.value / _PI, r.est_error / _PI, r.evaluations)


def k1_smooth(t, bp: BoundaryParam, opts: KernelOptions = DEFAULT_OPTIONS):
    """Bounded smooth part of the kernel (segment + two arcs), real form.

    ``t`` is a float, giving a float, or a 1-D array, giving an array of
    the same length: all its times share one adaptive node set per contour
    piece, refined until each time meets the tolerance.
    """
    if isinstance(t, np.ndarray):
        t = t.astype(float)
        if not np.all(np.isfinite(t) & (t >= 0.0)):
            raise DomainError(f"k1_smooth: need t >= 0, got {t!r}")
    elif t < 0.0 or not math.isfinite(t):
        raise DomainError(f"k1_smooth: need t >= 0, got {t!r}")
    kap = _kappa(bp)
    seg = _k1_segment_res(t, kap, opts.contour_spec)
    arc = _k1_arcs_res(t, kap, opts.contour_spec)
    return seg.value + arc.value


def k1_smooth_unpaired(t, bp: BoundaryParam, opts: KernelOptions = DEFAULT_OPTIONS):
    """Same quantity evaluated as unpaired complex contour integrals.

    Returns the complex sum of the four pieces (upper/lower segment halves
    and the two arcs) before conjugate pairing; its imaginary part is a
    pure numerical residue and must vanish to quadrature accuracy.
    """
    if t < 0.0 or not math.isfinite(t):
        raise DomainError(f"k1_smooth_unpaired: need t >= 0, got {t!r}")
    kap = _kappa(bp)
    spec = opts.contour_spec
    two_pi = 2.0 * _PI

    def complex_quad(fre, fim, a, b):
        rr = integrate(fre, a, b, spec)
        ri = integrate(fim, a, b, spec)
        return complex(rr.value, ri.value)

    def seg(sign):
        # zeta = sign * i * y on the unit segment of the imaginary axis
        def val(ys):
            ys = np.asarray(ys)
            out = np.empty(len(ys), dtype=complex)
            for i, y in enumerate(ys):
                zeta = complex(0.0, sign) * y
                out[i] = cmath.exp(t * zeta) / (log_sqrt(zeta) + kap)
            return out
        return val

    def arc(sign):
        # x = e^{i sign phi} on the unit quarter arc; the integrand carries
        # the original variable zeta = sign * i * x of the axis integral
        def val(phis):
            phis = np.asarray(phis)
            out = np.empty(len(phis), dtype=complex)
            for i, phi in enumerate(phis):
                x = cmath.exp(complex(0.0, sign * phi))
                zeta = complex(0.0, sign) * x
                out[i] = (complex(0.0, sign) * x
                          * cmath.exp(complex(0.0, sign * t) * x)
                          / (log_sqrt(zeta) + kap))
            return out
        return val

    total = 0.0 + 0.0j
    for piece in (seg(+1), seg(-1)):
        total += complex_quad(lambda ys, p=piece: p(ys).real,
                              lambda ys, p=piece: p(ys).imag, 1e-14, 1.0)
    for piece in (arc(+1), arc(-1)):
        total += complex_quad(lambda ph, p=piece: p(ph).real,
                              lambda ph, p=piece: p(ph).imag, 0.0, 0.5 * _PI)
    return total / two_pi


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
        main_part=m_main(t, bp, opts.tail_spec),
        smooth_part=k1_smooth(t, bp, opts),
        residue_part=residue_term(t, bp, opts),
    )


def laplace_of_k(zeta, bp: BoundaryParam, opts: KernelOptions = DEFAULT_OPTIONS):
    """Numerical Laplace transform of the assembled kernel at real zeta.

    The residue part transforms in closed form to 2 zeta0/(zeta - zeta0)
    (valid above the pole).  The main part is transformed by exchanging
    the t- and y-integrals (Tonelli, positive integrand):
    2 int_1^inf ((log y + 2 kappa)^2 + pi^2)^{-1} (y + zeta)^{-1} dy,
    evaluated in u = log y with the analytic arctan tail beyond u = 42.
    The smooth part is integrated in t directly, with one array call of
    k1_smooth per panel of t-nodes, truncated where e^{-zeta t}
    underflows, with the tail bound folded into the accuracy budget.  The acceptance suite compares the result against
    (log sqrt(zeta) + kappa)^{-1}.
    """
    zeta = float(zeta)
    kap = _kappa(bp)
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

    u_cut = 42.0
    k2 = 2.0 * kap

    def f_main(us):
        us = np.asarray(us)
        ys = np.exp(us)
        return ys / ((ys + zeta) * ((us + k2) ** 2 + _PI2))

    main_part = 2.0 * integrate(f_main, 0.0, u_cut, opts.tail_spec).value
    main_part += (2.0 / _PI) * (0.5 * _PI - math.atan((u_cut + k2) / _PI))

    t_cut = 46.0 / zeta + 2.0

    def f_smooth(ts):
        return np.exp(-zeta * ts) * k1_smooth(ts, bp, opts)

    smooth_part = integrate(f_smooth, 0.0, t_cut, opts.tail_spec).value

    return main_part + smooth_part + res_part


def bromwich_truncated(t, radius, bp: BoundaryParam, spec: QuadSpec = DEFAULT_SPEC):
    """Truncated inverse-Laplace integral along the imaginary axis.

    (1/pi) Re int_0^R e^{ity} ((1/2) log y + i pi/4 + kappa)^{-1} dy.
    Converges to m_main + k1_smooth as R -> inf with error O(1/log R)
    (the pole contribution is *not* picked up by the axis integral).
    The oscillatory range [1, R] uses fixed quarter-period composite
    Gauss-Legendre panels, vectorized.
    """
    if t <= 0.0 or not math.isfinite(t):
        raise DomainError(f"bromwich_truncated: need t > 0, got {t!r}")
    if radius <= 1.0:
        raise DomainError("bromwich_truncated: need radius > 1")
    kap = _kappa(bp)
    b = 0.25 * _PI
    head = _k1_segment_res(t, kap, spec).value  # already includes 1/pi

    nodes, weights = gauss_legendre_panel(12)
    width = 0.5 * _PI / t
    n_panels = int(math.ceil((radius - 1.0) / width))
    edges = np.linspace(1.0, radius, n_panels + 1)
    lo = edges[:-1, None]
    hi = edges[1:, None]
    ys = 0.5 * (lo * (1.0 - nodes) + hi * (1.0 + nodes))
    a = 0.5 * np.log(ys) + kap
    vals = (a * np.cos(t * ys) + b * np.sin(t * ys)) / (a * a + b * b)
    tail = float(np.sum(0.5 * (hi - lo) * weights * vals)) / _PI
    return head + tail
