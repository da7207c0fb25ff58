"""Acceptance suite: every end-to-end identity the package must satisfy.

Each criterion returns a CriterionResult with one CheckLine per measured
quantity; `run_acceptance` executes all of them and the CLI / test suite
render one pass/fail line per criterion.  Thresholds are fixed here, not
configurable: they are the package's contract.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import RATIO_THRESHOLD, exoticness_report
from .kernels import BoundaryParam, q_diag
from .ktheta import laplace_of_k, pole_location
from .oracle import eigenvalues, oracle_trace
from .quadrature import UNDERFLOW_U, _gl_panels
from .specfun import (
    _K_SERIES_CUTOFF,
    _SERIES_CUTOFF,
    _TAYLOR_CUTOFF,
    _i_asym_scaled,
    _ik_series,
    _jy_asym,
    _jy_series,
    _jy_taylor,
    _k_asym_scaled,
    _k_integral_scaled,
    bessel_i0,
    bessel_i0_scaled,
    bessel_i1,
    bessel_i1_scaled,
    bessel_k0,
    bessel_k0_scaled,
    bessel_k1_scaled,
)
from .trace import full_trace, t1_reference, t1_y_outer, tn_trace

_PI = math.pi

# first five squares of J0 zeros, frozen from a 30-digit computation
J0_SQUARES = (
    5.783185962946784521176,
    30.47126234366208639908,
    74.88700679069518344489,
    139.0402844264598490016,
    222.9323036176341569546,
)


@dataclass(frozen=True)
class CheckLine:
    label: str
    measured: float
    threshold: float
    comparator: str  # "<=" or ">="

    @property
    def passed(self):
        if self.comparator == "<=":
            return self.measured <= self.threshold
        return self.measured >= self.threshold

    def render(self):
        mark = "ok " if self.passed else "FAIL"
        return (f"    [{mark}] {self.label}: measured {self.measured:.6g} "
                f"{self.comparator} {self.threshold:.6g}")


@dataclass
class CriterionResult:
    index: int
    name: str
    checks: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def add(self, label, measured, threshold, comparator="<="):
        self.checks.append(CheckLine(label, float(measured), float(threshold), comparator))

    def render(self):
        head = f"[{'PASS' if self.passed else 'FAIL'}] criterion {self.index}: " \
               f"{self.name} ({1e3 * self.seconds:.1f} ms)"
        return "\n".join([head] + [c.render() for c in self.checks])


def criterion_1_tn_closed_form():
    """tn_trace equals 1/2 up to exp(-1/t), and matches the 2-D Q integral.

    int_0^1 q_diag(x, 0.2) dx is 16-point Gauss-Legendre on 20 geometric
    panels over [1e-12, 1] (ratio 10^0.6) plus [0, 1e-12]: 336 nodes.
    q ~ x log x has its one singularity at x = 0, which lies on each
    geometric panel's Bernstein ellipse rho = 3.01; on rho = 2.9, |q| <= 2.9,
    so the panels err by under 1.2e-15 in all (Trefethen, ATAP Thm 19.3),
    and the integral over [0, 1e-12] and its rule's sum are under 1.4e-22.
    """
    r = CriterionResult(1, "diagonal self-convolution trace: closed form and 2-D agreement")
    for t in (0.1, 0.05, 0.02):
        bound = 0.5 * math.exp(-1.0 / t) + 1e-10
        r.add(f"|tn_trace({t}) - 1/2|", abs(tn_trace(t) - 0.5), bound)
    t = 0.2
    xs, w = _gl_panels(np.concatenate([[0.0], np.geomspace(1e-12, 1.0, 21)]))
    q_int = float(w @ q_diag(xs, t))
    r.add("|int q_diag dx - tn_trace| at t=0.2", abs(q_int - tn_trace(t)), 1e-9)
    return r


def criterion_2_laplace_pair():
    """int_0^inf e^{-zeta s} nprime(x, s) ds = sqrt(x) K0(x sqrt(zeta)).

    In v = log s on [log(x^2/4 UNDERFLOW_U), log(50/zeta)], 16-point
    Gauss-Legendre on 8 equal panels of half-width h <= 0.66.  Where
    |Im v| <= 1.5 < pi/2, Re e^{-v} and Re e^v are positive and the
    integrand is at most sqrt(x)/2: on the Bernstein ellipses of half-height
    1.5, rho >= 4.7, the rule errs by under 5e-23, and the two cuts drop
    (sqrt(x)/2)(E1(46) + E1(50)) < 1.2e-22.
    """
    r = CriterionResult(2, "boundary kernel Laplace transform is sqrt(x) K0(x sqrt(zeta))")
    for x in (0.5, 1.0):
        for zeta in (1.0, 4.0, 10.0):
            lo = math.log(x * x / (4.0 * UNDERFLOW_U))
            hi = math.log(50.0 / zeta)
            vs, w = _gl_panels(np.linspace(lo, hi, 9))
            ss = np.exp(vs)
            f = (math.sqrt(x) / 2.0) * np.exp(-x * x / (4.0 * ss) - zeta * ss)
            num = float(w @ f)
            ref = math.sqrt(x) * bessel_k0(x * math.sqrt(zeta))
            r.add(f"x={x}, zeta={zeta}", abs(num - ref), 1e-8)
    return r


def criterion_3_laplace_identity(thetas=(0.0, _PI / 4, 3 * _PI / 4)):
    """L K(zeta) = (log sqrt(zeta) + kappa)^{-1} iff the pole residue is kept."""
    r = CriterionResult(3, "kernel Laplace identity certifies the positive real pole")
    for theta in thetas:
        bp = BoundaryParam(theta)
        z0 = pole_location(bp)
        for zeta in (2.0 * z0, 4.0 * z0, 10.0):
            if zeta <= z0:
                continue
            target = 1.0 / (0.5 * math.log(zeta) + bp.kappa)
            on = laplace_of_k(zeta, bp)
            off = laplace_of_k(zeta, bp, include_residue=False)
            tag = f"theta={theta:.4f}, zeta={zeta:.4f}"
            r.add(f"{tag} residue-on rel err", abs(on - target) / abs(target), 1e-3)
            r.add(f"{tag} residue-off mismatch", abs(off - target),
                  2.0 * z0 / (zeta - z0) - 2e-3, comparator=">=")
    return r


def criterion_4_t1_expansion():
    """Triple-nested T1 equals its closed leading form up to O(t^inf): the
    gap is R's share of T1 (TrQ = 1/2 - R), ~1e-10 at t = 0.05, and at
    0.02, where R is 0 in double, the rounding of two rules."""
    r = CriterionResult(4, "T1 convolution matches its (e^{-ty}-1)/y closed form")
    for theta in (0.0, 3 * _PI / 4):
        bp = BoundaryParam(theta)
        for t in (0.05, 0.02):
            d = abs(t1_y_outer(t, bp) - t1_reference(t, bp))
            r.add(f"theta={theta:.4f}, t={t}", d, 1e-5)
    return r


def criterion_5_exotic_structure(thetas=(0.0, _PI / 4), n_points=20):
    """Degree-2 fit residual collapses only after exotic-term subtraction."""
    r = CriterionResult(5, "trace expansion carries the non-polynomial 1/log term")
    grid = np.geomspace(1e-4, 1e-2, n_points)
    for theta in thetas:
        rep = exoticness_report(BoundaryParam(theta), grid)
        r.add(f"theta={theta:.4f} subtracted residual",
              rep.fit_subtracted.max_residual, 1e-4)
        r.add(f"theta={theta:.4f} residual ratio", rep.residual_ratio, RATIO_THRESHOLD,
              comparator=">=")
    return r


def criterion_6_oracle_equivalence():
    """Kernel trace minus eigenvalue-sum trace is the wall constant 1/4.

    At t = 0.05 > 1/38, ``full_trace`` takes the nested T1 + T2 + residue
    route, not ``trace_curve``'s Volterra rule: its T2 is the one
    ``k1_smooth`` caller in the acceptance pass that ``bench/run.py`` traces.
    The spectra stop at lambda = 1000: t lambda_max = 50, and the tail beyond
    is under 4e-22 (``Spectrum.tail_bound``).
    """
    r = CriterionResult(6, "kernel-built trace agrees with the spectral oracle")
    t = 0.05
    thetas = (0.0, _PI / 4, 3 * _PI / 4, _PI / 2)
    full = {}
    orac = {}
    for theta in thetas:
        bp = BoundaryParam(theta)
        full[theta] = full_trace(t, bp).value
        orac[theta] = oracle_trace(t, eigenvalues(bp, lambda_max=1000.0)).value
        r.add(f"theta={theta:.4f} |full - oracle - 1/4|",
              abs(full[theta] - orac[theta] - 0.25), 0.02)
    for theta in thetas[:3]:
        d = (full[theta] - full[_PI / 2]) - (orac[theta] - orac[_PI / 2])
        r.add(f"theta={theta:.4f} theta-difference form", abs(d), 5e-3)
    return r


def _smoothstep(x, a, b):
    """The smoothstep 1 - (6 tau^5 - 15 tau^4 + 10 tau^3), tau = (x-a)/(b-a)
    clipped to [0, 1], and its first two x-derivatives, -30 tau^2 (1-tau)^2
    and -60 tau (1-tau)(1-2 tau) over powers of (b-a) (all on arrays)."""
    tau = np.clip((x - a) / (b - a), 0.0, 1.0)
    rest = 1.0 - tau
    s = 1.0 - tau ** 3 * (10.0 - tau * (15.0 - 6.0 * tau))
    d1 = (-30.0 / (b - a)) * (tau * rest) ** 2
    d2 = (-60.0 / (b - a) ** 2) * tau * rest * (1.0 - 2.0 * tau)
    return s, d1, d2


def criterion_7_green_identity():
    """<Df, g> - <f, Dg> = -1 for f = sqrt(x) chi, g = sqrt(x) log x chi.

    Both pairings in one sum, 16-point Gauss-Legendre on 2 panels over
    [0.5, 0.75], where chi is a polynomial: the integrand's one singularity,
    at x = 0, lies outside the panels' Bernstein ellipses rho = 8, on which
    it is at most 6,000, so the rule errs by under 1e-27.
    """
    r = CriterionResult(7, "Green's identity reproduces the boundary pairing")
    a, b = 0.5, 0.75
    # sqrt(x) and sqrt(x) log x are annihilated by the operator, so
    # Delta(u chi) = -2 u' chi' - u chi'' is supported in [a, b].
    xs, w = _gl_panels(np.linspace(a, b, 3))
    chi, d1, d2 = _smoothstep(xs, a, b)
    sq, lg = np.sqrt(xs), np.log(xs)
    df_g = (-2.0 * (0.5 / sq) * d1 - sq * d2) * (sq * lg * chi)
    f_dg = (sq * chi) * (-2.0 * ((lg / 2.0 + 1.0) / sq) * d1 - sq * lg * d2)
    lhs = float(w @ (df_g - f_dg))
    r.add("<Df,g> - <f,Dg> vs -1", abs(lhs - (-1.0)), 1e-6)
    return r


def criterion_8_spectrum():
    """Friedrichs spectrum, bound-state counts, half-line bound-state match.

    The spectra stop at lambda = 300, above the five Friedrichs eigenvalues
    read (all below 223) and the bound states counted.
    """
    r = CriterionResult(8, "interval spectra: Friedrichs zeros and bound states")
    spF = eigenvalues(BoundaryParam.friedrichs(), lambda_max=300.0)
    for k in range(5):
        r.add(f"Friedrichs eigenvalue {k + 1} vs j0 zero squared",
              abs(spF.eigenvalues[k] - J0_SQUARES[k]), 1e-10)
    sp0 = eigenvalues(BoundaryParam(0.0), lambda_max=300.0)
    r.add("negative count theta=0 (want 0)", abs(sp0.negative_count - 0), 0.0)
    sp34 = eigenvalues(BoundaryParam(3 * _PI / 4), lambda_max=300.0)
    r.add("negative count theta=3pi/4 (want 1)", abs(sp34.negative_count - 1), 0.0)
    kap = BoundaryParam(3 * _PI / 4).kappa
    mu_star = math.sqrt(-sp34.eigenvalues[0])
    mu_half = math.exp(-kap)
    # first-order wall perturbation: the interval root satisfies
    # log(mu) + kappa = -K0/I0, so the shift is |K0 / d/dmu[(log mu+k) I0]|
    denom = bessel_i0(mu_star) / mu_star + (math.log(mu_star) + kap) * bessel_i1(mu_star)
    pert = abs(bessel_k0(mu_star) / denom)
    r.add("|mu* - e^{-kappa}| within wall-perturbation bound",
          abs(mu_star - mu_half), pert)
    r.add("relative |mu* - e^{-kappa}| / e^{-kappa}",
          abs(mu_star - mu_half) / mu_half, 0.02)
    return r


_PHI = 0.5 * (math.sqrt(5.0) - 1.0)
# z_k = 0.02 * 3000^{k phi mod 1}, k = 0 ... 99: log-spaced by the golden
# ratio over [0.02, 60], none on a dual-path line's grid
_WRONSKIAN_POINTS = tuple(
    math.exp(math.log(0.02) + math.log(3000.0) * ((k * _PHI) % 1.0)) for k in range(100))


def criterion_9_specfun():
    """Wronskian identities and dual-path agreement of the Bessel library.

    Each I/K and J/Y path runs once per order and point, on the public
    dispatch.  A Wronskian point takes (I_n, K_n) from one
    ``_ik_series(n, z)`` at z <= ``_K_SERIES_CUTOFF``, scaled by e^{-z} and
    e^{z} as ``_i`` and ``_k`` scale them, and the public scaled values
    above.  It takes (J_n, Y_n) from one ``_jy_series(n, z)`` at
    z <= ``_TAYLOR_CUTOFF``, (J0, Y0, J1, Y1) from one ``_jy_taylor(z)`` up
    to ``_SERIES_CUTOFF`` and (J_n, Y_n) from one ``_jy_asym(n, z)`` above.
    That is bit for bit what the public functions return, as they take the
    same path and I_n and J_n do not depend on ``regular``.  A dual-path
    line compares each public J/Y value, taken the same way, with one other
    path, relative to the Hankel value: on [14, 16] the Taylor-table value
    with Hankel, above 16 the Hankel value with the series.  Each path runs
    once per order and point there too, so the Hankel pair of an order
    serves both of its lines.

    The Wronskian points are ``_WRONSKIAN_POINTS``: the golden-ratio
    sequence on log z over [0.02, 60], so each path takes a fixed share of
    them (58 at z <= 2, 26 on (2, 16], 16 above).  They are written with
    ``math`` alone, not drawn from a seeded numpy ``Generator``, whose
    streams NumPy's NEP 19 lets change between releases.
    """
    r = CriterionResult(9, "special functions: Wronskians and dual evaluation paths")
    worst_ik = 0.0
    worst_jy = 0.0
    for z in _WRONSKIAN_POINTS:
        # I0 K0' - I0' K0 = -1/z  ->  z (I0 K1 + I1 K0) = 1
        if z <= _K_SERIES_CUTOFF:
            (i0, k0), (i1, k1) = (_ik_series(n, z)[:2] for n in (0, 1))
            down, up = math.exp(-z), math.exp(z)  # as _i and _k scale them
            i0, i1, k0, k1 = down * i0, down * i1, up * k0, up * k1
        else:
            i0, i1 = bessel_i0_scaled(z), bessel_i1_scaled(z)
            k0, k1 = bessel_k0_scaled(z), bessel_k1_scaled(z)
        w1 = z * (i0 * k1 + i1 * k0)
        worst_ik = max(worst_ik, abs(w1 - 1.0))
        # J0 Y0' - J0' Y0 = 2/(pi z)  ->  (pi z / 2)(J1 Y0 - J0 Y1) = 1
        if _TAYLOR_CUTOFF < z <= _SERIES_CUTOFF:
            j0, y0, j1, y1 = _jy_taylor(z)
        else:
            path = _jy_series if z <= _TAYLOR_CUTOFF else _jy_asym
            j0, y0 = path(0, z)[:2]
            j1, y1 = path(1, z)[:2]
        w2 = 0.5 * _PI * z * (j1 * y0 - j0 * y1)
        worst_jy = max(worst_jy, abs(w2 - 1.0))
    r.add("max |z(I0 K1 + I1 K0) - 1| over 100 points", worst_ik, 1e-10)
    r.add("max |(pi z/2)(J1 Y0 - J0 Y1) - 1| over 100 points", worst_jy, 1e-10)

    overlap = [float(z) for z in np.linspace(14.0, 18.0, 17)]
    names = ("j0", "y0", "j1", "y1")
    dual = dict.fromkeys(names, 0.0)
    for z in overlap:
        tables = z <= _SERIES_CUTOFF  # the public path; the Hankel value divides
        hankel = [v for n in (0, 1) for v in _jy_asym(n, z)]  # J0, Y0, J1, Y1
        if tables:
            public, other = _jy_taylor(z), hankel
        else:
            public, other = hankel, [v for n in (0, 1) for v in _jy_series(n, z)[:2]]
        for name, v, o in zip(names, public, other):
            dual[name] = max(dual[name], abs(v - o) / max(1.0, abs(o if tables else v)))
    for name, w in dual.items():
        r.add(f"dual-path agreement {name} on [14, 18]", w, 1e-11)
    for name, f_small, f_large in (
            ("i0_scaled", lambda z: _ik_series(0, z, regular=False)[0] * math.exp(-z),
             lambda z: _i_asym_scaled(0.0, z)),
            ("k0_scaled", lambda z: _k_integral_scaled(z, 0), lambda z: _k_asym_scaled(0.0, z))):
        w = 0.0
        for z in overlap:
            h = f_large(z)
            w = max(w, abs(f_small(z) - h) / max(1.0, abs(h)))
        r.add(f"dual-path agreement {name} on [14, 18]", w, 1e-11)
    worst = max(abs(_ik_series(0, float(z))[1] - _k_integral_scaled(float(z), 0)
                    * math.exp(-float(z))) for z in np.linspace(0.4, 1.0, 13))
    r.add("dual-path agreement k0 series vs integral on [0.4, 1]", worst, 1e-11)
    return r


_CRITERIA = (
    criterion_1_tn_closed_form,
    criterion_2_laplace_pair,
    criterion_3_laplace_identity,
    criterion_4_t1_expansion,
    criterion_5_exotic_structure,
    criterion_6_oracle_equivalence,
    criterion_7_green_identity,
    criterion_8_spectrum,
    criterion_9_specfun,
)


def run_acceptance(quick=False, only=None):
    """Run all acceptance criteria; ``quick`` trims the slow grids only."""
    results = []
    for fn in _CRITERIA:
        idx = int(fn.__name__.split("_")[1])
        if only is not None and idx not in only:
            continue
        t0 = time.time()
        if quick and fn is criterion_3_laplace_identity:
            res = criterion_3_laplace_identity(thetas=(0.0, 3 * _PI / 4))
        elif quick and fn is criterion_5_exotic_structure:
            res = criterion_5_exotic_structure(thetas=(0.0,), n_points=12)
        else:
            res = fn()
        res.seconds = time.time() - t0
        results.append(res)
    return results
