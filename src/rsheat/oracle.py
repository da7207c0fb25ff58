"""Independent spectral ground truth on (0, 1) with a Dirichlet wall at x = 1.

Eigenvalues of the interval realization are roots of transcendental
secular functions assembled from the small-x boundary coefficients of the
explicit solutions sqrt(x) Z0(sqrt(lambda) x):

* positive spectrum:  S(l) = (log l + 2 kappa) J0(sqrt l) - pi Y0(sqrt l)
  (Friedrichs: J0(sqrt l) alone);
* negative spectrum (l = -mu^2):  N(mu) = (log mu + kappa) I0(mu) + K0(mu)
  (Friedrichs: I0(mu), which never vanishes).

Interlacing fixes the root count, so no root is searched for.  By the
Wronskian J0 Y0' - J0' Y0 = 2/(pi r), S(l)/J0(sqrt l) has derivative
-(1/l)(1/J0^2 - 1) <= 0: it falls from +inf to -inf across each cell
(j_k^2, j_{k+1}^2) between squared J0 zeros, so each cell holds exactly
one eigenvalue, and it falls from 2 tan(theta) on (0, j_1^2), which
holds one iff tan(theta) > 0.  Likewise log mu + kappa + K0/I0 rises from
tan(theta) to +inf, so there is one bound state iff tan(theta) < 0.  This
is the interlacing of self-adjoint extensions with deficiency indices
(1, 1) (the Herglotz property of the Weyl-Titchmarsh m-function).

theta = 0 carries the eigenvalue 0 exactly: sqrt(x) log x is annihilated
by the operator, satisfies the theta = 0 condition (c_plus = 0) and
vanishes at x = 1.  That is the root the first cell loses when
tan(theta) = 0, so it is added explicitly.

The eigenvalue sums feed ``oracle_trace``, the end-to-end cross-check of
the kernel-built traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InsufficientSpectrumError
from .kernels import BoundaryParam
from .specfun import (
    bessel_i0_scaled,
    bessel_j0,
    bessel_j1,
    bessel_k0_scaled,
    bessel_y0,
    bessel_y1,
)

_PI = math.pi


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues of one boundary condition, with certification data."""

    theta: float
    eigenvalues: tuple
    residuals: tuple
    lambda_max: float

    @property
    def negative_count(self):
        return sum(1 for ev in self.eigenvalues if ev < 0.0)

    def tail_bound(self, t):
        """Bound on the part of the trace sum beyond L = lambda_max.

        By interlacing each cell above L holds at most one eigenvalue, no
        smaller than the cell's lower edge.  The cell holding L adds at most
        e^{-tL}; the m-th cell after it starts above L + 6 (m-1) sqrt(L),
        because J0 zeros are spaced by more than j_2 - j_1 > 3 and lie above
        sqrt(L).  Summing the geometric series:
        e^{-tL} (1 + 1/(1 - e^{-6 t sqrt(L)})).
        """
        lam = self.lambda_max
        return math.exp(-t * lam) * (1.0 - 1.0 / math.expm1(-6.0 * t * math.sqrt(lam)))

    def to_csv(self, fileobj):
        fileobj.write("index,lambda,secular_residual\n")
        for i, (ev, r) in enumerate(zip(self.eigenvalues, self.residuals)):
            fileobj.write(f"{i},{ev:.17g},{r:.17g}\n")


@dataclass(frozen=True)
class OracleTrace:
    value: float
    tail_error: float


def j0_zeros(n):
    """First n positive zeros of J0 (McMahon seed + Newton on J0/J1)."""
    out = []
    for k in range(1, n + 1):
        beta = (k - 0.25) * _PI
        z = beta + 1.0 / (8.0 * beta) - 124.0 / (3.0 * (8.0 * beta) ** 3)
        for _ in range(4):
            z += bessel_j0(z) / bessel_j1(z)  # J0' = -J1
        out.append(z)
    return out


def secular_positive(lam, bp: BoundaryParam):
    """Positive-spectrum secular function; zeros are eigenvalues."""
    if lam <= 0.0:
        raise DomainError(f"secular_positive: need lambda > 0, got {lam!r}")
    r = math.sqrt(lam)
    if bp.is_friedrichs:
        return bessel_j0(r)
    return (math.log(lam) + 2.0 * bp.kappa) * bessel_j0(r) - _PI * bessel_y0(r)


def _secular_positive_dlam(lam, bp):
    r = math.sqrt(lam)
    if bp.is_friedrichs:
        return -bessel_j1(r) / (2.0 * r)
    j0 = bessel_j0(r)
    dj0 = -bessel_j1(r) / (2.0 * r)  # d/dlam J0(sqrt lam)
    dy0 = -bessel_y1(r) / (2.0 * r)
    return j0 / lam + (math.log(lam) + 2.0 * bp.kappa) * dj0 - _PI * dy0


def secular_negative(mu, bp: BoundaryParam):
    """Negative-spectrum secular function for lambda = -mu^2.

    Scaled by e^{-mu} so it stays finite for large mu; the zero set is
    unchanged.  Tends to tan(theta) as mu -> 0 (after unscaling; the
    scaling factor tends to 1).
    """
    if mu <= 0.0:
        raise DomainError(f"secular_negative: need mu > 0, got {mu!r}")
    if bp.is_friedrichs:
        return bessel_i0_scaled(mu)
    return ((math.log(mu) + bp.kappa) * bessel_i0_scaled(mu)
            + bessel_k0_scaled(mu) * math.exp(-2.0 * mu))


def _bisect_refine(f, a, b, fa, fb, tol):
    for _ in range(200):
        m = 0.5 * (a + b)
        if b - a <= tol * max(1.0, abs(m)):
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if (fa < 0.0) != (fm < 0.0):
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _newton_polish(f, df, x, lo, hi):
    for _ in range(3):
        d = df(x)
        if d == 0.0:
            break
        step = f(x) / d
        y = x - step
        if not (lo < y < hi):
            break
        x = y
    return x


def eigenvalues(bp: BoundaryParam, lambda_max=4000.0, tol=1e-10):
    """All eigenvalues up to lambda_max, counted by interlacing.

    The root count is fixed by theory, so each root gets one bracketed
    solve (bisection, then Newton for positive roots) and nothing is
    scanned.  S has sign (-1)^k at j_k^2, so every cell between squared
    J0 zeros holds one root, and the partial cell ending at lambda_max
    holds one iff S changes sign across it.  S(0+) = 2 tan(theta) makes
    (0, j_1^2) a cell iff tan(theta) > 0.  The bound state mu is bisected
    on (0, e^{-kappa}], where N runs from tan(theta) < 0 to K0 > 0.
    """
    if lambda_max < 100.0:
        raise DomainError("eigenvalues: need lambda_max >= 100")
    if tol > 1e-8:
        raise DomainError("eigenvalues: need tol <= 1e-8")

    squares = [z * z for z in j0_zeros(int(math.sqrt(lambda_max) / _PI) + 3)]
    squares = [sq for sq in squares if sq <= lambda_max]
    if bp.is_friedrichs:
        evs = squares
    else:
        tan_theta = math.tan(bp.theta)
        evs = [0.0] if tan_theta == 0.0 else []  # sqrt(x) log x zero mode
        if tan_theta < 0.0:
            if bp.kappa < -354.0:
                raise DomainError(
                    "eigenvalues: bound state -e^{-2 kappa} overflows a double")
            f_neg = lambda mu: secular_negative(mu, bp)
            mu = _bisect_refine(f_neg, 0.0, math.exp(-bp.kappa), -1.0, 1.0, 1e-15)
            evs.append(-mu * mu)
        f_pos = lambda lam: secular_positive(lam, bp)
        df_pos = lambda lam: _secular_positive_dlam(lam, bp)
        # cell edges with the sign of S there
        edges = [(sq, (-1.0) ** k) for k, sq in enumerate(squares, 1)]
        if tan_theta > 0.0:
            edges.insert(0, (0.0, 1.0))
        s_max = f_pos(lambda_max)
        if s_max * edges[-1][1] <= 0.0:
            edges.append((lambda_max, s_max))
        for (lo, s_lo), (hi, s_hi) in zip(edges[:-1], edges[1:]):
            lam = _bisect_refine(f_pos, lo, hi, s_lo, s_hi, tol)
            evs.append(_newton_polish(f_pos, df_pos, lam, lo, hi))

    evs.sort()
    residuals = tuple(
        abs(secular_positive(ev, bp)) if ev > 0.0
        else (abs(secular_negative(math.sqrt(-ev), bp)) if ev < 0.0 else 0.0)
        for ev in evs)
    return Spectrum(bp.theta, tuple(evs), residuals, float(lambda_max))


def oracle_trace(t, spectrum: Spectrum):
    """Eigenvalue-sum heat trace with an explicit spectral-tail error bar."""
    if t <= 0.0 or not math.isfinite(t):
        raise DomainError(f"oracle_trace: need t > 0, got {t!r}")
    if t * spectrum.lambda_max < 30.0:
        raise InsufficientSpectrumError(
            f"oracle_trace: t*lambda_max = {t * spectrum.lambda_max:.3g} < 30; "
            "recompute the spectrum with a larger lambda_max")
    value = math.fsum(math.exp(-t * ev) for ev in spectrum.eigenvalues)
    return OracleTrace(value, spectrum.tail_bound(t))
