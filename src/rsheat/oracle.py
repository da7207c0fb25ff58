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

Each root is then one safeguarded Newton solve that never leaves its cell
and ends at a 4-ulp step or a bracket 1e-10 wide (``_safe_newton``); a
positive root costs one fused J0/Y0 evaluation per step on a bounded phase
(``_phase``).  Newton starts within a few ulp of the root, so one step
usually ends it.  An evaluation is a double-double series at r <= 2,
one Horner pass of ``specfun``'s Taylor tables up to r = 16 and a Hankel
sum above.  Below r = 16 the root of each of the cells (0, j_1), ...,
(j_5, j_6) is a Hermite interpolant in a variable of tan(theta) alone,
tabulated once per process from 12 or 24 evaluations per cell
(``_seed_tables``).  Above
r = 16 the start is the root of the asymptotic phase: 12 terms of the
Hankel phase of J0 + i Y0 (DLMF 10.18.18), solved with no Bessel
evaluation (``_phase_seed``).  S is formed as
2 (tan(theta) J0 - c), c the regular part of Y0, and for mu <= 1 N as
tan(theta) I0 + S2, S2 the regular part of K0, which keeps the eigenvalue
nearest 0 of a tiny |tan(theta)| to full relative accuracy on either side.

theta = 0 carries the eigenvalue 0 exactly: sqrt(x) log x is annihilated
by the operator, satisfies the theta = 0 condition (c_plus = 0) and
vanishes at x = 1.  That is the root the first cell loses when
tan(theta) = 0, so it is added explicitly.

The cells depend on theta only through the first one, so the J0 zeros
that bound them, and the seed tables, are computed once per process:
``j0_zeros`` keeps a table that it extends on demand and never hands out,
and the first positive-root solve builds the seed tables.

The eigenvalue sums feed ``oracle_trace``, the end-to-end cross-check of
the kernel-built traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError, InsufficientSpectrumError, check_int, check_real
from .kernels import BoundaryParam
from .specfun import (
    _K_SERIES_CUTOFF,
    _SERIES_CUTOFF,
    _Z_MIN,
    EULER_GAMMA,
    _ik_series,
    _j0_y0_fused,
    bessel_i0_scaled,
    bessel_j0,
    bessel_j1,
    bessel_k0_scaled,
)

_PI = math.pi
_2_PI = 2.0 / math.pi
LAMBDA_MAX_LIMIT = 1e10  # 31,831 eigenvalues; the zero table grows as sqrt(lambda_max)/pi
_BRACKET_TOL = 1e-10  # relative bracket width that ends a Newton solve


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues of one boundary condition up to lambda_max.

    ``residuals``, |secular_positive| or |secular_negative| at each
    eigenvalue (0.0 at 0), the certification data ``to_csv`` writes, are
    evaluated on first read, from ``BoundaryParam(theta)``.
    """

    theta: float
    eigenvalues: tuple
    lambda_max: float

    @cached_property
    def residuals(self):
        bp = BoundaryParam(self.theta)
        return tuple(
            abs(secular_positive(ev, bp)) if ev > 0.0
            else (abs(secular_negative(math.sqrt(-ev), bp)) if ev < 0.0 else 0.0)
            for ev in self.eigenvalues)

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


# j_1, j_2, ...: the zeros computed so far in this process.  A tuple that
# is only ever rebound to a correct prefix, so no result depends on its
# state; threads racing to extend it can at worst recompute some zeros.
_J0_ZEROS = ()


def j0_zeros(n):
    """First n positive zeros of J0 (McMahon seed + Newton on J0/J1).

    Each zero j_k depends only on k, so they are computed once per process:
    the table ``_J0_ZEROS`` is extended to n zeros when it holds fewer, and
    the caller gets a new list, never the table.  It retains one float per
    zero of the largest spectrum asked for.  ``n`` is an integer; a
    negative count gives no zeros.
    """
    global _J0_ZEROS
    n = check_int(n, "j0_zeros", "n")
    out = list(_J0_ZEROS[:max(n, 0)])
    for k in range(len(out) + 1, n + 1):
        beta = (k - 0.25) * _PI
        z = beta + 1.0 / (8.0 * beta) - 124.0 / (3.0 * (8.0 * beta) ** 3)
        for _ in range(8):
            step = bessel_j0(z) / bessel_j1(z)  # J0' = -J1
            z += step
            if abs(step) <= 4.0 * math.ulp(z):
                break
        out.append(z)
    if n > len(_J0_ZEROS):
        _J0_ZEROS = tuple(out)
    return out


def secular_positive(lam, bp: BoundaryParam):
    """Positive-spectrum secular function; zeros are eigenvalues.

    Evaluated as S = 2 (tan(theta) J0 - c), c the regular part of Y0
    (``specfun._j0_y0_fused``): the log lambda of the textbook form cancels
    exactly, so S keeps its relative accuracy as lambda -> 0.
    """
    lam = check_real(lam, "secular_positive", "lambda", "> 0")
    r = math.sqrt(lam)
    if bp.is_friedrichs:
        return bessel_j0(r)
    j0, _, _, c = _j0_y0_fused(r)
    return 2.0 * (math.tan(bp.theta) * j0 - c)


def secular_negative(mu, bp: BoundaryParam):
    """Negative-spectrum secular function for lambda = -mu^2.

    Scaled by e^{-mu} so it stays finite for large mu; the zero set is
    unchanged.  Tends to tan(theta) as mu -> 0 (after unscaling; the
    scaling factor tends to 1).
    """
    mu = check_real(mu, "secular_negative", "mu", _Z_MIN)
    if bp.is_friedrichs:
        return bessel_i0_scaled(mu)
    if mu <= _K_SERIES_CUTOFF:
        # K0 = S2 - (log(mu/2) + gamma) I0 turns N into tan(theta) I0 + S2,
        # with no cancellation as tan(theta) -> 0; one loop gives I0 and S2
        i0, _, s2 = _ik_series(0, mu)
        scale = math.exp(-mu)
        return math.tan(bp.theta) * (scale * i0) + s2 * scale
    return ((math.log(mu) + bp.kappa) * bessel_i0_scaled(mu)
            + bessel_k0_scaled(mu) * math.exp(-2.0 * mu))


def _phase(r, tan_theta):
    """G(r) = atan(Y0/J0) - atan(L/pi), L = 2 log r + 2 kappa, and G'(r).

    One fused J0/Y0 evaluation.  G has the sign of -S/J0 and rises through
    each root.  With b = L/pi = (2/pi)(log(r/2) + gamma + tan(theta)),
    G = atan2((2/pi) J0 (c - tan(theta) J0), J0 (J0 + b Y0)) needs no
    division by J0, and by the Wronskian
    G' = (2/(pi r)) (1/M^2 - 1/(1 + b^2)), M^2 = J0^2 + Y0^2, whose
    numerator 1 + b^2 - M^2 = (1 - J0^2) + (b - Y0)(b + Y0) is summed from
    parts that keep their relative accuracy as r -> 0.
    """
    j0, y0, j0m1, c = _j0_y0_fused(r)
    ell = math.log(0.5 * r) + EULER_GAMMA
    b = _2_PI * (ell + tan_theta)
    g = math.atan2(_2_PI * j0 * (c - tan_theta * j0), j0 * (j0 + b * y0))
    gap = -j0m1 * (2.0 + j0m1) + _2_PI * (tan_theta - c - ell * j0m1) * (b + y0)
    m2 = j0 * j0 + y0 * y0
    return g, 2.0 * gap / (_PI * r * m2 * (1.0 + b * b))


# Seed tables of the interlacing cells whose lower edge is below the Hankel
# cutoff r = 16, (0, j_1), (j_1, j_2), ..., (j_5, j_6), by lower edge: there a
# phase evaluation is a double-double series (r <= 2) or a Taylor-table pass.
# Built on the first solve and, like _J0_ZEROS, only ever rebound to a
# complete table.
_SEED_TABLES = {}
_SEED_NODES = (12, 24)  # Chebyshev nodes on (0, j_1) and on each later cell


def _hankel_seed(lo, tan_theta):
    """(r, dr/dt): the root of the Hankel phase in the cell above lo = j_k,
    j_k + pi/2 + atan(L/pi) with L = 2 log r + 2 kappa at r = j_k + pi/2."""
    mid = lo + 0.5 * _PI
    a = _2_PI * (math.log(0.5 * mid) + EULER_GAMMA + tan_theta)
    return mid + math.atan(a), _2_PI / (1.0 + a * a)


def _seed_abscissa(lo, hi, tan_theta):
    """(x, dx/dt): the variable in which a seed table holds the root of the
    cell (lo, hi), as a function of t = tan(theta).

    On (0, j_1), x = t/(u_1 + t), u_1 = j_1^2/4: the root in u = r^2/4 of
    t = u/(1 - u/u_1), which has S's slope at 0 and its pole at j_1.  On a
    later cell, x = atan(L/pi) with L at the Hankel seed: the phase of
    J0 + i Y0 at the root, to within L's change across the cell.  Either
    way the root is nearly affine in x, so Chebyshev nodes in r stay nearly
    Chebyshev in x.
    """
    if lo == 0.0:
        u1 = 0.25 * hi * hi
        return tan_theta / (u1 + tan_theta), u1 / (u1 + tan_theta) ** 2
    r, dr = _hankel_seed(lo, tan_theta)
    b = _2_PI * (math.log(0.5 * r) + EULER_GAMMA + tan_theta)
    return math.atan(b), _2_PI * (1.0 + dr / r) / (1.0 + b * b)


def _seed_table(lo, hi, n):
    """(hi, rows): the root of the cell (lo, hi) as a function of the
    abscissa x, from n fused evaluations, for ``_hermite``.

    At n Chebyshev points r_i of (lo, hi) -- of u = r^2/4 on (0, j_1) -- one
    evaluation gives t_i = c/J0, the tan(theta) whose root r_i is, so the
    node x_i, and by the Wronskian dt/dr = (1 - J0^2)/(r J0^2), so dr/dx;
    no root is solved.  The values are r_i, and on (0, j_1)
    g_i = (r_i/j_1)^2/x_i, which tends to 1 as x -> 0, so the seed
    r = j_1 sqrt(x g(x)) keeps its relative accuracy as tan(theta) -> 0+.
    """
    nodes, values, slopes = [], [], []
    for i in range(n):
        s = 0.5 - 0.5 * math.cos(_PI * (i + 0.5) / n)
        r = hi * math.sqrt(s) if lo == 0.0 else lo + s * (hi - lo)
        j0, _, j0m1, c = _j0_y0_fused(r)
        x, dx_dt = _seed_abscissa(lo, hi, c / j0)
        dr_dx = r * j0 * j0 / (-j0m1 * (2.0 + j0m1) * dx_dt)
        nodes.append(x)
        if lo == 0.0:
            g = (r / hi) ** 2 / x
            values.append(g)
            slopes.append((2.0 * r / (hi * hi) * dr_dx - g) / x)
        else:
            values.append(r)
            slopes.append(dr_dx)
    rows = []
    for i, xi in enumerate(nodes):
        others = [xi - xj for j, xj in enumerate(nodes) if j != i]
        a1 = 1.0 / math.prod(others) ** 2
        rows.append((xi, a1, -2.0 * a1 * math.fsum(1.0 / d for d in others),
                     values[i], slopes[i]))
    return hi, tuple(rows)


def _seed_tables():
    """The seed tables by lower edge, built on first use."""
    global _SEED_TABLES
    if not _SEED_TABLES:
        edges = [0.0, *j0_zeros(6)]
        _SEED_TABLES = {lo: _seed_table(lo, hi, _SEED_NODES[lo > 0.0])
                        for lo, hi in zip(edges, edges[1:]) if lo < _SERIES_CUTOFF}
    return _SEED_TABLES


def _hermite(x, rows):
    """The Hermite interpolant of the rows' values and slopes at x, in
    barycentric form: a1 and a0 are the coefficients of 1/(x - x_i)^2 and
    1/(x - x_i) in the partial fractions of prod_i (x - x_i)^{-2}."""
    num = den = 0.0
    for xi, a1, a0, f, df in rows:
        h = x - xi
        if h == 0.0:
            return f
        q1 = a1 / (h * h)
        q0 = a0 / h
        num += q1 * (f + h * df) + q0 * f
        den += q1 + q0
    return num / den


# d_k of the phase of J0 + i Y0 = M e^{i theta_0}, theta_0(r) - r + pi/4 ~
# sum_k d_k r^{1-2k} (DLMF 10.18.18): as M^2 theta_0' = 2/(pi r), the
# reciprocal of DLMF 10.18.17's M^2 series, integrated term by term.  Twelve
# terms are within 1.5e-16 of the phase at r = j_6 = 18.07, closer above.
_PHASE_COEFFS = (
    -0.125, 0.06510416666666667, -0.2095703125, 1.6380658830915178,
    -23.475127749972874, 535.640519510616, -17837.279688947478,
    816737.8421910767, -49232732.339998595, 3779795380.667541,
    -360101552365.56555, 41687986318546.49)


def _hankel_delta(r):
    """delta(r) = theta_0(r) - r + pi/4 from its 12 asymptotic terms."""
    w = 1.0 / (r * r)
    s = 0.0
    for d in reversed(_PHASE_COEFFS):
        s = s * w + d
    return s / r


def _phase_seed(lo, tan_theta):
    """The root of the asymptotic phase in the cell above lo = j_k > 16.

    theta_0(lo) = pi/2 mod pi and theta_0 = atan(L/pi) mod pi at the root,
    so it is the fixed point of r = lo + pi/2 + atan(L(r)/pi) - (delta(r) -
    delta(lo)).  Newton on it from the Hankel seed, with delta' taken as
    1/(8 r^2), ends in three or four steps; r - lo is exact.
    """
    r = _hankel_seed(lo, tan_theta)[0]
    delta_lo = _hankel_delta(lo)
    for _ in range(8):
        b = _2_PI * (math.log(0.5 * r) + EULER_GAMMA + tan_theta)
        g = (r - lo) - 0.5 * _PI - math.atan(b) + (_hankel_delta(r) - delta_lo)
        step = g / (1.0 - _2_PI / (r * (1.0 + b * b)) + 0.125 / (r * r))
        r -= step
        if abs(step) <= 1e-15 * r:
            break
    return r


def _cell_seed(lo, hi, tan_theta):
    """Start in r for the cell (lo, hi): its seed table's root below r = 16,
    the root of the asymptotic phase (``_phase_seed``) above; the midpoint
    where that start is not inside the cell."""
    table = _seed_tables().get(lo)
    if table is None:
        r = _phase_seed(lo, tan_theta)
    else:
        x = _seed_abscissa(lo, table[0], tan_theta)[0]
        r = _hermite(x, table[1])
        if lo == 0.0:
            r = table[0] * math.sqrt(x * r)
    return r if lo < r < hi else 0.5 * (lo + hi)


def _positive_root(lo, hi, tan_theta):
    """The eigenvalue in the interlacing cell (lo^2, hi^2)."""
    r = _safe_newton(lambda x: _phase(x, tan_theta), _cell_seed(lo, hi, tan_theta), lo, hi)
    return r * r


def _bound_state_h(v, bp):
    """h(v) = N/I0 = v + kappa + K0/I0 at mu = e^v, and h'(v) = 1 - 1/I0^2."""
    mu = math.exp(v)
    i0s = bessel_i0_scaled(mu)
    inv_i0 = math.exp(-mu) / i0s
    return secular_negative(mu, bp) / i0s, 1.0 - inv_i0 * inv_i0


def _safe_newton(f, x, lo, hi):
    """Root on (lo, hi) of f, which rises through it; f(x) -> (value, slope).

    Newton from x.  Convergence (a step of at most 4 ulp of x) is tested
    first; then the sign of f shrinks the bracket, and a step that leaves
    it, or a slope that is not positive, becomes a bisection.  A bracket
    narrower than _BRACKET_TOL * max(1, |x|) also ends the solve.
    """
    for _ in range(200):
        g, dg = f(x)
        step = g / dg if dg > 0.0 else math.inf
        if abs(step) <= 4.0 * math.ulp(x):
            return x - step
        if g > 0.0:
            hi = x
        else:
            lo = x
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        if hi - lo <= _BRACKET_TOL * max(1.0, abs(x)):
            break
    return x


def eigenvalues(bp: BoundaryParam, lambda_max=4000.0):
    """All eigenvalues up to lambda_max, counted by interlacing.

    The root count is fixed by theory, so each root gets one safeguarded
    Newton solve (``_safe_newton``) and nothing is scanned.  S has sign
    (-1)^k at j_k^2, so every cell between squared J0 zeros holds one root,
    and the partial cell ending at lambda_max holds one iff S changes sign
    across it.  S(0+) = 2 tan(theta) makes (0, j_1^2) a cell iff
    tan(theta) > 0.

    A positive root is solved in r on the phase G (``_phase``): one fused
    J0/Y0 evaluation per step, usually one per cell, as Newton starts from
    the cell's seed table below r = 16 (built on the first call, from 132
    evaluations) and from the asymptotic phase's root above.  Only an
    evaluation at r <= 2 is a double-double series; up to r = 16 it is a
    Taylor-table pass.  Besides the
    solves, only the partial-cell test evaluates S; the residuals are
    evaluated when read.  The bound state is
    solved in v = log mu on h = v + kappa + K0/I0, h' = 1 - 1/I0^2.  As
    h = tan(theta) + S2/I0 with S2 = sum_k H_k (mu^2/4)^k/(k!)^2, and
    0 < S2 < (mu^2/4) I0, h < 0 at mu^2 = -4 tan(theta), while h = K0/I0 > 0
    at the half-line state mu = e^{-kappa}.  These bracket it, and Newton
    starts from the smaller of e^{-kappa} and mu^2 = -4 tan/(1 + tan).  A
    lambda_max outside [100, LAMBDA_MAX_LIMIT = 1e10] is a DomainError before any work.
    """
    lambda_max = check_real(lambda_max, "eigenvalues", "lambda_max")
    if lambda_max < 100.0:
        raise DomainError(f"eigenvalues: need finite lambda_max >= 100, got {lambda_max!r}")
    if lambda_max > LAMBDA_MAX_LIMIT:
        raise DomainError(
            f"eigenvalues: need lambda_max <= {LAMBDA_MAX_LIMIT:g}, got {lambda_max!r}")

    zeros = [z for z in j0_zeros(int(math.sqrt(lambda_max) / _PI) + 3)
             if z * z <= lambda_max]
    if bp.is_friedrichs:
        evs = [z * z for z in zeros]
    else:
        tan_theta = math.tan(bp.theta)
        evs = [0.0] if tan_theta == 0.0 else []  # sqrt(x) log x zero mode
        if tan_theta < 0.0:
            kappa = bp.kappa
            if kappa < -354.0:
                raise DomainError(
                    "eigenvalues: bound state -e^{-2 kappa} overflows a double")
            v_lo, v_hi = 0.5 * math.log(-4.0 * tan_theta), -kappa
            v0 = v_hi
            if tan_theta > -1.0:
                v0 = min(v_hi, 0.5 * math.log(-4.0 * tan_theta / (1.0 + tan_theta)))
            v = _safe_newton(lambda x: _bound_state_h(x, bp), v0, v_lo, v_hi)
            evs.append(-math.exp(2.0 * v))
        cells = list(zip(zeros[:-1], zeros[1:]))
        if tan_theta > 0.0:
            cells.insert(0, (0.0, zeros[0]))
        if secular_positive(lambda_max, bp) * (-1.0) ** len(zeros) <= 0.0:
            cells.append((zeros[-1], math.sqrt(lambda_max)))
        evs += [_positive_root(lo, hi, tan_theta) for lo, hi in cells]

    evs.sort()
    return Spectrum(bp.theta, tuple(evs), lambda_max)


def oracle_trace(t, spectrum: Spectrum):
    """Eigenvalue-sum heat trace with a spectral-tail error bar; inf on overflow."""
    t = check_real(t, "oracle_trace", "t", "> 0")
    if t * spectrum.lambda_max < 30.0:
        raise InsufficientSpectrumError(
            f"oracle_trace: t*lambda_max = {t * spectrum.lambda_max:.3g} < 30; "
            "recompute the spectrum with a larger lambda_max")
    try:
        value = math.fsum(math.exp(-t * ev) for ev in spectrum.eigenvalues)
    except OverflowError:  # a bound state's e^{-t lambda}, as in full_trace
        value = math.inf
    return OracleTrace(value, spectrum.tail_bound(t))
