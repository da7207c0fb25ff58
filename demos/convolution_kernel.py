"""Anatomy of the convolution kernel K(t) and the bound-state pole.

K is the inverse Laplace transform of 1/(log sqrt(zeta) + kappa).  On the
branch cut this is a positive density: a slowly-decaying main integral
over y >= 1 plus a smooth bounded piece over 0 < y < 1; but for every
non-Friedrichs angle the symbol also has a real positive pole at
zeta0 = e^{-2 kappa} whose residue 2 zeta0 e^{t zeta0} the imaginary-axis
representation misses.  The numerical Laplace
transform decides the question: only the residue-ON assembly reproduces
the symbol.  ``include_residue=False``, a keyword of ``k_theta``,
``laplace_of_k`` and ``trace_curve``, drops the pole.

The package computes K on the branch cut because the Bromwich integral
along the imaginary axis converges only like 1/log R in its truncation
radius R; ``bromwich_axis`` below is that axis integral.  The rate
itself is checked by ``TestBromwich`` in tests/test_ktheta.py.
"""

import math

import numpy as np

from rsheat import (
    BoundaryParam,
    integrate,
    k1_smooth,
    k_theta,
    laplace_of_k,
    m_main,
    pole_location,
)


def bromwich_axis(t, radius, bp):
    """(1/pi) Re int_0^R e^{ity} ((1/2) log y + i pi/4 + kappa)^{-1} dy.

    The imaginary-axis inverse Laplace integral truncated at R = radius; it
    tends to m_main + k1_smooth (not the pole term) with error O(1/log R).
    [0, 1] is integrated adaptively, [1, R] on quarter-period 12-point
    Gauss-Legendre panels, 2^16 panels at a time (R = 1e6 at t = 1.5 has
    955k panels: 92 MB for each array of their nodes at once).
    """
    kap = bp.kappa
    b = 0.25 * math.pi

    def f(ys):
        a = 0.5 * np.log(ys) + kap
        return (a * np.cos(t * ys) + b * np.sin(t * ys)) / (a * a + b * b)

    total = integrate(f, 0.0, 1.0).value
    nodes, weights = np.polynomial.legendre.leggauss(12)
    n_panels = math.ceil((radius - 1.0) / (0.5 * math.pi / t))
    edges = np.linspace(1.0, radius, n_panels + 1)
    for k in range(0, n_panels, 2 ** 16):
        stop = min(k + 2 ** 16, n_panels)
        lo = edges[k:stop, None]
        hi = edges[k + 1:stop + 1, None]
        ys = 0.5 * (lo * (1.0 - nodes) + hi * (1.0 + nodes))
        total += float(np.sum(0.5 * (hi - lo) * weights * f(ys)))
    return total / math.pi


bp = BoundaryParam(0.0)
z0 = pole_location(bp)
print(f"theta = 0: kappa = {bp.kappa:+.6f}, pole at zeta0 = e^(-2 kappa) = {z0:.6f}")
print()

print("=== the three parts of K(t) ===")
print(f"{'t':>6} {'main':>12} {'smooth':>12} {'residue':>12} {'total':>12}")
for t in (0.05, 0.2, 1.0, 3.0):
    v = k_theta(t, bp)
    print(f"{t:6.2f} {v.main_part:12.6f} {v.smooth_part:12.6f} "
          f"{v.residue_part:12.6f} {v.total:12.6f}")
print()

print("=== Laplace identity: L K(zeta) vs 1/(log sqrt(zeta) + kappa) ===")
for zeta in (2.0 * z0, 4.0 * z0, 10.0):
    target = 1.0 / (0.5 * math.log(zeta) + bp.kappa)
    on = laplace_of_k(zeta, bp)
    off = laplace_of_k(zeta, bp, include_residue=False)
    print(f"zeta = {zeta:7.4f}: target {target:9.6f}  with residue {on:9.6f} "
          f"(err {abs(on - target):.1e})  without {off:9.6f} "
          f"(err {abs(off - target):.3f} = 2 zeta0/(zeta - zeta0) = "
          f"{2 * z0 / (zeta - z0):.3f})")
print()
print("the without-residue mismatch equals the residue transform exactly:")
print("the pole is real, and it matches the half-line bound state at -zeta0.")
print()

print("=== truncated Bromwich integral converges like 1/log R ===")
t = 0.7
assembled = m_main(t, bp) + k1_smooth(t, bp)
for radius in (1e3, 1e6):
    br = bromwich_axis(t, radius, bp)
    print(f"R = {radius:8g}: axis integral {br:+.8f}  vs main+smooth "
          f"{assembled:+.8f}  (gap {abs(br - assembled):.2e})")
print()

print("=== the kernel dies approaching the Friedrichs angle from below ===")
print("(its parts are fixed rules with a relative error bound, so the small")
print(" values near pi/2 keep their digits: K ~ 1/kappa^2)")
for eps in (0.3, 0.1, 0.01, 1e-4):
    bp_eps = BoundaryParam(math.pi / 2 - eps)
    v = k_theta(0.5, bp_eps)
    print(f"theta = pi/2 - {eps:<6}: kappa = {bp_eps.kappa:10.3f}, "
          f"K(0.5) = {v.total:+.6e}, kappa^2 K(0.5) = {bp_eps.kappa ** 2 * v.total:.6f}")
