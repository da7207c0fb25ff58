"""The Friedrichs heat kernel, its boundary limit, and the driven solution.

The operator -d2/dx2 - 1/(4x2) on the half line has the explicit
Friedrichs heat kernel

    E(x, y, t) = sqrt(xy)/(2t) I0(xy/2t) exp(-(x^2+y^2)/4t).

Its boundary limit N(x, t) = sqrt(x)/(2t) exp(-x^2/4t) drives everything
else: convolving boundary data h against -N produces the unique solution
with zero initial data and sqrt(x) log x coefficient equal to h(t).
"""

import math

import numpy as np

from rsheat import (
    QuadSpec,
    extract_coeffs,
    friedrichs_kernel,
    integrate,
    nprime,
    q_diag,
    signaling,
)
from rsheat.specfun import EULER_GAMMA, LN2

spec = QuadSpec(rel_tol=1e-12, abs_tol=1e-14)

print("=== kernel values ===")
print(f"E(1, 1, 0.5)   = {friedrichs_kernel(1.0, 1.0, 0.5):.15f}"
      f"   (= I0(1)/e = {1.2660658777520084 / math.e:.15f})")
print(f"E(10,10,1e-4)  = {friedrichs_kernel(10.0, 10.0, 1e-4):.6f}"
      "   (x^2/t = 1e6: scaled Bessel keeps this finite)")
print(f"N(1, 0.25)     = {nprime(1.0, 0.25):.15f}   (= 2/e)")
print()

print("=== semigroup property by quadrature ===")
x, z, a, b = 0.5, 1.0, 0.1, 0.2
conv = integrate(
    lambda ys: np.array([friedrichs_kernel(x, float(y), a)
                         * friedrichs_kernel(float(y), z, b) for y in ys]),
    0.0, 20.0, spec).value
print(f"int E(x,y,{a}) E(y,z,{b}) dy = {conv:.12f}")
print(f"E(x,z,{a + b:.1f})               = {friedrichs_kernel(x, z, a + b):.12f}")
print()

print("=== diagonal self-convolution Q and its unit integral ===")
print(f"Q(0.3, 0.05) = {q_diag(0.3, 0.05):.12f}   (e^(b/2) K0(b/2), b = x^2/t)")
unit = integrate(lambda xs: q_diag(xs, 0.05), 0.0, 1.0).value
print(f"int_0^1 Q(x, 0.05) dx = {unit:.12f}   (1/2 up to e^(-1/t))")
print()

print("=== the driven (signaling) solution F(h), h = 1 ===")
t = 0.5


def f_vals(xs):
    return np.array([signaling(lambda s: np.ones_like(s), float(u), t, spec)
                     for u in np.atleast_1d(xs)])


coeffs = extract_coeffs(f_vals)
c_plus_ref = -0.5 * math.log(t) + 0.5 * EULER_GAMMA - LN2
print("extracting the sqrt(x) and sqrt(x) log x coefficients on [1e-4, 1e-2]:")
print(f"  c_minus = {coeffs.c_minus:.8f}   (boundary data h(t) = 1)")
print(f"  c_plus  = {coeffs.c_plus:.8f}   "
      f"(closed form -log(t)/2 + gamma/2 - log 2 = {c_plus_ref:.8f})")
print(f"  fit residual = {coeffs.fit_residual:.2e}")
print()
print("the c_plus response to c_minus data is exactly the convolution map")
print("whose Laplace transform is log(sqrt(zeta)) + gamma - log 2; that is")
print("what the kernel construction in the rest of the package inverts.")
