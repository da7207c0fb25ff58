"""Walk through the special-function layer: evaluation paths and accuracy.

Every kernel in this package is built from the eight Bessel routines in
rsheat.specfun.  This script shows where each evaluation strategy is used,
checks the two classical Wronskian identities on a random grid, and prints
the self-reported error estimate of e^{-z} I0(z), the one checked variant.
"""

import math

import numpy as np

from rsheat import specfun as sf

print("=== evaluation strategies ===")
print("power series for I0/I1 up to z = 16, for J0/Y0/J1/Y1 up to z = 2")
print("(compensated double-double) and for K0/K1 up to z = 1; J0/Y0/J1/Y1 take")
print("Taylor tables at z0 = 2, 2.5, ..., 16 on (2, 16], built from the series;")
print("K0/K1 use the trapezoid integral representation on (1, 16), where double")
print("precision loses the log-series cancellation battle; Hankel asymptotics")
print("above 16, one Horner pass over N(z) terms, a count fixed before summing:")
print("to the first term below 1e-19 or to the smallest term.")
for z in (16.01, 20.0, 22.0, 30.0, 63.0, 1000.0):
    print(f"  N({z:7.2f}) = {sf._hankel_count(0.0, z):2d} (order 0), "
          f"{sf._hankel_count(4.0, z):2d} (order 1)")
print()

for z in (0.5, 4.0, 20.0):
    print(f"I0({z:5.1f}) = {sf.bessel_i0(z):.15e}")
    print(f"K0({z:5.1f}) = {sf.bessel_k0(z):.15e}")
    print(f"J0({z:5.1f}) = {sf.bessel_j0(z):+.15e}")
    print(f"Y0({z:5.1f}) = {sf.bessel_y0(z):+.15e}")
print()

print("=== scaled variants never overflow ===")
for z in (100.0, 1000.0, 5e5):
    print(f"e^-z I0(z) at z = {z:8g}: {sf.bessel_i0_scaled(z):.15e}")
print()

print("=== dual paths agree on the crossover band [14, 18] ===")
for z in (14.0, 15.25, 16.0, 18.0):
    d = abs(sf._jy_series(0, z, regular=False)[0] - sf._jy_asym(0, z)[0])
    print(f"z = {z}: |J0 series - J0 asymptotic| = {d:.2e}")
    if z <= 16.0:
        t = abs(sf._jy_taylor(z)[0] - sf._jy_asym(0, z)[0])
        print(f"          |J0 table - J0 asymptotic|  = {t:.2e}")
print()

print("=== Wronskian identities on 10 random points ===")
rng = np.random.default_rng(1)
for z in np.exp(rng.uniform(math.log(0.05), math.log(50.0), size=10)):
    z = float(z)
    w_ik = z * (sf.bessel_i0_scaled(z) * sf.bessel_k1_scaled(z)
                + sf.bessel_i1_scaled(z) * sf.bessel_k0_scaled(z))
    w_jy = 0.5 * math.pi * z * (sf.bessel_j1(z) * sf.bessel_y0(z)
                                - sf.bessel_j0(z) * sf.bessel_y1(z))
    print(f"z = {z:9.4f}:  z(I0 K1 + I1 K0) - 1 = {w_ik - 1.0:+.2e}   "
          f"(pi z/2)(J1 Y0 - J0 Y1) - 1 = {w_jy - 1.0:+.2e}")
print()

print("=== checked evaluation carries an error estimate ===")
print("(it bounds the Friedrichs part of a trace's est_error)")
for z in (1e-6, 1.0, 12.0, 300.0):
    r = sf.i0_scaled_checked(z)
    print(f"e^-z I0({z:8g}) = {r.value:.15e}  est |error| <= {r.est_abs_error:.1e}")

print()
print("the small-z behaviour of Y0 pins the same gamma and log 2 that enter")
print("the boundary constant kappa = gamma - log2 + tan(theta):")
for z in (1e-2, 1e-5, 1e-8):
    lead = (2.0 / math.pi) * (math.log(z) - sf.LN2 + sf.EULER_GAMMA)
    print(f"  Y0(z) - (2/pi)(log z - log2 + gamma) at z = {z:g}: {sf.bessel_y0(z) - lead:+.3e}")
