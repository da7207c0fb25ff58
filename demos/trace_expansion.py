"""The headline result: an expansion in 1/log t, not in powers of t.

For a non-Friedrichs angle the short-time heat trace differs from the
Friedrichs trace by an ordinary power series PLUS the exotic term

    -int_1^inf e^{-ty} dy / (y ((log y + 2 kappa)^2 + pi^2)),

which expands in inverse powers of log t.  No polynomial fits it: the
degree-2 residual of the raw difference curve is orders of magnitude above
the residual after subtracting the computed exotic term.  The script ends
with the end-to-end consistency check against the eigenvalue oracle.
"""

import math

import numpy as np

from rsheat import (
    BoundaryParam,
    eigenvalues,
    exotic_limit,
    exotic_term,
    exoticness_report,
    full_trace,
    oracle_trace,
    trace_curve,
)

bp = BoundaryParam(0.0)
bpF = BoundaryParam.friedrichs()

print("=== trace curves (theta = 0 vs Friedrichs) ===")
ts = [1e-4, 1e-3, 1e-2, 5e-2]
curve = trace_curve(bp, ts)
curve_f = trace_curve(bpF, ts)
print(f"{'t':>8} {'friedrichs':>14} {'correction':>13} {'total':>14} {'exotic':>11}")
for s, sf_ in zip(curve, curve_f):
    print(f"{s.t:8.4f} {sf_.value:14.8f} {s.parts.correction:13.8f} "
          f"{s.value:14.8f} {s.parts.exotic_ref:11.6f}")
print()

print("=== the exotic term converges to its limit only like 1/log(1/t) ===")
lim = exotic_limit(bp)
for t in (1e-2, 1e-4, 1e-8):
    e = exotic_term(t, bp)
    print(f"  t = {t:6g}: exotic = {e:+.6f}   limit = {lim:+.6f}   "
          f"gap = {e - lim:+.4f}")
print()

print("=== exoticness report: fit with and without subtraction ===")
grid = np.geomspace(1e-4, 1e-2, 16)
report = exoticness_report(bp, grid)
print(report.render_text())
print()
print("(a0 equals (1/pi)(pi/2 - arctan(2 kappa/pi)) =",
      f"{(1 / math.pi) * (math.pi / 2 - math.atan(2 * bp.kappa / math.pi)):.6f})")
print()

print("=== end-to-end: kernel trace vs eigenvalue-sum trace at t = 0.05 ===")
t = 0.05
for name, b in (("0", bp), ("pi/4", BoundaryParam(math.pi / 4)),
                ("3pi/4", BoundaryParam(3 * math.pi / 4)), ("friedrichs", bpF)):
    full = full_trace(t, b).value
    orac = oracle_trace(t, eigenvalues(b)).value
    print(f"  theta = {name:10}: kernel {full:11.6f}  oracle {orac:11.6f}  "
          f"difference - 1/4 = {full - orac - 0.25:+.6f}")
print("  the residual 1/4 is the classical Dirichlet-wall constant at x = 1;")
print("  it cancels exactly in theta-differences.")
