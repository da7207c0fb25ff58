"""Regenerate the benchmark's frozen references in bench/refs/.

    PYTHONPATH=src python3 bench/make_refs.py

* ``trace_rows.json``: ``rsheat trace`` on every grid angle with the
  benchmark's t-grid at rel_tol=1e-13, abs_tol=1e-15 (one worker).
* ``spectra.json``: eigenvalues up to LAMBDA_MAX for every grid angle,
  found independently from scipy's J0/Y0/I0e/K0e secular functions by
  scanning and Brent's method, cross-checked against
  ``rsheat.oracle.eigenvalues``; an angle the program refuses keeps the
  scipy list and records the exception name.
* ``specfun.json``: mpmath values (40 digits) on the specfun argument set.
* ``verify_quick.json``: the number of check lines per criterion printed
  by ``rsheat verify --quick``.

Needs scipy and mpmath; the benchmark run itself needs neither.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import inputs  # noqa: E402
from inputs import N_THETA, REFS, grid_theta  # noqa: E402


def _write(name, obj):
    os.makedirs(REFS, exist_ok=True)
    with open(os.path.join(REFS, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def make_trace(tmp):
    from rsheat import cli

    t_text, totals = None, []
    for k in range(N_THETA):
        path = os.path.join(tmp, f"ref_{k}.csv")
        t0 = time.perf_counter()
        code = cli.main(inputs.trace_argv(
            k, path, ("--rel-tol", "1e-13", "--abs-tol", "1e-15", "--workers", "1")))
        with open(path, encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        if t_text is None:
            t_text = [r[0] for r in rows]
        assert [r[0] for r in rows] == t_text
        totals.append([float(r[4]) for r in rows])
        bad = sum(1 for r in rows if r[7] != "ok" or not math.isfinite(float(r[4])))
        print(f"trace k={k:2d} theta={grid_theta(k):.6f} exit={code} "
              f"non-ok/non-finite rows={bad} {time.perf_counter() - t0:.2f}s", flush=True)
    _write("trace_rows.json", {"rel_tol": 1e-13, "abs_tol": 1e-15, "t": t_text,
                               "total": totals})


def _scipy_spectrum(theta, lam_max):
    import numpy as np
    from scipy.optimize import brentq
    from scipy.special import i0e, j0, jn_zeros, k0e, y0

    n_zeros = int(math.sqrt(lam_max) / math.pi) + 3
    zeros2 = [float(z) ** 2 for z in jn_zeros(0, n_zeros)]
    if theta == 0.5 * math.pi:
        return [z for z in zeros2 if z <= lam_max]
    kap = float(np.euler_gamma) - math.log(2.0) + math.tan(theta)
    evs = [0.0] if theta == 0.0 else []

    def neg(v):  # v = log mu; scaled by e^{-mu}
        mu = math.exp(v)
        return (v + kap) * i0e(mu) + k0e(mu) * math.exp(-2.0 * mu)

    # N(0+) = tan(theta): start where N stands above rounding noise at theta = 0
    vs = np.linspace(-10.0, 40.0, 5001)
    vals = [neg(v) for v in vs]
    for a, b, fa, fb in zip(vs[:-1], vs[1:], vals[:-1], vals[1:]):
        if fa != 0.0 and (fa < 0.0) != (fb < 0.0):
            mu = math.exp(brentq(neg, a, b, xtol=1e-15, rtol=1e-15))
            evs.append(-mu * mu)

    def pos(lam):
        r = math.sqrt(lam)
        return (math.log(lam) + 2.0 * kap) * j0(r) - math.pi * y0(r)

    cells = [0.0] + [z for z in zeros2 if z < lam_max] + [lam_max]
    for lo, hi in zip(cells[:-1], cells[1:]):
        # S(0+) = 2 tan(theta) and S = -lambda/2 + ... at theta = 0, whose
        # zero at lambda = 0 is added above: start the first cell where
        # |S| stands well above rounding noise
        grid = np.linspace(lo, hi, 4001)[1:-1] if lo > 0.0 else \
            np.geomspace(1e-6, hi, 4001)[:-1]
        vals = [pos(x) for x in grid]
        for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
            if (fa < 0.0) != (fb < 0.0):
                evs.append(brentq(pos, a, b, xtol=1e-14, rtol=1e-15))
    return sorted(evs)


def make_spectra():
    from rsheat import BoundaryParam, oracle

    all_evs, errors = [], []
    for k in range(N_THETA):
        theta = grid_theta(k)
        ref = _scipy_spectrum(theta, inputs.LAMBDA_MAX)
        t0 = time.perf_counter()
        try:
            got = oracle.eigenvalues(BoundaryParam(theta), lambda_max=inputs.LAMBDA_MAX)
            err = None
            worst = max((inputs.rel_dev(a, b) for a, b in zip(got.eigenvalues, ref)),
                        default=0.0)
            info = f"program {len(got.eigenvalues)} scipy {len(ref)} max dev {worst:.2e}"
            if len(got.eigenvalues) != len(ref) or worst > inputs.EIG_REL_DEV_TOL:
                info += "  MISMATCH"
        except Exception as exc:  # the reference records what the program raised
            err = type(exc).__name__
            info = f"program raised {err}: {exc}"
        print(f"spectrum k={k:2d} theta={theta:.6f} {info} "
              f"{time.perf_counter() - t0:.2f}s", flush=True)
        all_evs.append(ref)
        errors.append(err)
    _write("spectra.json", {"lambda_max": inputs.LAMBDA_MAX, "eigenvalues": all_evs,
                            "program_error": errors})


def make_specfun():
    import mpmath

    mpmath.mp.dps = 40
    exact = {
        "j0": lambda z: mpmath.besselj(0, z),
        "j1": lambda z: mpmath.besselj(1, z),
        "y0": lambda z: mpmath.bessely(0, z),
        "y1": lambda z: mpmath.bessely(1, z),
        "i0_scaled": lambda z: mpmath.besseli(0, z) * mpmath.exp(-z),
        "k0_scaled": lambda z: mpmath.besselk(0, z) * mpmath.exp(z),
    }
    out = {fn: {path: [float(exact[fn](mpmath.mpf(z))) for z in zs]
                for path, zs in paths.items()}
           for fn, paths in inputs.SPECFUN_ARGS.items()}
    _write("specfun.json", out)


def make_verify():
    from rsheat import verify

    results = verify.run_acceptance(quick=True)
    counts = [len(r.checks) for r in results]
    print(f"verify --quick all passed={all(r.passed for r in results)} "
          f"check lines per criterion {counts}")
    _write("verify_quick.json", {"checks_per_criterion": counts})


def main():
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=inputs.ROOT) as tmp:
        make_specfun()
        make_verify()
        make_spectra()
        make_trace(tmp)


if __name__ == "__main__":
    main()
