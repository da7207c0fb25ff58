"""Seeded inputs, frozen references and output checks for the benchmark.

Every input a run feeds the program comes from here, so the reference
generator (``make_refs.py``), the runner (``run.py``) and the benchmark's
own tests agree on it.

Angles come from a grid of ``N_THETA`` points k*pi/N_THETA on [0, pi):
the trace references are computed once at tight tolerance, so every
angle a seed can draw must be in the frozen set.  The grid includes
theta = 0 (zero mode) and the Friedrichs angle pi/2.  The four grid angles
just above pi/2, where the bound state makes the program fail today, are
kept in the references and the checks but left out of the draw (see
``FAILING_K``).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

N_THETA = 64
PASS_OPS = 4  # calls per pass: 4 angles

# Grid angles where the program fails today, just above the Friedrichs
# angle: the bound state makes ``rsheat trace`` write ``inf`` with status
# ``ok`` (25, 25, 17 and 3 of the 25 rows), ``eigenvalues`` refuses k = 33
# and ``oracle_trace`` overflows at k = 34..36.  A benchmark workload must
# be one on which no operation fails, so these angles are not drawn.  The
# checks still count such rows as failed, and the tests keep this set equal
# to the angles where the references fail, so it shrinks with a fix.
FAILING_K = frozenset(range(33, 37))
DRAWN_K = tuple(k for k in range(N_THETA) if k not in FAILING_K)

# trace_curve: the CLI's default settings on this log grid
TRACE_T_MIN = "1e-4"
TRACE_T_MAX = "5e-2"
TRACE_POINTS = 25
TRACE_REL_DEV_TOL = 1e-8  # 100x the CLI's default rel_tol
TRACE_HEADER = "t,theta,friedrichs,correction,total,exotic_ref,est_error,status"

# spectrum: eigenvalues up to LAMBDA_MAX, then oracle traces at seeded t
LAMBDA_MAX = 4000.0
SPECTRUM_T = (1e-2, 5e-2)
SPECTRUM_NT = 10
EIG_REL_DEV_TOL = 1e-8
ORACLE_REL_DEV_TOL = 1e-10

# specfun probe: arguments per function and evaluation path
_SERIES = (0.25, 1.5, 3.0, 5.0, 7.5, 10.0, 12.5, 15.0)
_HANKEL = (16.5, 20.0, 25.0, 32.0, 40.0, 50.0, 63.0, 80.0)
SPECFUN_ARGS = {
    fn: {"series": _SERIES, "hankel": _HANKEL}
    for fn in ("j0", "j1", "y0", "y1", "i0_scaled")
}
SPECFUN_ARGS["k0_scaled"] = {
    "series": (0.05, 0.2, 0.4, 0.6, 0.8, 1.0),
    "trapezoid": (1.5, 3.0, 5.0, 7.5, 10.0, 12.5, 15.0, 15.9),
    "hankel": _HANKEL,
}
SPECFUN_TOL = 1e-12  # |value - mpmath| <= tol * max(1, |mpmath|)


def grid_theta(k):
    return k * math.pi / N_THETA


_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _angles(rng):
    """Drawn grid indices, following the golden-ratio sequence from a
    random start.

    Each index is uniform on ``DRAWN_K``, and consecutive ones spread
    evenly over [0, pi), so a run of n calls meets any 1/16 of the range
    about n/16 times instead of a binomial count, and the mix of cheap and
    dear angles varies little between seeds.
    """
    u = rng.random()
    j = 0
    while True:
        yield DRAWN_K[int(len(DRAWN_K) * ((u + j * _PHI) % 1.0))]
        j += 1


def trace_stream(seed):
    """Endless seeded sequence of angle indices for ``trace_curve``."""
    return _angles(random.Random(f"trace_curve/{seed}"))


def spectrum_stream(seed):
    """Endless seeded sequence of (angle index, oracle times) for ``spectrum``."""
    rng = random.Random(f"spectrum/{seed}")
    lo, hi = SPECTRUM_T
    for k in _angles(rng):
        yield k, tuple(rng.uniform(lo, hi) for _ in range(SPECTRUM_NT))


def trace_argv(k, output, extra=()):
    """``rsheat trace`` arguments for grid angle k (default settings)."""
    return ["trace", "--theta", repr(grid_theta(k)), "--t-min", TRACE_T_MIN,
            "--t-max", TRACE_T_MAX, "--points", str(TRACE_POINTS),
            "--output", output, *extra]


def load_refs():
    with open(os.path.join(REFS, "trace_rows.json"), encoding="utf-8") as fh:
        trace = json.load(fh)
    with open(os.path.join(REFS, "spectra.json"), encoding="utf-8") as fh:
        spectra = json.load(fh)
    with open(os.path.join(REFS, "specfun.json"), encoding="utf-8") as fh:
        specfun = json.load(fh)
    with open(os.path.join(REFS, "verify_quick.json"), encoding="utf-8") as fh:
        verify = json.load(fh)
    if len(trace["total"]) != N_THETA or len(spectra["eigenvalues"]) != N_THETA:
        raise ValueError("references do not cover the angle grid")
    return {"trace": trace, "spectra": spectra, "specfun": specfun,
            "verify": verify}


def rel_dev(value, ref):
    """|value - ref| relative to |ref|, absolute below |ref| = 1."""
    return abs(value - ref) / max(abs(ref), 1.0)


class Outcome:
    """Tally of one run's checks.

    ``failed`` counts every operation that did not pass.  ``wrong`` counts
    failures the frozen references do not reproduce (a finite value off its
    reference, a missing eigenvalue, an unexpected exception); a run is
    correct when there are none.  Failures the references share, such as
    the overflow just above the Friedrichs angle, stay failures.
    """

    def __init__(self):
        self.attempted = 0
        self.passed = 0
        self.wrong = 0
        self.max_rel_dev = 0.0
        self.notes = []

    @property
    def failed(self):
        return self.attempted - self.passed

    def record(self, ok, wrong=False, note=None):
        self.attempted += 1
        self.passed += bool(ok)
        self.wrong += bool(wrong)
        if note and len(self.notes) < 20:
            self.notes.append(note)

    def deviation(self, d):
        self.max_rel_dev = max(self.max_rel_dev, d)


def check_trace_csv(text, exit_code, k, refs, out: Outcome):
    """Check one ``rsheat trace`` CSV (25 rows) against the frozen rows.

    A row fails when it is missing, non-finite, has a status other than
    ``ok``, deviates from its reference, or comes from a run that exited
    non-zero.
    """
    ref_t = refs["trace"]["t"]
    ref_total = refs["trace"]["total"][k]
    lines = text.splitlines()
    header_ok = bool(lines) and lines[0] == TRACE_HEADER
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:])))) if header_ok else []
    for i, t_text in enumerate(ref_t):
        ref = ref_total[i]
        row = rows[i] if i < len(rows) else None
        if row is None or len(row) != 8 or row[0] != t_text \
                or float(row[1]) != grid_theta(k):
            out.record(False, wrong=True, note=f"trace k={k} row {i}: missing or malformed")
            continue
        total = float(row[4])
        finite = math.isfinite(total)
        if finite and math.isfinite(ref):
            d = rel_dev(total, ref)
            out.deviation(d)
            close = d <= TRACE_REL_DEV_TOL
        else:
            # a non-finite value is right only where the reference is too
            close = (finite == math.isfinite(ref))
        ok = finite and close and row[7] == "ok" and exit_code == 0
        out.record(ok, wrong=not close,
                   note=None if ok else f"trace k={k} t={t_text}: total={row[4]} "
                   f"status={row[7]} exit={exit_code}")


def oracle_reference(t, evs):
    """Eigenvalue-sum trace of the reference spectrum; inf on overflow."""
    if any(-t * ev > 709.0 for ev in evs):
        return math.inf
    return math.fsum(math.exp(-t * ev) for ev in evs)


def check_spectrum(k, ts, result, refs, out: Outcome):
    """Check one spectrum op: eigenvalues then oracle traces at ``ts``.

    ``result`` is ``(eigenvalues, traces)`` or the exception raised.  The
    op fails on an exception, an eigenvalue count mismatch, any value off
    its reference, or a trace that is not finite.  An angle the program
    refused when the references were made is checked like any other once
    the call succeeds: the references keep the scipy spectrum there.
    """
    ref_evs = refs["spectra"]["eigenvalues"][k]
    ref_err = refs["spectra"]["program_error"][k]
    if isinstance(result, BaseException):
        known = type(result).__name__ == ref_err or (
            isinstance(result, OverflowError)
            and any(not math.isfinite(oracle_reference(t, ref_evs)) for t in ts))
        out.record(False, wrong=not known,
                   note=f"spectrum k={k}: {type(result).__name__}: {result}")
        return
    evs, traces = result
    if len(evs) != len(ref_evs):
        out.record(False, wrong=True,
                   note=f"spectrum k={k}: {len(evs)} eigenvalues, want {len(ref_evs)}")
        return
    close = True
    for ev, ref in zip(evs, ref_evs):
        d = rel_dev(ev, ref)
        out.deviation(d)
        close &= d <= EIG_REL_DEV_TOL
    # the traces are checked but kept out of the deviation figure: their
    # relative error is the eigenvalues' amplified by t*|lambda|, up to
    # ~1e4 next to the overflow angles
    finite = True
    for t, value in zip(ts, traces):
        ref = oracle_reference(t, ref_evs)
        finite &= math.isfinite(value)
        if math.isfinite(ref):
            close &= math.isfinite(value) and rel_dev(value, ref) <= ORACLE_REL_DEV_TOL
        else:
            # a non-finite trace is right only where the reference is too
            close &= not math.isfinite(value)
    ok = close and finite
    out.record(ok, wrong=not close,
               note=None if ok else f"spectrum k={k}: "
               f"{'off reference' if not close else 'trace not finite'}")


def digits(rel):
    """Decimal digits of agreement for a relative deviation, at most 16."""
    return -math.log10(max(rel, 1e-16))


def check_criterion(k, result, refs, out: Outcome):
    """Check acceptance criterion k of ``verify --quick``; one outcome per
    check line.

    ``result`` is the CriterionResult or the exception raised.  Returns
    (criterion passed, headroom digits of each "<=" line: how many decimal
    digits its measured value sits below its threshold).
    """
    want = refs["verify"]["checks_per_criterion"][k - 1]
    if isinstance(result, BaseException):
        for _ in range(want):
            out.record(False, wrong=True,
                       note=f"criterion {k}: {type(result).__name__}: {result}")
        return False, []
    headroom = []
    for c in result.checks:
        out.record(c.passed, wrong=not c.passed,
                   note=None if c.passed else f"criterion {k}: {c.render().strip()}")
        if c.comparator == "<=" and c.threshold > 0.0:
            headroom.append(digits(c.measured / c.threshold))
    if len(result.checks) != want:
        for _ in range(max(want - len(result.checks), 1)):
            out.record(False, wrong=True,
                       note=f"criterion {k}: {len(result.checks)} check lines, want {want}")
        return False, headroom
    return result.passed, headroom
