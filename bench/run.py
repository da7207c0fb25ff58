"""rsheat benchmark: trace curves, spectra and the acceptance run.

    python3 bench/run.py --workload trace_curve --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout (rsheat is imported from ``src``,
as the test suite does) and prints one JSON object as its last line of
standard output: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads (see BENCHMARK.json for why each is there):

* ``trace_curve``: ``rsheat trace`` in-process through ``rsheat.cli.main``
  with default settings on a 25-point log grid over [1e-4, 5e-2], one
  call per angle; an operation is one CSV row.
* ``spectrum``: ``oracle.eigenvalues`` up to lambda = 4000, then
  ``oracle_trace`` at 10 seeded times; an operation is one spectrum.
* ``certify``: the nine criteria of ``rsheat verify --quick`` in turn,
  each run through ``verify.run_acceptance(quick=True, only={k})`` as the
  command does; no seed.  An operation is one criterion.

Inputs come from a seeded stream (``inputs.py``).  A run takes calls
from the stream until ``--seconds`` have passed, and at least one pass (4
calls, or the nine criteria), so the same seed always gives the same
inputs in the same order.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes one
traced pass of every workload (the first pass of the seed's inputs) and
prints the per-layer metrics, because each layer metric is defined on the
workload that exercises that layer.  So one traced run covers all three
workloads; ``--workload`` then only names the spans file.
"""

from __future__ import annotations

import argparse
import gzip
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import inputs  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("trace_curve", "spectrum", "certify")
SETUP_REPEATS = 7


class BenchError(Exception):
    """The benchmark cannot run here (no rsheat source tree)."""


def import_rsheat():
    """Import rsheat from this checkout's ``src``, never from elsewhere."""
    init = os.path.join(SRC, "rsheat", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"no rsheat source tree at {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import rsheat
    from rsheat import cli, oracle, specfun, trace, verify  # noqa: F401
    if os.path.realpath(rsheat.__file__) != os.path.realpath(init):
        raise BenchError(f"imported rsheat from {rsheat.__file__}, not {init}")
    return rsheat


def rsheat_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "rsheat" or name.startswith("rsheat.")]


def warm_up():
    """One call on each layer a workload touches."""
    from rsheat import BoundaryParam, oracle, specfun, trace

    for fn, paths in inputs.SPECFUN_ARGS.items():
        for zs in paths.values():
            getattr(specfun, f"bessel_{fn}")(zs[0])
    trace.full_trace(1e-3, BoundaryParam(0.0))
    oracle.secular_positive(50.0, BoundaryParam(0.0))


def setup_child():
    """Print the import-plus-warm-up time, at reference machine speed."""
    def setup():
        import_rsheat()
        warm_up()

    print(repr(timed(setup)[2]))


def measure_setup():
    """Median import-plus-warm-up time over fresh interpreters, at
    reference machine speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-child"],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return ""
    finally:
        for p in (path, path + ".meta.json"):
            if os.path.exists(p):
                os.remove(p)


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

# Reference loop timed before and after every call.  Other tenants of a
# shared machine slow everything down for tens of seconds at a time
# (identical spectra took 0.9 to 1.8 s within four minutes); the loop
# slows down with the program, so each call's time is rescaled to the
# loop's undisturbed speed on the 2-core baseline machine.
CAL_ITERATIONS = 100_000
CAL_REF_S = 0.0125


def calibrate():
    t0 = time.perf_counter()
    s = 0.0
    for i in range(CAL_ITERATIONS):
        s += math.sqrt(i) * 1.0000001 + (i % 7)
    return time.perf_counter() - t0


def timed(fn):
    """Run ``fn``; return (its result, wall seconds, seconds at reference speed)."""
    c1 = calibrate()
    t0 = time.perf_counter()
    result = fn()
    dt = time.perf_counter() - t0
    c2 = calibrate()
    return result, dt, dt * 2.0 * CAL_REF_S / (c1 + c2)


# Each op returns (operations that passed, wall seconds, reference seconds).

def op_trace_curve(k, tmp, refs, out):
    from rsheat import cli

    path = os.path.join(tmp, "trace.csv")
    code, dt, ref_dt = timed(lambda: cli.main(inputs.trace_argv(k, path)))
    before = out.passed
    inputs.check_trace_csv(_read(path), code, k, refs, out)
    return out.passed - before, dt, ref_dt


def op_spectrum(item, refs, out):
    from rsheat import BoundaryParam, oracle

    k, ts = item

    def call():
        try:
            sp = oracle.eigenvalues(BoundaryParam(inputs.grid_theta(k)),
                                    lambda_max=inputs.LAMBDA_MAX)
            return sp.eigenvalues, [oracle.oracle_trace(t, sp).value for t in ts]
        except Exception as exc:  # every exception is a counted, reported failure
            return exc

    result, dt, ref_dt = timed(call)
    before = out.passed
    inputs.check_spectrum(k, ts, result, refs, out)
    return out.passed - before, dt, ref_dt


def op_criterion(k, refs, out, margins):
    """Acceptance criterion k of ``rsheat verify --quick``.

    ``run_acceptance(quick=True, only={k})`` is what the command runs for
    criterion k; one call per criterion gives each its own calibration.
    """
    from rsheat import verify

    def call():
        try:
            return verify.run_acceptance(quick=True, only={k})[0]
        except Exception as exc:  # every exception is a counted, reported failure
            return exc

    result, dt, ref_dt = timed(call)
    ok, headroom = inputs.check_criterion(k, result, refs, out)
    margins.extend(headroom)
    return int(ok), dt, ref_dt


def run_workload(workload, seed, seconds, refs, tmp, out):
    """Take calls from the seed's stream for ``seconds`` (at least one pass).

    A call is one ``rsheat trace`` invocation (25 rows), one spectrum, or
    one criterion.  Returns (throughput at reference speed, wall
    throughput, accuracy digits, calls made); a throughput is operations
    that passed their check per second.  For ``trace_curve`` and
    ``spectrum`` it is the median of the per-call throughputs.  For
    ``certify``, whose criteria differ in cost by two orders of magnitude,
    it is the passed share of the criterion calls times nine, over the sum
    of each criterion's median time: a pass of the nine criteria at its
    typical speed.  The run stops between criteria, after at least one pass.

    Accuracy is -log10 of the worst relative deviation from the frozen
    references: rounding-level maxima are heavy-tailed across angles, so
    the raw maximum swings by tens of percent between seeds while its
    digits do not.  ``certify`` has no frozen values; its figure is the
    median headroom of its check lines below their thresholds, in digits,
    over the first pass, because a run ends part-way through a pass.
    """
    margins = []
    if workload == "trace_curve":
        stream, min_ops = inputs.trace_stream(seed), inputs.PASS_OPS
        step = lambda item: op_trace_curve(item, tmp, refs, out)  # noqa: E731
    elif workload == "spectrum":
        stream, min_ops = inputs.spectrum_stream(seed), inputs.PASS_OPS
        step = lambda item: op_spectrum(item, refs, out)  # noqa: E731
    else:
        n_criteria = len(refs["verify"]["checks_per_criterion"])
        stream, min_ops = itertools.cycle(range(1, n_criteria + 1)), n_criteria
        step = lambda k: op_criterion(k, refs, out, margins)  # noqa: E731
    calls = []
    start = time.perf_counter()
    while len(calls) < min_ops or time.perf_counter() - start < seconds:
        item = next(stream)
        calls.append((item, *step(item)))
        if len(calls) == min_ops:
            first_pass_margins = margins[:]
    if workload == "certify":
        share = sum(c[1] for c in calls) / len(calls)
        rate, wall_rate = (
            n_criteria * share / sum(
                statistics.median(c[i] for c in calls if c[0] == k)
                for k in range(1, n_criteria + 1))
            for i in (3, 2))
        return rate, wall_rate, statistics.median(first_pass_margins), len(calls)
    return (statistics.median(c[1] / c[3] for c in calls),
            statistics.median(c[1] / c[2] for c in calls),
            inputs.digits(out.max_rel_dev), len(calls))


def end_to_end(workload, seed, seconds, refs, tmp):
    import_rsheat()
    spans.assert_pristine(rsheat_modules())
    setup_s = measure_setup()
    warm_up()
    out = inputs.Outcome()
    rate, wall_rate, accuracy, calls = run_workload(workload, seed, seconds, refs, tmp, out)
    spans.assert_pristine(rsheat_modules())
    print(f"bench: {calls} calls, wall throughput {wall_rate!r}/s, "
          f"worst relative deviation {out.max_rel_dev!r}", file=sys.stderr)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (rate, "1/s"),
        "passed_share": (out.passed / out.attempted, "ratio"),
        "accuracy_digits": (accuracy, "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return out, metrics


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------

TRACE_SPANS = {
    "full_trace": "trace.full",
    "_friedrichs_trace_res": "trace.friedrichs",
    "t1_y_outer": "trace.t1",
    "t2_part": "trace.t2",
    "residue_trace_part": "trace.residue",
    "exotic_term": "trace.exotic",
}
KTHETA_SPANS = ("k1_smooth", "laplace_of_k", "k_theta")
ORACLE_SPANS = ("eigenvalues", "oracle_trace")


def install(tracer):
    from rsheat import ktheta, oracle, quadrature, specfun, trace, verify

    for attr, name in TRACE_SPANS.items():
        tracer.spanned(getattr(trace, attr), name)
    for attr in KTHETA_SPANS:
        tracer.spanned(getattr(ktheta, attr), f"ktheta.{attr}")
    for attr in ORACLE_SPANS:
        tracer.spanned(getattr(oracle, attr), f"oracle.{attr}")
    for fn in verify._CRITERIA:
        tracer.spanned(fn, "verify." + "_".join(fn.__name__.split("_")[:2]))
    tracer.integrate(quadrature.integrate)
    tracer.counted(oracle.secular_positive, "oracle.secular_positive", modules=[oracle])
    for fn in inputs.SPECFUN_ARGS:
        tracer.counted(getattr(specfun, f"bessel_{fn}"), "specfun.oracle_calls",
                       modules=[oracle])


def _median(values, scale):
    if not values:
        raise BenchError("a traced layer was never called")
    return statistics.median(values) * scale


def _durations(rec, name):
    return [s.duration for s in rec.spans if s.name == name]


def specfun_probe(refs, out, repeats=20):
    """Median time per call of each Bessel function on each path, with
    every value checked against mpmath."""
    from rsheat import specfun

    metrics = {}
    for fn, paths in inputs.SPECFUN_ARGS.items():
        f = getattr(specfun, f"bessel_{fn}")
        for path, zs in paths.items():
            per_call = []
            for z, ref in zip(zs, refs["specfun"][fn][path]):
                t0 = time.perf_counter()
                for _ in range(repeats):
                    v = f(z)
                per_call.append((time.perf_counter() - t0) / repeats)
                ok = abs(v - ref) <= inputs.SPECFUN_TOL * max(1.0, abs(ref))
                out.record(ok, wrong=not ok,
                           note=None if ok else f"bessel_{fn}({z}) = {v!r}, want {ref!r}")
            metrics[f"specfun.{fn}.{path}_us"] = (statistics.median(per_call) * 1e6, "us")
    return metrics


def traced(seed, refs, tmp, workload):
    import_rsheat()
    from rsheat import BoundaryParam, ktheta
    from rsheat import trace as trace_mod

    warm_up()
    mods = rsheat_modules()
    out = inputs.Outcome()
    k_pass = [k for k, _ in zip(inputs.trace_stream(seed), range(inputs.PASS_OPS))]
    spectra = [x for x, _ in zip(inputs.spectrum_stream(seed), range(inputs.PASS_OPS))]
    n_criteria = len(refs["verify"]["checks_per_criterion"])
    calls = ([("trace_curve", k) for k in k_pass] + [("spectrum", x) for x in spectra]
             + [("certify", None)])

    def one_pass(rec, out):
        """Every call once; returns seconds at reference speed per workload."""
        secs = dict.fromkeys(WORKLOADS, 0.0)
        for op_id, (w, item) in enumerate(calls):
            with rec.operation(op_id, f"op.{w}"):
                if w == "trace_curve":
                    ref_dt = op_trace_curve(item, tmp, refs, out)[2]
                elif w == "spectrum":
                    ref_dt = op_spectrum(item, refs, out)[2]
                else:
                    ref_dt = sum(op_criterion(k, refs, out, [])[2]
                                 for k in range(1, n_criteria + 1))
            secs[w] += ref_dt
        return secs

    spans.assert_pristine(mods)
    untraced = one_pass(spans.Recorder(), inputs.Outcome())
    tracer = spans.Tracer(mods)
    install(tracer)
    try:
        main = tracer.rec
        traced_secs = one_pass(main, out)

        # the same trace rows again, serially, for per-part medians and the
        # CLI's cost over a plain loop
        serial = tracer.rec = spans.Recorder()
        ts = [float(t) for t in refs["trace"]["t"]]
        serial_secs = 0.0
        for op_id, k in enumerate(k_pass):
            bp = BoundaryParam(inputs.grid_theta(k))
            with serial.operation(op_id, "op.rows"):
                serial_secs += timed(lambda: [trace_mod.full_trace(t, bp) for t in ts])[2]

        # k_theta is not on any workload's path: time it on the pass's angles
        probe = tracer.rec = spans.Recorder()
        for k in k_pass:
            if k * 2 != inputs.N_THETA:  # no kernel at the Friedrichs angle
                for t in ts[::6]:
                    ktheta.k_theta(t, BoundaryParam(inputs.grid_theta(k)))
    finally:
        tracer.restore()
    spans.assert_pristine(mods)

    write_spans(workload, seed, {"main": main, "serial": serial, "probe": probe})
    n_ops = len(k_pass) * inputs.TRACE_POINTS + len(spectra) + n_criteria
    ratios = {
        "cli.trace_wall_over_serial": traced_secs["trace_curve"] / serial_secs,
        "bench.trace_overhead": sum(traced_secs.values()) / sum(untraced.values()),
    }
    return out, layer_metrics(main, serial, probe, n_ops, ratios) | specfun_probe(refs, out)


def layer_metrics(main, serial, probe, n_ops, ratios):
    self_t = spans.self_times(main.spans)
    c = main.counts
    n_spectra = c["oracle.eigenvalues"]
    m = {
        "specfun.calls_per_spectrum": (c["specfun.oracle_calls"] / n_spectra, "count"),
        "quadrature.integrate_calls_per_op": (c["quadrature.integrate"] / n_ops, "count"),
        "quadrature.evals_per_op": (c["quadrature.evals"] / n_ops, "count"),
        "quadrature.self_ms_per_op": (
            sum(self_t[s.id] for s in main.spans if s.name == "quadrature.integrate")
            / n_ops * 1e3, "ms"),
        "ktheta.k1_smooth_calls_per_op": (c["ktheta.k1_smooth"] / n_ops, "count"),
        "ktheta.k1_smooth_us": (_median(_durations(main, "ktheta.k1_smooth"), 1e6), "us"),
        "ktheta.laplace_of_k_ms": (_median(_durations(main, "ktheta.laplace_of_k"), 1e3), "ms"),
        "ktheta.k_theta_ms": (_median(_durations(probe, "ktheta.k_theta"), 1e3), "ms"),
    }
    for name in TRACE_SPANS.values():
        m[f"{name}_ms"] = (_median(_durations(serial, name), 1e3), "ms")
    m |= {
        "oracle.eigenvalues_ms": (_median(_durations(main, "oracle.eigenvalues"), 1e3), "ms"),
        "oracle.secular_evals_per_spectrum": (c["oracle.secular_positive"] / n_spectra, "count"),
        "oracle.oracle_trace_us": (_median(_durations(main, "oracle.oracle_trace"), 1e6), "us"),
        "cli.trace_wall_over_serial": (ratios["cli.trace_wall_over_serial"], "ratio"),
    }
    for k in range(1, 10):
        m[f"verify.criterion_{k}_s"] = (sum(_durations(main, f"verify.criterion_{k}")), "s")
    m["bench.trace_overhead"] = (ratios["bench.trace_overhead"], "ratio")
    return m


def write_spans(workload, seed, recorders):
    """Spans are kept in memory during the run and written out here."""
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-{seed}.csv.gz")
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("phase,id,name,start,end,parent,op\n")
        for phase, rec in recorders.items():
            for s in rec.spans:
                fh.write(f"{phase},{s.id},{s.name},{s.start!r},{s.end!r},"
                         f"{'' if s.parent is None else s.parent},"
                         f"{'' if s.op is None else s.op}\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description="rsheat benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.setup_child:
            setup_child()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        refs = inputs.load_refs()
        with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
            if args.trace:
                out, metrics = traced(args.seed, refs, tmp, args.workload)
            else:
                out, metrics = end_to_end(args.workload, args.seed, args.seconds, refs, tmp)
    except (BenchError, OSError, ImportError, ValueError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    for note in out.notes:
        print(f"bench: {note}", file=sys.stderr)
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            print(f"bench: metric {name} is not finite: {value}", file=sys.stderr)
            return 2
    print(json.dumps({
        "correct": out.wrong == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
