"""The benchmark's traced run spans rsheat functions by name; a refactor
that renames or bypasses one breaks ``bench/run.py --trace 1``.  This
checks, without running the benchmark, that every spanned or counted name
exists and that the calls the traced run makes reach each trace and ktheta
span."""

import importlib.util
import pathlib

import pytest

from rsheat import BoundaryParam, ktheta, oracle, specfun, trace

RUN_PY = pathlib.Path(__file__).resolve().parents[1] / "bench" / "run.py"


@pytest.fixture(scope="module")
def bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", RUN_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_spanned_names_exist(bench_run):
    for attr in bench_run.TRACE_SPANS:
        assert callable(getattr(trace, attr, None)), f"trace.{attr}"
    for attr in bench_run.KTHETA_SPANS:
        assert callable(getattr(ktheta, attr, None)), f"ktheta.{attr}"
    for attr in bench_run.ORACLE_SPANS:
        assert callable(getattr(oracle, attr, None)), f"oracle.{attr}"


def test_specfun_names_exist(bench_run):
    # the specfun probe and the oracle call counters look these up by name
    assert bench_run.inputs.SPECFUN_ARGS
    for fn in bench_run.inputs.SPECFUN_ARGS:
        assert callable(getattr(specfun, f"bessel_{fn}", None)), f"specfun.bessel_{fn}"


def test_one_call_each_reaches_every_trace_and_ktheta_span(bench_run):
    spans = bench_run.spans
    mods = bench_run.rsheat_modules()
    tracer = spans.Tracer(mods)
    bench_run.install(tracer)
    try:
        bp = BoundaryParam(0.3)
        # as the traced run's serial phase: full_trace over the trace grid
        for t in bench_run.inputs.load_refs()["trace"]["t"]:
            trace.full_trace(float(t), bp)
        ktheta.k_theta(0.5, bp)
        ktheta.laplace_of_k(2.0 * ktheta.pole_location(bp), bp)
    finally:
        tracer.restore()
    spans.assert_pristine(mods)
    names = list(bench_run.TRACE_SPANS.values())
    names += [f"ktheta.{attr}" for attr in bench_run.KTHETA_SPANS]
    missed = [name for name in names if tracer.rec.counts[name] == 0]
    assert not missed
