"""The benchmark's own tests: seeded inputs, output checks, span arithmetic.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import itertools
import math
import types

import pytest

import inputs
import spans


def _take(stream, n):
    return list(itertools.islice(stream, n))


def test_inputs_reproducible_from_seed():
    assert _take(inputs.trace_stream(7), 12) == _take(inputs.trace_stream(7), 12)
    assert _take(inputs.spectrum_stream(7), 6) == _take(inputs.spectrum_stream(7), 6)
    assert _take(inputs.trace_stream(7), 12) != _take(inputs.trace_stream(8), 12)
    assert set(_take(inputs.trace_stream(3), 500)) == set(inputs.DRAWN_K)
    lo, hi = inputs.SPECTRUM_T
    for k, ts in _take(inputs.spectrum_stream(3), 20):
        assert k in inputs.DRAWN_K and len(ts) == inputs.SPECTRUM_NT
        assert all(lo <= t <= hi for t in ts)


@pytest.fixture(scope="module")
def refs():
    return inputs.load_refs()


def test_draw_skips_exactly_the_angles_where_the_references_fail(refs):
    lo, hi = inputs.SPECTRUM_T
    failing = {
        k for k in range(inputs.N_THETA)
        if not all(math.isfinite(v) for v in refs["trace"]["total"][k])
        or refs["spectra"]["program_error"][k] is not None
        or not math.isfinite(inputs.oracle_reference(hi, refs["spectra"]["eigenvalues"][k]))
    }
    assert failing == inputs.FAILING_K
    assert set(inputs.DRAWN_K) == set(range(inputs.N_THETA)) - failing


def _csv(refs, k, totals=None, status="ok"):
    totals = totals or refs["trace"]["total"][k]
    rows = [inputs.TRACE_HEADER]
    for t, total in zip(refs["trace"]["t"], totals):
        rows.append(f"{t},{inputs.grid_theta(k)!r},1,1,{total!r},0,0,{status}")
    return "\n".join(rows) + "\n"


def test_trace_checker_accepts_reference_rows(refs):
    out = inputs.Outcome()
    inputs.check_trace_csv(_csv(refs, 5), 0, 5, refs, out)
    assert (out.attempted, out.failed, out.wrong) == (inputs.TRACE_POINTS, 0, 0)


def test_trace_checker_rejects_corrupted_rows(refs):
    k = 5
    totals = list(refs["trace"]["total"][k])
    totals[3] *= 1.0 + 1e-6
    totals[7] = math.inf
    out = inputs.Outcome()
    inputs.check_trace_csv(_csv(refs, k, totals), 0, k, refs, out)
    assert (out.failed, out.wrong) == (2, 2)
    assert out.max_rel_dev > 1e-7

    out = inputs.Outcome()
    inputs.check_trace_csv(_csv(refs, k, status="convergence-failure"), 0, k, refs, out)
    assert out.failed == inputs.TRACE_POINTS

    out = inputs.Outcome()
    inputs.check_trace_csv(_csv(refs, k), 2, k, refs, out)
    assert out.failed == inputs.TRACE_POINTS

    out = inputs.Outcome()
    inputs.check_trace_csv("", 1, k, refs, out)
    assert (out.failed, out.wrong) == (inputs.TRACE_POINTS, inputs.TRACE_POINTS)


def test_overflow_rows_fail_but_match_reference(refs):
    ks = [k for k, row in enumerate(refs["trace"]["total"])
          if not all(math.isfinite(v) for v in row)]
    assert ks, "the grid covers the overflow just above the Friedrichs angle"
    out = inputs.Outcome()
    inputs.check_trace_csv(_csv(refs, ks[0]), 0, ks[0], refs, out)
    assert out.failed > 0 and out.wrong == 0


def test_spectrum_checker(refs):
    k = 10
    evs = refs["spectra"]["eigenvalues"][k]
    ts = (0.02, 0.03)
    traces = [inputs.oracle_reference(t, evs) for t in ts]
    out = inputs.Outcome()
    inputs.check_spectrum(k, ts, (evs, traces), refs, out)
    assert (out.passed, out.wrong) == (1, 0)
    inputs.check_spectrum(k, ts, (evs[:-1], traces), refs, out)
    inputs.check_spectrum(k, ts, RuntimeError("boom"), refs, out)
    assert (out.attempted, out.failed, out.wrong) == (3, 2, 2)


def test_spectrum_checker_accepts_refused_angle_once_fixed(refs):
    # the program refuses k = 33 today; a call that succeeds there is
    # checked against the scipy spectrum the references keep
    k = 33
    assert refs["spectra"]["program_error"][k] is not None
    evs = refs["spectra"]["eigenvalues"][k]
    out = inputs.Outcome()
    inputs.check_spectrum(k, (), (evs, []), refs, out)
    assert (out.passed, out.wrong) == (1, 0)
    # its oracle traces overflow like the reference's: failed, not wrong
    inputs.check_spectrum(k, (0.02,), (evs, [math.inf]), refs, out)
    assert (out.attempted, out.failed, out.wrong) == (2, 1, 0)
    inputs.check_spectrum(k, (), (evs[1:], []), refs, out)
    inputs.check_spectrum(k, (), ([evs[0] * 1.001] + evs[1:], []), refs, out)
    assert (out.attempted, out.failed, out.wrong) == (4, 3, 2)


def test_criterion_checker_counts_failed_lines(refs):
    from rsheat.verify import CriterionResult

    want = refs["verify"]["checks_per_criterion"][0]
    res = CriterionResult(1, "x")
    for j in range(want):
        res.add(f"c{j}", 1e-12, 1e-10)
    out = inputs.Outcome()
    assert inputs.check_criterion(1, res, refs, out) == (True, pytest.approx([2.0] * want))
    assert out.failed == 0

    res.checks[0] = type(res.checks[0])("c0", 1e-9, 1e-10, "<=")
    out = inputs.Outcome()
    passed, _ = inputs.check_criterion(1, res, refs, out)
    assert not passed and (out.failed, out.wrong) == (1, 1)

    res.checks.pop()
    out = inputs.Outcome()
    assert not inputs.check_criterion(1, res, refs, out)[0]
    assert out.wrong == 2  # the failed line and the missing one

    out = inputs.Outcome()
    assert inputs.check_criterion(1, RuntimeError("boom"), refs, out) == (False, [])
    assert out.failed == want


def _span(sid, start, end, parent=None):
    return spans.Span(sid, f"s{sid}", start, end, parent, None)


def test_self_time_arithmetic():
    tree = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, 0),
        _span(2, 2.0, 5.0, 0),   # overlaps span 1 (another thread)
        _span(3, 8.0, 12.0, 0),  # runs past its parent: clipped at 10
        _span(4, 1.5, 2.5, 1),   # grandchild: only span 1 loses it
    ]
    self_t = spans.self_times(tree)
    assert self_t[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert self_t[1] == pytest.approx(2.0 - 1.0)
    assert self_t[2] == pytest.approx(3.0)
    assert self_t[4] == pytest.approx(1.0)


def test_recorder_parents_and_ops():
    rec = spans.Recorder()
    with rec.operation(7, "op"):
        with rec.span("a"):
            with rec.span("b"):
                pass
    by_name = {s.name: s for s in rec.spans}
    assert by_name["b"].parent == by_name["a"].id
    assert by_name["a"].parent == by_name["op"].id
    assert {s.op for s in rec.spans} == {7}


def test_tracer_restores_every_attribute():
    def f(x):
        return x + 1

    mod = types.ModuleType("fake")
    mod.f = f
    mod.table = (f, abs)
    other = types.ModuleType("other")
    other.g = f
    tracer = spans.Tracer([mod, other])
    tracer.spanned(f, "fake.f")
    assert mod.f(1) == 2 and mod.table[0](2) == 3 and other.g(3) == 4
    assert tracer.rec.counts["fake.f"] == 3
    with pytest.raises(RuntimeError):
        spans.assert_pristine([mod, other])
    tracer.restore()
    assert mod.f is f and mod.table == (f, abs) and other.g is f
    spans.assert_pristine([mod, other])
