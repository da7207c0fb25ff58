"""Acceptance suite: one test per criterion, one printed line per check.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report; `rsheat verify` prints the same lines from the command line.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from rsheat import verify

VERIFY_REFS = (pathlib.Path(__file__).resolve().parents[1]
               / "bench" / "refs" / "verify_quick.json")


CRITERIA = [
    verify.criterion_1_tn_closed_form,
    verify.criterion_2_laplace_pair,
    verify.criterion_3_laplace_identity,
    verify.criterion_4_t1_expansion,
    verify.criterion_5_exotic_structure,
    verify.criterion_6_oracle_equivalence,
    verify.criterion_7_green_identity,
    verify.criterion_8_spectrum,
    verify.criterion_9_specfun,
]


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda f: f.__name__)
def test_acceptance_criterion(criterion):
    result = criterion()
    print()
    print(result.render())
    failed = [c.label for c in result.checks if not c.passed]
    assert result.passed, f"failed checks: {failed}"


def test_run_acceptance_quick_smoke():
    results = verify.run_acceptance(quick=True, only={1, 7})
    assert [r.index for r in results] == [1, 7]
    assert all(r.passed for r in results)


def test_quick_run_prints_the_benchmark_line_counts():
    # the certify benchmark counts a missing or extra check line of a
    # criterion as a failed operation
    want = json.loads(VERIFY_REFS.read_text(encoding="utf-8"))["checks_per_criterion"]
    results = verify.run_acceptance(quick=True)
    assert [r.index for r in results] == list(range(1, len(want) + 1))
    assert [len(r.checks) for r in results] == want
    assert all(r.passed for r in results)


def _criterion_9_four_calls_per_point():
    """Criterion 9's nine measured values as four public J/Y calls per
    Wronskian point and every dual-path pair as (series, Hankel) lambdas,
    the Hankel value evaluated twice."""
    from rsheat.specfun import (_i_asym_scaled, _ik_series, _jy_asym, _jy_series,
                                _k_asym_scaled, _k_integral_scaled, bessel_i0_scaled,
                                bessel_i1_scaled, bessel_j0, bessel_j1, bessel_k0_scaled,
                                bessel_k1_scaled, bessel_y0, bessel_y1)
    worst_ik = worst_jy = 0.0
    for z in verify._WRONSKIAN_POINTS:
        w1 = z * (bessel_i0_scaled(z) * bessel_k1_scaled(z)
                  + bessel_i1_scaled(z) * bessel_k0_scaled(z))
        worst_ik = max(worst_ik, abs(w1 - 1.0))
        w2 = 0.5 * math.pi * z * (bessel_j1(z) * bessel_y0(z)
                                  - bessel_j0(z) * bessel_y1(z))
        worst_jy = max(worst_jy, abs(w2 - 1.0))
    values = [worst_ik, worst_jy]
    overlap = np.linspace(14.0, 18.0, 17)
    pairs = [
        (lambda z: _jy_series(0, z, regular=False)[0], lambda z: _jy_asym(0, z)[0]),
        (lambda z: _jy_series(0, z)[1], lambda z: _jy_asym(0, z)[1]),
        (lambda z: _jy_series(1, z, regular=False)[0], lambda z: _jy_asym(1, z)[0]),
        (lambda z: _jy_series(1, z)[1], lambda z: _jy_asym(1, z)[1]),
        (lambda z: _ik_series(0, z, regular=False)[0] * math.exp(-z),
         lambda z: _i_asym_scaled(0.0, z)),
        (lambda z: _k_integral_scaled(z, 0), lambda z: _k_asym_scaled(0.0, z)),
    ]
    for f_small, f_large in pairs:
        values.append(max(abs(f_small(float(z)) - f_large(float(z))) /
                          max(1.0, abs(f_large(float(z)))) for z in overlap))
    values.append(max(abs(_ik_series(0, float(z))[1] - _k_integral_scaled(float(z), 0)
                          * math.exp(-float(z))) for z in np.linspace(0.4, 1.0, 13)))
    return values


def test_criterion_9_values_equal_the_four_call_formulation():
    # one path call per order and point measures what the public functions
    # return: the Wronskian line still certifies bessel_j0/j1/y0/y1
    measured = [c.measured for c in verify.criterion_9_specfun().checks]
    assert [v.hex() for v in measured] == [
        v.hex() for v in _criterion_9_four_calls_per_point()]


def test_criterion_9_points_give_each_path_its_share():
    # 100 distinct Wronskian points on [0.02, 60], none on a dual-path grid,
    # and each path's count within 2 of its band's share of log 3000
    zs = verify._WRONSKIAN_POINTS
    assert len(set(zs)) == 100 and all(0.02 <= z <= 60.0 for z in zs)
    dual = {float(z) for z in np.concatenate([np.linspace(14.0, 18.0, 17),
                                              np.linspace(0.4, 1.0, 13)])}
    assert not dual & set(zs)
    edges = (0.0, 1.0, 2.0, 16.0, 60.0)  # I/K and J/Y series, Taylor rows, Hankel
    for lo, hi in zip(edges, edges[1:]):
        share = 100.0 * math.log(hi / max(lo, 0.02)) / math.log(3000.0)
        count = sum(lo < z <= hi for z in zs)
        assert abs(count - share) <= 2.0, (lo, hi, count, share)


def test_criterion_9_evaluation_budget(monkeypatch):
    # J/Y path evaluations per criterion_9_specfun(), counted on both the
    # specfun and the verify names.  Four public calls per Wronskian point
    # and the Hankel value evaluated twice per dual-path pair made 604
    # (372 series, 232 Hankel) and fail this test; one call per path, order
    # and point made 302, and one Taylor-table call for both orders at a
    # Wronskian point in (2, 16] makes fewer.  The I/K series runs once per
    # order at a Wronskian point up to 16: at z <= 1 the four public calls
    # ran it four times, twice for each order, and fail this test.  A
    # dual-path point on [14, 18] likewise takes one J/Y evaluation per path
    # and order: four public calls reran the Taylor pass 4x at z <= 16 and
    # each Hankel pass 2x above, and fail this test.
    from rsheat import specfun
    verify.criterion_9_specfun()  # builds the Taylor rows, outside the count
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((args[0] if name == "_jy_taylor" else args[1], name))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_jy_series", "_jy_asym", "_jy_taylor", "_ik_series"):
        wrapped = counted(name, getattr(specfun, name))
        monkeypatch.setattr(specfun, name, wrapped)
        monkeypatch.setattr(verify, name, wrapped)
    verify.criterion_9_specfun()
    # the dual-path lines' points, not Wronskian points
    others = {float(z) for z in np.concatenate([np.linspace(14.0, 18.0, 17),
                                                np.linspace(0.4, 1.0, 13)])}
    per_point, overlap = {}, {}
    for z, name in calls:
        if z not in others:
            per_point.setdefault(z, []).append(name)
        elif 14.0 <= z and name != "_ik_series":
            overlap.setdefault(z, []).append(name)
    assert len(overlap) == 17
    for z, names in overlap.items():
        other = "_jy_taylor" if z <= 16.0 else "_jy_series"
        assert sorted(names) == sorted(["_jy_asym"] * 2 + [other] * (1 if z <= 16.0 else 2)), z
    assert len(per_point) == 100  # the Wronskian points
    for z, names in per_point.items():
        jy = [name for name in names if name != "_ik_series"]
        if 2.0 < z <= 16.0:
            assert jy == ["_jy_taylor"], z
        else:
            assert len(jy) <= 2 and "_jy_taylor" not in jy, z
        assert names.count("_ik_series") == (2 if z <= 16.0 else 0), z
    assert sum(name != "_ik_series" for _, name in calls) <= 332
