"""Acceptance suite: one test per criterion, one printed line per check.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report; `rsheat verify` prints the same lines from the command line.
"""

import json
import pathlib

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
