import heapq
import math

import numpy as np
import pytest

from rsheat import BoundaryParam, ConvergenceError, QuadResult, QuadSpec
from rsheat.quadrature import _GAUSS_IDX, _NODES, _WEIGHTS_G, _WEIGHTS_K


def _panel(f, a, b):
    """K15 value, G7-K15 error and heap key (the largest error) of a panel,
    from one call of ``f`` on its 15 nodes."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fx = np.asarray(f(c + h * _NODES))
    if fx.ndim == 1:
        k15 = h * float(np.sum(_WEIGHTS_K * fx))
        g7 = h * float(np.sum(_WEIGHTS_G * fx[_GAUSS_IDX]))
        e = abs(k15 - g7)
        return k15, e, e
    k15 = h * (_WEIGHTS_K @ fx)
    g7 = h * (_WEIGHTS_G @ fx[_GAUSS_IDX])
    e = np.abs(k15 - g7)
    return k15, e, float(e.max())


def _unmet(err, total, spec):
    if isinstance(err, float):
        return err > max(spec.abs_tol, spec.rel_tol * abs(total))
    return bool(np.any(err > np.maximum(spec.abs_tol, spec.rel_tol * np.abs(total))))


def integrate_by_panels(f, a, b, spec):
    """The adaptive G7/K15 engine evaluated a panel at a time: the reference
    for ``rsheat.integrate``, which evaluates both halves of a split in one
    call, on the same rule, heap order and stop rule."""
    v, e, key = _panel(f, a, b)
    heap = [(-key, 0, a, b, v, e)]
    total, err, evals, counter, splits = v, e, 15, 1, 0
    while _unmet(err, total, spec):
        if splits >= spec.max_subdivisions:
            raise ConvergenceError("budget exhausted", partial=QuadResult(total, err, evals))
        _, _, lo, hi, v_old, e_old = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1, key1 = _panel(f, lo, mid)
        v2, e2, key2 = _panel(f, mid, hi)
        evals += 30
        total = total + (v1 + v2 - v_old)
        err = err + (e1 + e2 - e_old)
        heapq.heappush(heap, (-key1, counter, lo, mid, v1, e1))
        heapq.heappush(heap, (-key2, counter + 1, mid, hi, v2, e2))
        counter += 2
        splits += 1
    return QuadResult(total, err, evals)


@pytest.fixture
def panel_integrate():
    return integrate_by_panels


@pytest.fixture
def tight_spec():
    return QuadSpec(rel_tol=1e-12, abs_tol=1e-14)


@pytest.fixture
def bp0():
    return BoundaryParam(0.0)


@pytest.fixture
def bp_quarter():
    return BoundaryParam(math.pi / 4)


@pytest.fixture
def bp_three_quarter():
    return BoundaryParam(3 * math.pi / 4)


@pytest.fixture
def bp_friedrichs():
    return BoundaryParam.friedrichs()
