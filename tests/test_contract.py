"""The input contract of the public API.

Every real argument of every public function in ``rsheat.__all__`` goes
through one check: a non-number, a bool, NaN, +-inf or a value outside
the argument's range is a DomainError, and a numpy scalar gives the same
bits as the equal float.  The batched entry points also refuse a list and
an empty array.  Every integer argument goes through the integer form
of that check: a float, even 3.0, or a bool is a DomainError, and a numpy
integer gives the same result as the equal int.  (``pole_location`` and
``exotic_limit`` take no number.)  The functions of t that need t >= 1e-305
name that bound, and so do K, Y and ``secular_negative`` at the one double
below 1e-323 and ``q_diag`` where x^2/t underflows.
"""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

import rsheat
from rsheat import BoundaryParam, DomainError, QuadSpec
from rsheat import specfun as sf

BP = BoundaryParam(0.0)  # pole at zeta0 = 1.26
ONES = np.ones_like
SPECTRUM = rsheat.eigenvalues(BP, lambda_max=300.0)
GRID = [1e-3 * 2.0 ** k for k in range(6)]
SAMPLES = [(2.0, 4.0), (3.0, 9.0), (4.0, 16.0), (5.0, 25.0)]

# (function, argument, call with x in that argument, valid x, out-of-range x)
CASES = [
    ("BoundaryParam", "theta", lambda x: BoundaryParam(x), 1, math.pi),
    ("QuadSpec", "rel_tol", lambda x: QuadSpec(rel_tol=x), 1, 0.0),
    ("QuadSpec", "abs_tol", lambda x: QuadSpec(abs_tol=x), 1, -1.0),
    ("integrate", "a", lambda x: rsheat.integrate(np.square, x, 2.0), 1, 2.0),
    ("integrate", "b", lambda x: rsheat.integrate(np.square, 0.0, x), 1, 0.0),
    ("friedrichs_kernel", "x", lambda x: rsheat.friedrichs_kernel(x, 1.0, 0.5), 1, -1.0),
    ("friedrichs_kernel", "x2", lambda x: rsheat.friedrichs_kernel(1.0, x, 0.5), 1, -1.0),
    ("friedrichs_kernel", "t", lambda x: rsheat.friedrichs_kernel(1.0, 1.0, x), 1, 0.0),
    ("nprime", "x", lambda x: rsheat.nprime(x, 0.5), 1, -1.0),
    ("nprime", "t", lambda x: rsheat.nprime(1.0, x), 1, 0.0),
    ("q_diag", "x", lambda x: rsheat.q_diag(x, 0.5), 1, -1.0),
    ("q_diag", "t", lambda x: rsheat.q_diag(1.0, x), 1, 0.0),
    ("signaling", "x", lambda x: rsheat.signaling(ONES, x, 0.5), 1, 0.0),
    ("signaling", "t", lambda x: rsheat.signaling(ONES, 1.0, x), 1, 0.0),
    ("extract_coeffs", "x_lo", lambda x: rsheat.extract_coeffs(np.sqrt, (x, 1e-2)), 1e-4,
     0.0),
    ("extract_coeffs", "x_hi", lambda x: rsheat.extract_coeffs(np.sqrt, (1e-4, x)), 1e-2,
     0.2),
    ("k1_smooth", "t", lambda x: rsheat.k1_smooth(x, BP), 1, -1.0),
    ("k_theta", "t", lambda x: rsheat.k_theta(x, BP), 1, 0.0),
    ("laplace_of_k", "zeta", lambda x: rsheat.laplace_of_k(x, BP), 10, 1.0),
    ("m_main", "t", lambda x: rsheat.m_main(x, BP), 1, 0.0),
    ("residue_term", "t", lambda x: rsheat.residue_term(x, BP), 1, -1.0),
    ("exotic_term", "t", lambda x: rsheat.exotic_term(x, BP), 1, 0.0),
    ("friedrichs_trace", "t", lambda x: rsheat.friedrichs_trace(x), 1, 0.0),
    ("full_trace", "t", lambda x: rsheat.full_trace(x, BP), 1, 0.0),
    ("t1_reference", "t", lambda x: rsheat.t1_reference(x, BP), 1, 0.0),
    ("tn_trace", "t", lambda x: rsheat.tn_trace(x), 1, 0.0),
    ("trace_curve", "t", lambda x: rsheat.trace_curve(BP, [0.01, x]), 1, 0.0),
    ("eigenvalues", "lambda_max", lambda x: rsheat.eigenvalues(BP, lambda_max=x), 300, 50.0),
    ("oracle_trace", "t", lambda x: rsheat.oracle_trace(x, SPECTRUM), 1, 0.0),
    ("secular_negative", "mu", lambda x: rsheat.secular_negative(x, BP), 1, 0.0),
    ("secular_positive", "lambda", lambda x: rsheat.secular_positive(x, BP), 1, 0.0),
    ("exoticness_report", "t", lambda x: rsheat.exoticness_report(BP, [x, *GRID]), 1e-4,
     1.0),
    ("poly_fit", "t", lambda x: rsheat.poly_fit([(x, 1.0), *SAMPLES], 1), 1, 0.0),
    ("poly_fit", "value", lambda x: rsheat.poly_fit([(1.0, x), *SAMPLES], 1), 1, None),
]
IDS = [f"{fn}-{arg}" for fn, arg, *_ in CASES]

# (function, integer argument, call with n in it, valid n, out-of-range n)
INT_CASES = [
    ("QuadSpec", "max_subdivisions", lambda n: QuadSpec(max_subdivisions=n), 7, 0),
    ("j0_zeros", "n", lambda n: rsheat.j0_zeros(n), 3, None),
    ("poly_fit", "degree", lambda n: rsheat.poly_fit(SAMPLES, n), 1, -1),
    ("extract_coeffs", "n_points", lambda n: rsheat.extract_coeffs(np.sqrt, n_points=n), 20,
     19),
]
INT_IDS = [f"{fn}-{arg}" for fn, arg, *_ in INT_CASES]

# the batched entry points, with a valid one-entry array
BATCHED = [
    ("k1_smooth", lambda x: rsheat.k1_smooth(x, BP)),
    ("q_diag", lambda x: rsheat.q_diag(x, 0.5)),
    ("exotic_term", lambda x: rsheat.exotic_term(x, BP)),
]


def _bits(obj):
    """Every float of a result, exactly, with its type."""
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,
                *(_bits(getattr(obj, f.name)) for f in dataclasses.fields(obj)))
    if isinstance(obj, (list, tuple)):
        return tuple(_bits(o) for o in obj)
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape, tuple(_bits(v) for v in obj.tolist()))
    if isinstance(obj, float):
        return (type(obj).__name__, obj.hex())
    return repr(obj)


def test_every_public_function_with_a_real_argument_is_covered():
    covered = {fn for fn, *_ in CASES + INT_CASES}
    takes_no_number = {"pole_location", "exotic_limit"}
    functions = {name for name in rsheat.__all__
                 if callable(getattr(rsheat, name)) and name[0].islower()}
    assert functions - takes_no_number == covered - {"BoundaryParam", "QuadSpec"}


@pytest.mark.parametrize("fn, arg, call, valid, outside", CASES, ids=IDS)
def test_invalid_inputs_are_domain_errors(fn, arg, call, valid, outside):
    bad = [math.nan, math.inf, -math.inf, True, "0.1", 1j, None]
    for x in bad + ([] if outside is None else [outside]):
        with pytest.raises(DomainError, match=f"^{fn}: need "):
            call(x)


@pytest.mark.parametrize("fn, arg, call, valid, outside", CASES, ids=IDS)
def test_numpy_scalars_give_the_float_bits(fn, arg, call, valid, outside):
    want = _bits(call(float(valid)))
    assert _bits(call(np.float64(valid))) == want
    if valid == int(valid):
        assert _bits(call(int(valid))) == want
        assert _bits(call(np.int64(valid))) == want


@pytest.mark.parametrize("fn, arg, call, valid, outside", INT_CASES, ids=INT_IDS)
def test_integer_arguments_take_only_integers(fn, arg, call, valid, outside):
    bad = [valid + 0.5, float(valid), np.float64(valid), True, np.bool_(True), math.nan,
           "3", 1j, None]
    for n in bad + ([] if outside is None else [outside]):
        with pytest.raises(DomainError, match=f"^{fn}: need integer {arg}"):
            call(n)


@pytest.mark.parametrize("fn, arg, call, valid, outside", INT_CASES, ids=INT_IDS)
def test_numpy_integers_give_the_int_result(fn, arg, call, valid, outside):
    want = _bits(call(valid))
    assert _bits(call(np.int64(valid))) == want
    assert _bits(call(np.int32(valid))) == want


@pytest.mark.parametrize("fn, call", BATCHED, ids=[fn for fn, _ in BATCHED])
def test_batched_entry_points_take_only_a_nonempty_1d_real_array(fn, call):
    assert call(np.array([0.5])).shape == (1,)
    for bad in ([0.5], (0.5,), np.array([]), np.array([[0.5]]), np.array(0.5),
                np.array([True]), np.array(["0.5"]), np.array([0.5j]),
                np.array([0.5, math.nan]), np.array([math.inf])):
        with pytest.raises(DomainError, match=f"^{fn}: need "):
            call(bad)


# the functions of t that take m_main's 2/t or the Friedrichs closed form
# in 0.5/t, and exotic_term, which shares m_main's rule
SMALLEST_T = [(fn, call) for fn, arg, call, *_ in CASES if arg == "t" and fn in {
    "k_theta", "m_main", "exotic_term", "friedrichs_trace",
    "full_trace", "t1_reference", "trace_curve"}]


@pytest.mark.parametrize("fn, call", SMALLEST_T, ids=[fn for fn, _ in SMALLEST_T])
def test_times_below_the_smallest_are_refused_by_name(fn, call):
    batched = dict(BATCHED).get(fn)
    for t in (5e-324, 1e-320, 4e-306, math.nextafter(1e-305, 0.0)):
        with pytest.raises(DomainError, match=f"^{fn}: need finite t >= 1e-305, got "):
            call(t)
        if batched:
            with pytest.raises(DomainError, match=f"^{fn}: need finite t >= 1e-305, got "):
                batched(np.array([0.5, t]))
    call(1e-305)  # the smallest t, with no warning


def test_poly_fit_nan_is_refused_before_lapack(capfd):
    with pytest.raises(DomainError, match="^poly_fit: need finite t > 0, got nan$"):
        rsheat.poly_fit([(math.nan, 1.0), *SAMPLES], 1)
    assert capfd.readouterr().err == ""


# log(0.5 z) in the K and Y series: 0.5 z rounds to 0 only at the smallest double
SMALLEST_Z = [(fn.__name__, "z", fn) for fn in (sf.bessel_k0, sf.bessel_k0_scaled,
                                                sf.bessel_k1_scaled, sf.bessel_y0,
                                                sf.bessel_y1)]
SMALLEST_Z.append(("secular_negative", "mu", lambda z: rsheat.secular_negative(z, BP)))


@pytest.mark.parametrize("fn, arg, call", SMALLEST_Z, ids=[fn for fn, *_ in SMALLEST_Z])
def test_the_smallest_double_is_refused_by_name(fn, arg, call):
    with pytest.raises(DomainError, match=f"^{fn}: need finite {arg} >= 1e-323, got 5e-324$"):
        call(5e-324)
    assert not math.isnan(call(1e-323))  # K1 ~ 1/z overflows to inf below 5.6e-309


def test_residue_term_where_the_pole_overflows():
    # kappa < -354: zeta0 = e^{-2 kappa} is inf, and 0 * inf must not reach exp
    bp = BoundaryParam(math.pi - math.atan(355.0))
    assert rsheat.pole_location(bp) == math.inf
    for t in (0.0, 1e-300, 1.0):
        assert rsheat.residue_term(t, bp) == math.inf


def _mp_friedrichs_kernel(x, x2, t):
    x, x2, t = mp.mpf(x), mp.mpf(x2), mp.mpf(t)
    return (mp.sqrt(x * x2) / (2 * t) * mp.besseli(0, x * x2 / (2 * t))
            * mp.exp(-(x * x + x2 * x2) / (4 * t)))


def _mp_nprime(x, t):
    x, t = mp.mpf(x), mp.mpf(t)
    return mp.sqrt(x) / (2 * t) * mp.exp(-x * x / (4 * t))


@pytest.mark.parametrize("fn, args, ref", [
    # x x2 underflows, or is subnormal
    ("friedrichs_kernel", (1e-200, 1e-200, 1e-300), _mp_friedrichs_kernel),
    ("friedrichs_kernel", (1e-160, 1e-160, 1e-300), _mp_friedrichs_kernel),
    ("friedrichs_kernel", (5e-324, 5e-324, 5e-324), _mp_friedrichs_kernel),
    # x x2/2t overflows: i0_scaled's 1/sqrt(2 pi z) form
    ("friedrichs_kernel", (1e200, 1e200, 1e-300), _mp_friedrichs_kernel),
    ("friedrichs_kernel", (1e308, 1e308, 1e308), _mp_friedrichs_kernel),
    # 2t or (x - x2)^2 overflows
    ("friedrichs_kernel", (1e154, 1e154, 1e308), _mp_friedrichs_kernel),
    ("friedrichs_kernel", (1e155, 1e-10, 1e308), _mp_friedrichs_kernel),
    ("nprime", (1e154, 1e308), _mp_nprime),
    ("nprime", (1e155, 1e308), _mp_nprime),
    # sqrt(x)/2t overflows where e^{-x^2/4t} underflows
    ("nprime", (3e-150, 1e-300), _mp_nprime),
    ("nprime", (2e-151, 1e-303), _mp_nprime),
    ("nprime", (5e-324, 5e-324), _mp_nprime),
])
def test_friedrichs_kernel_and_nprime_at_extreme_arguments(fn, args, ref):
    with mp.workdps(30):
        want = ref(*args)
        got = getattr(rsheat, fn)(*args)
        assert abs(got - want) <= 1e-15 * want, (got, want)


def test_friedrichs_kernel_and_nprime_underflow_to_zero():
    # the kernel itself is below the doubles: 0.0, never nan
    assert rsheat.nprime(1e200, 1e-300) == 0.0
    assert rsheat.nprime(1e308, 1e308) == 0.0
    assert rsheat.friedrichs_kernel(1e150, 1.000001e150, 1e-10) == 0.0
    assert rsheat.friedrichs_kernel(1e-300, 1e300, 1e300) == 0.0


def test_q_diag_at_extreme_arguments():
    # e^{-b}, b = x^2/t, underflows: Q is 0.0, also where b or x/2t overflows
    assert rsheat.q_diag(1e300, 0.5) == 0.0
    assert rsheat.q_diag(0.5, 1e-310) == 0.0
    assert rsheat.q_diag(1e-10, 1e-320) == 0.0  # x/t overflows, b = 1e300
    batch = rsheat.q_diag(np.array([0.3, 1e300, 40.0]), 0.05)
    assert _bits(batch) == _bits(np.array([rsheat.q_diag(0.3, 0.05), 0.0, 0.0]))
    # b below 1e-300: the cut of the v-integral overflows
    for x in (1e-300, 1e-160, math.sqrt(0.5e-300) * 0.99):
        with pytest.raises(DomainError, match="^q_diag: need finite x\\^2/t >= 1e-300, got "):
            rsheat.q_diag(x, 0.5)
    assert rsheat.q_diag(1e-150, 0.5) > 0.0
