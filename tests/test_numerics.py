import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from terraspec.asymptotics import Limit
from terraspec.numerics import classify_limit_trend, compensated_cumsum, exact_prefix_sums, log_cumprod


def test_overflowed_trend_is_infinite():
    # samples of 2**n at dyadic n overflow to inf; they used to read as "tends to 0"
    assert classify_limit_trend([2.0**16, 2.0**256, math.inf, math.inf]) is Limit.INFINITE
    assert classify_limit_trend([1.0, 0.5, 0.25, math.inf]) is Limit.INFINITE


def _kahan_cumsum(values):
    """Running sums with Kahan compensation: the loop the prefix form replaced."""
    out = np.empty(len(values))
    total = comp = 0.0
    for i, v in enumerate(values):
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
        out[i] = total
    return out


@given(st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=1, max_size=100))
def test_compensated_cumsum_within_one_ulp(xs):
    exact = exact_prefix_sums(xs)
    assert np.all(np.abs(compensated_cumsum(xs) - exact) <= np.spacing(exact))


@given(st.lists(st.floats(min_value=1e-6, max_value=1e6) | st.just(0.0), min_size=1, max_size=64))
def test_compensated_cumsum_never_worse_than_kahan(xs):
    # Inside a 2**40 range every TwoSum error is a multiple of 2**-72 below
    # 2**-21, so their running sum is exact and each prefix is correctly
    # rounded.  Across wider ranges neither method dominates pointwise: a
    # term lost by both can decide a rounding tie either way, e.g. at
    # [1.0, 8.507961022179657e+298, 6.696928794914172e+299, 0.0].
    exact = exact_prefix_sums(xs)
    comp = compensated_cumsum(xs)
    assert np.array_equal(comp, exact)
    assert np.all(np.abs(comp - exact) <= np.abs(_kahan_cumsum(xs) - exact))


@given(st.integers(0, 5).flatmap(
    lambda cols: st.lists(st.lists(st.floats(-1e300, 1e300), min_size=cols, max_size=cols), max_size=5)
    .map(lambda rows: np.array(rows, dtype=float).reshape(len(rows), cols))
))
def test_compensated_cumsum_works_row_by_row(xs):
    got = compensated_cumsum(xs)
    assert got.shape == xs.shape
    for row, want in zip(got, xs):
        assert np.array_equal(compensated_cumsum(want), row, equal_nan=True)


def test_compensated_cumsum_recovers_lost_terms():
    xs = [1.0] + [1e-16] * 1000
    assert compensated_cumsum(xs)[-1] == exact_prefix_sums(xs)[-1] != np.cumsum(xs)[-1]


def _signed_log_cumprod(factors):
    """The real-factor helper log_cumprod replaced: (signs in {-1, 0, 1}, log magnitudes)."""
    f = np.asarray(factors, dtype=float)
    signs = np.cumprod(np.sign(f)).astype(int)
    with np.errstate(divide="ignore"):
        logmags = np.cumsum(np.log(np.abs(f)))
    return signs, logmags


def _complex_log_cumprod(factors):
    """The complex-factor helper log_cumprod replaced: (log magnitudes, arguments, first zero)."""
    f = np.asarray(factors, dtype=complex)
    mags = np.abs(f)
    zero_idx = np.flatnonzero(mags == 0.0)
    zero_from = int(zero_idx[0]) if len(zero_idx) else None
    with np.errstate(divide="ignore"):
        logmags = np.cumsum(np.log(mags))
    args = np.cumsum(np.angle(f))
    return logmags, args, zero_from


_FACTOR = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False).filter(lambda x: x != 0.0)


@given(st.lists(_FACTOR | st.just(0.0), min_size=1, max_size=60))
def test_log_cumprod_of_real_factors_is_the_signed_helper(fs):
    phase, logmag = log_cumprod(np.array(fs))
    signs, logmags = _signed_log_cumprod(fs)
    assert phase.dtype == np.float64 and np.array_equal(phase, signs)
    assert np.array_equal(logmag, logmags)
    assert not np.any(np.signbit(phase[signs == 0]))


@given(st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False), min_size=1, max_size=60))
def test_log_cumprod_of_complex_factors_is_the_complex_helper(fs):
    phase, logmag = log_cumprod(np.array(fs, dtype=complex))
    logmags, args, zero_from = _complex_log_cumprod(fs)
    assert np.array_equal(logmag, logmags)
    end = len(fs) if zero_from is None else zero_from
    assert np.array_equal(phase[:end], np.exp(1j * args[:end]))
    assert np.all(phase[end:] == 0.0)


def test_log_cumprod_exact_zero():
    phase, logmag = log_cumprod(np.array([0.5, -2.0, 0.0, 3.0, -1.0]))
    assert phase.tolist() == [1.0, -1.0, 0.0, 0.0, 0.0]
    assert np.array_equal(logmag[:2], [math.log(0.5), math.log(0.5) + math.log(2.0)])
    assert np.all(np.isneginf(logmag[2:]))
    phase, logmag = log_cumprod(np.array([1j, 0j, 2.0 + 0j]))
    assert phase[0] == np.exp(1j * (math.pi / 2)) and phase[1] == phase[2] == 0.0
    assert logmag[0] == 0.0 and np.all(np.isneginf(logmag[1:]))


@pytest.mark.parametrize("dtype", [float, complex])
def test_log_cumprod_rows_of_a_stack_are_1d_calls(dtype):
    rng = np.random.default_rng(3)
    fs = rng.uniform(-2.0, 2.0, (4, 30)).astype(dtype)
    if dtype is complex:
        fs += 1j * rng.uniform(-2.0, 2.0, (4, 30))
    fs[2, 7] = 0.0
    phase, logmag = log_cumprod(fs)
    for row, p, lm in zip(fs, phase, logmag):
        p1, lm1 = log_cumprod(row)
        assert np.array_equal(p, p1) and np.array_equal(lm, lm1)
