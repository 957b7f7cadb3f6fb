import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from terraspec.asymptotics import Limit
from terraspec.numerics import classify_limit_trend, compensated_cumsum, exact_prefix_sums


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


def test_compensated_cumsum_recovers_lost_terms():
    xs = [1.0] + [1e-16] * 1000
    assert compensated_cumsum(xs)[-1] == exact_prefix_sums(xs)[-1] != np.cumsum(xs)[-1]
