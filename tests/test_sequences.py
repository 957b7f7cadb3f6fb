import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terraspec.asymptotics import AsymptoticClass
from terraspec.errors import TerraspecError
from terraspec.sequences import (
    cesaro_scaled,
    constant,
    custom,
    estimate_chi,
    from_json,
    geometric,
    log_reciprocal,
    make_family,
    p_cesaro,
    power_weight,
    table,
    to_json,
    verify_weight,
)


class TestMakeFamily:
    def test_cesaro_is_one_over_n(self):
        a = cesaro_scaled(1.0)
        assert [a.value(n) for n in (1, 2, 4)] == [1.0, 0.5, 0.25]
        assert a.asym == AsymptoticClass(1.0, 1.0, -1.0, 0.0)

    def test_log_reciprocal(self):
        a = log_reciprocal()
        assert a.value(1) == pytest.approx(1.0 / math.log(2.0), rel=1e-15)
        assert a.asym == AsymptoticClass(1.0, 1.0, 0.0, -1.0)

    def test_geometric_weight(self):
        s = geometric(0.5)
        assert s.value(3) == 0.125
        assert s.asym == AsymptoticClass(1.0, 0.5, 0.0, 0.0)

    def test_power_weight_class(self):
        assert power_weight(2.0).asym == AsymptoticClass(1.0, 1.0, -2.0, 0.0)

    def test_invalid_params(self):
        for bad in (lambda: make_family("geometric", -0.5),
                    lambda: make_family("constant", 0.0),
                    lambda: make_family("nope", 1.0),
                    lambda: table([1.0, -2.0])):
            with pytest.raises(TerraspecError) as exc:
                bad()
            assert exc.value.code == "invalid-family-param"

    @pytest.mark.parametrize(
        "bad",
        [
            pytest.param(lambda: make_family("p_cesaro", math.nan), id="nan"),
            pytest.param(lambda: make_family("cesaro_scaled", math.inf), id="inf"),
            pytest.param(lambda: make_family("power_weight", "abc"), id="string"),
            pytest.param(lambda: make_family("geometric", None), id="none"),
            pytest.param(lambda: table([1.0, math.inf]), id="table-inf"),
            pytest.param(lambda: table(["abc"]), id="table-string"),
            pytest.param(lambda: table(5.0), id="table-scalar"),
            pytest.param(lambda: from_json({"family": "p_cesaro", "params": {"p": math.nan}}), id="json-nan"),
            pytest.param(lambda: from_json({"family": "cesaro_scaled", "params": {"chi": "abc"}}), id="json-string"),
            pytest.param(lambda: from_json({"family": "table", "params": {"values": ["abc"]}}), id="json-table"),
            pytest.param(lambda: from_json({"family": "constant", "params": [1.0]}), id="json-params-list"),
            pytest.param(lambda: from_json({"family": ["constant"]}), id="json-family-list"),
        ],
    )
    def test_non_finite_and_non_numeric_params(self, bad):
        with pytest.raises(TerraspecError) as exc:
            bad()
        assert exc.value.code == "invalid-family-param"


    @pytest.mark.parametrize(
        "value,stored",
        [
            (0.5, 0.5),
            (True, 1.0),
            (3, 3.0),
            (np.float64(0.25), 0.25),
            (Fraction(1, 4), 0.25),
            ("1", None),
            (math.nan, None),
            (math.inf, None),
            (-0.0, None),
        ],
        ids=["float", "bool", "int", "float64", "fraction", "string", "nan", "inf", "negative-zero"],
    )
    def test_table_entry_types(self, value, stored):
        if stored is None:
            with pytest.raises(TerraspecError) as exc:
                table([1.0, value])
            assert exc.value.code == "invalid-family-param"
        else:
            tab = table([1.0, value]).table
            assert tab == (1.0, stored) and type(tab[1]) is float


class TestEval:
    def test_scaled_cesaro(self):
        assert cesaro_scaled(2.0).value(4) == 0.5

    def test_table_out_of_range(self):
        t = table([1.0, 0.5])
        assert t.value(2) == 0.5
        with pytest.raises(TerraspecError) as exc:
            t.value(3)
        assert exc.value.code == "index-out-of-range"

    def test_values_matches_scalar(self):
        a = p_cesaro(1.5)
        vals = a.values(64)
        assert vals[0] == a.value(1)
        assert vals[63] == pytest.approx(a.value(64), rel=1e-15)

    def test_scaled_is_division_last(self):
        # (chi * factor) / n stays exact where a_n * factor would round
        a = cesaro_scaled(1.0)
        assert all(a.scaled(n, float(n)) == 1.0 for n in range(1, 2000))

    def test_growing_geometric_overflows_to_inf(self):
        g = geometric(2.0)
        assert g.value(2000) == math.inf == g.values(2000)[-1]
        assert g.scaled(2000, 0.5) == math.inf
        assert g.value(1000) == 2.0**1000 == g.values(1000)[-1]

    def test_log_value_matches(self):
        for spec in (cesaro_scaled(3.0), geometric(0.5), log_reciprocal(), constant(2.0)):
            assert spec.log_value(17) == pytest.approx(math.log(spec.value(17)), abs=1e-12)


class TestEstimateChi:
    def test_analytic_for_cesaro(self):
        est = estimate_chi(cesaro_scaled(1.0))
        assert est.chi == 1.0 and est.method == "analytic" and est.residual == 0.0

    def test_log_family_rejected(self):
        with pytest.raises(TerraspecError) as exc:
            estimate_chi(log_reciprocal())
        assert exc.value.code == "chi-not-convergent"

    def test_numeric_table(self):
        est = estimate_chi(table([2.0, 1.0, 2.0 / 3.0, 0.5]), window=(1, 4))
        assert est.chi == 2.0 and est.method == "numeric" and est.residual == 0.0

    def test_numeric_drift_detection(self):
        drifting = custom(lambda n: 1.0 / math.log(n + 1.0))
        with pytest.raises(TerraspecError) as exc:
            estimate_chi(drifting, window=(16, 2**14))
        assert exc.value.code == "chi-not-convergent"

    def test_chi_zero_detection(self):
        with pytest.raises(TerraspecError) as exc:
            estimate_chi(p_cesaro(2.0))
        assert exc.value.code == "chi-zero"

    def test_exact_for_random_chi(self):
        rng = np.random.default_rng(7)
        for chi in rng.uniform(1e-6, 10.0, size=20):
            assert estimate_chi(cesaro_scaled(float(chi))).chi == float(chi)


class TestVerifyWeight:
    def test_geometric_flags(self):
        flags = verify_weight(geometric(0.5))
        assert (flags.bounded, flags.strictly_positive, flags.decreasing) == (True, True, True)

    def test_constant_flags(self):
        flags = verify_weight(constant(1.0))
        assert flags.bounded and flags.strictly_positive and flags.decreasing
        assert flags.bounded_below is True

    def test_growing_weight_unbounded(self):
        flags = verify_weight(power_weight(-1.0))
        assert not flags.bounded
        assert not flags.decreasing

    def test_custom_nonpositive_rejected(self):
        bad = custom(lambda n: 1.0 - n / 4.0)
        with pytest.raises(TerraspecError) as exc:
            verify_weight(bad, 16)
        assert exc.value.code == "weight-not-positive"

    @given(st.floats(min_value=0.05, max_value=2.0, allow_nan=False))
    def test_geometric_bounded_iff_ratio_at_most_one(self, ratio):
        assert verify_weight(geometric(ratio)).bounded == (ratio <= 1.0)


@pytest.mark.parametrize(
    "spec",
    [cesaro_scaled(1.0), cesaro_scaled(3.5), p_cesaro(0.5), log_reciprocal(), power_weight(1.25), constant(2.0)],
)
def test_builtin_values_track_their_class(spec):
    for e in range(8, 17):
        n = 2**e
        ratio = spec.value(n) / spec.asym.value(n)
        assert 1.0 / 3.0 <= ratio <= 3.0


def test_json_round_trip():
    for spec in (
        cesaro_scaled(2.0),
        p_cesaro(1.5),
        log_reciprocal(),
        power_weight(-0.5),
        geometric(0.25),
        constant(3.0),
        table([3.0, 1.0]),
    ):
        assert from_json(to_json(spec)) == spec
    with pytest.raises(TerraspecError):
        from_json({"family": "unknown"})
    with pytest.raises(TerraspecError):
        from_json({"family": "geometric", "params": {}})


def _reference_fn(k: int) -> float:
    return 1.0 / (k + 0.5)


# (spec, log_values(N), values(N), scaled_values(factors), growth class):
# the per-family formulas written out literally; every family must reproduce
# them bit for bit, and its scalar methods must return element n of them.
_TABLE = (3.0, 1.0, 0.5, 0.25, 0.2)


def _ns(N):
    return np.arange(1, N + 1, dtype=float)


FAMILY_REFERENCE = [
    (
        cesaro_scaled(0.7),
        lambda N: math.log(0.7) - np.log(_ns(N)),
        lambda N: 0.7 / _ns(N),
        lambda fs: 0.7 * fs / _ns(len(fs)),
        AsymptoticClass(0.7, 1.0, -1.0, 0.0),
    ),
    (
        p_cesaro(1.5),
        lambda N: -1.5 * np.log(_ns(N)),
        lambda N: 1.0 / _ns(N) ** 1.5,
        lambda fs: fs / _ns(len(fs)) ** 1.5,
        AsymptoticClass(1.0, 1.0, -1.5, 0.0),
    ),
    (
        log_reciprocal(),
        lambda N: -np.log(np.log(_ns(N) + 1.0)),
        lambda N: 1.0 / np.log(_ns(N) + 1.0),
        lambda fs: fs / np.log(_ns(len(fs)) + 1.0),
        AsymptoticClass(1.0, 1.0, 0.0, -1.0),
    ),
    (
        power_weight(-0.25),
        lambda N: 0.25 * np.log(_ns(N)),
        lambda N: 1.0 / _ns(N) ** -0.25,
        lambda fs: fs / _ns(len(fs)) ** -0.25,
        AsymptoticClass(1.0, 1.0, 0.25, 0.0),
    ),
    (
        geometric(0.9),
        lambda N: _ns(N) * math.log(0.9),
        lambda N: 0.9 ** _ns(N),
        lambda fs: 0.9 ** _ns(len(fs)) * fs,
        AsymptoticClass(1.0, 0.9, 0.0, 0.0),
    ),
    (
        constant(2.5),
        lambda N: np.full(N, math.log(2.5)),
        lambda N: np.full(N, 2.5),
        lambda fs: np.full(len(fs), 2.5) * fs,
        AsymptoticClass(2.5, 1.0, 0.0, 0.0),
    ),
    (
        table(_TABLE),
        lambda N: np.array([math.log(v) for v in _TABLE[:N]]),
        lambda N: np.array(_TABLE[:N], dtype=float),
        lambda fs: np.array(_TABLE[: len(fs)], dtype=float) * fs,
        None,
    ),
    (
        custom(_reference_fn),
        lambda N: np.array([math.log(_reference_fn(k)) for k in range(1, N + 1)]),
        lambda N: np.array([_reference_fn(k) for k in range(1, N + 1)], dtype=float),
        lambda fs: np.array([_reference_fn(k) for k in range(1, len(fs) + 1)], dtype=float) * fs,
        None,
    ),
]


@pytest.mark.parametrize(
    "spec,log_values,values,scaled_values,asym",
    FAMILY_REFERENCE,
    ids=[row[0].family for row in FAMILY_REFERENCE],
)
def test_family_table_is_bit_exact(spec, log_values, values, scaled_values, asym):
    depth = len(_TABLE) if spec.family == "table" else 3000
    ns = [n for n in (1, 2, 3, 5, 17, 100, 1023, 3000) if n <= depth]
    for n in ns:
        for f in (1.0, 0.3, 7.0, float(n), 1e-300):
            assert spec.scaled(n, f) == scaled_values(np.full(n, f))[n - 1]
        assert spec.value(n) == values(n)[n - 1]
        assert spec.log_value(n) == log_values(n)[n - 1]
    for N in sorted({0, 1, min(5, depth), depth}):
        assert np.array_equal(spec.values(N), values(N))
        assert np.array_equal(spec.log_values(N), log_values(N))
        factors = np.linspace(0.1, 9.0, N)
        assert np.array_equal(spec.scaled_values(factors), scaled_values(factors))
    assert spec.asym == asym


@pytest.mark.parametrize("spec", [row[0] for row in FAMILY_REFERENCE], ids=[row[0].family for row in FAMILY_REFERENCE])
def test_log_values_match_log_value(spec):
    depth = len(_TABLE) if spec.family == "table" else 20000
    vec = spec.log_values(depth)
    ref = np.array([spec.log_value(n) for n in range(1, depth + 1)])
    assert np.array_equal(vec, ref)


# every family, an overflowing geometric, a table and a custom callable, each with its depth N
_ELEMENT_SPECS = [
    (cesaro_scaled(0.7), 100_000),
    (p_cesaro(1.3), 100_000),
    (log_reciprocal(), 100_000),
    (power_weight(0.75), 100_000),
    (geometric(0.9), 100_000),
    (geometric(1.01), 100_000),
    (constant(2.5), 100_000),
    (table([1.0 / (k + 0.25) for k in range(1, 5001)]), 5000),
    (custom(_reference_fn), 5000),
]


@pytest.mark.parametrize("spec,N", _ELEMENT_SPECS, ids=[f"{s.family}{s.params}" for s, _ in _ELEMENT_SPECS])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_scalar_methods_read_element_n_of_the_arrays(spec, N, data):
    n = data.draw(st.integers(1, N), label="n")
    f = data.draw(st.floats(-1e300, 1e300, allow_nan=False).filter(bool), label="factor")
    assert spec.value(n) == spec.values(N)[n - 1]
    assert spec.log_value(n) == spec.log_values(N)[n - 1]
    factors = np.linspace(0.5, 2.0, N)
    factors[n - 1] = f
    assert spec.scaled(n, f) == spec.scaled_values(factors)[n - 1]
