import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terraspec import products
from terraspec.errors import TerraspecError
from terraspec.numerics import dyadic_probes
from terraspec.products import BandReport, alpha, log_product, ratio_band
from terraspec.sequences import SequenceSpec, cesaro_scaled, log_reciprocal, p_cesaro, table


class TestAlpha:
    def test_real(self):
        assert alpha(2.0) == 0.5

    def test_imaginary(self):
        assert alpha(1j) == 0.0

    def test_complex(self):
        assert alpha(0.5 + 0.5j) == pytest.approx(1.0, rel=1e-15)

    def test_zero_rejected(self):
        with pytest.raises(TerraspecError) as exc:
            alpha(0.0)
        assert exc.value.code == "alpha-undefined-at-zero"

    @pytest.mark.parametrize(
        "lam",
        [
            1e-200,  # |lambda|^2 underflows to 0.0
            1e-200 + 1e-200j,
            -3e-160 + 4e-160j,  # |lambda|^2 is subnormal
            1e200,  # |lambda|^2 overflows
            -3e200 + 4e200j,
        ],
        ids=repr,
    )
    def test_scaled_when_the_square_modulus_is_not_normal(self, lam):
        lam = complex(lam)
        re, im = Fraction(lam.real), Fraction(lam.imag)
        assert alpha(lam) == pytest.approx(float(re / (re * re + im * im)), rel=4e-16)

    @pytest.mark.parametrize("lam", [0.5, 2.0 - 1.0j, 1e-150 + 3e-151j, -7e150j + 1e150], ids=repr)
    def test_normal_square_modulus_keeps_the_plain_formula(self, lam):
        assert alpha(lam) == lam.real / (lam.real**2 + lam.imag**2)

    @pytest.mark.parametrize("lam", [1e-310, 5e-324 + 5e-324j], ids=repr)
    def test_past_the_double_range(self, lam):
        with pytest.raises(TerraspecError) as exc:
            alpha(lam)
        assert exc.value.code == "alpha-overflow"


class TestLogProduct:
    def test_single_factor(self):
        out = log_product(table([1.0]), 2.0, 0, 1)
        assert out.log_magnitude == pytest.approx(math.log(0.5), rel=1e-15)
        assert not out.exact_zero

    def test_exact_zero(self):
        out = log_product(cesaro_scaled(1.0), 1.0, 0, 5)
        assert out.exact_zero
        assert out.log_magnitude == -math.inf

    def test_four_factor_rational_oracle(self):
        # prod_{k=1..4} (1 - 1/(2k)) = (1/2)(3/4)(5/6)(7/8)
        exact = Fraction(1, 2) * Fraction(3, 4) * Fraction(5, 6) * Fraction(7, 8)
        out = log_product(cesaro_scaled(1.0), 2.0, 0, 4)
        assert out.log_magnitude == pytest.approx(math.log(float(exact)), rel=1e-14)
        assert out.argument == 0.0

    def test_near_singular_warning(self):
        a = cesaro_scaled(1.0)
        lam = a.value(5) * (1.0 + 1e-13)
        out = log_product(a, lam, 0, 10)
        assert "near-singular-factor" in out.warnings

    def test_negative_factors_carry_pi_argument(self):
        # lambda below a_1 and a_2 makes the first two factors negative
        out = log_product(cesaro_scaled(1.0), 0.4, 0, 2)
        assert out.argument == 2.0 * math.pi

    def test_bad_range(self):
        with pytest.raises(TerraspecError) as exc:
            log_product(cesaro_scaled(1.0), 2.0, 3, 3)
        assert exc.value.code == "invalid-index-range"

    def test_zero_lambda(self):
        with pytest.raises(TerraspecError):
            log_product(cesaro_scaled(1.0), 0.0, 0, 4)


class TestTelescoping:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10000), min_size=3, max_size=3, unique=True))
    def test_segment_sums_add(self, idx):
        m, n, p = sorted(idx)
        if m == n or n == p:
            n = m + 1
            p = n + 1
        a = cesaro_scaled(1.0)
        lam = 2.5 + 0.7j
        full = log_product(a, lam, m, p).log_magnitude
        first = log_product(a, lam, m, n).log_magnitude
        second = log_product(a, lam, n, p).log_magnitude
        assert abs(first + second - full) <= 1e-10


class TestConjugationSymmetry:
    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=-3, max_value=3, allow_nan=False),
        st.floats(min_value=0.05, max_value=3, allow_nan=False),
    )
    def test_conjugate_lambda_same_magnitude(self, re, im):
        a = cesaro_scaled(1.0)
        lam = complex(re, im)
        fwd = log_product(a, lam, 0, 500).log_magnitude
        bwd = log_product(a, lam.conjugate(), 0, 500).log_magnitude
        assert abs(fwd - bwd) <= 1e-12 * max(1.0, abs(fwd))


def test_real_lambda_above_diagonal_has_zero_argument():
    out = log_product(cesaro_scaled(1.0), 1.5, 0, 1000)
    assert out.argument == 0.0


class TestRatioBand:
    def test_cesaro_band_is_bounded(self):
        rep = ratio_band(cesaro_scaled(1.0), 2.0, 1.0, (2**7, 2**15))
        assert rep.verdict == "bounded_band"
        assert abs(rep.log_log_slope) < 0.02
        assert rep.band[1] / rep.band[0] < 1e3

    def test_wrong_exponent_drifts(self):
        # true exponent is 0.5; forcing 1.0 shows up as slope ~ +0.5
        rep = ratio_band(cesaro_scaled(1.0), 2.0, 1.0, (2**7, 2**15), exponent=1.0)
        assert rep.verdict == "drifting"
        assert rep.log_log_slope == pytest.approx(0.5, abs=0.02)

    def test_lambda_on_diagonal_rejected(self):
        with pytest.raises(TerraspecError) as exc:
            ratio_band(cesaro_scaled(1.0), 1.0 / 3.0, 1.0, (2**7, 2**10))
        assert exc.value.code == "lambda-in-S"

    def test_band_for_random_lambdas(self):
        rng = np.random.default_rng(2718)
        for chi in (0.5, 1.0, 2.0):
            a = cesaro_scaled(chi)
            vals = a.values(2**15)
            drawn = 0
            while drawn < 10:
                lam = complex(rng.uniform(-3 * chi, 3 * chi), rng.uniform(-3 * chi, 3 * chi))
                if abs(lam) < 0.25 * chi:
                    continue
                if min(np.min(np.abs(lam - vals)), abs(lam)) < 0.1 * chi:
                    continue
                rep = ratio_band(a, lam, chi, (2**7, 2**15))
                assert rep.verdict == "bounded_band", (chi, lam, rep.log_log_slope)
                drawn += 1

    def test_degenerate_when_too_few_probes(self):
        rep = ratio_band(cesaro_scaled(1.0), 2.0, 1.0, (2**7, 2**7 + 1))
        assert rep.verdict == "degenerate"

    @pytest.mark.parametrize("chi", [math.inf, 0.0, math.nan])
    def test_chi_must_be_positive_and_finite(self, chi):
        with pytest.raises(TerraspecError) as exc:
            ratio_band(cesaro_scaled(1.0), 2.0, chi, (2**7, 2**10))
        assert exc.value.code == "invalid-chi"


def _reference_segment_log(a, lam, m, n):
    """log |prod_{k=m+1}^n (1 - a_k/lambda)| as the per-segment log_product summed it."""
    vals = a.values(n)[m:n]
    f = 1.0 - vals / lam.real if lam.imag == 0.0 else 1.0 - vals / lam
    assert not np.any(f == 0.0)
    return math.fsum(np.log(np.abs(f)))


def _reference_ratio_band(a, lam, chi, n_range, exponent=None):
    """ratio_band as a loop over dyadic segments, each read from values(n) at its own end."""
    n_lo, n_hi = n_range
    lam = complex(lam)
    e = alpha(lam) * chi if exponent is None else float(exponent)
    ratios, log_ratios = [], []
    prev, log_p = 0, 0.0
    for n in dyadic_probes(n_lo, n_hi):
        log_p += _reference_segment_log(a, lam, prev, n)
        prev = n
        lr = log_p + e * math.log(n)
        log_ratios.append(lr)
        ratios.append((n, math.exp(lr)))
    if len(ratios) < 3 or not all(math.isfinite(lr) for lr in log_ratios):
        return BandReport(tuple(ratios), (math.nan, math.nan), math.nan, "degenerate", e)
    slope = float(np.polyfit(np.log([n for n, _ in ratios]), np.array(log_ratios), 1)[0])
    lo, hi = math.exp(min(log_ratios)), math.exp(max(log_ratios))
    bounded = abs(slope) < products.SLOPE_TOL and hi / lo < products.BAND_TOL
    verdict = "bounded_band" if bounded else "drifting"
    return BandReport(tuple(ratios), (lo, hi), slope, verdict, e)


def _outcome(fn, *args, **kwargs):
    """repr of the result, or the error code where a ratio passes exp(709).

    That happens on log_reciprocal for Re(lambda) <= 0, where the product grows faster than any power:
    the reference loop raises a bare OverflowError there, and ratio_band must raise product-overflow.
    """
    try:
        return repr(fn(*args, **kwargs))
    except TerraspecError as exc:
        return exc.code
    except OverflowError:
        if fn is ratio_band:
            raise
        return "product-overflow"


BAND_DIAGONALS = {
    "cesaro": (cesaro_scaled(1.3), 1.3),
    "p_cesaro": (p_cesaro(0.9), 1.0),
    "table": (table([1.0 / n + 0.5 / n**2 for n in range(1, 2**17 + 1)]), 1.0),
    "log_reciprocal": (log_reciprocal(), 1.0),
}


class TestRatioBandAgainstReference:
    @pytest.mark.parametrize("lam", [2.0, -0.7, 4.5, 2.0 + 0.5j, -0.6 + 0.8j, 0.9j], ids=str)
    @pytest.mark.parametrize("diagonal", BAND_DIAGONALS)
    def test_equal_to_the_segment_loop(self, diagonal, lam):
        a, chi = BAND_DIAGONALS[diagonal]
        for n_range, e in [((2**7, 2**17), None), ((3, 2**12 + 5), None), ((1, 2), None), ((16, 2**10), 0.55)]:
            got = _outcome(ratio_band, a, lam, chi, n_range, exponent=e)
            assert got == _outcome(_reference_ratio_band, a, lam, chi, n_range, e)

    def test_one_values_call_and_no_log_product(self, monkeypatch, call_log):
        calls = call_log(SequenceSpec, "values")
        monkeypatch.setattr(products, "log_product", None)
        ratio_band(cesaro_scaled(1.0), 2.0 + 0.5j, 1.0, (2**7, 2**15))
        assert [n for _, (n,) in calls] == [2**15]
