import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from terraspec import spectrum
from terraspec.cli import main
from terraspec.errors import TerraspecError
from terraspec.numerics import TriState
from terraspec.products import alpha, log_product, ratio_band
from terraspec.sequences import cesaro_scaled, constant, custom, log_reciprocal, max_index, p_cesaro, power_weight
from terraspec.sequences import geometric, scan_depth, table, to_json, verify_weight
from terraspec.spectrum import (
    SCAN_N,
    Evidence,
    GridSpec,
    Label,
    ProbeResult,
    SpectralPoint,
    adjoint_eigvector,
    adjoint_point_test,
    classify_point,
    classify_points,
    disk_position,
    dist_to_S,
    eigenvector,
    find_in_S,
    point_spectrum_test,
    pseudospectrum_grid,
    resolvent_section,
    spectrum_grid,
    verify_resolvent,
)
from terraspec.terraced import FiniteSection, build_section

CESARO = cesaro_scaled(1.0)
UNIT = constant(1.0)


class TestDiskPosition:
    @pytest.mark.parametrize("lam,expected", [(0.5, "interior"), (1.0, "boundary"), (2.0, "exterior")])
    def test_unit_chi(self, lam, expected):
        assert disk_position(lam, 1.0) == expected

    def test_zero_on_circle(self):
        assert disk_position(0.0, 1.0) == "boundary"

    @pytest.mark.parametrize("chi", [math.inf, 0.0, -1.0, math.nan])
    def test_chi_must_be_positive_and_finite(self, chi):
        for lam in (0.3, 0.0):
            with pytest.raises(TerraspecError) as exc:
                disk_position(lam, chi)
            assert exc.value.code == "invalid-chi"

    def test_agrees_with_halfplane_test(self):
        rng = np.random.default_rng(5)
        for chi in (0.5, 1.0, 2.0):
            for _ in range(200):
                lam = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
                if lam == 0:
                    continue
                pos = disk_position(lam, chi)
                gap = alpha(lam) - 1.0 / chi
                if pos == "interior":
                    assert gap > 0
                elif pos == "exterior":
                    assert gap < 0


class TestDistToS:
    def test_exact_member(self):
        assert dist_to_S(1.0 / 3.0, CESARO) == (0.0, 3)

    def test_accumulation_point(self):
        d, idx = dist_to_S(-1.0, CESARO)
        assert d == 1.0 and idx == 0

    def test_scan_minimum(self):
        d, idx = dist_to_S(0.4, CESARO)
        assert d == pytest.approx(abs(0.4 - 1.0 / 3.0), rel=1e-12)
        assert idx == 3


@pytest.mark.parametrize(
    "entry",
    [
        lambda n: dist_to_S(1.0, CESARO, n),
        lambda n: find_in_S(1.0, CESARO, n),
        lambda n: point_spectrum_test(1.0, CESARO, UNIT, 1.0, n_max=n),
        lambda n: adjoint_point_test(0.4, CESARO, UNIT, 1.0, n_max=n),
    ],
    ids=["dist_to_S", "find_in_S", "point_spectrum_test", "adjoint_point_test"],
)
@pytest.mark.parametrize("n_max", [0, -3])
def test_empty_scan_depth_rejected(entry, n_max):
    # lambda = a_1 used to come back "not in S" from find_in_S at n_max = 0
    with pytest.raises(TerraspecError) as exc:
        entry(n_max)
    assert exc.value.code == "index-out-of-range"


class TestPointSpectrumTest:
    def test_cesaro_on_plain_c0_is_empty(self):
        for k in range(1, 101):
            lam = CESARO.value(k)
            out = point_spectrum_test(lam, CESARO, UNIT, 1.0)
            assert out.outcome is TriState.NO

    def test_decaying_weight_adds_eigenvalue(self):
        s = cesaro_scaled(1.0)  # s_n = 1/n
        assert point_spectrum_test(1.0, CESARO, s, 1.0).outcome is TriState.YES

    def test_half_is_not_eigenvalue_for_decaying_weight(self):
        s = cesaro_scaled(1.0)
        assert point_spectrum_test(0.5, CESARO, s, 1.0).outcome is TriState.NO

    def test_off_diagonal_is_no(self):
        assert point_spectrum_test(0.42, CESARO, UNIT, 1.0).outcome is TriState.NO

    def test_zero_is_not_in_s_on_a_diagonal_that_underflows(self):
        # geometric(0.5) reaches 0.0 at a_1075, but 0 is never an element of S
        a = geometric(0.5)
        assert find_in_S(0.0, a) == 1075
        out = point_spectrum_test(0.0, a, UNIT, 1.0)
        assert out == ProbeResult(TriState.NO, "lambda not in S, kernel is trivial")
        assert classify_point(0.0, a, UNIT, 1.0).label is Label.CONTINUOUS_CANDIDATE

    def test_numeric_probe_overflow_is_growth(self):
        # alpha*chi is about 2000 at a_2000, so n^(alpha chi) overflows: that is growth, not decay
        a = custom(lambda n: 0.8 / n + 0.1 / n**2)
        out = point_spectrum_test(a.value(2000), a, UNIT, 0.8)
        assert out.outcome is TriState.NO

    def test_numeric_path_on_classless_table(self):
        a = table(tuple(1.0 / n for n in range(1, 65)))
        out = point_spectrum_test(0.5, a, UNIT, 1.0)
        assert out.outcome is TriState.NO


class TestEigenvector:
    def test_two_term_recurrence(self):
        x = eigenvector(1.0, table([1.0, 0.5]), 2)
        assert np.allclose(x, [1.0, 1.0], rtol=0, atol=1e-14)

    def test_cesaro_fixes_constant_vector(self):
        x = eigenvector(1.0, CESARO, 4)
        assert np.allclose(x, np.ones(4), rtol=1e-13)

    def test_not_on_diagonal(self):
        with pytest.raises(TerraspecError) as exc:
            eigenvector(0.3, CESARO, 10)
        assert exc.value.code == "not-an-eigencandidate"

    def test_repeated_diagonal_rejected(self):
        with pytest.raises(TerraspecError) as exc:
            eigenvector(1.0, table([1.0, 0.5, 1.0]), 3)
        assert exc.value.code == "repeated-diagonal-unsupported"

    def test_recurrence_residual(self):
        # a_n (x_1 + ... + x_n) = lambda x_n after the start index
        for a, lam, N in [
            (CESARO, 1.0, 1000),
            (CESARO, 0.5, 400),
            (CESARO, 0.2, 300),
            (cesaro_scaled(2.0), 2.0, 500),
        ]:
            x = eigenvector(lam, a, N)
            vals = a.values(N)
            sums = np.cumsum(x)
            m = int(np.flatnonzero(x != 0)[0])
            resid = np.abs(vals * sums - lam * x)[m:] / np.abs(lam * x[m:])
            assert resid.max() <= 1e-10, (lam, resid.max())


class TestAdjointEigvector:
    def test_first_diagonal_point_truncates_immediately(self):
        x = adjoint_eigvector(1.0, CESARO, 6)
        assert x[0] == 1.0
        assert np.all(x[1:] == 0.0)

    def test_second_diagonal_point(self):
        x = adjoint_eigvector(0.5, table([1.0, 0.5, 0.25, 0.125]), 4)
        assert np.array_equal(x.real, [1.0, -1.0, 0.0, 0.0])
        assert np.all(x.imag == 0.0)

    def test_partial_products(self):
        x = adjoint_eigvector(2.0, CESARO, 4)
        assert np.allclose(x.real, [1.0, 0.5, 0.375, 0.3125], rtol=1e-14)

    def test_zero_rejected(self):
        with pytest.raises(TerraspecError) as exc:
            adjoint_eigvector(0.0, CESARO, 5)
        assert exc.value.code == "zero-not-adjoint-eigenvalue"

    @pytest.mark.parametrize(
        "a", [p_cesaro(1.3), power_weight(0.75), geometric(0.9), log_reciprocal()], ids=lambda a: a.family
    )
    def test_scalar_diagonal_value_truncates(self, a):
        # lambda = a.value(k) is the very a_k that values() holds, so the factor at k is exactly 0
        N = 201
        for k in range(1, N):
            lam = a.value(k)
            with np.errstate(over="ignore"):  # geometric entries before k pass the double range
                x = adjoint_eigvector(lam, a, N)
            assert np.all(x[k:] == 0.0)
            assert log_product(a, lam, 0, N).exact_zero

    def test_recurrence_with_tail_bound(self):
        # sum_{k>=n} a_k x_k = lambda x_n, checked against the decay rate
        # |x_n| ~ n**(-alpha*chi); asserted only when alpha*chi > 1.1
        for lam in (0.4, 0.3 + 0.1j):
            ac = alpha(lam) * 1.0
            assert ac > 1.1
            N = 2000
            x = adjoint_eigvector(lam, CESARO, N)
            vals = CESARO.values(N)
            tails = np.cumsum((vals * x)[::-1])[::-1]
            resid = np.abs(tails[: N // 2] - lam * x[: N // 2])
            ks = np.arange(N // 2, N + 1, dtype=float)
            scale = np.max(np.abs(x[N // 2 - 1 : N]) * ks**ac)
            bound = 3.0 * abs(lam) * scale * (N + 1.0) ** (-ac)
            assert resid.max() <= bound


class TestAdjointPointTest:
    def test_interior_series_converges(self):
        out = adjoint_point_test(0.4, CESARO, UNIT, 1.0)
        assert out.outcome is TriState.YES

    def test_exterior_no(self):
        out = adjoint_point_test(2.0, CESARO, UNIT, 1.0)
        assert out.outcome is TriState.NO

    def test_diagonal_always_yes(self):
        lam = CESARO.value(7)
        assert adjoint_point_test(lam, CESARO, UNIT, 1.0).outcome is TriState.YES

    def test_zero_never(self):
        assert adjoint_point_test(0.0, CESARO, UNIT, 1.0).outcome is TriState.NO

    def test_accumulation_point_unsupported(self):
        # only chi < 0.2 puts a lambda within SNAP_TOL of 0 inside the open disk
        with pytest.raises(TerraspecError) as exc:
            adjoint_point_test(5e-14, CESARO, UNIT, 0.01)
        assert exc.value.code == "closure-boundary-unsupported"

    @pytest.mark.parametrize("lam", [1e-14, -1e-14, 2.8e-17, complex(3e-14, 4e-14)])
    @pytest.mark.parametrize("chi", [0.2, 0.7, 1.0, 2.0])
    def test_tiny_lambda_on_the_circle_band_is_no(self, lam, chi):
        assert disk_position(lam, chi) == "boundary"
        out = adjoint_point_test(lam, CESARO, UNIT, chi)
        assert out == ProbeResult(TriState.NO, "disk position boundary: outside the open-disk bound")


class TestPointTestsReadOffClassifyPoint:
    """point_spectrum_test and adjoint_point_test are classify_point's A1 and A2 results."""

    @pytest.mark.parametrize(
        "s,chi,code",
        [(power_weight(-1.0), 1.0, "weight-not-bounded"), (UNIT, 0.0, "invalid-chi"),
         (UNIT, math.inf, "invalid-chi")],
        ids=["unbounded-weight", "zero-chi", "infinite-chi"],
    )
    @pytest.mark.parametrize("lam", [CESARO.value(3), 0.4, 2.0, 0.5j])
    def test_raise_where_classify_point_does(self, lam, s, chi, code):
        for entry in (classify_point, point_spectrum_test, adjoint_point_test):
            with pytest.raises(TerraspecError) as exc:
                entry(lam, CESARO, s, chi)
            assert exc.value.code == code

    @pytest.mark.parametrize("lam", [CESARO.value(1), 0.4, 2.0, 0.3 + 0.2j])
    def test_n_max_one_is_answered(self, lam):
        # the weight's monotonicity scan reads two terms whatever n_max is
        one = classify_point(lam, CESARO, UNIT, 1.0, n_max=1)
        two = classify_point(lam, CESARO, UNIT, 1.0, n_max=2)
        assert (one.label, spectrum.point_tests(one)) == (two.label, spectrum.point_tests(two))
        assert point_spectrum_test(lam, CESARO, UNIT, 1.0, n_max=1) == spectrum.point_tests(one)[0]
        assert adjoint_point_test(lam, CESARO, UNIT, 1.0, n_max=1) == spectrum.point_tests(one)[1]

    def test_diagonal_values_above_chi_verify_the_weight_once(self, call_log):
        # a_k > chi is an eigenvalue outright on a bounded weight, which classify_points
        # has checked before any point is tested
        a = table([3.0, 2.5, 2.0, 1.5, 1.0, 0.5])
        calls = call_log(spectrum, "verify_weight")
        points = classify_points([3.0, 2.5, 2.0, 1.5, 1.0], a, UNIT, 0.7)
        assert [p.label for p in points] == [Label.POINT] * 5
        assert [name for name, _ in calls] == ["verify_weight"] * 2


class TestResolventSection:
    def test_2x2_against_inversion_oracle(self):
        B = resolvent_section(3.0, table([1.0, 0.5]), 2).entries
        oracle = np.linalg.inv(np.array([[1.0 - 3.0, 0.0], [0.5, 0.5 - 3.0]]))
        assert np.allclose(B, oracle, rtol=1e-14)
        assert np.allclose(B, [[-0.5, 0.0], [-0.1, -0.4]], rtol=1e-14)

    def test_scalar_section(self):
        B = resolvent_section(4.0, table([1.5]), 1).entries
        assert B[0, 0] == 1.0 / (1.5 - 4.0)

    def test_explicit_entry(self):
        B = resolvent_section(2.0, CESARO, 3).entries
        assert B[1, 0] == pytest.approx(-1.0 / 3.0, rel=1e-14)

    def test_lambda_on_diagonal(self):
        with pytest.raises(TerraspecError) as exc:
            resolvent_section(0.25, CESARO, 10)
        assert exc.value.code == "lambda-in-S"

    def test_zero_rejected(self):
        with pytest.raises(TerraspecError) as exc:
            resolvent_section(0.0, CESARO, 5)
        assert exc.value.code == "resolvent-undefined-at-zero"

    def test_nesting_is_exact(self):
        for lam in (2.0, -0.6 + 0.8j):
            big = resolvent_section(lam, CESARO, 300).entries
            for m in (10, 50, 150):
                small = resolvent_section(lam, CESARO, m).entries
                assert np.array_equal(big[:m, :m], small)

    def test_forward_substitution_oracle(self):
        rng = np.random.default_rng(101)
        N = 400
        mask = np.tril(np.ones((N, N), dtype=bool))
        for chi in (1.0, 2.0):
            a = cesaro_scaled(chi)
            vals = a.values(N)
            drawn = 0
            while drawn < 8:
                lam = complex(rng.uniform(-2 * chi, 3 * chi), rng.uniform(-2 * chi, 2 * chi))
                if min(np.min(np.abs(lam - vals)), abs(lam)) < 0.1:
                    continue
                B = resolvent_section(lam, a, N).entries
                M = build_section(a, N).entries - lam * np.eye(N)
                oracle = scipy.linalg.solve_triangular(M, np.eye(N, dtype=complex), lower=True)
                rel = np.max(np.abs(B - oracle)[mask] / np.abs(oracle)[mask])
                assert rel <= 1e-10, (chi, lam, rel)
                drawn += 1

    def test_high_precision_referee_where_substitution_breaks(self):
        # For lambda with |Re(1/lambda)| large the entries span ~15 orders
        # of magnitude and float forward substitution loses all relative
        # accuracy on the tiny ones (cancellation in the running sums).
        # A 60-digit evaluation shows the product formula stays accurate.
        import mpmath as mp

        mp.mp.dps = 60
        lam = complex(-0.155, 0.0456)
        N = 400
        B = resolvent_section(lam, CESARO, N).entries
        M = build_section(CESARO, N).entries - lam * np.eye(N)
        oracle = scipy.linalg.solve_triangular(M, np.eye(N, dtype=complex), lower=True)
        rel = np.abs(B - oracle) / np.maximum(np.abs(oracle), 1e-300)
        np.fill_diagonal(rel, 0.0)
        i, k = np.unravel_index(np.argmax(np.tril(rel)), rel.shape)
        lam_mp = mp.mpc(lam.real, lam.imag)
        prod = mp.mpf(1)
        for j in range(k + 1, i + 2):
            prod *= 1 - mp.mpf(1) / (j * lam_mp)
        exact = complex(-(mp.mpf(1) / (i + 1)) / (lam_mp**2 * prod))
        assert abs(B[i, k] - exact) / abs(exact) <= 1e-12
        assert abs(oracle[i, k] - exact) / abs(exact) > 1e-10


class TestVerifyResolvent:
    def test_exact_2x2(self):
        chk = verify_resolvent(3.0, table([1.0, 0.5]), 2)
        assert chk.max_residual <= 1e-14 and chk.passed

    def test_cesaro_200(self):
        chk = verify_resolvent(2.0, CESARO, 200)
        assert chk.max_residual <= 1e-10 and chk.passed

    def test_diagonal_lambda_raises(self):
        with pytest.raises(TerraspecError):
            verify_resolvent(1.0, CESARO, 10)


def _reference_resolvent_section(lam, a, N):
    """The entries resolvent_section built with a sign-tracked real branch and a complex-log branch."""
    vals = a.values(N)
    B = np.zeros((N, N), dtype=complex)
    if lam.imag == 0.0:
        lr = lam.real
        np.fill_diagonal(B, 1.0 / (vals - lr))
        f = 1.0 - vals / lr
        S = np.concatenate(([1], np.cumprod(np.sign(f)).astype(int)))
        L = np.concatenate(([0.0], np.cumsum(np.log(np.abs(f)))))
        for n in range(2, N + 1):
            coef = -vals[n - 1] * (1.0 / (lr * lr)) * S[n]
            B[n - 1, : n - 1] = coef * S[: n - 1] * np.exp(L[: n - 1] - L[n])
    else:
        np.fill_diagonal(B, 1.0 / (vals - lam))
        logc = np.concatenate(([0j], np.cumsum(np.log(1.0 - vals / lam))))
        for n in range(2, N + 1):
            coef = -vals[n - 1] * (1.0 / (lam * lam))
            B[n - 1, : n - 1] = coef * np.exp(logc[: n - 1] - logc[n])
    return B


def _reference_verify_resolvent(lam, a, N, tol=1e-10):
    """verify_resolvent with the dense terraced section and two matmuls."""
    B = resolvent_section(lam, a, N).entries
    M = build_section(a, N).entries - complex(lam) * np.eye(N)
    left = float(np.max(np.abs(M @ B - np.eye(N))))
    right = float(np.max(np.abs(B @ M - np.eye(N))))
    return left, right, max(left, right) <= tol


RESOLVENT_DIAGONALS = {
    "cesaro": cesaro_scaled(1.0),
    "p_cesaro": p_cesaro(0.9),
    "table": table([1.0 / n if n != 5 else 0.25 for n in range(1, 401)]),
    "log_reciprocal": log_reciprocal(),
}
# outside the spectral disk and away from 0: on the Cesaro-like diagonals B stays O(1) and the
# residuals are rounding-level; the ill-conditioned points make entries span many orders
WELL_CONDITIONED = (2.0, 3.1, -0.6, 1.5, -0.6 + 0.8j, 2.5 - 1.1j, 0.7j)
ILL_CONDITIONED = (0.4, 0.3 + 0.05j, -0.155 + 0.0456j)


class TestResolventAgainstReference:
    @pytest.mark.parametrize("diagonal", RESOLVENT_DIAGONALS)
    def test_entries(self, diagonal):
        a = RESOLVENT_DIAGONALS[diagonal]
        for lam in WELL_CONDITIONED + ILL_CONDITIONED:
            lam = complex(lam)
            for N in (1, 2, 50, 400):
                got = resolvent_section(lam, a, N).entries
                want = _reference_resolvent_section(lam, a, N)
                if lam.imag == 0.0:
                    assert np.array_equal(got, want) and not np.any(got.imag)
                else:
                    # log|f| replaces the real part of the complex log: up to 4 N eps apart
                    rel = np.abs(got - want)[want != 0] / np.abs(want)[want != 0]
                    assert np.max(rel) <= 4 * N * np.finfo(float).eps, (lam, N, np.max(rel))
                    assert np.all(got[want == 0] == 0)

    @pytest.mark.parametrize("diagonal", RESOLVENT_DIAGONALS)
    def test_verify(self, diagonal):
        a = RESOLVENT_DIAGONALS[diagonal]
        for lam in WELL_CONDITIONED + ILL_CONDITIONED:
            for N in (1, 2, 50, 400):
                chk = verify_resolvent(lam, a, N)
                left, right, passed = _reference_verify_resolvent(lam, a, N)
                assert chk.passed is passed
                if lam in WELL_CONDITIONED and diagonal != "log_reciprocal":
                    assert passed
                    assert abs(chk.left_residual - left) <= 1e-13 and abs(chk.right_residual - right) <= 1e-13


class TestClassifyPoint:
    def test_interior_point_is_residual(self):
        pt = classify_point(0.4, CESARO, UNIT, 1.0)
        assert pt.label is Label.RESIDUAL
        assert pt.evidence.a2 is TriState.YES
        assert pt.evidence.alpha == alpha(0.4)

    def test_exterior_is_resolvent(self):
        pt = classify_point(2.0, CESARO, UNIT, 1.0)
        assert pt.label is Label.RESOLVENT
        assert pt.evidence.disk_position == "exterior"

    def test_zero_is_continuous_candidate(self):
        pt = classify_point(0.0, CESARO, UNIT, 1.0)
        assert pt.label is Label.CONTINUOUS_CANDIDATE

    def test_diagonal_point_with_decaying_weight(self):
        pt = classify_point(1.0, CESARO, cesaro_scaled(1.0), 1.0)
        assert pt.label is Label.POINT
        assert pt.evidence.in_S

    def test_point_labels_imply_membership(self):
        rng = np.random.default_rng(3)
        s = cesaro_scaled(1.0)
        for _ in range(100):
            lam = complex(rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 0.5))
            pt = classify_point(lam, CESARO, s, 1.0)
            if pt.label is Label.POINT:
                assert pt.evidence.in_S
                assert pt.evidence.a1 is TriState.YES

    def test_monotone_point_spectrum(self):
        # if a_m is an eigenvalue then every larger diagonal value is too
        s = power_weight(2.0)
        labels = {}
        for m in range(1, 6):
            lam = CESARO.value(m)
            labels[m] = classify_point(lam, CESARO, s, 1.0).label
        assert labels[1] is Label.POINT
        assert labels[2] is Label.POINT
        assert labels[3] is not Label.POINT
        members = [m for m, lab in labels.items() if lab is Label.POINT]
        for m in members:
            assert all(k in members for k in range(1, m))

    def test_non_decreasing_weight_degrades_exterior(self):
        s = table([0.5, 1.0, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8])
        pt = classify_point(2.0, CESARO, s, 1.0, n_max=8)
        assert pt.label is Label.BOUNDARY_UNKNOWN


@pytest.mark.parametrize("lam", [math.nan, math.inf, complex(0.5, math.nan), complex(-math.inf, 0.0)])
@pytest.mark.parametrize(
    "entry",
    [
        lambda lam: classify_point(lam, CESARO, UNIT, 1.0),
        lambda lam: point_spectrum_test(lam, CESARO, UNIT, 1.0),
        lambda lam: adjoint_point_test(lam, CESARO, UNIT, 1.0),
        lambda lam: disk_position(lam, 1.0),
        lambda lam: dist_to_S(lam, CESARO),
        lambda lam: eigenvector(lam, CESARO, 10),
        lambda lam: adjoint_eigvector(lam, CESARO, 10),
        lambda lam: resolvent_section(lam, CESARO, 10),
        lambda lam: alpha(lam),
        lambda lam: log_product(CESARO, lam, 0, 4),
        lambda lam: ratio_band(CESARO, lam, 1.0, (16, 256)),
    ],
    ids=[
        "classify_point", "point_spectrum_test", "adjoint_point_test", "disk_position", "dist_to_S",
        "eigenvector", "adjoint_eigvector", "resolvent_section", "alpha", "log_product", "ratio_band",
    ],
)
def test_non_finite_lambda_rejected(entry, lam):
    with pytest.raises(TerraspecError) as exc:
        entry(lam)
    assert exc.value.code == "lambda-not-finite"


def _reference_locate(lam, a, n_max=SCAN_N):
    """The O(n_max) pass per point that _locate replaced: (dist, nearest, first snap hit)."""
    vals = a.values(scan_depth(a, n_max))
    band = spectrum.SNAP_TOL * np.abs(vals)
    diffs = np.abs(lam - vals)
    k = int(np.argmin(diffs))
    h = int(np.argmax(diffs <= band))
    hit = h + 1 if diffs[h] <= band[h] else None
    if abs(lam) < diffs[k]:
        return abs(lam), 0, hit
    return float(diffs[k]), k + 1, hit


def _reference_classify_point(lam, a, s, chi, *, n_max=SCAN_N):
    """The per-point decision tree classify_points replaced, on the reference locate pass.

    Only bounded weights are passed here, so the boundedness check is left out.
    """
    lam = complex(lam)
    depth = min(n_max, 4096) if max_index(s) is None else min(n_max, 4096, max_index(s))
    s_decreasing = verify_weight(s, depth).decreasing
    dist, nearest, idx = _reference_locate(lam, a, n_max)
    in_s = idx is not None
    if lam == 0:
        ev = Evidence(
            None, None, "boundary", True, False, None, dist, nearest, TriState.NO, TriState.NO,
            "lambda = 0: kernel trivial", "lambda = 0: excluded from the adjoint series set",
        )
        return SpectralPoint(lam, Label.CONTINUOUS_CANDIDATE, ev)
    al = alpha(lam)
    pos = disk_position(lam, chi)
    if in_s:
        a1 = spectrum._point_test_at(lam, idx, a, s, chi, al * chi, n_max)
        a2 = ProbeResult(TriState.NO, "lambda in S: excluded from the adjoint series set")
    else:
        a1 = ProbeResult(TriState.NO, "lambda not in S")
        a2 = spectrum._adjoint_test_at(lam, s, al * chi, pos, n_max)
    if a1.outcome is TriState.YES:
        label = Label.POINT
    elif in_s:
        label = Label.RESIDUAL if a1.outcome is TriState.NO else Label.BOUNDARY_UNKNOWN
    elif a2.outcome is TriState.YES:
        label = Label.RESIDUAL
    elif a2.outcome is TriState.INCONCLUSIVE or not s_decreasing:
        label = Label.BOUNDARY_UNKNOWN
    elif pos == "exterior":
        label = Label.RESOLVENT
    elif pos == "interior":
        label = Label.CONTINUOUS_CANDIDATE
    else:
        label = Label.BOUNDARY_UNKNOWN
    ev = Evidence(
        al, al * chi, pos, False, in_s, idx, dist, nearest, a1.outcome, a2.outcome, a1.detail, a2.detail,
    )
    return SpectralPoint(lam, label, ev)


# a_5 repeats a_4, so the first snap hit is not the only one
_TABLE_A = table([1.0 / n if n != 5 else 0.25 for n in range(1, 65)])
DIAGONALS = {
    "cesaro_0.7": (cesaro_scaled(0.7), 0.7),
    "p_cesaro_0.9": (p_cesaro(0.9), 1.0),
    "table": (_TABLE_A, 1.0),
    "custom": (custom(lambda n: 0.8 / n + 0.1 / n**2), 0.8),
}
WEIGHTS = {"constant": UNIT, "power_1.5": power_weight(1.5), "cesaro": cesaro_scaled(1.0)}


def _probe_lambdas(a, chi, depth):
    """The chi-scaled 9 x 5 grid (with 0) plus diagonal, snap-band and off-band points."""
    grid = GridSpec((-0.5 * chi, 1.5 * chi), (-0.5 * chi, 0.5 * chi), (9, 5))
    lams = [complex(re, im) for im in grid.im_values() for re in grid.re_values()]
    for k in (1, 2, 3, 4, 5, 7, 40, depth):
        v = a.value(k)
        lams += [v, v * (1 + 5e-14), v * (1 - 5e-14), v * (1 + 5e-13), complex(v, 1e-15), complex(v, 1e-3)]
    return lams


class TestClassifyPointsAgainstReference:
    @pytest.mark.parametrize("weight", WEIGHTS)
    @pytest.mark.parametrize("diagonal", DIAGONALS)
    def test_same_label_and_evidence(self, diagonal, weight):
        a, chi = DIAGONALS[diagonal]
        s = WEIGHTS[weight]
        lams = _probe_lambdas(a, chi, max_index(a) or 2000)
        got = classify_points(lams, a, s, chi)
        want = [_reference_classify_point(lam, a, s, chi) for lam in lams]
        assert [repr(p) for p in got] == [repr(p) for p in want]
        assert any(p.evidence.in_S for p in got) and any(p.lam == 0 for p in got)

    def test_beyond_the_scan_depth(self):
        lams = _probe_lambdas(CESARO, 1.0, 600)
        got = classify_points(lams, CESARO, power_weight(1.5), 1.0, n_max=500)
        want = [_reference_classify_point(lam, CESARO, power_weight(1.5), 1.0, n_max=500) for lam in lams]
        assert [repr(p) for p in got] == [repr(p) for p in want]

    def test_non_decreasing_weight(self):
        s = table([0.5, 1.0, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8])
        lams = _probe_lambdas(CESARO, 1.0, 8)
        got = classify_points(lams, CESARO, s, 1.0, n_max=8)
        want = [_reference_classify_point(lam, CESARO, s, 1.0, n_max=8) for lam in lams]
        assert [repr(p) for p in got] == [repr(p) for p in want]
        assert Label.BOUNDARY_UNKNOWN in {p.label for p in got}

    def test_one_disk_position_and_alpha_per_point(self, call_log):
        log = call_log(spectrum, "alpha", "disk_position", "_disk_position")
        lams = _probe_lambdas(CESARO, 1.0, 2000)
        points = classify_points(lams, CESARO, power_weight(1.5), 1.0)
        nonzero = sum(lam != 0 for lam in lams)
        # A1 of a lambda in the snap band of a_k != lambda runs at alpha(a_k)
        snapped = sum(p.evidence.in_S and p.lam != CESARO.value(p.evidence.s_index) for p in points)
        calls = Counter(name for name, _ in log)
        assert {p.label for p in points} >= {Label.RESOLVENT, Label.RESIDUAL, Label.POINT}
        assert snapped > 0 and calls["alpha"] <= nonzero + snapped
        assert calls["disk_position"] + calls["_disk_position"] <= nonzero

    def test_single_point_is_classify_point(self):
        lams = _probe_lambdas(CESARO, 1.0, 100)
        assert classify_points(lams, CESARO, UNIT, 1.0) == [classify_point(lam, CESARO, UNIT, 1.0) for lam in lams]

    @pytest.mark.parametrize(
        "lams,chi,code",
        [
            ([0.4, 5e-14], 0.01, "closure-boundary-unsupported"),
            ([0.4, math.nan], 1.0, "lambda-not-finite"),
        ],
        ids=["lams0-closure-boundary-unsupported", "lams1-lambda-not-finite"],
    )
    def test_one_bad_point_fails_the_list(self, lams, chi, code):
        with pytest.raises(TerraspecError) as exc:
            classify_points(lams, CESARO, UNIT, chi)
        assert exc.value.code == code

    def test_unbounded_weight_rejected(self):
        with pytest.raises(TerraspecError) as exc:
            classify_points([0.4], CESARO, power_weight(-1.0), 1.0)
        assert exc.value.code == "weight-not-bounded"


# tables with repeated values and out of order, and a custom diagonal that is not monotone
_REPEATS = table([1.0, 0.5, 0.5, 0.25, 0.25, 0.25] + [1.0 / n for n in range(7, 200)] + [0.1] * 50)
_SHUFFLED = table(list(np.random.default_rng(11).permutation([1.0 / (1 + n % 97) for n in range(3000)])))
LOCATE_SPECS = {
    "cesaro_0.7": (cesaro_scaled(0.7), 0.7),
    "p_cesaro_1.3": (p_cesaro(1.3), 1.0),
    "power_weight_0.75": (power_weight(0.75), 1.0),
    "log_reciprocal": (log_reciprocal(), 1.0),
    "constant_0.3": (constant(0.3), 0.3),
    "table": (_TABLE_A, 1.0),
    "repeats": (_REPEATS, 1.0),
    "shuffled": (_SHUFFLED, 1.0),
    "custom": (custom(lambda n: 0.8 / n + 0.1 / n**2), 0.8),
    "custom_zigzag": (custom(lambda n: (1.0 + 0.5 * (-1) ** n) / n), 1.0),
}


@st.composite
def _locate_lambdas(draw, a, chi, depth):
    """Grid nodes, a_k, a_k(1 +- 5e-14), a_k(1 + 5e-13), a_k + 1e-15i and 0."""
    grid = GridSpec((-0.5 * chi, 1.5 * chi), (-0.5 * chi, 0.5 * chi), (41, 41))
    re, im = grid.re_values(), grid.im_values()
    node = st.builds(lambda i, j: complex(re[i], im[j]), st.integers(0, 40), st.integers(0, 40))
    k = st.one_of(st.integers(1, min(depth, 12)), st.integers(1, depth))
    near = st.builds(
        lambda k, f: f(a.value(k)),
        k,
        st.sampled_from([
            complex, lambda v: v * (1 + 5e-14), lambda v: v * (1 - 5e-14),
            lambda v: v * (1 + 5e-13), lambda v: complex(v, 1e-15),
        ]),
    )
    return draw(st.lists(st.one_of(node, near, st.just(0j)), min_size=1, max_size=24))


class TestLocate:
    @pytest.mark.parametrize("name", LOCATE_SPECS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_the_reference_pass(self, name, data):
        a, chi = LOCATE_SPECS[name]
        n_max = data.draw(st.sampled_from([1, 7, 600, SCAN_N]), label="n_max")
        depth = scan_depth(a, n_max)
        lams = data.draw(_locate_lambdas(a, chi, depth), label="lams")
        vals, order = spectrum._diagonal(a, n_max)
        assert np.array_equal(order, np.argsort(vals, kind="stable"))
        got = spectrum._locate(lams, vals, order)
        for lam, (dist, nearest, hit) in zip(lams, got):
            want_dist, want_nearest, want_hit = _reference_locate(lam, a, n_max)
            assert hit == want_hit
            assert dist == want_dist and type(dist) is float
            if nearest != want_nearest:
                # the two candidates lie at the same float distance; the reference took the first
                assert 0 < want_nearest < nearest
                assert np.abs(lam - vals[nearest - 1]) == np.abs(lam - vals[want_nearest - 1])
            assert (dist, nearest) == dist_to_S(lam, a, n_max) and hit == find_in_S(lam, a, n_max)

    def test_equal_distances_keep_the_smaller_index(self):
        a = table([1.0, 0.5, 0.25])
        assert dist_to_S(0.75, a) == (0.25, 1)
        assert dist_to_S(0.375, a) == (0.125, 2)
        assert dist_to_S(complex(0.75, 0.5), a) == (abs(complex(0.25, 0.5)), 1)

    def test_zero_wins_only_when_strictly_nearer(self):
        a = table([0.5, 1.0])
        assert dist_to_S(0.25, a) == (0.25, 1)
        assert dist_to_S(0.2, a) == (0.2, 0)
        assert dist_to_S(complex(0.0, 0.25), a) == (0.25, 0)

    def test_first_hit_among_repeats(self):
        # a_4 = a_5 and a_250.. repeat 0.1 = a_10; the first index is reported
        assert find_in_S(0.25, _TABLE_A) == 4
        assert find_in_S(0.25 * (1 + 5e-14), _REPEATS) == 4
        assert find_in_S(0.1, _REPEATS) == 10
        assert find_in_S(0.3, constant(0.3)) == 1
        assert find_in_S(0.3 * (1 + 5e-13), constant(0.3)) is None
        # two distinct values in one snap band: the least index, not the least value
        close = table([1.0, 1.0 - 5e-14, 0.5])
        assert find_in_S(1.0 - 2.5e-14, close) == 1 == _reference_locate(1.0 - 2.5e-14, close)[2]
        # geometric(0.5) underflows to 0.0 from a_1075 on: lambda = 0 matches it exactly
        assert find_in_S(0.0, geometric(0.5)) == 1075 and dist_to_S(0.0, geometric(0.5)) == (0.0, 1075)

    def test_one_locate_and_one_sort_per_call(self, call_log, tmp_path):
        locates = call_log(spectrum, "_locate")
        sorts = call_log(np, "argsort")
        a = cesaro_scaled(0.7)
        grid = GridSpec((-0.35, 1.05), (-0.5, 0.5), (41, 41))
        points = spectrum_grid(a, power_weight(1.5), 0.7, grid)
        assert len(points) == 1681
        assert [len(args[0]) for _, args in locates] == [1681]
        assert len(sorts) == 1
        # point-test reads both of its tests off the same pass: one A1 per lambda in S
        tests = call_log(spectrum, "_point_test_at")
        lams = [0.7, 0.35, 0.35 * (1 + 5e-14), a.value(7), 0.3 + 0.2j, 2.0, -0.5, 0.0]
        cfg = tmp_path / "points.json"
        cfg.write_text(json.dumps({
            "a": to_json(a), "chi": 0.7,
            "point_test": {"lambdas": [[lam.real, lam.imag] for lam in map(complex, lams)]},
        }))
        locates.clear()
        sorts.clear()
        assert main(["point-test", "--config", str(cfg), "--out", str(tmp_path / "out.json")]) == 0
        assert [len(args[0]) for _, args in locates] == [len(lams)]
        assert len(sorts) == 1
        assert [args[1] for _, args in tests] == [1, 2, 2, 7]


class TestClosureBoundary:
    README_GRID = GridSpec((-0.175, 0.875), (-0.525, 0.525), (13, 13))

    def test_grid_node_next_to_zero_is_labelled(self):
        points = spectrum_grid(cesaro_scaled(0.7), UNIT, 0.7, self.README_GRID)
        tiny = [p for p in points if 0 < abs(p.lam) <= spectrum.SNAP_TOL]
        assert len(tiny) == 1 and abs(tiny[0].lam) < 1e-16
        ev = tiny[0].evidence
        assert tiny[0].label is Label.BOUNDARY_UNKNOWN
        assert (ev.disk_position, ev.in_S, ev.a1, ev.a2) == ("boundary", False, TriState.NO, TriState.NO)

    @pytest.mark.parametrize("lam", [1e-200, complex(1e-200, -3e-201), complex(0.0, 1e-170)], ids=repr)
    def test_tiny_lambda_is_classified(self, lam):
        # |lambda|^2 underflows; alpha = Re(1/lambda) is still finite
        pt = classify_point(lam, cesaro_scaled(1.0), UNIT, 1.0)
        assert pt.evidence.alpha == pytest.approx((1 / complex(lam)).real, rel=1e-15)
        assert (pt.label, pt.evidence.disk_position) == (Label.BOUNDARY_UNKNOWN, "boundary")

    def test_alpha_chi_past_the_double_range_raises(self):
        with pytest.raises(TerraspecError) as exc:
            classify_point(1e-308, cesaro_scaled(2.0), UNIT, 2.0)
        assert exc.value.code == "alpha-overflow"

    def test_snapped_lambda_is_tested_at_its_diagonal_value(self):
        # 0.7000000000000002 snaps to a_1 = chi = 0.7, where alpha * chi = 1 and a_n n -> chi
        a = cesaro_scaled(0.7)
        lam = 0.7000000000000002
        assert lam > 0.7 and find_in_S(lam, a) == 1
        assert point_spectrum_test(lam, a, UNIT, 0.7) == point_spectrum_test(0.7, a, UNIT, 0.7)
        assert point_spectrum_test(lam, a, UNIT, 0.7).outcome is TriState.NO
        pt = classify_point(lam, a, UNIT, 0.7)
        assert (pt.label, pt.evidence.a1) == (Label.RESIDUAL, TriState.NO)


class TestSpectrumGrid:
    def test_three_by_three(self):
        grid = GridSpec((-0.2, 1.2), (-0.2, 0.2), (3, 3))
        points = spectrum_grid(CESARO, UNIT, 1.0, grid)
        assert len(points) == 9
        for pt in points:
            off_closure = pt.evidence.dist_to_S > 1e-9
            if abs(pt.lam - 0.5) > 0.5 + 1e-12 and off_closure:
                assert pt.label is Label.RESOLVENT

    def test_zero_node_labeled_continuous(self):
        grid = GridSpec((-0.2, 0.2), (-0.2, 0.2), (3, 3))
        points = spectrum_grid(CESARO, UNIT, 1.0, grid)
        zero_pt = [p for p in points if p.lam == 0][0]
        assert zero_pt.label is Label.CONTINUOUS_CANDIDATE

    def test_row_major_order(self):
        grid = GridSpec((-1.0, 1.0), (-0.5, 0.5), (3, 2))
        points = spectrum_grid(CESARO, UNIT, 1.0, grid)
        lams = [p.lam for p in points]
        assert lams[0] == complex(-1.0, -0.5)
        assert lams[1] == complex(0.0, -0.5)
        assert lams[3] == complex(-1.0, 0.5)

    def test_degenerate_grid_rejected(self):
        with pytest.raises(TerraspecError) as exc:
            GridSpec((0.0, 1.0), (0.0, 1.0), (1, 3))
        assert exc.value.code == "grid-degenerate"


def sigma_min_2x2(mat):
    # closed-form smallest singular value of a real 2x2 matrix
    t = float(np.sum(mat * mat))
    d = float(np.linalg.det(mat)) ** 2
    return math.sqrt((t - math.sqrt(t * t - 4.0 * d)) / 2.0)


class TestPseudospectrum:
    def test_singular_at_eigenvalue(self):
        sec = build_section(table([1.0]), 1)
        grid = GridSpec((0.5, 1.0), (0.0, 0.1), (2, 2))
        out = pseudospectrum_grid(sec, grid, [1e-2])
        j = list(grid.re_values()).index(1.0)
        assert out.sigma_min[0, j] == 0.0
        assert out.membership[1e-2][0, j]

    def test_2x2_oracle(self):
        sec = build_section(CESARO, 2)
        grid = GridSpec((3.0, 4.0), (0.0, 1.0), (2, 2))
        out = pseudospectrum_grid(sec, grid, [0.5])
        expected = sigma_min_2x2(np.array([[1.0 - 3.0, 0.0], [0.5, 0.5 - 3.0]]))
        assert out.sigma_min[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_exterior_node_stays_away_from_zero(self):
        sigmas = []
        for n in (32, 64, 128):
            sec = build_section(CESARO, n)
            sigmas.append(scipy.linalg.svdvals(sec.entries - 2.0 * np.eye(n))[-1])
        assert all(s > 0.5 for s in sigmas)
        assert sigmas[1] / sigmas[0] > 0.9 and sigmas[2] / sigmas[1] > 0.9

    def test_cap(self):
        sec = build_section(CESARO, 513)
        grid = GridSpec((2.0, 3.0), (0.0, 1.0), (2, 2))
        with pytest.raises(TerraspecError) as exc:
            pseudospectrum_grid(sec, grid, [0.1])
        assert exc.value.code == "section-too-large"


def _sigma_min_references(sec, lam):
    """(svdvals, forward substitution, reliable floor) for sigma_min(section - lambda I).

    Forward substitution inverts the triangular matrix; the top eigenvalue of
    the inverse's Gram matrix is 1/sigma_min^2.  Both references are off by
    up to about n eps ||T - lambda I||_F absolute, so the floor is 1e7 times
    that: above it they are accurate to 1e-7 relative.
    """
    n = sec.n
    mat = sec.entries - lam * np.eye(n)
    dense = scipy.linalg.svdvals(mat)[-1]
    floor = 1e7 * n * np.finfo(float).eps * np.linalg.norm(mat)
    with np.errstate(over="ignore", invalid="ignore"):
        inv = scipy.linalg.solve_triangular(mat, np.eye(n, dtype=complex), lower=True)
        scale = np.max(np.abs(inv))
    if not np.isfinite(scale):
        return dense, 0.0, floor
    inv /= scale  # the Gram matrix of the unscaled inverse can overflow
    return dense, 1.0 / (scale * math.sqrt(np.linalg.eigvalsh(inv.conj().T @ inv)[-1])), floor


_PSEUDO_DIAGONALS = {
    "cesaro_scaled": st.floats(0.3, 3.0).map(cesaro_scaled),
    "p_cesaro": st.floats(0.5, 2.0).map(p_cesaro),
    "log_reciprocal": st.just(log_reciprocal()),
    "geometric": st.floats(0.2, 0.9).map(geometric),
    "table": st.integers(0, 2**32 - 1).map(lambda seed: table(np.random.default_rng(seed).uniform(0.01, 2.0, 200))),
}


@st.composite
def _pseudo_case(draw, family):
    """A terraced section and a grid whose first column can sit on 0, on some a_k or on a random real."""
    a = draw(_PSEUDO_DIAGONALS[family], label="a")
    n = draw(st.integers(1, 200), label="n")
    vals = a.values(n)
    lo = draw(st.one_of(st.just(0.0), st.sampled_from(vals.tolist()), st.floats(-1.0, 1.0)), label="re_lo")
    hi = lo + draw(st.floats(0.05, 2.0), label="re_width")
    im_lo = draw(st.one_of(st.just(0.0), st.floats(-1.0, 0.0)), label="im_lo")
    im_hi = im_lo + draw(st.floats(0.05, 1.0), label="im_height")
    res = draw(st.tuples(st.integers(2, 3), st.integers(2, 3)), label="resolution")
    return build_section(a, n), GridSpec((lo, hi), (im_lo, im_hi), res)


class TestStructuredPseudospectrum:
    """The terraced route (semiseparable inverse and batched Lanczos) against dense references."""

    @staticmethod
    def _check_against_references(sec, grid):
        out = pseudospectrum_grid(sec, grid, [1e-3, 0.1])
        vals = sec.entries[:, 0].real
        for i, im in enumerate(grid.im_values()):
            for j, re in enumerate(grid.re_values()):
                lam = complex(re, im)
                got = out.sigma_min[i, j]
                if lam in vals:
                    assert got == 0.0
                    continue
                dense, forward, floor = _sigma_min_references(sec, lam)
                if forward > floor:
                    # 1e-10 relative, plus the references' own rounding
                    assert got == pytest.approx(dense, rel=1e-10, abs=1e-7 * floor), lam
                    assert got == pytest.approx(forward, rel=1e-10, abs=1e-7 * floor), lam
                else:
                    assert got <= 2.0 * floor, lam
        for e, member in out.membership.items():
            assert np.array_equal(member, out.sigma_min <= e)
        return out

    @pytest.mark.parametrize("family", list(_PSEUDO_DIAGONALS))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_matches_svdvals_and_forward_substitution(self, family, data):
        sec, grid = data.draw(_pseudo_case(family))
        self._check_against_references(sec, grid)

    def test_readme_grid_with_the_node_next_to_zero(self):
        sec = build_section(cesaro_scaled(0.7), 40)
        grid = GridSpec((-0.175, 0.875), (-0.525, 0.525), (13, 13))
        lams = grid.re_values()[None, :] + 1j * grid.im_values()[:, None]
        assert np.any((0 < np.abs(lams)) & (np.abs(lams) < 1e-16))  # the 2.8e-17 node
        self._check_against_references(sec, grid)

    def test_zero_and_diagonal_nodes(self):
        sec = build_section(cesaro_scaled(1.0), 50)
        out = self._check_against_references(sec, GridSpec((0.0, 0.5), (0.0, 0.2), (3, 2)))
        assert out.sigma_min[0, 0] == scipy.linalg.svdvals(sec.entries)[-1]  # lambda = 0 is dense
        assert out.sigma_min[0, 2] == 0.0  # lambda = a_2

    def test_bit_identical_reruns(self):
        sec = build_section(p_cesaro(1.3), 150)
        grid = GridSpec((-0.4, 1.3), (-0.6, 0.6), (7, 5))
        first = pseudospectrum_grid(sec, grid, [0.01])
        second = pseudospectrum_grid(sec, grid, [0.01])
        assert first.sigma_min.tobytes() == second.sigma_min.tobytes()

    def test_svdvals_only_at_fallback_nodes(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(mat, *args, **kwargs):
            calls.append(mat[0, 0])
            return svd(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        sec = build_section(cesaro_scaled(1.0), 60)
        pseudospectrum_grid(sec, GridSpec((-0.2, 1.2), (-0.3, 0.3), (5, 4)), [0.1])
        assert calls == []
        pseudospectrum_grid(sec, GridSpec((0.0, 1.2), (0.0, 0.3), (5, 4)), [0.1])
        assert calls == [1.0]  # only lambda = 0 leaves the structured route
        calls.clear()
        general = FiniteSection(60, sec.entries, "general")
        pseudospectrum_grid(general, GridSpec((-0.2, 1.2), (-0.3, 0.3), (5, 4)), [0.1])
        assert len(calls) == 20

    @pytest.mark.parametrize("e", [10, 100, 150, 200, 305, 307])
    def test_near_singular_node_next_to_a_diagonal_value(self, e):
        # sigma_min is about 1e-(e+4) here; without the scaling by max |d_n| the Lanczos
        # values of B^H B pass the double range from e = 70 or so on, and from e = 305 on
        # max |d_n| * sigma_max(B / max |d_n|) does.  Forward substitution returns 0 there,
        # so those nodes are checked against e = 300 scaled: sigma_min is linear in Im lambda
        sec = build_section(CESARO, 50)
        lam = CESARO.value(3) + 1j * 10.0**-e
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spectrum._inverse_sigma_min(sec.entries[:, 0].real, np.array([lam]))[0]
        assert np.isfinite(got)
        if e <= 300:
            _, forward, _ = _sigma_min_references(sec, lam)
            assert got == pytest.approx(forward, rel=1e-10)
        else:
            _, forward, _ = _sigma_min_references(sec, CESARO.value(3) + 1e-300j)
            assert got == pytest.approx(forward * 10.0 ** (300 - e), rel=1e-9)

    def test_inverse_past_the_double_range_falls_back(self):
        # for |lambda| = 1e-5 log|prod (1 - a_k/lambda)| spans more than 2 * 709 over 200 terms,
        # so u or v leaves the double range although sigma_min is about 2.6e-3
        sec = build_section(cesaro_scaled(1.0), 200)
        assert np.isnan(spectrum._inverse_sigma_min(sec.entries[:, 0].real, np.array([-1e-5 + 0j])))[0]
        out = pseudospectrum_grid(sec, GridSpec((-1e-5, 1e-5), (0.0, 1e-5), (2, 2)), [0.1])
        assert out.sigma_min[0, 0] == scipy.linalg.svdvals(sec.entries + 1e-5 * np.eye(200))[-1]
        assert 2e-3 < out.sigma_min[0, 0] < 3e-3
