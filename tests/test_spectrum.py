import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from terraspec import spectrum
from terraspec.errors import TerraspecError
from terraspec.numerics import TriState
from terraspec.products import alpha, log_product, ratio_band
from terraspec.sequences import cesaro_scaled, constant, custom, log_reciprocal, max_index, p_cesaro, power_weight
from terraspec.sequences import geometric, table, verify_weight
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
from terraspec.terraced import build_section

CESARO = cesaro_scaled(1.0)
UNIT = constant(1.0)


class TestDiskPosition:
    @pytest.mark.parametrize("lam,expected", [(0.5, "interior"), (1.0, "boundary"), (2.0, "exterior")])
    def test_unit_chi(self, lam, expected):
        assert disk_position(lam, 1.0) == expected

    def test_zero_on_circle(self):
        assert disk_position(0.0, 1.0) == "boundary"

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
        with pytest.raises(TerraspecError) as exc:
            adjoint_point_test(1e-14, CESARO, UNIT, 1.0)
        assert exc.value.code == "closure-boundary-unsupported"


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


def _reference_classify_point(lam, a, s, chi, *, n_max=SCAN_N):
    """The per-point decision tree classify_points replaced, built from the public tests.

    Only bounded weights are passed here, so the boundedness check is left out.
    """
    lam = complex(lam)
    depth = min(n_max, 4096) if max_index(s) is None else min(n_max, 4096, max_index(s))
    s_decreasing = verify_weight(s, depth).decreasing
    dist, nearest = dist_to_S(lam, a, n_max)
    idx = find_in_S(lam, a, n_max)
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
        a1 = point_spectrum_test(lam, a, s, chi, n_max=n_max)
        a2 = ProbeResult(TriState.NO, "lambda in S: excluded from the adjoint series set")
    else:
        a1 = ProbeResult(TriState.NO, "lambda not in S")
        a2 = adjoint_point_test(lam, a, s, chi, n_max=n_max)
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
        calls = Counter(name for name, _ in log)
        assert {p.label for p in points} >= {Label.RESOLVENT, Label.RESIDUAL, Label.POINT}
        assert calls["alpha"] <= nonzero and calls["disk_position"] + calls["_disk_position"] <= nonzero

    def test_single_point_is_classify_point(self):
        lams = _probe_lambdas(CESARO, 1.0, 100)
        assert classify_points(lams, CESARO, UNIT, 1.0) == [classify_point(lam, CESARO, UNIT, 1.0) for lam in lams]

    @pytest.mark.parametrize(
        "lams,code",
        [
            ([0.4, 1e-14], "closure-boundary-unsupported"),
            ([0.4, math.nan], "lambda-not-finite"),
        ],
    )
    def test_one_bad_point_fails_the_list(self, lams, code):
        with pytest.raises(TerraspecError) as exc:
            classify_points(lams, CESARO, UNIT, 1.0)
        assert exc.value.code == code

    def test_unbounded_weight_rejected(self):
        with pytest.raises(TerraspecError) as exc:
            classify_points([0.4], CESARO, power_weight(-1.0), 1.0)
        assert exc.value.code == "weight-not-bounded"


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
