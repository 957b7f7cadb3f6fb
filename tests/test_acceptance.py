"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and runtime budget is asserted here, not eyeballed.
"""

import contextlib
import json
import math
import time

import numpy as np
import scipy.linalg

from terraspec.asymptotics import AsymptoticClass
from terraspec.cli import main as cli_main
from terraspec.ideals import SNumberSequence, check_quasinorm_axioms, inclusion_check
from terraspec.numerics import TriState, compensated_cumsum
from terraspec.products import alpha, ratio_band
from terraspec.sequences import cesaro_scaled, constant, geometric, log_reciprocal
from terraspec.spectrum import (
    Label,
    adjoint_eigvector,
    adjoint_point_test,
    classify_point,
    eigenvector,
    point_spectrum_test,
    resolvent_section,
    spectrum_grid,
    verify_resolvent,
    GridSpec,
)
from terraspec.terraced import build_section, classify_boundedness, criterion_sequence


@contextlib.contextmanager
def criterion(num, description, limit_seconds=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if limit_seconds is not None:
            assert elapsed < limit_seconds, f"runtime {elapsed:.2f}s over the {limit_seconds}s budget"
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {description}")
        raise
    print(f"[criterion {num:02d}] PASS  {description} ({elapsed:.2f}s)")


def test_criterion_01_compact_pair_closed_form():
    with criterion(1, "compact pair a=1/log(n+1), s=2^-n matches its closed form", 1.0):
        a, w = log_reciprocal(), geometric(0.5)
        samples = dict(criterion_sequence(a, w, w, 50))
        for n in range(1, 51):
            closed = (2.0 ** (n + 1) - 2.0) / (2.0**n * math.log(n + 1.0))
            assert abs(samples[n] - closed) <= 1e-12 * closed
        report = classify_boundedness(a, w, w)
        assert report.compact is TriState.YES


def test_criterion_02_cesaro_baseline():
    with criterion(2, "Cesaro on plain c0: c_n = 1 exactly, norm 1, empty point spectrum", 1.0):
        a, u = cesaro_scaled(1.0), constant(1.0)
        n_max = 10**4
        sums = compensated_cumsum(1.0 / u.values(n_max))
        c_all = u.values(n_max) * a.scaled_values(sums)
        assert np.all(c_all == 1.0)
        samples = criterion_sequence(a, u, u, n_max)
        assert all(c == 1.0 for _, c in samples)
        report = classify_boundedness(a, u, u, n_max)
        assert report.norm == 1.0
        assert report.compact is TriState.NO
        vals = a.values(100)
        for k in range(100):
            out = point_spectrum_test(complex(vals[k]), a, u, 1.0)
            assert out.outcome is TriState.NO, f"a_{k + 1} wrongly in the point spectrum"


def test_criterion_03_resolvent_oracle_equivalence():
    with criterion(3, "explicit resolvent matches forward substitution to 1e-10", 10.0):
        rng = np.random.default_rng(404)
        N = 200
        mask = np.tril(np.ones((N, N), dtype=bool))
        eye = np.eye(N, dtype=complex)
        for chi in (1.0, 2.0):
            a = cesaro_scaled(chi)
            vals = a.values(N)
            drawn = 0
            while drawn < 10:
                lam = complex(rng.uniform(-2 * chi, 3 * chi), rng.uniform(-2 * chi, 2 * chi))
                if min(np.min(np.abs(lam - vals)), abs(lam)) < 0.2:
                    continue
                B = resolvent_section(lam, a, N).entries
                M = build_section(a, N).entries - lam * np.eye(N)
                oracle = scipy.linalg.solve_triangular(M, eye, lower=True)
                rel = np.max(np.abs(B - oracle)[mask] / np.abs(oracle)[mask])
                assert rel <= 1e-10, (chi, lam, rel)
                check = verify_resolvent(lam, a, N)
                assert check.max_residual <= 1e-10, (chi, lam, check.max_residual)
                drawn += 1


def test_criterion_04_nesting_invariant():
    with criterion(4, "leading blocks of the N=300 resolvent nest exactly"):
        for lam in (2.0, 1.3 + 0.7j):
            big = resolvent_section(lam, cesaro_scaled(1.0), 300).entries
            for m in (10, 50, 150):
                small = resolvent_section(lam, cesaro_scaled(1.0), m).entries
                assert np.array_equal(big[:m, :m], small)


def test_criterion_05_product_asymptotics():
    with criterion(5, "tail products track n^(-alpha*chi): bounded band, drift on +0.05", 30.0):
        rng = np.random.default_rng(2024)
        n_range = (2**7, 2**15)
        for chi in (0.5, 1.0, 2.0):
            a = cesaro_scaled(chi)
            vals = a.values(n_range[1])
            drawn = 0
            while drawn < 10:
                lam = complex(rng.uniform(-3 * chi, 3 * chi), rng.uniform(-3 * chi, 3 * chi))
                if min(np.min(np.abs(lam - vals)), abs(lam)) < 0.1 * chi:
                    continue
                if abs(alpha(lam) * chi - 1.0) < 0.1:
                    continue
                report = ratio_band(a, lam, chi, n_range)
                assert report.verdict == "bounded_band", (chi, lam, report.log_log_slope)
                assert abs(report.log_log_slope) < 0.02
                drawn += 1
        # deliberately perturbed exponent must drift
        lam = 2.0
        true_exp = alpha(lam) * 1.0
        bad = ratio_band(cesaro_scaled(1.0), lam, 1.0, n_range, exponent=true_exp + 0.05)
        assert bad.verdict == "drifting"


def test_criterion_06_eigen_recurrence():
    with criterion(6, "diagonal 1 is an eigenvalue for s=1/n and the eigenvector solves it"):
        a = cesaro_scaled(1.0)
        s = cesaro_scaled(1.0)
        assert classify_point(1.0, a, s, 1.0).label is Label.POINT
        N = 1000
        x = eigenvector(1.0, a, N)
        sums = np.cumsum(x)
        resid = np.abs(a.values(N) * sums - 1.0 * x) / np.abs(x)
        assert resid.max() <= 1e-10
        assert classify_point(0.5, a, s, 1.0).label is not Label.POINT


def test_criterion_07_fine_spectrum_partition():
    with criterion(7, "41x41 Cesaro/c0 portrait: resolvent exterior, residual interior, 0 continuous", 30.0):
        a, u = cesaro_scaled(1.0), constant(1.0)
        grid = GridSpec((-0.25, 1.25), (-0.75, 0.75), (41, 41))
        points = spectrum_grid(a, u, 1.0, grid)
        assert len(points) == 41 * 41
        for pt in points:
            assert isinstance(pt.label, Label)  # exactly one label per node
            radius = abs(pt.lam - 0.5)
            off_closure = pt.evidence.dist_to_S > 1e-9 and abs(pt.lam) > 1e-9
            if radius > 0.5 + 1e-9 and off_closure:
                assert pt.label is Label.RESOLVENT, pt
            if radius < 0.5 - 1e-9 and pt.lam != 0:
                assert pt.label is Label.RESIDUAL, pt
                if not pt.evidence.in_S:
                    assert pt.evidence.a2 is TriState.YES
                    assert pt.evidence.alpha_chi > 1.0
        # the grid spacing misses 0 exactly; the origin is classified directly
        assert classify_point(0.0, a, u, 1.0).label is Label.CONTINUOUS_CANDIDATE


def test_criterion_08_adjoint_tests():
    with criterion(8, "adjoint eigenvectors truncate on S and the series test splits 0.4 vs 2"):
        a, u = cesaro_scaled(1.0), constant(1.0)
        for ell in (1, 3, 7):
            lam = complex(a.values(ell)[ell - 1])
            x = adjoint_eigvector(lam, a, 40)
            assert np.all(x[ell:] == 0.0)
            assert np.all(x[:ell] != 0.0)
            assert adjoint_point_test(lam, a, u, 1.0).outcome is TriState.YES
        assert adjoint_point_test(0.4, a, u, 1.0).outcome is TriState.YES
        assert adjoint_point_test(2.0, a, u, 1.0).outcome is TriState.NO


def test_criterion_09_ideal_axioms():
    with criterion(9, "200 seeded trials at dim 8: all quasi-norm and s-number inequalities hold", 10.0):
        report = check_quasinorm_axioms(200, 8, cesaro_scaled(1.0), constant(1.0), seed=20240501)
        assert report.normalized is TriState.YES
        assert report.violations == {
            "quasi_triangle": 0,
            "lower_bound": 0,
            "lipschitz": 0,
            "composition": 0,
            "rank": 0,
            "additive": 0,
        }


def test_criterion_10_inclusion_and_determinism(tmp_path):
    with criterion(10, "weight inclusion transfers membership; identical seed, identical bytes"):
        rng = np.random.default_rng(31337)
        samples = []
        for _ in range(50):
            gamma = float(rng.uniform(0.4, 2.5))
            scale = float(rng.uniform(0.1, 5.0))
            vals = tuple(scale * (j + 1.0) ** (-gamma) for j in range(64))
            samples.append(
                SNumberSequence(vals, "synthetic", asym=AsymptoticClass(scale, 1.0, -gamma, 0.0))
            )
        report = inclusion_check(geometric(0.5), constant(1.0), samples, cesaro_scaled(1.0))
        assert report.t_members == 50
        assert report.violations == ()
        assert report.inconclusive == 0

        cfg = {
            "a": {"family": "cesaro_scaled", "params": {"chi": 1.0}},
            "r": {"family": "constant", "params": {"value": 1.0}},
            "s": {"family": "constant", "params": {"value": 1.0}},
            "seed": 99,
            "n_max": 2000,
            "spectrum_map": {"grid": {"re_range": [-0.2, 1.2], "im_range": [-0.4, 0.4], "resolution": 7}},
            "ideal_axioms": {"trials": 25, "dim": 6},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg, indent=2))
        for command, suffix in [("classify", "json"), ("spectrum-map", "csv"), ("ideal-axioms", "json")]:
            first = tmp_path / f"{command}-1.{suffix}"
            second = tmp_path / f"{command}-2.{suffix}"
            assert cli_main([command, "--config", str(cfg_path), "--out", str(first)]) == 0
            assert cli_main([command, "--config", str(cfg_path), "--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes(), command
