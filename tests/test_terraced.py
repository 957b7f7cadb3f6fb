import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from scipy.special import logsumexp

from terraspec.asymptotics import Limit, limit_class
from terraspec.errors import TerraspecError
from terraspec.numerics import TriState, classify_limit_trend, dyadic_probes, vanishes
from terraspec.sequences import (
    SequenceSpec,
    cesaro_scaled,
    constant,
    custom,
    geometric,
    log_reciprocal,
    p_cesaro,
    power_weight,
    table,
)
from terraspec.terraced import (
    DENSE_SAMPLE_LIMIT,
    _criterion_scan,
    apply,
    build_section,
    classify_boundedness,
    conjugate_section,
    criterion_sequence,
    operator_norm_bounds,
)


class TestBuildSection:
    def test_cesaro_2x2(self):
        sec = build_section(cesaro_scaled(1.0), 2)
        assert np.array_equal(sec.entries, np.array([[1.0, 0.0], [0.5, 0.5]], dtype=complex))
        assert sec.kind == "terraced"

    def test_table_2x2(self):
        sec = build_section(table([1.0, 0.5]), 2)
        assert np.array_equal(sec.entries, np.array([[1.0, 0.0], [0.5, 0.5]], dtype=complex))

    def test_row_constant(self):
        sec = build_section(cesaro_scaled(2.0), 3)
        assert np.array_equal(sec.entries[2], np.array([2 / 3, 2 / 3, 2 / 3], dtype=complex))

    def test_row_constant_invariant_exact(self):
        for spec in (cesaro_scaled(1.0), log_reciprocal(), geometric(0.5)):
            sec = build_section(spec, 40)
            for i in range(40):
                assert np.all(sec.entries[i, : i + 1] == sec.entries[i, 0])
                assert np.all(sec.entries[i, i + 1 :] == 0.0)


class TestApply:
    def test_averages_of_ones(self):
        sec = build_section(cesaro_scaled(1.0), 3)
        assert np.allclose(apply(sec, [1, 1, 1]), [1, 1, 1], rtol=0, atol=0)

    def test_first_column(self):
        sec = build_section(cesaro_scaled(1.0), 3)
        out = apply(sec, [1, 0, 0])
        assert np.allclose(out, [1.0, 0.5, 1.0 / 3.0], rtol=1e-15)

    def test_row_sums(self):
        sec = build_section(table([2.0, 1.0, 2.0 / 3.0]), 3)
        # a_i * i for the all-ones vector
        out = apply(sec, [1, 1, 1])
        assert np.allclose(out, [2.0, 2.0, 2.0], rtol=1e-15)

    def test_dimension_mismatch(self):
        sec = build_section(cesaro_scaled(1.0), 3)
        with pytest.raises(TerraspecError) as exc:
            apply(sec, [1, 2])
        assert exc.value.code == "dimension-mismatch"


class TestConjugateSection:
    def test_identity_weights_bit_exact(self):
        sec = build_section(cesaro_scaled(1.0), 5)
        out = conjugate_section(sec, constant(1.0), constant(1.0))
        assert np.array_equal(out.entries, sec.entries)

    def test_row_scaling(self):
        sec = build_section(cesaro_scaled(1.0), 2)
        out = conjugate_section(sec, constant(1.0), table([1.0, 0.5]))
        assert np.allclose(out.entries, [[1.0, 0.0], [0.25, 0.25]], rtol=1e-15)

    def test_geometric_row_scaling(self):
        sec = build_section(cesaro_scaled(1.0), 2)
        out = conjugate_section(sec, constant(1.0), geometric(0.5))
        assert np.allclose(out.entries, [[0.5, 0.0], [0.125, 0.125]], rtol=1e-15)

    def test_entrywise_formula(self):
        sec = build_section(table([1.0, 0.5]), 2)
        out = conjugate_section(sec, table([1.0, 0.5]), constant(1.0))
        assert np.allclose(out.entries[1], [0.5, 1.0], rtol=1e-15)


class TestCriterionSequence:
    def test_cesaro_identity(self):
        samples = criterion_sequence(cesaro_scaled(1.0), constant(1.0), constant(1.0), 10000)
        assert all(c == 1.0 for _, c in samples)

    def test_compact_example_closed_form(self):
        # a_n = 1/log(n+1), r = s = 2**-n gives (2**(n+1) - 2) / (2**n log(n+1))
        samples = criterion_sequence(log_reciprocal(), geometric(0.5), geometric(0.5), 50)
        for n, c in samples:
            closed = (2.0 ** (n + 1) - 2.0) / (2.0**n * math.log(n + 1.0))
            assert c == pytest.approx(closed, rel=1e-12)

    def test_two_term_table(self):
        samples = dict(criterion_sequence(table([2.0, 1.0]), constant(1.0), constant(1.0), 2))
        assert samples[2] == 2.0

    def test_geometric_weights_survive_overflow(self):
        # sum of 1/r_k = 2**k overflows doubles near n ~ 1020; log mode takes over
        samples = criterion_sequence(log_reciprocal(), geometric(0.5), geometric(0.5), 4096)
        tail = dict(samples)
        c = tail[4096]
        assert c == pytest.approx(2.0 / math.log(4097.0), rel=1e-9)


def _kahan_scan(a, r, s, n_max):
    """The per-n criterion scan with a Kahan running sum: the reference oracle.

    Same contract as ``_criterion_scan``: (samples, probe_values, sup, truncated).
    """
    rv = r.values(n_max)
    sv = s.values(n_max)
    probes = set(dyadic_probes(1, n_max))
    samples, probe_vals = [], {}
    sup = 0.0
    truncated = False
    total = comp = 0.0
    log_mode = False
    log_total = -math.inf
    for n in range(1, n_max + 1):
        if not log_mode:
            rn = rv[n - 1]
            term = 1.0 / rn if rn > 0.0 else math.inf
            if not math.isfinite(term) or total + term > 1e300:
                log_mode = True
                log_total = math.log(total) if total > 0.0 else -math.inf
            else:
                y = term - comp
                t = total + y
                comp = (t - total) - y
                total = t
        if not log_mode:
            c = sv[n - 1] * a.scaled(n, total)
        else:
            log_total = np.logaddexp(log_total, -r.log_value(n))
            log_c = log_total + s.log_value(n) + a.log_value(n)
            if log_c > 709.0:
                truncated = True
                break
            c = math.exp(log_c)
        if c > sup:
            sup = c
        if n <= min(n_max, DENSE_SAMPLE_LIMIT) or n in probes:
            samples.append((n, c))
        if n in probes:
            probe_vals[n] = c
    return samples, probe_vals, sup, truncated


def _close(x, ref, ulps=4):
    return (math.isnan(x) and math.isnan(ref)) or abs(x - ref) <= ulps * np.spacing(abs(ref))


# every family pair of the benchmark's scan workload, with fixed parameters:
# the geometric pairs sum 1/r_k past 1e300 and finish in the log-space tail,
# and "log_geo_higher" grows past exp(709) there and is truncated
_SCAN_MIXES = {
    "cesaro_const": (cesaro_scaled(1.7), constant(0.8), constant(1.3)),
    "cesaro_power": (cesaro_scaled(2.2), constant(1.1), power_weight(0.6)),
    "p_cesaro_unbounded": (p_cesaro(0.7), constant(1.5), constant(0.6)),
    "p_cesaro_bounded": (p_cesaro(1.0), constant(0.9), constant(1.2)),
    "p_cesaro_compact": (p_cesaro(1.6), constant(0.7), constant(1.8)),
    "power_pair_unbounded": (power_weight(25 / 64 + 0.75), power_weight(25 / 64), constant(1.2)),
    "power_pair_bounded": (power_weight(1 + 40 / 64), power_weight(40 / 64), constant(0.7)),
    "power_pair_compact": (power_weight(1.25 + 10 / 64), power_weight(10 / 64), constant(1.9)),
    "table_p1": (table([1.0 / k for k in range(1, 6001)]), constant(1.0), constant(1.0)),
    "table_p1.5": (table([1.0 / k**1.5 for k in range(1, 6001)]), constant(1.0), constant(1.0)),
    "log_geo_lower": (log_reciprocal(), geometric(0.6), geometric(0.54)),
    "log_geo_equal": (log_reciprocal(), geometric(0.45), geometric(0.45)),
    "log_geo_higher": (log_reciprocal(), geometric(0.5), geometric(0.6)),
    "custom_cesaro": (custom(lambda k: 1.3 / k), constant(0.9), constant(1.4)),
    "custom_power": (custom(lambda k: 1.0 / float(k) ** 1.4), constant(1.6), constant(0.8)),
    "custom_rising_s": (cesaro_scaled(1.2), constant(0.7), custom(lambda k: 1.5 * k / (k + 0.8))),
}


class TestCriterionScanAgainstKahanLoop:
    @pytest.mark.parametrize("mix", sorted(_SCAN_MIXES))
    def test_scan_workload_mixes(self, mix):
        a, r, s = _SCAN_MIXES[mix]
        samples, probes, sup, truncated = _criterion_scan(a, r, s, 6000)
        ref_samples, ref_probes, ref_sup, ref_truncated = _kahan_scan(a, r, s, 6000)
        assert truncated == ref_truncated == (mix == "log_geo_higher")
        assert [n for n, _ in samples] == [n for n, _ in ref_samples]
        assert list(probes) == list(ref_probes)
        assert all(_close(c, ref) for (_, c), (_, ref) in zip(samples, ref_samples))
        assert all(_close(probes[n], ref_probes[n]) for n in probes)
        assert _close(sup, ref_sup)

    def test_short_table_fails_where_the_loop_does(self):
        a, r, s = table([1.0 / k for k in range(1, 301)]), constant(1.0), constant(1.0)
        with pytest.raises(TerraspecError) as ref:
            _kahan_scan(a, r, s, 1000)
        with pytest.raises(TerraspecError) as exc:
            _criterion_scan(a, r, s, 1000)
        assert (exc.value.code, str(exc.value)) == (ref.value.code, str(ref.value))

    def test_short_table_truncated_before_its_end(self):
        # c_n grows like 1.8**n in the log tail and passes exp(709) near n = 1200
        a, r, s = table([1.0] * 2000), geometric(0.5), geometric(0.9)
        samples, _, _, truncated = _criterion_scan(a, r, s, 8192)
        ref_samples, _, _, ref_truncated = _kahan_scan(a, r, s, 8192)
        assert truncated and ref_truncated
        assert [n for n, _ in samples] == [n for n, _ in ref_samples]

    def test_nan_is_never_the_sup(self):
        a = custom(lambda k: math.nan if k == 3 else 1.0 / k)
        samples, _, sup, _ = _criterion_scan(a, constant(1.0), constant(1.0), 8)
        assert math.isnan(dict(samples)[3])
        assert sup == 1.0

    def test_parametric_scan_makes_no_scalar_calls(self, scalar_calls):
        for mix in ("cesaro_power", "power_pair_bounded", "log_geo_equal", "log_geo_higher"):
            classify_boundedness(*_SCAN_MIXES[mix], 20000)
        assert scalar_calls == []


class TestClassifyBoundedness:
    @pytest.mark.parametrize("entry", [classify_boundedness, criterion_sequence])
    @pytest.mark.parametrize("n_max", [0, -1])
    def test_empty_scan_depth_rejected(self, entry, n_max):
        with pytest.raises(TerraspecError) as exc:
            entry(cesaro_scaled(1.0), constant(1.0), constant(1.0), n_max)
        assert exc.value.code == "index-out-of-range"

    def test_cesaro_bounded_not_compact(self):
        report = classify_boundedness(cesaro_scaled(1.0), constant(1.0), constant(1.0))
        assert report.bounded is TriState.YES
        assert report.compact is TriState.NO
        assert report.norm == 1.0
        assert report.method == "analytic"

    def test_compact_example(self):
        report = classify_boundedness(log_reciprocal(), geometric(0.5), geometric(0.5))
        assert report.compact is TriState.YES

    def test_log_on_plain_c0_unbounded(self):
        report = classify_boundedness(log_reciprocal(), constant(1.0), constant(1.0))
        assert report.bounded is TriState.NO
        assert report.norm is None

    def test_numeric_fallback(self):
        a = table(tuple(1.0 / n for n in range(1, 257)))
        report = classify_boundedness(a, constant(1.0), constant(1.0), 256)
        assert report.method == "numeric"
        assert report.bounded is TriState.YES
        assert report.compact is TriState.NO

    def test_numeric_inconclusive_on_oscillation(self):
        # period-3 oscillation is invisible to the class algebra and the
        # dyadic ratios alternate, so the honest answer is inconclusive
        a = table(tuple((2.0 + (n % 3)) / n for n in range(1, 1025)))
        report = classify_boundedness(a, constant(1.0), constant(1.0), 1024)
        assert report.method == "numeric"
        assert report.bounded is TriState.INCONCLUSIVE
        assert report.compact is TriState.INCONCLUSIVE
        assert report.norm is None

    def test_compact_implies_bounded_everywhere(self):
        combos = [
            (cesaro_scaled(1.0), constant(1.0), constant(1.0)),
            (log_reciprocal(), geometric(0.5), geometric(0.5)),
            (p_cesaro(2.0), constant(1.0), constant(1.0)),
            (log_reciprocal(), constant(1.0), constant(1.0)),
            (p_cesaro(0.5), constant(1.0), constant(1.0)),
        ]
        for a, r, s in combos:
            rep = classify_boundedness(a, r, s)
            if rep.compact is TriState.YES:
                assert rep.bounded is TriState.YES
            if rep.bounded is not TriState.YES:
                assert rep.norm is None

    def test_necessary_condition_for_compactness(self):
        # compact needs a_n -> 0
        combos = [
            (log_reciprocal(), geometric(0.5), geometric(0.5)),
            (p_cesaro(2.0), constant(1.0), constant(1.0)),
            (cesaro_scaled(2.0), geometric(0.5), geometric(0.5)),
        ]
        for a, r, s in combos:
            rep = classify_boundedness(a, r, s)
            if rep.compact is TriState.YES:
                assert limit_class(a.asym) is Limit.ZERO


class TestWeightedNormConsistency:
    def test_finite_sections_respect_the_norm(self):
        rng = np.random.default_rng(42)
        n = 200
        for a, r, s in [
            (cesaro_scaled(1.0), constant(1.0), constant(1.0)),
            (cesaro_scaled(2.0), geometric(0.5), geometric(0.5)),
            (log_reciprocal(), geometric(0.5), geometric(0.5)),
        ]:
            rep = classify_boundedness(a, r, s, 4096)
            assert rep.bounded is TriState.YES
            sec = build_section(a, n)
            rv, sv = r.values(n), s.values(n)
            for _ in range(20):
                u = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
                u /= np.max(np.abs(u))
                x = u / rv  # unit vector of the weighted sup ball
                y = apply(sec, x)
                assert np.max(np.abs(y) * sv) <= rep.sup_estimate * (1 + 1e-12)


class TestOperatorNormBounds:
    def test_cesaro_tight(self):
        assert operator_norm_bounds(cesaro_scaled(1.0), constant(1.0)) == (1.0, 1.0)

    def test_scaled_cesaro(self):
        assert operator_norm_bounds(cesaro_scaled(2.0), geometric(0.5)) == (2.0, 2.0)

    def test_table(self):
        lower, upper = operator_norm_bounds(table([0.5, 1.0, 0.1]), constant(1.0), n_max=3)
        assert (lower, upper) == (1.0, 2.0)

    def test_increasing_weight_rejected(self):
        with pytest.raises(TerraspecError) as exc:
            operator_norm_bounds(cesaro_scaled(1.0), table([1.0, 2.0, 3.0]), n_max=3)
        assert exc.value.code == "weight-not-decreasing"

    def test_unbounded_upper_flagged(self):
        lower, upper = operator_norm_bounds(log_reciprocal(), constant(1.0))
        assert math.isinf(upper) and math.isfinite(lower)

    def test_no_scalar_calls(self, scalar_calls):
        # the upper bound reads 1..1000 and the dyadic probes from one array
        for a in (cesaro_scaled(1.0), p_cesaro(1.3), custom(lambda n: 1.0 / (n + 0.5))):
            operator_norm_bounds(a, constant(1.0))
        assert scalar_calls == []


@dataclass(frozen=True)
class MatrixTestReport:
    verdict: str  # "pass" | "fail" | "inconclusive"
    row_samples: tuple[tuple[int, float], ...]
    column_samples: dict[int, tuple[tuple[int, float], ...]]
    sup_estimate: float


def matrix_bounded_test(
    entry_fn: Callable[[int, int], complex],
    r: SequenceSpec,
    s: SequenceSpec,
    n_max: int = 4096,
) -> MatrixTestReport:
    """Direct two-condition matrix test for a general entry function.

    The oracle that ``classify_boundedness`` is checked against.

    Probes the weighted row sums sigma_n = s_n * sum_k |entry(n,k)| / r_k
    and the column decay s_n * entry(n,k) at dyadic n.  Pass needs the row
    sums to stabilize (or vanish) and every probed column to decay; row
    growth is a fail; anything the trend heuristic cannot call is
    inconclusive.
    """
    probes = dyadic_probes(8, n_max) if n_max >= 8 else dyadic_probes(1, n_max)
    log_rv = r.log_values(n_max)
    sv = s.values(n_max)
    col_ks = [k for k in (1, 2, 4, 8, 16) if k <= n_max]
    rows: list[tuple[int, float]] = []
    cols: dict[int, list[tuple[int, float]]] = {k: [] for k in col_ks}
    for n in probes:
        ent = np.abs(np.array([entry_fn(n, k) for k in range(1, n + 1)]))
        # row sum in log space: |entries|/r_k spans the full double range
        # for geometric weights
        with np.errstate(divide="ignore", over="ignore"):
            log_terms = np.log(ent) - log_rv[:n]
            sigma = float(np.exp(s.log_value(n) + logsumexp(log_terms)))
        rows.append((n, sigma))
        for k in col_ks:
            if k <= n:
                cols[k].append((n, float(sv[n - 1] * ent[k - 1])))

    row_trend = classify_limit_trend([v for _, v in rows])
    # every column has a sample at n_max >= k; a negligible last one counts as decayed
    col_decay = set()
    for k in col_ks:
        vals = [v for _, v in cols[k]]
        col_decay.add(TriState.YES if vals[-1] <= 1e-8 else vanishes(classify_limit_trend(vals)))

    if row_trend is Limit.INFINITE or TriState.NO in col_decay:
        verdict = "fail"
    elif row_trend is None or TriState.INCONCLUSIVE in col_decay:
        verdict = "inconclusive"
    else:
        verdict = "pass"
    sup = max(v for _, v in rows)
    return MatrixTestReport(verdict, tuple(rows), {k: tuple(v) for k, v in cols.items()}, sup)


def terraced_entry(a):
    vals = {}

    def entry(i, k):
        if k > i:
            return 0.0
        if i not in vals:
            vals[i] = a.value(i)
        return vals[i]

    return entry


class TestMatrixBoundedTest:
    def test_identity(self):
        report = matrix_bounded_test(
            lambda i, k: 1.0 if i == k else 0.0, constant(1.0), constant(1.0), 1024
        )
        assert report.verdict == "pass"
        assert report.sup_estimate == 1.0

    def test_cesaro(self):
        report = matrix_bounded_test(terraced_entry(cesaro_scaled(1.0)), constant(1.0), constant(1.0), 2048)
        assert report.verdict == "pass"
        assert report.sup_estimate == pytest.approx(1.0, rel=1e-12)

    def test_log_family_fails(self):
        report = matrix_bounded_test(terraced_entry(log_reciprocal()), constant(1.0), constant(1.0), 2048)
        assert report.verdict == "fail"

    def test_agreement_with_classifier(self):
        combos = [
            (cesaro_scaled(1.0), constant(1.0), constant(1.0)),
            (cesaro_scaled(2.0), constant(1.0), constant(1.0)),
            (log_reciprocal(), constant(1.0), constant(1.0)),
            (log_reciprocal(), geometric(0.5), geometric(0.5)),
            (cesaro_scaled(1.0), geometric(0.5), geometric(0.5)),
            (p_cesaro(2.0), constant(1.0), constant(1.0)),
            (p_cesaro(0.5), constant(1.0), constant(1.0)),
        ]
        for a, r, s in combos:
            rep = classify_boundedness(a, r, s)
            verdict = matrix_bounded_test(terraced_entry(a), r, s, 4096).verdict
            assert verdict in ("pass", "fail")
            assert (verdict == "pass") == (rep.bounded is TriState.YES), (a.family, r.family)
