import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terraspec import ideals, numerics
from terraspec.asymptotics import AsymptoticClass
from terraspec.errors import TerraspecError
from terraspec.ideals import (
    AXIOM_TOL,
    IdealFlags,
    SNumberSequence,
    check_quasinorm_axioms,
    chi_space_membership,
    ideal_preconditions,
    inclusion_check,
    quasi_norm,
    snumbers_from_section,
    stype_membership,
)
from terraspec.numerics import TriState, compensated_cumsum, dyadic_probes, exact_prefix_sums
from terraspec.sequences import cesaro_scaled, constant, custom, geometric, log_reciprocal, p_cesaro
from terraspec.sequences import power_weight, table
from terraspec.terraced import build_section

CESARO = cesaro_scaled(1.0)
UNIT = constant(1.0)


def sigma_pair_2x2(mat):
    # closed-form singular values of a real 2x2 matrix
    t = float(np.sum(mat * mat))
    d = float(np.linalg.det(mat)) ** 2
    disc = math.sqrt(t * t - 4.0 * d)
    return math.sqrt((t + disc) / 2.0), math.sqrt((t - disc) / 2.0)


class TestSNumbers:
    def test_identity(self):
        sec = build_section(table([1.0, 1.0, 1.0]), 3)
        sec = type(sec)(3, np.eye(3, dtype=complex), "general")
        out = snumbers_from_section(sec, UNIT, UNIT)
        assert out.values == (1.0, 1.0, 1.0)
        assert out.source == "svd_of_section"

    def test_rank_one(self):
        from terraspec.terraced import FiniteSection

        x = np.array([1.0, 2.0, -1.0])
        y = np.array([0.5, 0.0, 0.0])  # first-column support keeps it triangular
        mat = np.outer(x, y).astype(complex)
        out = snumbers_from_section(FiniteSection(3, mat, "general"), UNIT, UNIT)
        assert out.values[0] == pytest.approx(0.5 * np.linalg.norm(x), rel=1e-12)
        assert out.values[1] <= 1e-12 * out.values[0]

    def test_2x2_cesaro_closed_form(self):
        sec = build_section(CESARO, 2)
        out = snumbers_from_section(sec, UNIT, UNIT)
        hi, lo = sigma_pair_2x2(np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert out.values[0] == pytest.approx(hi, rel=1e-12)
        assert out.values[1] == pytest.approx(lo, rel=1e-12)

    def test_top_value_is_spectral_norm(self):
        for n in (3, 8, 17):
            sec = build_section(CESARO, n)
            out = snumbers_from_section(sec, geometric(0.5), geometric(0.5))
            from terraspec.terraced import conjugate_section

            conj = conjugate_section(sec, geometric(0.5), geometric(0.5))
            assert out.values[0] == pytest.approx(np.linalg.norm(conj.entries, 2), rel=1e-12)

    def test_monotonicity_enforced(self):
        with pytest.raises(TerraspecError) as exc:
            SNumberSequence((1.0, 2.0), "user")
        assert exc.value.code == "snumbers-not-monotone"

    @pytest.mark.parametrize(
        "values", [(math.nan,), (math.inf,), (-math.inf,), (1.0, math.nan), (math.inf, 1.0)], ids=repr
    )
    def test_non_finite_values_rejected(self, values):
        with pytest.raises(TerraspecError) as exc:
            SNumberSequence(values, "user")
        assert exc.value.code == "snumbers-not-finite"

    @pytest.mark.parametrize("c", [math.inf, math.nan])
    def test_non_finite_scale_rejected(self, c):
        with pytest.raises(TerraspecError) as exc:
            SNumberSequence((1.0, 0.5, 0.0), "user").scale(c)
        assert exc.value.code == "snumbers-not-finite"


class TestStypeMembership:
    def test_finite_rank_reduces_to_weighted_diagonal(self):
        snum = SNumberSequence((2.5, 0.0, 0.0), "user")
        assert stype_membership(snum, CESARO, UNIT) is TriState.YES

    def test_flat_snumbers_on_plain_weights(self):
        snum = SNumberSequence((1.0,) * 64, "synthetic", asym=AsymptoticClass(1.0, 1.0))
        assert stype_membership(snum, CESARO, UNIT) is TriState.NO

    def test_flat_snumbers_with_decaying_weight(self):
        snum = SNumberSequence((1.0,) * 64, "synthetic", asym=AsymptoticClass(1.0, 1.0))
        assert stype_membership(snum, CESARO, cesaro_scaled(1.0)) is TriState.YES

    def test_numeric_path(self):
        vals = tuple(1.0 / (j + 1.0) ** 2 for j in range(256))
        snum = SNumberSequence(vals, "user")
        assert stype_membership(snum, CESARO, UNIT) is TriState.YES


class TestQuasiNorm:
    def test_rank_one_equals_norm_under_normalization(self):
        # sup a_i r_i = a_1 = 1 for the scaled-averaging family on unit weights
        sigma = 3.75
        snum = SNumberSequence((sigma, 0.0, 0.0, 0.0), "user")
        out = quasi_norm(snum, CESARO, UNIT)
        assert out.value == sigma
        assert out.argmax_index == 1

    def test_two_term_example(self):
        out = quasi_norm(SNumberSequence((1.0, 1.0), "user"), table([1.0, 0.5]), UNIT)
        assert out.value == 1.0
        assert out.argmax_index == 1

    def test_all_zero(self):
        out = quasi_norm(SNumberSequence((0.0, 0.0), "user"), CESARO, UNIT)
        assert out.value == 0.0

    def test_prefix_sum_past_the_double_range(self):
        # the exactly rounded sums raised a bare OverflowError here
        snum = SNumberSequence((1e308, 1e308, 1e308), "user")
        for fn in (quasi_norm, stype_membership):
            with pytest.raises(TerraspecError) as exc:
                fn(snum, CESARO, UNIT)
            assert exc.value.code == "snumbers-overflow"

    def test_tail_status_analytic(self):
        snum = SNumberSequence((1.0, 0.0, 0.0, 0.0), "user")
        assert quasi_norm(snum, CESARO, UNIT).tail_status == "analytic_zero"

    @given(st.integers(min_value=-6, max_value=6))
    def test_homogeneity_exact_for_dyadic_scalars(self, k):
        # powers of two rescale IEEE floats exactly
        c = 2.0**k
        snum = SNumberSequence((2.0, 1.5, 0.25), "user")
        assert quasi_norm(snum.scale(c), CESARO, UNIT).value == c * quasi_norm(snum, CESARO, UNIT).value

    @given(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    def test_homogeneity_generic(self, c):
        snum = SNumberSequence((2.0, 1.5, 0.25), "user")
        lhs = quasi_norm(snum.scale(c), CESARO, UNIT).value
        rhs = c * quasi_norm(snum, CESARO, UNIT).value
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    @settings(max_examples=50)
    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=12))
    def test_monotonicity(self, raw):
        base = tuple(sorted(raw, reverse=True))
        bigger = tuple(v + 0.5 for v in base)
        q_small = quasi_norm(SNumberSequence(base, "user"), CESARO, UNIT).value
        q_big = quasi_norm(SNumberSequence(bigger, "user"), CESARO, UNIT).value
        assert q_small <= q_big


class TestIdealPreconditions:
    def test_cesaro_unit(self):
        flags = ideal_preconditions(CESARO, UNIT)
        assert flags.ideal_ok is TriState.YES
        assert flags.closed_ok is TriState.NO
        assert flags.qnorm_normalized is TriState.YES

    def test_decaying_weight_closes_the_ideal(self):
        flags = ideal_preconditions(CESARO, cesaro_scaled(1.0))
        assert flags.closed_ok is TriState.YES

    def test_constant_pair_fails(self):
        flags = ideal_preconditions(UNIT, UNIT)
        assert flags.ideal_ok is TriState.NO

    def test_overflowing_diagonal(self):
        # 2**n overflows past n = 1023; the probes see inf, never an OverflowError
        flags = ideal_preconditions(geometric(2.0), table([1.0] * 4096))
        assert flags == IdealFlags(TriState.NO, TriState.NO, TriState.NO)

    def test_short_table_shortens_the_probes(self):
        # a 100-entry table used to be probed to 4096
        harmonic = table([1.0 / k for k in range(1, 101)])
        assert ideal_preconditions(harmonic, UNIT) == IdealFlags(TriState.YES, TriState.NO, TriState.YES)
        assert ideal_preconditions(CESARO, harmonic) == IdealFlags(TriState.YES, TriState.YES, TriState.YES)

    @pytest.mark.parametrize("short", ["a", "r"])
    def test_table_shorter_than_the_first_probe(self, short):
        pair = {"a": CESARO, "r": UNIT, short: table([1.0, 0.5, 0.25])}
        with pytest.raises(TerraspecError) as exc:
            ideal_preconditions(pair["a"], pair["r"])
        assert exc.value.code == "index-out-of-range"
        assert "table has 3 entries, asked for n=4" in str(exc.value)

    def test_scalar_calls_only_at_probes(self, scalar_calls):
        # the normalisation sup reads one array; only the two probe trends of a classless pair are scalar
        ideal_preconditions(CESARO, UNIT)
        ideal_preconditions(geometric(0.5), cesaro_scaled(2.0))
        assert scalar_calls == []
        ideal_preconditions(custom(lambda n: 1.0 / n), UNIT)
        assert len(scalar_calls) == 2 * len(dyadic_probes(4, 4096))


# (a, r) pairs for the harness: normalized and not (lower_bound fires when sup a_i r_i < 1),
# a long table, a classless custom a, power and geometric weights
AXIOM_PAIRS = {
    "cesaro-unit": (CESARO, UNIT),
    "cesaro-half": (cesaro_scaled(0.5), UNIT),
    "cesaro-two": (cesaro_scaled(2.0), UNIT),
    "pcesaro-power": (p_cesaro(1.3), power_weight(0.5)),
    "table-5000": (table([1.0 / (k + 0.5) for k in range(1, 5001)]), UNIT),
    "custom": (custom(lambda n: 0.7 / n), UNIT),
    "cesaro-power": (CESARO, power_weight(0.75)),
    "log-geometric": (log_reciprocal(), geometric(0.5)),
    "geometric-unit": (geometric(0.9), UNIT),
    "constant-cesaro": (constant(0.3), CESARO),
}


def _reference_axioms(trials, dim, a, r, seed):
    """The per-trial loop the batched harness replaced; Q from exactly rounded prefix sums."""
    counts = dict.fromkeys(("quasi_triangle", "lower_bound", "lipschitz", "composition", "rank", "additive"), 0)

    def q_of(mat):
        prefix = exact_prefix_sums(np.linalg.svd(mat, compute_uv=False))
        return float(np.max(np.abs(a.scaled_values(prefix)) * r.values(len(prefix))))

    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        phi = rng.uniform(-1.0, 1.0, (dim, dim))
        psi = rng.uniform(-1.0, 1.0, (dim, dim))
        zeta = rng.uniform(-1.0, 1.0, (dim, dim))
        eta = rng.uniform(-1.0, 1.0, (dim, dim))
        s_phi = np.linalg.svd(phi, compute_uv=False)
        s_psi = np.linalg.svd(psi, compute_uv=False)
        q_phi = q_of(phi)
        q_psi = q_of(psi)
        if q_of(phi + psi) > 2.0 * (q_phi + q_psi) + AXIOM_TOL:
            counts["quasi_triangle"] += 1
        if s_phi[0] > q_phi + AXIOM_TOL:
            counts["lower_bound"] += 1
        diff_norm = np.linalg.norm(phi - psi, 2)
        if np.any(np.abs(s_phi - s_psi) > diff_norm + AXIOM_TOL):
            counts["lipschitz"] += 1
        zeta_norm = np.linalg.norm(zeta, 2)
        eta_norm = np.linalg.norm(eta, 2)
        if q_of(zeta @ phi @ eta) > zeta_norm * q_phi * eta_norm + AXIOM_TOL:
            counts["composition"] += 1
        k = int(rng.integers(1, dim))
        low_rank = rng.uniform(-1.0, 1.0, (dim, k)) @ rng.uniform(-1.0, 1.0, (k, dim))
        s_low = np.linalg.svd(low_rank, compute_uv=False)
        if np.any(s_low[k:] > 1e-10 * s_low[0]):
            counts["rank"] += 1
        s_sum = np.linalg.svd(phi + psi, compute_uv=False)
        m_idx = int(rng.integers(1, dim + 1))
        n_idx = int(rng.integers(1, dim + 2 - m_idx))
        if s_sum[m_idx + n_idx - 2] > s_phi[m_idx - 1] + s_psi[n_idx - 1] + AXIOM_TOL:
            counts["additive"] += 1
    return counts


class TestBatchedAxioms:
    @pytest.mark.filterwarnings("ignore:quasi-norm is only")
    @pytest.mark.parametrize("pair", AXIOM_PAIRS)
    def test_equal_to_the_per_trial_loop(self, pair):
        a, r = AXIOM_PAIRS[pair]
        for dim in (2, 3, 5, 8, 12):
            for seed in range(4):
                got = check_quasinorm_axioms(60, dim, a, r, seed=seed).violations
                assert got == _reference_axioms(60, dim, a, r, seed), (dim, seed)

    @pytest.mark.parametrize("pair", AXIOM_PAIRS)
    def test_q_is_quasi_norm_bit_for_bit(self, pair):
        # the harness's Q of stacked s-numbers against quasi_norm of each row
        # and against Q from exactly rounded prefix sums
        a, r = AXIOM_PAIRS[pair]
        rng = np.random.default_rng(11)
        for dim in (2, 5, 8, 12):
            sv = np.linalg.svd(rng.uniform(-1.0, 1.0, (90, dim, dim)), compute_uv=False)
            q = ideals._weighted_averages(sv, a, r).max(axis=-1).tolist()
            assert q == [quasi_norm(SNumberSequence(tuple(map(float, row)), "synthetic"), a, r).value for row in sv]
            exact = [np.max(np.abs(a.scaled_values(exact_prefix_sums(row))) * r.values(dim)) for row in sv]
            assert q == exact

    def test_prefix_sums_of_s_numbers_are_exactly_rounded(self):
        # what lets Q keep the bits of the fsum prefixes it used to take
        rng = np.random.default_rng(12)
        trial_sv = np.linalg.svd(rng.uniform(-1.0, 1.0, (1000, 8, 8)), compute_uv=False)
        assert all(np.array_equal(compensated_cumsum(sv), exact_prefix_sums(sv)) for sv in trial_sv)
        for n in (16, 64, 200, 512):
            for a, w in ((CESARO, UNIT), (p_cesaro(1.3), power_weight(0.5)), (log_reciprocal(), geometric(0.9))):
                sv = snumbers_from_section(build_section(a, n), w, w).values
                assert np.array_equal(compensated_cumsum(sv), exact_prefix_sums(sv)), (a.family, n)

    def test_no_single_sequence_path_and_fixed_svd_count(self, call_log):
        single = call_log(ideals, "quasi_norm", "stype_membership", "SNumberSequence")
        prefix = call_log(numerics, "exact_prefix_sums")
        svd = call_log(np.linalg, "svd")
        assert not hasattr(ideals, "exact_prefix_sums")
        check_quasinorm_axioms(200, 8, CESARO, UNIT)
        assert single == [] and prefix == []
        assert len(svd) == 8
        check_quasinorm_axioms(20, 8, CESARO, UNIT)
        check_quasinorm_axioms(0, 8, CESARO, UNIT)
        assert len(svd) == 3 * 8

    @pytest.mark.parametrize("trials,dim", [(5, 1), (5, 0), (5, -2), (-3, 8), (-1, 1)])
    def test_bad_trial_shapes(self, trials, dim):
        with pytest.raises(TerraspecError) as exc:
            check_quasinorm_axioms(trials, dim, CESARO, UNIT)
        assert exc.value.code == "invalid-trials"

    @pytest.mark.parametrize("dim", [2, 8])
    def test_zero_trials(self, dim):
        report = check_quasinorm_axioms(0, dim, CESARO, UNIT, seed=3)
        assert (report.trials, report.dim, report.seed) == (0, dim, 3)
        assert report.violations == dict.fromkeys(report.violations, 0) and len(report.violations) == 6


class TestAxioms:
    def test_two_hundred_trials_clean(self):
        report = check_quasinorm_axioms(200, 8, CESARO, UNIT, seed=1234)
        assert report.total_violations == 0
        assert report.normalized is TriState.YES

    def test_reproducible(self):
        r1 = check_quasinorm_axioms(20, 6, CESARO, UNIT, seed=7)
        r2 = check_quasinorm_axioms(20, 6, CESARO, UNIT, seed=7)
        assert r1 == r2

    def test_warns_without_normalization(self):
        with pytest.warns(UserWarning):
            check_quasinorm_axioms(2, 4, cesaro_scaled(0.5), UNIT, seed=0)

    def test_equal_summands_triangle_case(self):
        # phi = psi collapses the triangle bound to Q(2 phi) = 2 Q(phi) <= 4 Q(phi)
        rng = np.random.default_rng(5)
        phi = rng.uniform(-1, 1, (8, 8))
        sv = np.linalg.svd(phi, compute_uv=False)
        q = quasi_norm(SNumberSequence(tuple(map(float, sv)), "synthetic"), CESARO, UNIT).value
        sv2 = np.linalg.svd(phi + phi, compute_uv=False)
        q2 = quasi_norm(SNumberSequence(tuple(map(float, sv2)), "synthetic"), CESARO, UNIT).value
        assert q2 == pytest.approx(2.0 * q, rel=1e-12)
        assert q2 <= 4.0 * q

    def test_identity_composition_case(self):
        rng = np.random.default_rng(6)
        phi = rng.uniform(-1, 1, (8, 8))
        eye = np.eye(8)
        sv = np.linalg.svd(eye @ phi @ eye, compute_uv=False)
        sv_direct = np.linalg.svd(phi, compute_uv=False)
        q = quasi_norm(SNumberSequence(tuple(map(float, sv)), "synthetic"), CESARO, UNIT).value
        q_direct = quasi_norm(SNumberSequence(tuple(map(float, sv_direct)), "synthetic"), CESARO, UNIT).value
        assert q == pytest.approx(q_direct, rel=1e-12)
        assert q <= np.linalg.norm(eye, 2) * q_direct * np.linalg.norm(eye, 2) + 1e-9

    def test_lower_bound_and_rank_by_hand(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            phi = rng.uniform(-1, 1, (8, 8))
            sv = np.linalg.svd(phi, compute_uv=False)
            snum = SNumberSequence(tuple(float(x) for x in sv), "synthetic")
            q = quasi_norm(snum, CESARO, UNIT).value
            assert sv[0] <= q + 1e-9
        # additive inequality on explicit indices
        phi = rng.uniform(-1, 1, (8, 8))
        psi = rng.uniform(-1, 1, (8, 8))
        s_sum = np.linalg.svd(phi + psi, compute_uv=False)
        s_phi = np.linalg.svd(phi, compute_uv=False)
        s_psi = np.linalg.svd(psi, compute_uv=False)
        for m in range(1, 9):
            for n in range(1, 10 - m):
                assert s_sum[m + n - 2] <= s_phi[m - 1] + s_psi[n - 1] + 1e-9


class TestInclusion:
    def synthetic_samples(self, count, seed):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(count):
            gamma = float(rng.uniform(0.4, 2.5))
            scale = float(rng.uniform(0.1, 5.0))
            vals = tuple(scale * (j + 1.0) ** (-gamma) for j in range(64))
            out.append(SNumberSequence(vals, "synthetic", asym=AsymptoticClass(scale, 1.0, -gamma, 0.0)))
        return out

    def test_geometric_below_unit(self):
        samples = self.synthetic_samples(50, 7)
        report = inclusion_check(geometric(0.5), UNIT, samples, CESARO)
        assert report.t_members == 50
        assert report.violations == ()

    def test_equal_weights_trivial(self):
        samples = self.synthetic_samples(10, 8)
        report = inclusion_check(UNIT, UNIT, samples, CESARO)
        assert report.violations == ()

    def test_unordered_weights_rejected(self):
        with pytest.raises(TerraspecError) as exc:
            inclusion_check(UNIT, geometric(0.5), [], CESARO)
        assert exc.value.code == "weights-not-ordered"

    def test_short_table_weights(self):
        # the order check used to ask a 100-entry table for n = 4096
        samples = self.synthetic_samples(10, 9)
        report = inclusion_check(_HARMONIC_100, UNIT, samples, CESARO)
        assert report.checked == 10 and report.violations == ()
        assert inclusion_check(geometric(0.5), _HARMONIC_100, [], CESARO).checked == 0
        with pytest.raises(TerraspecError) as exc:
            inclusion_check(UNIT, _HARMONIC_100, [], CESARO)
        assert exc.value.code == "weights-not-ordered"


_HARMONIC_100 = table([1.0 / k for k in range(1, 101)])


class TestChiSpaceMembership:
    @pytest.mark.parametrize(
        "v,a,r,expected",
        [
            (power_weight(2.0), _HARMONIC_100, UNIT, TriState.YES),
            (power_weight(2.0), CESARO, _HARMONIC_100, TriState.YES),
            (_HARMONIC_100, CESARO, UNIT, TriState.YES),
            (custom(lambda k: 1.0), _HARMONIC_100, UNIT, TriState.NO),
            (np.array([1.0, 0.0, 0.0]), _HARMONIC_100, UNIT, TriState.YES),
            (np.array([1.0, 0.0, 0.0]), UNIT, _HARMONIC_100, TriState.YES),
            (np.array([1.0, 0.0, 0.0]), UNIT, table([1.0] * 100), TriState.NO),
        ],
        ids=["spec-table-a", "spec-table-r", "table-v", "ones-table-a", "vector-table-a", "vector-table-r",
             "vector-flat-table-r"],
    )
    def test_short_tables_cap_the_probes(self, v, a, r, expected):
        # the probes used to ask a 100-entry table for n = 4096 (spec v) or n = 128 (vector v)
        assert chi_space_membership(v, a, r) is expected

    def test_first_basis_vector(self):
        # prefix sums are 1 forever, so membership is lim a_i r_i = 0
        assert chi_space_membership(np.array([1.0, 0.0, 0.0]), CESARO, UNIT) is TriState.YES
        assert chi_space_membership(np.array([1.0, 0.0, 0.0]), UNIT, UNIT) is TriState.NO

    def test_all_ones_fails_for_cesaro(self):
        assert chi_space_membership(constant(1.0), CESARO, UNIT) is TriState.NO

    def test_zero_vector(self):
        assert chi_space_membership(np.zeros(5), CESARO, UNIT) is TriState.YES

    def test_decaying_spec_member(self):
        assert chi_space_membership(power_weight(2.0), CESARO, UNIT) is TriState.YES

    @pytest.mark.parametrize(
        "v,expected",
        [
            pytest.param(custom(lambda k: 1.0 / k**2), TriState.YES, id="custom-inverse-square"),
            pytest.param(custom(lambda k: 1.0), TriState.NO, id="custom-ones"),
            pytest.param(table([1.0 / k for k in range(1, 4097)]), TriState.YES, id="table-harmonic"),
        ],
    )
    def test_classless_spec_probes_prefix_sums(self, v, expected):
        # no growth class: the verdict comes from prefix sums at dyadic probes
        assert chi_space_membership(v, CESARO, UNIT) is expected
