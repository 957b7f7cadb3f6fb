"""s-number sequences, the averaged quasi-norm, and ideal preconditions.

An operator belongs to the weighted-average class when

    a_i * (s_1(phi) + ... + s_i(phi)) * r_i  ->  0,

and the class carries the quasi-norm

    Q(phi) = sup_i | a_i * sum_{j<=i} s_j(phi) | * r_i,

which dominates the operator norm once sup_i a_i r_i = 1 and satisfies a
triangle inequality with constant 2.  s-numbers are realized as singular
values of the weight-conjugated finite section: that proxy satisfies the
s-number axioms in the Hilbert setting and is computable; sup-norm
approximation numbers differ by constants, so ``source`` stays explicit
and user-supplied values can be substituted.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .asymptotics import INDEX, AsymptoticClass, Limit, limit_class, mul, partial_sum_growth
from .errors import TerraspecError
from .numerics import TriState, classify_limit_trend, compensated_cumsum, dyadic_probes, vanishes
from .sequences import SequenceSpec, scan_depth
from .spectrum import DENSE_CAP
from .terraced import FiniteSection, conjugate_section

#: absolute slack for the finite-trial inequality checks
AXIOM_TOL = 1e-9


@dataclass(frozen=True)
class SNumberSequence:
    """Non-increasing, non-negative s-number data s_1 >= s_2 >= ... >= 0."""

    values: tuple[float, ...]
    source: str  # "svd_of_section" | "synthetic" | "user"
    asym: AsymptoticClass | None = None

    def __post_init__(self):
        v = self.values
        if any(x < 0.0 for x in v) or any(v[i] < v[i + 1] for i in range(len(v) - 1)):
            raise TerraspecError("snumbers-not-monotone", "values must be non-increasing and >= 0")

    def scale(self, c: float) -> "SNumberSequence":
        if c < 0.0:
            raise TerraspecError("snumbers-not-monotone", "scale factor must be >= 0")
        return SNumberSequence(tuple(c * x for x in self.values), self.source, None)


def snumbers_from_section(sec: FiniteSection, r: SequenceSpec, s: SequenceSpec) -> SNumberSequence:
    """Singular values of the weight-conjugated section, largest first."""
    if sec.n > DENSE_CAP:
        raise TerraspecError("section-too-large", f"dense SVD capped at {DENSE_CAP}, got {sec.n}")
    conj = conjugate_section(sec, r, s)
    sv = np.linalg.svd(conj.entries, compute_uv=False)
    return SNumberSequence(tuple(float(x) for x in sv), "svd_of_section")


def _weighted_averages(sv: np.ndarray, a: SequenceSpec, r: SequenceSpec) -> np.ndarray:
    """t_i = |a_i * (s_1 + ... + s_i)| * r_i along the last axis of the s-number array."""
    prefix = compensated_cumsum(sv)
    if not np.all(np.isfinite(prefix[..., -1:])):  # s-numbers are >= 0: the last prefix is the largest
        raise TerraspecError("snumbers-overflow", "s-number prefix sums pass the double range")
    return np.abs(a.scaled_values(prefix)) * r.values(prefix.shape[-1])


def _class_limit(v_asym: AsymptoticClass | None, a: SequenceSpec, r: SequenceSpec) -> Limit | None:
    """lim a_i * (v_1 + ... + v_i) * r_i by class algebra; None when the classes do not decide it."""
    if v_asym is None or a.asym is None or r.asym is None:
        return None
    growth = partial_sum_growth(v_asym)
    return None if growth is None else limit_class(mul(mul(a.asym, growth), r.asym))


def stype_membership(snum: SNumberSequence, a: SequenceSpec, r: SequenceSpec) -> TriState:
    """Does a_i * (s_1 + ... + s_i) * r_i tend to 0.

    Analytic when the s-sequence carries a growth class (partial sums by
    class algebra); a finite-rank sequence reduces to lim a_i r_i = 0;
    otherwise a dyadic drift probe over the available prefix.
    """
    lim = _class_limit(snum.asym, a, r)
    if lim is not None:
        return vanishes(lim)
    v = snum.values
    if a.asym is not None and r.asym is not None and v and (len(v) == 1 or v[-1] <= 1e-14 * max(v[0], 1e-300)):
        # effectively finite rank: prefix sums are eventually constant
        return vanishes(limit_class(mul(a.asym, r.asym)))
    if not v:
        return TriState.YES
    t = _weighted_averages(np.array(v), a, r)
    probes = np.array(dyadic_probes(1, len(t))) - 1
    return vanishes(classify_limit_trend(t[probes]))


@dataclass(frozen=True)
class QuasiNormResult:
    value: float
    argmax_index: int  # 1-based
    truncation_N: int
    tail_status: str  # "analytic_zero" | "negligible" | "dominant_possible"


def quasi_norm(snum: SNumberSequence, a: SequenceSpec, r: SequenceSpec) -> QuasiNormResult:
    """Q over the available prefix; a lower bound for the true supremum.

    ``tail_status`` records whether the prefix provably contains the sup:
    analytic_zero when the class limit vanishes and the samples decrease
    past the argmax, negligible when the trailing sample sits well below
    the max, dominant_possible otherwise.
    """
    if not snum.values:
        raise TerraspecError("snumbers-empty", "need at least one s-number")
    t = _weighted_averages(np.array(snum.values), a, r)
    k = int(np.argmax(t))
    value = float(t[k])
    n = len(t)
    decreasing_past = bool(np.all(np.diff(t[k:]) <= 0.0)) and k < n - 1
    status = "dominant_possible"
    if decreasing_past:
        member = stype_membership(snum, a, r)
        if member is TriState.YES:
            status = "analytic_zero"
        elif value > 0.0 and t[-1] <= 0.1 * value:
            status = "negligible"
    return QuasiNormResult(value, k + 1, n, status)


@dataclass(frozen=True)
class IdealFlags:
    ideal_ok: TriState        # lim a_n r_n = 0
    closed_ok: TriState       # lim n a_n r_n = 0
    qnorm_normalized: TriState  # sup_i a_i r_i = 1 (within 1e-9)


def ideal_preconditions(a: SequenceSpec, r: SequenceSpec, n_max: int = 4096) -> IdealFlags:
    """The two ideal conditions plus the quasi-norm normalization.

    A table a or r shortens the scan to its last entry.
    """
    n_max = scan_depth(r, scan_depth(a, n_max, 4), 4)
    probes = dyadic_probes(4, n_max)
    rv = r.values(n_max)
    if a.asym is not None and r.asym is not None:
        ideal_ok = vanishes(limit_class(mul(a.asym, r.asym)))
        closed_ok = vanishes(limit_class(mul(mul(a.asym, INDEX), r.asym)))
    else:
        ideal_ok = vanishes(classify_limit_trend([a.scaled(n, rv[n - 1]) for n in probes]))
        closed_ok = vanishes(classify_limit_trend([a.scaled(n, n * rv[n - 1]) for n in probes]))
    if a.asym is not None and r.asym is not None and limit_class(mul(a.asym, r.asym)) is Limit.INFINITE:
        normalized = TriState.NO
    else:
        sup = float(np.max(a.scaled_values(rv)))
        normalized = TriState.YES if abs(sup - 1.0) <= 1e-9 else TriState.NO
    return IdealFlags(ideal_ok, closed_ok, normalized)


@dataclass(frozen=True)
class AxiomReport:
    trials: int
    dim: int
    seed: int
    normalized: TriState
    violations: dict[str, int]

    @property
    def total_violations(self) -> int:
        return sum(self.violations.values())


def check_quasinorm_axioms(
    trials: int,
    dim: int,
    a: SequenceSpec,
    r: SequenceSpec,
    seed: int = 0,
) -> AxiomReport:
    """Trial-based verification of the quasi-norm and s-number inequalities.

    Each trial draws uniform [-1, 1] entries from its own generator seeded
    (seed, trial), so a trial's draws depend only on (seed, trial).  The
    trials are stacked and each role (phi, psi, phi + psi, phi - psi, zeta,
    eta, zeta phi eta, the low-rank matrix) gets one batched SVD.  Checked
    with slack 1e-9: the triangle inequality with constant 2, the
    operator-norm lower bound, the s-number Lipschitz bound, the
    composition bound, the rank cutoff, and the additive two-index
    inequality.  Needs dim >= 2 and trials >= 0 (``invalid-trials``).
    """
    if dim < 2 or trials < 0:
        msg = f"need dim >= 2 and trials >= 0, got dim={dim}, trials={trials}"
        raise TerraspecError("invalid-trials", msg)
    flags = ideal_preconditions(a, r)
    if flags.qnorm_normalized is not TriState.YES:
        warnings.warn("quasi-norm is only an operator-norm bound when sup a_i r_i = 1", stacklevel=2)

    phi, psi, zeta, eta, low_rank = np.empty((5, trials, dim, dim))
    k, m_idx, n_idx = np.empty((3, trials), dtype=int)
    for trial in range(trials):
        rng = np.random.default_rng((seed, trial))
        for mat in (phi, psi, zeta, eta):
            mat[trial] = rng.uniform(-1.0, 1.0, (dim, dim))
        k[trial] = rng.integers(1, dim)
        low_rank[trial] = rng.uniform(-1.0, 1.0, (dim, k[trial])) @ rng.uniform(-1.0, 1.0, (k[trial], dim))
        m_idx[trial] = rng.integers(1, dim + 1)
        n_idx[trial] = rng.integers(1, dim + 2 - m_idx[trial])

    def svd(mats: np.ndarray) -> np.ndarray:
        return np.linalg.svd(mats, compute_uv=False)

    def q_of(sv: np.ndarray) -> np.ndarray:
        return _weighted_averages(sv, a, r).max(axis=-1)

    s_phi, s_psi, s_sum, s_low = svd(phi), svd(psi), svd(phi + psi), svd(low_rank)
    diff_norm, zeta_norm, eta_norm = svd(phi - psi)[:, 0], svd(zeta)[:, 0], svd(eta)[:, 0]
    q_phi, q_psi = q_of(s_phi), q_of(s_psi)
    rows = np.arange(trials)
    s_add = s_sum[rows, m_idx + n_idx - 2]
    checks = {
        "quasi_triangle": q_of(s_sum) > 2.0 * (q_phi + q_psi) + AXIOM_TOL,
        "lower_bound": s_phi[:, 0] > q_phi + AXIOM_TOL,
        "lipschitz": np.any(np.abs(s_phi - s_psi) > diff_norm[:, None] + AXIOM_TOL, axis=-1),
        "composition": q_of(svd(zeta @ phi @ eta)) > zeta_norm * q_phi * eta_norm + AXIOM_TOL,
        "rank": np.any((s_low > 1e-10 * s_low[:, :1]) & (np.arange(dim) >= k[:, None]), axis=-1),
        "additive": s_add > s_phi[rows, m_idx - 1] + s_psi[rows, n_idx - 1] + AXIOM_TOL,
    }
    counts = {name: int(np.count_nonzero(hit)) for name, hit in checks.items()}
    return AxiomReport(trials, dim, seed, flags.qnorm_normalized, counts)


@dataclass(frozen=True)
class InclusionReport:
    checked: int
    t_members: int
    violations: tuple[int, ...]  # indices of samples breaking the inclusion
    inconclusive: int


def inclusion_check(
    r: SequenceSpec,
    t: SequenceSpec,
    samples: list[SNumberSequence],
    a: SequenceSpec,
    n_max: int = 4096,
) -> InclusionReport:
    """r_n <= t_n makes every t-class member an r-class member."""
    rv = r.values(n_max)
    tv = t.values(n_max)
    if np.any(rv > tv):
        bad = int(np.argmax(rv > tv)) + 1
        raise TerraspecError("weights-not-ordered", f"r_{bad} > t_{bad}")
    t_members = 0
    violations = []
    inconclusive = 0
    for i, snum in enumerate(samples):
        with_t = stype_membership(snum, a, t)
        if with_t is not TriState.YES:
            continue
        t_members += 1
        with_r = stype_membership(snum, a, r)
        if with_r is TriState.NO:
            violations.append(i)
        elif with_r is TriState.INCONCLUSIVE:
            inconclusive += 1
    return InclusionReport(len(samples), t_members, tuple(violations), inconclusive)


def chi_space_membership(v, a: SequenceSpec, r: SequenceSpec, n_max: int = 4096) -> TriState:
    """Does the image sequence a_i * (v_1 + ... + v_i) * r_i tend to 0.

    ``v`` is either a finite vector (prefix sums constant past its end) or
    a SequenceSpec decided by class algebra / probing.
    """
    if isinstance(v, SequenceSpec):
        lim = _class_limit(v.asym, a, r)
        if lim is None:
            probes = dyadic_probes(4, n_max)
            vv = v.values(n_max)
            rv = r.values(n_max)
            lim = classify_limit_trend([abs(a.scaled(n, math.fsum(vv[:n]))) * rv[n - 1] for n in probes])
        return vanishes(lim)
    vec = np.asarray(v, dtype=complex)
    total = complex(math.fsum(vec.real), math.fsum(vec.imag))
    if total == 0:
        return TriState.YES
    if a.asym is not None and r.asym is not None:
        return vanishes(limit_class(mul(a.asym, r.asym)))
    samples = [abs(a.scaled(n, abs(total))) * r.value(n) for n in dyadic_probes(4, n_max)]
    return vanishes(classify_limit_trend(samples))
