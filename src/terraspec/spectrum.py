"""Fine-spectrum classification, eigenvectors, and explicit resolvents.

Under the standing hypothesis chi = lim n * a_n in (0, inf), the spectrum
of the terraced operator on c0(s) sits inside the closed disk
|lambda - chi/2| <= chi/2 together with the closure of the diagonal set
S = {a_n}.  A complex point is classified by two membership tests:

  A1 (eigenvalue):      lambda in S  and  a_n * s_n * n**(alpha*chi) -> 0,
  A2 (adjoint series):  lambda off S u {0}  and  sum 1/(s_n n**(alpha*chi)) < inf,

with alpha = Re(1/lambda).  A1 points are point spectrum, (A2 u S) minus
A1 is residual spectrum, 0 is a continuous-spectrum candidate, the disk
exterior off the closure of S is resolvent set (for decreasing weights),
and the remaining interior points are continuous-spectrum candidates.

The resolvent inverse is written entrywise: diagonal 1/(a_n - lambda) and

    b_nk = -a_n / (lambda**2 * prod_{j=k}^{n} (1 - a_j/lambda)),  k < n,

computed here from prefix log-products, which makes leading blocks of
larger sections bit-identical to smaller sections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .asymptotics import AsymptoticClass, Limit, Verdict, limit_class, mul, partial_sum, reciprocal
from .errors import TerraspecError
from .numerics import TriState, check_chi, classify_limit_trend, divisor, dyadic_probes, finite_lambda
from .numerics import log_cumprod, vanishes
from .products import alpha
from .sequences import SequenceSpec, scan_depth, verify_weight
from .terraced import FiniteSection, _freeze, check_dense_cap


#: snap tolerance for membership of a floating lambda in the exact set S
SNAP_TOL = 1e-13

#: relative width of the boundary band of the spectral disk
DISK_RTOL = 1e-12

#: default diagonal scan depth
SCAN_N = 10000


class Label(Enum):
    RESOLVENT = "resolvent"
    POINT = "point"
    RESIDUAL = "residual"
    CONTINUOUS_CANDIDATE = "continuous_candidate"
    BOUNDARY_UNKNOWN = "boundary_unknown"


@dataclass(frozen=True)
class ProbeResult:
    outcome: TriState
    detail: str


@dataclass(frozen=True)
class Evidence:
    """Everything the decision tree looked at for one lambda."""

    alpha: float | None
    alpha_chi: float | None
    disk_position: str
    at_disk_zero: bool
    in_S: bool
    s_index: int | None
    dist_to_S: float
    nearest_index: int  # 0 denotes the accumulation point of S
    a1: TriState
    a2: TriState
    limit_diag: str
    series_diag: str


@dataclass(frozen=True)
class SpectralPoint:
    lam: complex
    label: Label
    evidence: Evidence


def disk_position(lam: complex, chi: float) -> str:
    """interior/boundary/exterior of |lambda - chi/2| <= chi/2.

    Computed twice (circle distance and the equivalent Re(1/lambda) vs
    1/chi test); any disagreement within tolerance collapses to boundary.
    lambda = 0 lies exactly on the circle and reports boundary.
    """
    check_chi(chi)
    lam = finite_lambda(lam)
    return "boundary" if lam == 0 else _disk_position(lam, chi, alpha(lam))


def _disk_position(lam: complex, chi: float, al: float) -> str:
    """disk_position of a nonzero lambda with alpha(lambda) = al."""
    radius = chi / 2.0
    d = abs(lam - radius)
    if abs(d - radius) <= DISK_RTOL * radius:
        circle = "boundary"
    elif d < radius:
        circle = "interior"
    else:
        circle = "exterior"
    gap = al - 1.0 / chi
    if abs(gap) <= DISK_RTOL / chi:
        halfplane = "boundary"
    elif gap > 0:
        halfplane = "interior"
    else:
        halfplane = "exterior"
    return circle if circle == halfplane else "boundary"


def dist_to_S(lam: complex, a: SequenceSpec, n_max: int = SCAN_N) -> tuple[float, int]:
    """(distance to closure of S, index of the nearest element).

    The closure adds the accumulation point 0 (a_n -> 0 under the chi
    hypothesis); index 0 denotes that point, diagonal indices are 1-based.
    On equal distances the smaller index wins, and 0 wins only when it is
    strictly nearer than every scanned a_k.
    """
    return _locate([finite_lambda(lam)], *_diagonal(a, n_max))[0][:2]


def find_in_S(lam: complex, a: SequenceSpec, n_max: int = SCAN_N) -> int | None:
    """First 1-based index with a_k = lambda (exact or within the snap band)."""
    return _locate([finite_lambda(lam)], *_diagonal(a, n_max))[0][2]


def _diagonal(a: SequenceSpec, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(a_1..a_{n_max} capped at a table's end, its stable argsort)."""
    if n_max < 1:
        raise TerraspecError("index-out-of-range", f"n_max must be >= 1, got {n_max}")
    vals = a.values(scan_depth(a, n_max))
    return vals, np.argsort(vals, kind="stable")


def _locate(lams: list[complex], vals: np.ndarray, order: np.ndarray) -> list[tuple[float, int, int | None]]:
    """dist_to_S's pair and find_in_S's index for each lambda; ``order`` sorts ``vals``.

    The diagonal is real, so the a_k nearest to lambda is one of the two
    sorted values around Re(lambda); each stands for the first index of
    its run of equal values.  A snap hit lies within
    2 * SNAP_TOL * |Re(lambda)| of Re(lambda), and that window (widened by
    the least subnormal, which keeps a_k = 0.0 in the window of
    Re(lambda) = 0) gets the exact band test of _diagonal_hits.
    """
    z = np.array(lams, dtype=complex)
    re = z.real
    width = 2.0 * SNAP_TOL * np.abs(re) + np.finfo(float).smallest_subnormal
    keys = np.concatenate((re, re - width, re + width))
    pos, lo, hi = np.searchsorted(vals, keys, sorter=order).reshape(3, -1)
    # the neighbours below and above Re(lambda) as 0-based indices, each the first of its
    # run of equal values (searchsorted already gives that for the one above)
    near = order[np.stack((np.maximum(pos - 1, 0), np.minimum(pos, len(vals) - 1)))]
    near[0] = order[np.searchsorted(vals, vals[near[0]], sorter=order)]
    dists = np.abs(z - vals[near]).tolist()
    out = []
    for lam, db, da, kb, ka, i, j in zip(lams, *dists, *near.tolist(), lo.tolist(), hi.tolist()):
        d, k = (da, ka) if da < db or (da == db and ka < kb) else (db, kb)
        window = order[i:j]
        hits = window[_diagonal_hits(lam, vals[window])].tolist() if i < j else []
        hit = min(hits) + 1 if hits else None
        if abs(lam) < d:
            out.append((abs(lam), 0, hit))
        else:
            out.append((d, k + 1, hit))
    return out


def _diagonal_hits(lam: complex, vals: np.ndarray) -> np.ndarray:
    """0-based indices k with lambda = vals[k] within the relative snap band."""
    return np.flatnonzero(np.abs(lam - vals) <= SNAP_TOL * np.abs(vals))


#: detail of the numeric eigen-limit probe, per outcome
_PROBE_DETAIL = {
    TriState.YES: "probe trend of a_n s_n n^(alpha chi) decays",
    TriState.NO: "probe trend of a_n s_n n^(alpha chi) does not vanish",
    TriState.INCONCLUSIVE: "probe trend ambiguous",
}

#: point_spectrum_test off S (0 is never in S); adjoint_point_test at 0 and at lambda = a_k
_NOT_IN_S = ProbeResult(TriState.NO, "lambda not in S, kernel is trivial")
_ZERO_NOT_ADJOINT = ProbeResult(TriState.NO, "0 is never an adjoint eigenvalue")
_ADJOINT_IN_S = "lambda = a_{}, adjoint eigenvector truncates"


def point_tests(pt: SpectralPoint) -> tuple[ProbeResult, ProbeResult]:
    """(point_spectrum_test, adjoint_point_test) of pt.lam, read off its A1 and A2 results."""
    ev = pt.evidence
    if ev.in_S:
        return ProbeResult(ev.a1, ev.limit_diag), ProbeResult(TriState.YES, _ADJOINT_IN_S.format(ev.s_index))
    return _NOT_IN_S, (_ZERO_NOT_ADJOINT if pt.lam == 0 else ProbeResult(ev.a2, ev.series_diag))


def point_spectrum_test(
    lam: complex,
    a: SequenceSpec,
    s: SequenceSpec,
    chi: float,
    *,
    n_max: int = SCAN_N,
) -> ProbeResult:
    """Is lambda an eigenvalue: lambda in S and a_n s_n n**(alpha*chi) -> 0.

    Read off the A1 result of classify_point (point_tests), so it raises
    where classify_point does: an unbounded weight, an invalid chi,
    alpha * chi past the double range, or a lambda within SNAP_TOL of 0
    inside the disk.  Real diagonal points above chi are eigenvalues
    outright (the exponent alpha*chi drops below 1 there); otherwise the
    limit is decided on the growth classes when available, else by
    dyadic probes.
    """
    return point_tests(classify_point(lam, a, s, chi, n_max=n_max))[0]


def _point_test_at(lam, idx, a, s, chi, ac, n_max) -> ProbeResult:
    """point_spectrum_test for lambda snapped to a_idx, with ac = alpha(lambda) * chi.

    The test runs at the diagonal value a_idx itself, so a lambda within the
    snap band of a_idx gets the answer of a_idx.
    """
    a_k = a.value(idx)
    if a_k != lam:
        ac = alpha(a_k) * chi
    if a_k > chi:  # classify_points has already checked that the weight is bounded
        return ProbeResult(TriState.YES, f"lambda = a_{idx} > chi, eigen-limit vanishes")
    if a.asym is not None and s.asym is not None:
        cls = mul(mul(a.asym, s.asym), AsymptoticClass(1.0, 1.0, ac, 0.0))
        lim = limit_class(cls)
        return ProbeResult(vanishes(lim), f"class limit of a_n s_n n^{ac:.6g} is {lim.value}")
    depth = scan_depth(s, scan_depth(a, n_max))
    probes = dyadic_probes(min(16, depth), depth)
    logs = [a.log_value(n) + s.log_value(n) + ac * math.log(n) for n in probes]
    with np.errstate(over="ignore"):  # an overflow to inf reads as growth
        outcome = vanishes(classify_limit_trend(np.exp(np.array(logs) - logs[0])))
    return ProbeResult(outcome, _PROBE_DETAIL[outcome])


def _adjoint_series_class(s: SequenceSpec, ac: float):
    if s.asym is None:
        return None
    return partial_sum(mul(reciprocal(s.asym), AsymptoticClass(1.0, 1.0, -ac, 0.0)))


def adjoint_point_test(
    lam: complex,
    a: SequenceSpec,
    s: SequenceSpec,
    chi: float,
    *,
    n_max: int = SCAN_N,
) -> ProbeResult:
    """Adjoint eigenvalue test: S is always in, 0 never; off the closure
    of S the criterion is convergence of sum 1/(s_n n**(alpha*chi)).

    Read off the A2 result of classify_point (point_tests), so it raises
    where classify_point does.  Points on or outside the spectral circle
    are excluded outright (the adjoint point spectrum sits in the open
    disk union S).
    """
    return point_tests(classify_point(lam, a, s, chi, n_max=n_max))[1]


def _adjoint_test_at(lam, s, ac, pos, n_max) -> ProbeResult:
    """adjoint_point_test off S u {0}, given ac = alpha(lambda) * chi and the disk position.

    A lambda within SNAP_TOL of 0 lies in the circle's boundary band unless
    chi < 0.2; only such an interior point is unsupported.
    """
    if pos in ("exterior", "boundary"):
        return ProbeResult(TriState.NO, f"disk position {pos}: outside the open-disk bound")
    if abs(lam) <= SNAP_TOL:
        raise TerraspecError(
            "closure-boundary-unsupported", "lambda sits at the accumulation point of S"
        )
    sum_cls = _adjoint_series_class(s, ac)
    if sum_cls is not None and sum_cls.verdict is not Verdict.UNDECIDED_BOUNDARY:
        conv = sum_cls.verdict is Verdict.CONVERGENT
        detail = f"series sum 1/(s_n n^{ac:.6g}) is {sum_cls.verdict.value} (by class)"
        return ProbeResult(TriState.YES if conv else TriState.NO, detail)
    # numeric fallback: log-space partial sums at dyadic n
    depth = scan_depth(s, n_max)
    probes = dyadic_probes(min(16, depth), depth)
    log_terms = -s.log_values(depth) - ac * np.log(np.arange(1, depth + 1))
    log_sums = np.logaddexp.accumulate(log_terms)
    sums = np.exp(log_sums[np.array(probes) - 1] - log_sums[probes[0] - 1])
    trend = classify_limit_trend(sums)
    if trend is Limit.FINITE_NONZERO:
        return ProbeResult(TriState.YES, "partial sums stabilize (numeric)")
    if trend is Limit.INFINITE:
        return ProbeResult(TriState.NO, "partial sums grow (numeric)")
    return ProbeResult(TriState.INCONCLUSIVE, "partial-sum trend ambiguous")


def eigenvector(lam: complex, a: SequenceSpec, N: int) -> np.ndarray:
    """Eigenvector for lambda = a_m: zeros below m, x_m = 1, then

        x_n = (a_n / a_m) / prod_{j=m+1}^{n} (1 - a_j/lambda).

    Entries are exponentiated per index from log-space products.  The
    formula needs lambda to appear exactly once on the diagonal up to N.
    """
    lam = finite_lambda(lam)
    vals = a.values(N)
    hits = _diagonal_hits(lam, vals)
    if len(hits) == 0:
        raise TerraspecError("not-an-eigencandidate", f"lambda not on the diagonal up to N={N}")
    if len(hits) > 1:
        raise TerraspecError(
            "repeated-diagonal-unsupported",
            f"lambda matches a_{hits[0] + 1} and a_{hits[1] + 1}",
        )
    m = int(hits[0]) + 1
    lam_r = lam.real
    x = np.zeros(N, dtype=complex)
    x[m - 1] = 1.0
    if m == N:
        return x
    factors = 1.0 - vals[m:] / lam_r
    if np.any(factors == 0.0):
        j = m + 1 + int(np.argmax(factors == 0.0))
        raise TerraspecError("repeated-diagonal-unsupported", f"a_{j} also equals lambda")
    phase, logmag = log_cumprod(factors)
    log_a = np.log(vals)
    x[m:] = phase * np.exp(log_a[m:] - log_a[m - 1] - logmag)
    return x


def adjoint_eigvector(lam: complex, a: SequenceSpec, N: int) -> np.ndarray:
    """Adjoint eigenvector: x_1 = 1, x_n = prod_{j<n} (1 - a_j/lambda).

    When lambda = a_l the factor at j = l vanishes and every later entry
    is exactly zero.  lambda = 0 is rejected: the adjoint is injective.
    """
    lam = finite_lambda(lam)
    if lam == 0:
        raise TerraspecError("zero-not-adjoint-eigenvalue")
    if N < 1:
        raise TerraspecError("index-out-of-range", f"N must be >= 1, got {N}")
    x = np.zeros(N, dtype=complex)
    x[0] = 1.0
    if N == 1:
        return x
    phase, logmag = log_cumprod(1.0 - a.values(N - 1) / divisor(lam))
    x[1:] = phase * np.exp(logmag)
    return x


def resolvent_section(lam: complex, a: SequenceSpec, N: int) -> FiniteSection:
    """Explicit entrywise inverse of the lambda-shifted section.

    Off-diagonal entries come from prefix log-products, so the leading
    M x M block equals the M-dimensional section exactly.  A real lambda
    gives entries with exactly zero imaginary parts.
    """
    lam = finite_lambda(lam)
    if lam == 0:
        raise TerraspecError("resolvent-undefined-at-zero")
    if N < 1:
        raise TerraspecError("index-out-of-range", f"N must be >= 1, got {N}")
    vals = a.values(N)
    hits = _diagonal_hits(lam, vals)
    if len(hits):
        raise TerraspecError("lambda-in-S", f"lambda matches a_{hits[0] + 1}")
    lam_d = divisor(lam)
    B = np.zeros((N, N), dtype=complex)
    np.fill_diagonal(B, 1.0 / (vals - lam_d))
    phase, logmag = log_cumprod(1.0 - vals / lam_d)
    P = np.concatenate(([1.0], phase))
    L = np.concatenate(([0.0], logmag))
    inv_lam2 = 1.0 / (lam_d * lam_d)
    for n in range(2, N + 1):
        coef = -vals[n - 1] * inv_lam2 * P[n].conjugate()
        B[n - 1, : n - 1] = coef * P[: n - 1] * np.exp(L[: n - 1] - L[n])
    return FiniteSection(N, _freeze(B), "resolvent")


@dataclass(frozen=True)
class ResolventCheck:
    left_residual: float   # max entry of (R - lambda I) B - I
    right_residual: float  # max entry of B (R - lambda I) - I
    max_residual: float
    tol: float
    passed: bool


def verify_resolvent(lam: complex, a: SequenceSpec, N: int, tol: float = 1e-10) -> ResolventCheck:
    """Multiply the explicit inverse back against the shifted section T - lambda I.

    Row n of the terraced section T is a_n up to the diagonal, so TB is
    a_n times the column prefix sums of B, and BT holds the suffix sums of
    B * a_k along each row: O(N^2), with no dense T and no matmul.
    """
    B = resolvent_section(lam, a, N).entries
    vals = a.values(N)
    shifted = complex(lam) * B + np.eye(N)
    left = float(np.max(np.abs(vals[:, None] * np.cumsum(B, axis=0) - shifted)))
    right = float(np.max(np.abs(np.cumsum(B[:, ::-1] * vals[::-1], axis=1)[:, ::-1] - shifted)))
    worst = max(left, right)
    return ResolventCheck(left, right, worst, tol, worst <= tol)


def classify_point(
    lam: complex,
    a: SequenceSpec,
    s: SequenceSpec,
    chi: float,
    *,
    n_max: int = SCAN_N,
) -> SpectralPoint:
    """Full decision tree for one complex point (see classify_points)."""
    return classify_points([lam], a, s, chi, n_max=n_max)[0]


def classify_points(
    lams: list[complex],
    a: SequenceSpec,
    s: SequenceSpec,
    chi: float,
    *,
    n_max: int = SCAN_N,
) -> list[SpectralPoint]:
    """Full decision tree for each point of ``lams``; the weight and S scans run once.

    Requires a bounded weight; a non-decreasing weight suppresses the
    exterior-is-resolvent and interior-candidate rules (their hypothesis
    fails) and those points degrade to boundary_unknown.
    """
    lams = [finite_lambda(lam) for lam in lams]
    check_chi(chi)
    if not verify_weight(s, scan_depth(s, 1024)).bounded:
        raise TerraspecError("weight-not-bounded", "spectral classification needs a bounded weight")
    # the monotonicity scan compares neighbours, so it reads two terms even at n_max = 1
    s_decreasing = verify_weight(s, scan_depth(s, min(max(n_max, 2), 4096))).decreasing
    located = _locate(lams, *_diagonal(a, n_max))
    return [_classify(lam, *loc, a, s, chi, s_decreasing, n_max) for lam, loc in zip(lams, located)]


def _classify(lam, dist, nearest, idx, a, s, chi, s_decreasing, n_max) -> SpectralPoint:
    """The decision tree for one point, given its _locate result and the weight flag."""
    if lam == 0:
        # 0 is never reported in S, even where some a_k underflowed to 0.0
        al = ac = idx = None
        pos = "boundary"
        a1_res = ProbeResult(TriState.NO, "lambda = 0: kernel trivial")
        a2_res = ProbeResult(TriState.NO, "lambda = 0: excluded from the adjoint series set")
        label = Label.CONTINUOUS_CANDIDATE
    else:
        al = alpha(lam)
        ac = al * chi
        if math.isinf(ac):
            raise TerraspecError("alpha-overflow", f"alpha * chi is past the double range at lambda = {lam!r}")
        pos = _disk_position(lam, chi, al)
        if idx is not None:
            a1_res = _point_test_at(lam, idx, a, s, chi, ac, n_max)
            a2_res = ProbeResult(TriState.NO, "lambda in S: excluded from the adjoint series set")
        else:
            a1_res = ProbeResult(TriState.NO, "lambda not in S")
            a2_res = _adjoint_test_at(lam, s, ac, pos, n_max)
        if a1_res.outcome is TriState.YES:
            label = Label.POINT
        elif idx is not None:
            label = Label.RESIDUAL if a1_res.outcome is TriState.NO else Label.BOUNDARY_UNKNOWN
        elif a2_res.outcome is TriState.YES:
            label = Label.RESIDUAL
        elif a2_res.outcome is TriState.INCONCLUSIVE or not s_decreasing:
            label = Label.BOUNDARY_UNKNOWN
        elif pos == "exterior":
            label = Label.RESOLVENT
        elif pos == "interior":
            label = Label.CONTINUOUS_CANDIDATE
        else:
            label = Label.BOUNDARY_UNKNOWN

    ev = Evidence(
        alpha=al,
        alpha_chi=ac,
        disk_position=pos,
        at_disk_zero=lam == 0,
        in_S=idx is not None,
        s_index=idx,
        dist_to_S=dist,
        nearest_index=nearest,
        a1=a1_res.outcome,
        a2=a2_res.outcome,
        limit_diag=a1_res.detail,
        series_diag=a2_res.detail,
    )
    return SpectralPoint(lam, label, ev)


@dataclass(frozen=True)
class GridSpec:
    re_range: tuple[float, float]
    im_range: tuple[float, float]
    resolution: tuple[int, int]  # (n_re, n_im)

    def __post_init__(self):
        if self.resolution[0] < 2 or self.resolution[1] < 2:
            raise TerraspecError("grid-degenerate", "need at least 2 nodes per axis")

    def re_values(self) -> np.ndarray:
        return np.linspace(self.re_range[0], self.re_range[1], self.resolution[0])

    def im_values(self) -> np.ndarray:
        return np.linspace(self.im_range[0], self.im_range[1], self.resolution[1])


def spectrum_grid(
    a: SequenceSpec,
    s: SequenceSpec,
    chi: float,
    grid: GridSpec,
    *,
    n_max: int = SCAN_N,
) -> list[SpectralPoint]:
    """classify_points over the grid, row-major (im outer, re inner)."""
    lams = [complex(re, im) for im in grid.im_values() for re in grid.re_values()]
    return classify_points(lams, a, s, chi, n_max=n_max)


@dataclass(frozen=True)
class PseudospectrumResult:
    re_values: np.ndarray
    im_values: np.ndarray
    sigma_min: np.ndarray  # shape (n_im, n_re)
    epsilons: tuple[float, ...]
    membership: dict[float, np.ndarray]  # eps -> bool array, sigma_min <= eps


def pseudospectrum_grid(sec: FiniteSection, grid: GridSpec, epsilons) -> PseudospectrumResult:
    """Smallest singular value of (section - lambda I) on each grid node.

    On a terraced section a node equal to some a_n is exactly singular
    (sigma_min = 0.0), and every other node off 0 takes the structured route
    of _inverse_sigma_min.  Where that route does not apply (lambda = 0, an
    inverse outside the double range) and on every other kind of section,
    a node gets a dense SVD.
    """
    check_dense_cap(sec.n)
    res = grid.re_values()
    ims = grid.im_values()
    lams = np.empty((len(ims), len(res)), dtype=complex)
    lams.real = res
    lams.imag = ims[:, None]
    lams = lams.ravel()
    sig = np.full(lams.size, np.nan)
    if sec.kind == "terraced":
        a = sec.entries[:, 0].real
        on_diagonal = np.isin(lams, a)
        sig[on_diagonal] = 0.0
        off = np.flatnonzero(~on_diagonal & (lams != 0))
        sig[off] = _inverse_sigma_min(a, lams[off])
    eye = np.eye(sec.n)
    for k in np.flatnonzero(np.isnan(sig)):
        sig[k] = np.linalg.svd(sec.entries - lams[k] * eye, compute_uv=False)[-1]
    sig = sig.reshape(len(ims), len(res))
    eps = tuple(float(e) for e in epsilons)
    membership = {e: sig <= e for e in eps}
    return PseudospectrumResult(res, ims, sig, eps, membership)


def _inverse_sigma_min(a: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """sigma_min(T - lambda I) = 1/sigma_max(B) per node, B = (T - lambda I)^-1 of the terraced T.

    B has diagonal d_n = 1/(a_n - lambda) and strictly lower part u_n v_k, with
    u_n = -a_n/lambda^2 / P_n and v_k = P_{k-1}, P_n = prod_{j<=n} (1 - a_j/lambda)
    (the entries of resolvent_section).  The log magnitudes of P are shifted
    by their per-node midpoint, so u and v stay in the double range whenever
    their products do; d and u are divided by c = max_n |d_n|, which keeps
    (B/c)^H (B/c) in range next to a diagonal value.  NaN marks a node whose
    d/c, u/c or v is not finite, or whose Lanczos run met a value that is
    not.  Needs every lambda nonzero and off the diagonal.
    """
    lam = lams[:, None]
    # u_1 and v_N are never read, and may be inf or NaN
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        phase, logmag = log_cumprod(1.0 - a / lam)
        L = np.concatenate((np.zeros((len(lams), 1)), logmag), axis=1)  # log|P_0| .. log|P_N|
        mid = 0.5 * (L.max(axis=1, keepdims=True) + L.min(axis=1, keepdims=True))
        d = 1.0 / (a - lam)
        c = np.abs(d).max(axis=1, keepdims=True)
        d = d / c
        u = -a / (lam * lam) * phase.conj() * np.exp(mid - L[:, 1:]) / c
        v = np.concatenate((np.ones((len(lams), 1)), phase[:, :-1]), axis=1) * np.exp(L[:, :-1] - mid)
    ok = np.isfinite(d).all(axis=1) & np.isfinite(u[:, 1:]).all(axis=1) & np.isfinite(v[:, :-1]).all(axis=1)
    out = np.full(len(lams), np.nan)
    nodes = np.flatnonzero(ok)
    for lo in range(0, nodes.size, LANCZOS_BATCH):
        part = nodes[lo : lo + LANCZOS_BATCH]
        out[part] = (1.0 / c[part, 0]) / _lanczos_sigma_max(d[part], u[part], v[part])  # c * sigma_max may overflow
    return out


#: a node's Lanczos run stops once its residual is at most this times its estimate
LANCZOS_RTOL = 1e-10

#: nodes per Lanczos batch: the Krylov basis holds at most 32 * N^2 complex values
#: (on a 2-vCPU VM a 21x21 grid at N = 200 ran no slower in batches of 32 than in one of 441)
LANCZOS_BATCH = 32


def _lanczos_sigma_max(d: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sigma_max of B = diag(d) + strictly_lower(u v^T) for each row of (d, u, v).

    Hermitian Lanczos on B^H B, batched over the rows, from one fixed start
    vector and with full reorthogonalisation (_reorthogonalise) against one
    Krylov basis that grows with the steps.  B^H B q is one cumsum and one
    reverse cumsum, O(N) per row.  After k steps the top eigenpair
    (theta, s) of the tridiagonal T_k (alphas on the diagonal, betas beside
    it) gives the estimate sqrt(theta) and the residual beta_k |s_k|; rows
    are checked every step up to 8, then whenever k has grown by a quarter,
    and a row leaves the batch once its residual is at most LANCZOS_RTOL
    times theta, at step N (where the estimate is exact up to rounding), or
    at a value that is not finite (NaN).  B^H B squares the range of B,
    which the caller's scaling keeps in bounds.  References: Lanczos,
    J. Res. Nat. Bur. Standards 45(4), 1950; Wright & Trefethen, SIAM J.
    Sci. Comput. 23(2), 2001.
    """
    m, n = d.shape
    out = np.full(m, np.nan)
    rows = np.arange(m)
    dc, uc, vc = d.conj(), u.conj(), v.conj()
    Q = np.empty((m, min(n, 8), n), dtype=complex)
    alphas = np.zeros((m, n))
    betas = np.zeros((m, n))
    start = np.random.default_rng(0).standard_normal(n)
    q = np.tile(start / np.linalg.norm(start), (m, 1)).astype(complex)
    k, next_check = 0, 1
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while rows.size:
            Q[:, k] = q
            y = d * q
            y[:, 1:] += u[:, 1:] * np.cumsum(v * q, axis=1)[:, :-1]
            w = dc * y
            w[:, :-1] += vc[:, :-1] * np.cumsum((uc * y)[:, :0:-1], axis=1)[:, ::-1]
            alpha = np.linalg.norm(y, axis=1) ** 2  # q^H B^H B q
            w -= alpha[:, None] * q
            if k:
                w -= betas[:, k - 1, None] * Q[:, k - 1]
            w = _reorthogonalise(w, Q[:, : k + 1])
            beta = np.linalg.norm(w, axis=1)
            alphas[:, k] = alpha
            betas[:, k] = beta
            k += 1
            if k >= next_check or k == n or not np.all(beta > 0.0):
                next_check = max(k + 1, k + k // 4)
                tri = np.zeros((rows.size, k, k))
                diag = np.arange(k)
                tri[:, diag, diag] = alphas[:, :k]
                tri[:, diag[1:], diag[:-1]] = betas[:, : k - 1]  # eigh reads the lower part
                finite = np.isfinite(alpha) & np.isfinite(beta)
                tri[~finite] = 0.0
                theta, s = np.linalg.eigh(tri)
                top = theta[:, -1]
                done = (beta * np.abs(s[:, -1, -1]) <= LANCZOS_RTOL * top) | ~finite | (k == n)
                out[rows[done & finite]] = np.sqrt(top[done & finite])
                if done.any():
                    keep = ~done
                    rows, d, u, v, dc, uc, vc = (x[keep] for x in (rows, d, u, v, dc, uc, vc))
                    Q, alphas, betas, w, beta = (x[keep] for x in (Q, alphas, betas, w, beta))
            if k == Q.shape[1] and rows.size:
                Q = np.concatenate((Q, np.empty((rows.size, min(n, 2 * k) - k, n), dtype=complex)), axis=1)
            q = w / beta[:, None]
    return out


def _reorthogonalise(w: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """w minus its projection onto the orthonormal rows of Q, per batch row.

    Classical Gram-Schmidt, repeated once when some row lost more than
    1 - 1/sqrt(2) of its norm (Daniel, Gragg, Kaufman & Stewart, Math.
    Comp. 30, 1976: twice is enough).
    """
    for _ in range(2):
        before = np.linalg.norm(w, axis=1)
        coef = np.matmul(Q, w.conj()[:, :, None]).conj()  # (rows, k, 1): Q^H w
        w = w - np.matmul(coef.transpose(0, 2, 1), Q)[:, 0]
        if np.all(np.linalg.norm(w, axis=1) >= before / math.sqrt(2.0)):
            break
    return w
