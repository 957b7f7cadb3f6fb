"""Finite sections of the terraced operator and the boundedness criterion.

The operator acts on a weighted null-sequence space c0(r) into c0(s); its
matrix has row n constantly equal to a_n up to the diagonal.  Boundedness
and compactness are governed by the weighted criterion sequence

    c_n = s_n * a_n * sum_{k<=n} 1/r_k,

bounded iff {c_n} is bounded, compact iff c_n -> 0, with operator norm
sup_n c_n.  Classification is done on the growth classes when available
and falls back to dyadic sampling with an explicit inconclusive outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .asymptotics import INDEX, Limit, limit_class, mul, partial_sum_growth, reciprocal
from .errors import TerraspecError
from .numerics import TriState, classify_limit_trend, compensated_cumsum, dyadic_probes, vanishes
from .sequences import SequenceSpec, scan_depth, verify_weight

#: largest n for which every criterion value is kept as a sample
DENSE_SAMPLE_LIMIT = 1000


@dataclass(frozen=True)
class FiniteSection:
    """N x N lower-triangular complex matrix.

    ``kind`` is "terraced" for row-constant sections, "resolvent"
    for explicit inverse sections, "general" otherwise.  Entries above the
    diagonal are exactly zero.
    """

    n: int
    entries: np.ndarray  # complex128, shape (n, n), read-only
    kind: str = "general"

    def __post_init__(self):
        if self.entries.shape != (self.n, self.n):
            raise TerraspecError("dimension-mismatch", f"entries shape {self.entries.shape} != ({self.n}, {self.n})")


def _freeze(mat: np.ndarray) -> np.ndarray:
    mat.setflags(write=False)
    return mat


def build_section(a: SequenceSpec, n: int) -> FiniteSection:
    """Leading n x n section: entry (i, k) = a_i for k <= i, else 0."""
    if n < 1:
        raise TerraspecError("index-out-of-range", f"section dimension must be >= 1, got {n}")
    vals = a.values(n)
    mat = np.tril(np.repeat(vals[:, None], n, axis=1)).astype(complex)
    return FiniteSection(n, _freeze(mat), "terraced")


def apply(sec: FiniteSection, x) -> np.ndarray:
    """y_i = sum_{k<=i} entries(i,k) * x_k."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (sec.n,):
        raise TerraspecError("dimension-mismatch", f"vector length {x.shape} != {sec.n}")
    return sec.entries @ x


def conjugate_section(sec: FiniteSection, r: SequenceSpec, s: SequenceSpec) -> FiniteSection:
    """Weight conjugation D_s A D_r^{-1}: entry (i,k) -> s_i * entry / r_k."""
    rv = r.values(sec.n)
    sv = s.values(sec.n)
    if np.any(rv <= 0.0) or np.any(sv <= 0.0):
        raise TerraspecError("weight-not-positive", "conjugation weights must be strictly positive")
    mat = (sv[:, None] * sec.entries) / rv[None, :]
    return FiniteSection(sec.n, _freeze(mat), "general")


def _criterion_scan(a: SequenceSpec, r: SequenceSpec, s: SequenceSpec, n_max: int):
    """c_n for n = 1..n_max as arrays.

    Returns (samples, probe_values, sup_estimate, truncated).  The running
    sums of 1/r_k are compensated prefix sums.  From the first term that is
    not finite, or the first sum that would pass 1e300 (geometric weights
    make 1/r_k grow geometrically), they continue in log space.  The scan
    stops before the first c_n above exp(709) and reports it truncated.
    A NaN c_n is sampled but never taken as the supremum.
    """
    if n_max < 1:
        raise TerraspecError("index-out-of-range", f"n_max must be >= 1, got {n_max}")
    rv = r.values(n_max)
    sv = s.values(n_max)
    probes = dyadic_probes(1, n_max)
    # a table a shorter than n_max is read to its end; the scan fails there
    # unless it was truncated first
    depth = scan_depth(a, n_max)
    rv, sv = rv[:depth], sv[:depth]
    truncated = False
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        terms = np.where(rv > 0.0, 1.0 / rv, math.inf)
        totals = compensated_cumsum(terms)
        prev = np.concatenate(([0.0], totals[:-1]))
        to_log = np.flatnonzero(~np.isfinite(terms) | (prev + terms > 1e300))
        m = int(to_log[0]) if to_log.size else depth
        c = sv[:m] * a.scaled_values(totals[:m])
        if m < depth:
            log_sums = np.logaddexp.accumulate(np.concatenate(([np.log(prev[m])], -r.log_values(depth)[m:])))
            log_c = (log_sums[1:] + s.log_values(depth)[m:]) + a.log_values(depth)[m:]
            over = np.flatnonzero(log_c > 709.0)
            truncated = bool(over.size)
            c = np.concatenate((c, np.exp(log_c[: over[0] if truncated else None])))
    if depth < n_max and not truncated:
        a.values(depth + 1)  # raises index-out-of-range for the short table
    keep = np.union1d(np.arange(1, min(n_max, DENSE_SAMPLE_LIMIT) + 1), probes)
    keep = keep[keep <= len(c)]
    samples = list(zip(keep.tolist(), c[keep - 1].tolist()))
    probe_vals = {n: float(c[n - 1]) for n in probes if n <= len(c)}
    sup = float(np.max(c, initial=0.0, where=~np.isnan(c)))
    return samples, probe_vals, sup, truncated


def criterion_sequence(
    a: SequenceSpec, r: SequenceSpec, s: SequenceSpec, n_max: int
) -> list[tuple[int, float]]:
    """Samples (n, c_n): every n up to 10^3, dyadic n beyond."""
    samples, _, _, _ = _criterion_scan(a, r, s, n_max)
    return samples


@dataclass(frozen=True)
class BoundednessReport:
    criterion_samples: tuple[tuple[int, float], ...]
    sup_estimate: float
    bounded: TriState
    compact: TriState
    norm: float | None
    method: str  # "analytic" | "numeric"
    truncated: bool = False


def _analytic_criterion_class(a, r, s):
    """Growth class of c_n, or None when the inputs do not determine it."""
    if a.asym is None or r.asym is None or s.asym is None:
        return None
    growth = partial_sum_growth(reciprocal(r.asym))
    return None if growth is None else mul(mul(a.asym, s.asym), growth)


def classify_boundedness(
    a: SequenceSpec, r: SequenceSpec, s: SequenceSpec, n_max: int = 10000
) -> BoundednessReport:
    """Decide bounded / compact from the criterion sequence.

    The analytic route composes the growth classes of a, s and the partial
    sums of 1/r and reads off the limit; sampling is only a fallback and
    may return inconclusive.  The reported norm is the supremum of the
    scanned c_n, present only when bounded.
    """
    samples, probe_vals, sup, truncated = _criterion_scan(a, r, s, n_max)

    c_cls = _analytic_criterion_class(a, r, s)
    if c_cls is not None:
        lim = limit_class(c_cls)
        method = "analytic"
    elif truncated:
        lim = Limit.INFINITE
        method = "numeric"
    else:
        ns = sorted(probe_vals)
        lim = classify_limit_trend([probe_vals[n] for n in ns])
        method = "numeric"

    if lim is None:
        bounded = TriState.INCONCLUSIVE
    else:
        bounded = TriState.NO if lim is Limit.INFINITE else TriState.YES
    compact = vanishes(lim)
    norm = sup if bounded is TriState.YES else None
    return BoundednessReport(tuple(samples), sup, bounded, compact, norm, method, truncated)


def operator_norm_bounds(
    a: SequenceSpec, s: SequenceSpec, n_max: int = 8192
) -> tuple[float, float]:
    """(sup |a_n|, sup n * |a_n|): norm bracket valid for decreasing weights."""
    flags = verify_weight(s, min(n_max, 4096))
    if not flags.decreasing:
        raise TerraspecError("weight-not-decreasing", "norm bracket needs a decreasing weight")
    if a.asym is not None and limit_class(a.asym) is Limit.INFINITE:
        lower = math.inf
    else:
        lower = float(np.max(a.values(n_max)))
    if a.asym is not None and limit_class(mul(a.asym, INDEX)) is Limit.INFINITE:
        upper = math.inf
    else:
        keep = np.union1d(np.arange(1, min(n_max, DENSE_SAMPLE_LIMIT) + 1), dyadic_probes(1, n_max))
        upper = float(np.max(a.scaled_values(np.arange(1, n_max + 1, dtype=float))[keep - 1]))
    return lower, upper
