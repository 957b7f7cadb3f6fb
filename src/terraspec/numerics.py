"""Shared numeric machinery: compensated sums, log-space products, probes.

Everything here is a fallback or a substrate for the analytic class
algebra; the heuristics return None (inconclusive) rather than guessing
when a finite sample does not pin down a limit.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum

import numpy as np

from .asymptotics import Limit
from .errors import TerraspecError


class TriState(Enum):
    YES = "yes"
    NO = "no"
    INCONCLUSIVE = "inconclusive"


def vanishes(lim: Limit | None) -> TriState:
    """Does the sequence tend to 0: a class limit or probe trend as a verdict.

    None (an undecided trend) is inconclusive.
    """
    if lim is None:
        return TriState.INCONCLUSIVE
    return TriState.YES if lim is Limit.ZERO else TriState.NO


def finite_lambda(lam) -> complex:
    """lam as a complex number; a NaN or infinite part raises ``lambda-not-finite``."""
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise TerraspecError("lambda-not-finite", f"lambda must be finite, got {lam!r}")
    return lam


def compensated_cumsum(values) -> np.ndarray:
    """Running sums with every rounding error added back (prefix form of Sum2).

    The sequential sums s_i = fl(s_{i-1} + x_i) come from ``np.cumsum``;
    TwoSum gives the exact error e_i of each step, and s_i + sum_{j<=i} e_j
    is the compensated prefix (Ogita, Rump & Oishi, "Accurate sum and dot
    product", SIAM J. Sci. Comput. 26(6), 2005).  Once a prefix is not
    finite the entries from there on are meaningless (NaN or inf).
    """
    x = np.asarray(values, dtype=float)
    s = np.cumsum(x)
    prev = np.concatenate(([0.0], s[:-1]))
    with np.errstate(invalid="ignore"):  # inf - inf past a non-finite step
        virtual = s - prev
        err = (prev - (s - virtual)) + (x - virtual)
        return s + np.cumsum(err)


def exact_prefix_sums(values) -> np.ndarray:
    """Exactly rounded prefix sums via fsum; O(n^2), for short sequences.

    Exact rounding makes the prefix map monotone: pointwise-dominated
    nonnegative inputs give pointwise-dominated prefixes.
    """
    values = [float(v) for v in values]
    return np.array([math.fsum(values[: i + 1]) for i in range(len(values))])


def dyadic_probes(lo: int, hi: int) -> list[int]:
    """lo, 2*lo, 4*lo, ... capped at hi; hi itself is always included."""
    if lo < 1 or hi < lo:
        raise ValueError(f"bad probe range [{lo}, {hi}]")
    probes = []
    n = lo
    while n < hi:
        probes.append(n)
        n *= 2
    probes.append(hi)
    return probes


def classify_limit_trend(
    values,
    *,
    zero_tol: float = 1e-8,
    flat_band: float = 0.02,
    window: int = 4,
) -> Limit | None:
    """Heuristic limit trichotomy from samples at geometrically spaced n.

    Looks at the trailing ``window`` ratios: all within ``flat_band`` of 1
    -> finite nonzero; all below 1 - flat_band -> zero; all above
    1 + flat_band -> infinite; anything mixed -> None (inconclusive).
    A final sample below ``zero_tol`` (relative to the peak) short-circuits
    to zero; an infinite (overflowed) final sample to infinite.
    """
    v = np.abs(np.asarray(values, dtype=float))
    if len(v) < 2:
        return None
    if np.isinf(v[-1]):
        return Limit.INFINITE
    peak = v.max()
    if peak == 0.0 or v[-1] <= zero_tol * max(peak, 1.0):
        return Limit.ZERO
    tail = v[-(window + 1):]
    if np.any(tail == 0.0):
        return Limit.ZERO if tail[-1] == 0.0 else None
    ratios = tail[1:] / tail[:-1]
    if np.all(np.abs(ratios - 1.0) <= flat_band):
        return Limit.FINITE_NONZERO
    if np.all(ratios <= 1.0 - flat_band):
        return Limit.ZERO
    if np.all(ratios >= 1.0 + flat_band):
        return Limit.INFINITE
    return None


def signed_log_cumprod(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative products of real factors as (sign, log magnitude) pairs.

    Returns (signs, logmags) with signs in {-1, 0, +1}; after an exactly
    zero factor the sign is 0 and the log magnitude -inf.  The k-th
    cumulative product is signs[k] * exp(logmags[k]).
    """
    f = np.asarray(factors, dtype=float)
    signs = np.cumprod(np.sign(f)).astype(int)
    with np.errstate(divide="ignore"):
        logmags = np.cumsum(np.log(np.abs(f)))
    return signs, logmags


def complex_log_cumprod(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray, int | None]:
    """Cumulative products of complex factors in (log|.|, accumulated arg) form.

    The argument is the factor-by-factor sum of principal arguments (not
    reduced mod 2*pi).  ``zero_from`` is the 0-based index of the first
    exactly-zero factor, or None.
    """
    f = np.asarray(factors, dtype=complex)
    mags = np.abs(f)
    zero_idx = np.flatnonzero(mags == 0.0)
    zero_from = int(zero_idx[0]) if len(zero_idx) else None
    with np.errstate(divide="ignore"):
        logmags = np.cumsum(np.log(mags))
    args = np.cumsum(np.angle(f))
    return logmags, args, zero_from
