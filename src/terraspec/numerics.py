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


class TriState(str, Enum):
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


def divisor(lam: complex) -> float | complex:
    """lam as a float when it is real, so that the factors 1 - a_k/lam stay real."""
    return lam.real if lam.imag == 0.0 else lam


def check_chi(chi: float) -> None:
    """Raise ``invalid-chi`` unless chi = lim n * a_n is positive and finite."""
    if not 0.0 < chi < math.inf:
        raise TerraspecError("invalid-chi", f"chi must be positive and finite, got {chi}")


def compensated_cumsum(values) -> np.ndarray:
    """Running sums along the last axis with every rounding error added back (prefix form of Sum2).

    The sequential sums s_i = fl(s_{i-1} + x_i) come from ``np.cumsum``;
    TwoSum gives the exact error e_i of each step, and s_i + sum_{j<=i} e_j
    is the compensated prefix (Ogita, Rump & Oishi, "Accurate sum and dot
    product", SIAM J. Sci. Comput. 26(6), 2005).  Each row of a stacked
    input is summed on its own, to the same bits as a 1-D call.  Once a
    prefix is not finite the entries from there on are meaningless (NaN or
    inf).
    """
    x = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow, then inf - inf past it
        s = np.cumsum(x, axis=-1)
        prev = np.zeros_like(s)
        prev[..., 1:] = s[..., :-1]
        virtual = s - prev
        err = (prev - (s - virtual)) + (x - virtual)
        return s + np.cumsum(err, axis=-1)


def exact_prefix_sums(values) -> np.ndarray:
    """Exactly rounded prefix sums via fsum; O(n^2).

    The reference that tests hold ``compensated_cumsum`` to; the library
    itself sums with ``compensated_cumsum``.
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


def classify_limit_trend(values) -> Limit | None:
    """Heuristic limit trichotomy from samples at geometrically spaced n.

    Looks at the trailing 4 ratios: all within 0.02 of 1 -> finite
    nonzero; all at most 0.98 -> zero; all at least 1.02 -> infinite;
    anything mixed -> None (inconclusive).  A final sample at most 1e-8
    (relative to the peak) short-circuits to zero; an infinite (overflowed)
    final sample to infinite.
    """
    v = np.abs(np.asarray(values, dtype=float))
    if len(v) < 2:
        return None
    if np.isinf(v[-1]):
        return Limit.INFINITE
    peak = v.max()
    if peak == 0.0 or v[-1] <= 1e-8 * max(peak, 1.0):
        return Limit.ZERO
    tail = v[-5:]
    if np.any(tail == 0.0):
        return Limit.ZERO if tail[-1] == 0.0 else None
    ratios = tail[1:] / tail[:-1]
    if np.all(np.abs(ratios - 1.0) <= 0.02):
        return Limit.FINITE_NONZERO
    if np.all(ratios <= 0.98):
        return Limit.ZERO
    if np.all(ratios >= 1.02):
        return Limit.INFINITE
    return None


def log_cumprod(factors) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative products of factors along the last axis as (phase, log magnitude) pairs.

    The k-th cumulative product is phase[k] * exp(logmag[k]).  For real
    factors the phase is exactly -1.0 or +1.0; for complex factors it is the
    unit phase of the accumulated principal arguments (not reduced mod
    2*pi).  From an exactly zero factor on, the phase is 0 and the log
    magnitude -inf.  Each row of a stacked input gives the bits of a 1-D call.
    """
    f = np.asarray(factors)
    with np.errstate(divide="ignore"):
        logmag = np.cumsum(np.log(np.abs(f)), axis=-1)
    if np.iscomplexobj(f):
        phase = np.exp(1j * np.cumsum(np.angle(f), axis=-1))
    else:
        phase = np.cumprod(np.sign(f), axis=-1)
    phase[np.isneginf(logmag)] = 0.0
    return phase, logmag
