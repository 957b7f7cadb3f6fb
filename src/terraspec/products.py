"""Stable evaluation of the products prod_k (1 - a_k / lambda).

For lambda off the diagonal set, |prod_{k=m+1}^n (1 - a_k/lambda)| decays
like n**(-alpha*chi) with alpha = Re(1/lambda); eigenvector entries and
resolvent columns inherit that rate.  The magnitudes span hundreds of
orders, so products are kept as log magnitude plus argument.
``log_product`` sums the logs of its factors exactly rounded (fsum), and
``ratio_band`` does the same per dyadic segment; the running products
behind eigenvectors and resolvents come from ``numerics.log_cumprod``, a
plain cumulative sum.  A real lambda divides as a float, so real factors
stay real and each negative one adds exactly pi to the argument.
``ratio_band`` is the numeric check of the equivalence: it multiplies the
product back by n**(alpha*chi) and verifies the result stays in a bounded
band with no log-log drift.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import TerraspecError
from .numerics import check_chi, divisor, dyadic_probes, finite_lambda
from .sequences import SequenceSpec

#: relative tolerance for flagging a factor as numerically near-singular
NEAR_SINGULAR_RTOL = 1e-12

#: verdict thresholds for ratio_band
SLOPE_TOL = 0.02
BAND_TOL = 1e3


def alpha(lam: complex) -> float:
    """Re(1/lambda), the exponent driver; undefined at 0.

    When |lambda|^2 is not a normal float (below about 1.5e-154 it is
    subnormal or 0.0, above about 1.3e154 it is inf), lambda is scaled by an
    exact power of two first; every other lambda takes the plain formula.
    A value past the double range raises ``alpha-overflow``.
    """
    lam = finite_lambda(lam)
    if lam == 0:
        raise TerraspecError("alpha-undefined-at-zero")
    try:
        den = lam.real**2 + lam.imag**2
    except OverflowError:
        den = math.inf
    if sys.float_info.min <= den < math.inf:
        return lam.real / den
    e = math.frexp(max(abs(lam.real), abs(lam.imag)))[1]
    re, im = math.ldexp(lam.real, -e), math.ldexp(lam.imag, -e)
    try:
        return math.ldexp(re / (re**2 + im**2), -e)
    except OverflowError:
        raise TerraspecError("alpha-overflow", f"Re(1/lambda) is past the double range at lambda = {lam!r}") from None


@dataclass(frozen=True)
class LogProduct:
    """prod_{k=m+1}^n (1 - a_k/lambda) in log form.

    ``argument`` is the factor-by-factor sum of principal arguments (not
    reduced mod 2*pi, so winding survives).  ``exact_zero`` marks a factor
    that vanished exactly; the log magnitude is -inf then and finite
    otherwise.
    """

    log_magnitude: float
    argument: float
    m: int
    n: int
    exact_zero: bool
    warnings: tuple[str, ...] = ()


def log_product(a: SequenceSpec, lam: complex, m: int, n: int) -> LogProduct:
    """Accumulate the tail product over k = m+1 .. n."""
    if not (0 <= m < n):
        raise TerraspecError("invalid-index-range", f"need 0 <= m < n, got m={m}, n={n}")
    lam = finite_lambda(lam)
    if lam == 0:
        raise TerraspecError("lambda-zero", "product factors are undefined at lambda = 0")
    vals = a.values(n)[m:n]
    f = 1.0 - vals / divisor(lam)
    if np.any(f == 0.0):
        return LogProduct(-math.inf, 0.0, m, n, True)
    close = np.abs(lam - vals) <= NEAR_SINGULAR_RTOL * np.abs(vals)
    warnings = ("near-singular-factor",) if np.any(close) else ()
    return LogProduct(math.fsum(np.log(np.abs(f))), math.fsum(np.angle(f)), m, n, False, warnings)


@dataclass(frozen=True)
class BandReport:
    """Ratios P_n * n**e at dyadic n with a least-squares drift verdict."""

    ratios: tuple[tuple[int, float], ...]
    band: tuple[float, float]
    log_log_slope: float
    verdict: str  # "bounded_band" | "drifting" | "degenerate"
    exponent: float


def ratio_band(
    a: SequenceSpec,
    lam: complex,
    chi: float,
    n_range: tuple[int, int],
    *,
    exponent: float | None = None,
) -> BandReport:
    """Check prod_{k<=n} |1 - a_k/lambda| ~ n**(-alpha*chi) over dyadic n.

    ``exponent`` overrides alpha(lam) * chi, which is how a deliberately
    wrong exponent is probed: the mismatch reappears as the log-log slope.
    A ratio past the double range (the product outgrows every power, as
    for 1/log(n+1) with Re(lambda) <= 0) raises ``product-overflow``.
    """
    n_lo, n_hi = n_range
    if not (1 <= n_lo < n_hi):
        raise TerraspecError("invalid-index-range", f"bad range {n_range}")
    check_chi(chi)
    lam = finite_lambda(lam)
    if lam == 0:
        raise TerraspecError("lambda-zero")
    vals = a.values(n_hi)
    if np.any(np.abs(lam - vals) <= NEAR_SINGULAR_RTOL * np.abs(vals)) or np.any(lam == vals):
        k = int(np.argmin(np.abs(lam - vals))) + 1
        raise TerraspecError("lambda-in-S", f"lambda matches a_{k}")
    e = alpha(lam) * chi if exponent is None else float(exponent)
    log_f = np.log(np.abs(1.0 - vals / divisor(lam)))
    ratios: list[tuple[int, float]] = []
    log_ratios: list[float] = []
    prev = 0
    log_p = 0.0
    for n in dyadic_probes(n_lo, n_hi):
        log_p += math.fsum(log_f[prev:n])
        prev = n
        lr = log_p + e * math.log(n)
        log_ratios.append(lr)
        try:
            ratios.append((n, math.exp(lr)))
        except OverflowError:
            raise TerraspecError("product-overflow", f"log ratio {lr} at n={n} is past the double range") from None

    finite = [lr for lr in log_ratios if math.isfinite(lr)]
    if len(ratios) < 3 or len(finite) != len(log_ratios):
        return BandReport(tuple(ratios), (math.nan, math.nan), math.nan, "degenerate", e)
    log_ns = np.log([n for n, _ in ratios])
    slope = float(np.polyfit(log_ns, np.array(log_ratios), 1)[0])
    lo = math.exp(min(log_ratios))
    hi = math.exp(max(log_ratios))
    if abs(slope) < SLOPE_TOL and hi / lo < BAND_TOL:
        verdict = "bounded_band"
    else:
        verdict = "drifting"
    return BandReport(tuple(ratios), (lo, hi), slope, verdict, e)
