"""Exact algebra on growth classes ``C * rho**n * n**p * (log n)**q``.

Limits and series-convergence questions that drive the boundedness,
compactness and spectral criteria are decided symbolically on these
four-field classes instead of by sampling, so the answers are exact
whenever the inputs carry a class.  The grammar deliberately covers only
what the criteria need (geometric factors, powers, log powers); richer
expressions are out of scope.

``log`` is the natural logarithm throughout, and ``(log n)**q`` is only
evaluated for n >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import TerraspecError


class Limit(Enum):
    """Trichotomy for lim_{n->inf} of a positive sequence."""

    ZERO = "zero"
    FINITE_NONZERO = "finite_nonzero"
    INFINITE = "infinite"


class Verdict(Enum):
    """Outcome of a series-convergence decision."""

    CONVERGENT = "convergent"
    DIVERGENT = "divergent"
    UNDECIDED_BOUNDARY = "undecided-boundary"


@dataclass(frozen=True)
class AsymptoticClass:
    """Growth class of a positive sequence, ``C * rho**n * n**p * (log n)**q``.

    Two classes compare equal iff all four fields are equal.
    """

    constant: float
    geo_base: float
    power: float = 0.0
    log_power: float = 0.0

    def __post_init__(self):
        if not (self.constant > 0.0 and math.isfinite(self.constant)):
            raise TerraspecError(
                "class-overflow", f"constant must be finite and positive, got {self.constant!r}"
            )
        if not (self.geo_base > 0.0 and math.isfinite(self.geo_base)):
            raise TerraspecError(
                "class-overflow", f"geometric base must be finite and positive, got {self.geo_base!r}"
            )

    def log_value(self, n: int | float) -> float:
        """log of the class value at n (n >= 2 whenever log_power != 0)."""
        if n < 1 or (self.log_power != 0.0 and n < 2):
            raise TerraspecError("class-eval-domain", f"class not evaluable at n={n}")
        out = math.log(self.constant) + n * math.log(self.geo_base) + self.power * math.log(n)
        if self.log_power != 0.0:
            out += self.log_power * math.log(math.log(n))
        return out

    def value(self, n: int | float) -> float:
        return math.exp(self.log_value(n))


#: Class of a bounded sequence with a finite nonzero limit and unknown constant.
CONSTANT_ONE = AsymptoticClass(1.0, 1.0, 0.0, 0.0)

#: Class of the index sequence n itself (used for {n * a_n} style criteria).
INDEX = AsymptoticClass(1.0, 1.0, 1.0, 0.0)


def mul(a: AsymptoticClass, b: AsymptoticClass) -> AsymptoticClass:
    """Componentwise product: constants and bases multiply, exponents add."""
    return AsymptoticClass(
        a.constant * b.constant,
        a.geo_base * b.geo_base,
        a.power + b.power,
        a.log_power + b.log_power,
    )


def reciprocal(a: AsymptoticClass) -> AsymptoticClass:
    return AsymptoticClass(1.0 / a.constant, 1.0 / a.geo_base, -a.power, -a.log_power)


def limit_class(a: AsymptoticClass) -> Limit:
    """Exact limit trichotomy of the class (lexicographic on rho, p, q)."""
    if a.geo_base < 1.0:
        return Limit.ZERO
    if a.geo_base > 1.0:
        return Limit.INFINITE
    if a.power < 0.0 or (a.power == 0.0 and a.log_power < 0.0):
        return Limit.ZERO
    if a.power == 0.0 and a.log_power == 0.0:
        return Limit.FINITE_NONZERO
    return Limit.INFINITE


@dataclass(frozen=True)
class SumClass:
    """Convergence verdict for sum_k a_k together with a growth class.

    ``growth`` describes the partial sums when divergent and the tails when
    convergent; it is None only for the undecided boundary combination.
    """

    verdict: Verdict
    growth: AsymptoticClass | None


def partial_sum(a: AsymptoticClass) -> SumClass:
    """Classify sum_{k<=n} a_k by the standard comparison rules.

    The boundary family rho=1, p=-1, -1 <= q < 0 is reported as
    ``undecided-boundary`` rather than guessed; callers fall back to
    numerics there.
    """
    rho, p, q = a.geo_base, a.power, a.log_power
    if rho > 1.0:
        # dominated by the last terms: sums ~ a_n * rho/(rho-1)
        return SumClass(Verdict.DIVERGENT, mul(a, AsymptoticClass(rho / (rho - 1.0), 1.0)))
    if rho < 1.0:
        # geometric tails: sum_{k>n} a_k ~ a_n * rho/(1-rho)
        return SumClass(Verdict.CONVERGENT, mul(a, AsymptoticClass(rho / (1.0 - rho), 1.0)))
    if p > -1.0:
        return SumClass(
            Verdict.DIVERGENT,
            AsymptoticClass(a.constant / (p + 1.0), 1.0, p + 1.0, q),
        )
    if p < -1.0:
        return SumClass(
            Verdict.CONVERGENT,
            AsymptoticClass(a.constant / (-p - 1.0), 1.0, p + 1.0, q),
        )
    # p == -1: Bertrand scale, decided by the log power
    if q == 0.0:
        return SumClass(Verdict.DIVERGENT, AsymptoticClass(a.constant, 1.0, 0.0, 1.0))
    if q > 0.0:
        return SumClass(
            Verdict.DIVERGENT,
            AsymptoticClass(a.constant / (q + 1.0), 1.0, 0.0, q + 1.0),
        )
    if q < -1.0:
        return SumClass(
            Verdict.CONVERGENT,
            AsymptoticClass(a.constant / (-q - 1.0), 1.0, 0.0, q + 1.0),
        )
    return SumClass(Verdict.UNDECIDED_BOUNDARY, None)


def partial_sum_growth(a: AsymptoticClass) -> AsymptoticClass | None:
    """Growth class of the partial sums sum_{k<=n} a_k.

    The partial-sum class when the series diverges, ``CONSTANT_ONE`` when it
    converges (the sums settle at a finite nonzero limit), None on the
    undecided boundary.
    """
    sum_cls = partial_sum(a)
    if sum_cls.verdict is Verdict.UNDECIDED_BOUNDARY:
        return None
    return sum_cls.growth if sum_cls.verdict is Verdict.DIVERGENT else CONSTANT_ONE
