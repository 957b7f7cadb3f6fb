"""Entry sequences {a_n} and weight vectors: families, evaluation, chi.

A :class:`SequenceSpec` is an immutable description of a strictly positive
sequence.  Built-in families carry their growth class, which lets the
classification routines decide limits exactly; tables and custom callables
fall back to numeric probing.

``chi`` is the finite nonzero limit of n * a_n; the spectral theory
assumes it exists, so :func:`estimate_chi` detects (and refuses) sequences
where the probes drift instead of settling.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .asymptotics import AsymptoticClass, INDEX, Limit, limit_class, mul
from .errors import TerraspecError
from .numerics import classify_limit_trend, dyadic_probes


@dataclass(frozen=True)
class SequenceSpec:
    """Evaluable positive sequence with an optional growth class."""

    family: str
    params: tuple[float, ...] = ()
    table: tuple[float, ...] | None = None
    fn: Callable[[int], float] | None = None  # compared/hashed by identity
    asym: AsymptoticClass | None = None

    def value(self, n: int) -> float:
        """a_n for 1-based n: element n of ``values``."""
        return self.scaled(n, 1.0)

    def scaled(self, n: int, factor: float) -> float:
        """a_n * factor with the division done last: element n of ``scaled_values``.

        For quotient families (chi/n, 1/n**p, ...) this keeps identities
        like (chi/n) * n == chi exact in floating point.  It evaluates the
        family's array form at the run [n], so it returns the same bits as
        the array methods, by construction.
        """
        if n < 1:
            raise TerraspecError("index-out-of-range", f"n must be >= 1, got {n}")
        return float(_FAMILIES[self.family].vector(self, np.array([n], dtype=float), factor)[0])

    def log_value(self, n: int) -> float:
        """log a_n, computed without forming a_n: element n of ``log_values``."""
        if n < 1:
            raise TerraspecError("index-out-of-range", f"n must be >= 1, got {n}")
        return float(_FAMILIES[self.family].vlog(self, np.array([n], dtype=float))[0])

    def values(self, n_max: int) -> np.ndarray:
        """Array of a_1..a_{n_max}; cached, shared by scans and sections."""
        return _values_cached(self, n_max)

    def log_values(self, n_max: int) -> np.ndarray:
        """Array of log a_1..log a_{n_max}, computed without forming a_n."""
        return _FAMILIES[self.family].vlog(self, np.arange(1, n_max + 1, dtype=float))

    def scaled_values(self, factors: np.ndarray) -> np.ndarray:
        """a_n * factors[..., n-1] for n = 1..N along the last axis, division last.

        Each row of stacked factors gets the same bits as a 1-D call.
        """
        factors = np.asarray(factors, dtype=float)
        n = np.arange(1, factors.shape[-1] + 1, dtype=float)
        return _FAMILIES[self.family].vector(self, n, factors)


@lru_cache(maxsize=128)
def _values_cached(spec: SequenceSpec, n_max: int) -> np.ndarray:
    out = _FAMILIES[spec.family].vector(spec, np.arange(1, n_max + 1, dtype=float), 1.0)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, slots=True)
class _Family:
    """One family: parameters, growth class and its two evaluators.

    ``vector(spec, n, factors)`` is a_n * factors, division last, and
    ``vlog(spec, n)`` is log a_n.  Both take a contiguous run of indices
    n = n[0]..n[-1] as floats: ``values`` and ``scaled_values`` pass
    1..N, the scalar methods of :class:`SequenceSpec` the one-element run
    [n].  ``asym`` is None for user-supplied data (table, custom).
    """

    params: tuple[str, ...]  # JSON / keyword names, in positional order
    positive: bool  # the first parameter must be > 0
    asym: Callable[[tuple[float, ...]], AsymptoticClass] | None
    vector: Callable[[SequenceSpec, np.ndarray, np.ndarray | float], np.ndarray]
    vlog: Callable[[SequenceSpec, np.ndarray], np.ndarray]


def _run(n: np.ndarray) -> range:
    """The contiguous indices n[0]..n[-1] as ints; empty for an empty n."""
    return range(int(n[0]), int(n[-1]) + 1) if len(n) else range(1, 1)


def _table_vector(spec, n, f):
    run = _run(n)
    if run.stop - 1 > len(spec.table):
        msg = f"table has {len(spec.table)} entries, asked for n={run.stop - 1}"
        raise TerraspecError("index-out-of-range", msg)
    return np.array(spec.table[run.start - 1 : run.stop - 1], dtype=float) * f


def _custom_vector(spec, n, f):
    return np.array([spec.fn(k) for k in _run(n)], dtype=float) * f


def _geometric_vector(spec, n, f):
    # growing ratios overflow to inf at large n; that is the honest value
    with np.errstate(over="ignore"):
        return spec.params[0] ** n * f


def _log_of_vector(spec, n):
    # math.log per entry: a non-positive user value raises ValueError
    return np.array([math.log(v) for v in _FAMILIES[spec.family].vector(spec, n, 1.0)])


def _power_family(name: str) -> _Family:
    """a_n = n**-p under the parameter name ``name``."""
    return _Family(
        (name,),
        False,
        lambda p: AsymptoticClass(1.0, 1.0, -p[0], 0.0),
        lambda spec, n, f: f / n ** spec.params[0],
        lambda spec, n: -spec.params[0] * np.log(n),
    )


_FAMILIES = {
    "cesaro_scaled": _Family(
        ("chi",),
        True,
        lambda p: AsymptoticClass(p[0], 1.0, -1.0, 0.0),
        lambda spec, n, f: spec.params[0] * f / n,
        lambda spec, n: math.log(spec.params[0]) - np.log(n),
    ),
    "p_cesaro": _power_family("p"),
    "log_reciprocal": _Family(
        (),
        False,
        lambda p: AsymptoticClass(1.0, 1.0, 0.0, -1.0),
        lambda spec, n, f: f / np.log(n + 1.0),
        lambda spec, n: -np.log(np.log(n + 1.0)),
    ),
    "power_weight": _power_family("beta"),
    "geometric": _Family(
        ("ratio",),
        True,
        lambda p: AsymptoticClass(1.0, p[0], 0.0, 0.0),
        _geometric_vector,
        lambda spec, n: n * math.log(spec.params[0]),
    ),
    "constant": _Family(
        ("value",),
        True,
        lambda p: AsymptoticClass(p[0], 1.0, 0.0, 0.0),
        lambda spec, n, f: np.full(len(n), spec.params[0]) * f,
        lambda spec, n: np.full(len(n), math.log(spec.params[0])),
    ),
    "table": _Family((), False, None, _table_vector, _log_of_vector),
    "custom": _Family((), False, None, _custom_vector, _log_of_vector),
}

FAMILIES = tuple(_FAMILIES)


def _family(name) -> _Family:
    rec = _FAMILIES.get(name) if isinstance(name, str) else None
    if rec is None:
        raise TerraspecError("invalid-family-param", f"unknown family {name!r}")
    return rec


def _finite(family: str, what: str, value) -> float:
    """value as a float; anything that is not a finite real number is rejected."""
    if not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise TerraspecError(
            "invalid-family-param", f"{family} {what} must be a finite number, got {value!r}"
        )
    return float(value)


def make_family(
    family: str,
    *params: float,
    values: Sequence[float] | None = None,
    fn: Callable[[int], float] | None = None,
    asym: AsymptoticClass | None = None,
) -> SequenceSpec:
    """Build a SequenceSpec, auto-attaching the growth class of built-ins."""
    rec = _family(family)
    if family == "table":
        if values is None:
            values = params
        try:
            # plain floats, as JSON tables arrive, skip the numbers.Real check
            tab = tuple(v if type(v) is float and math.isfinite(v) else _finite("table", "value", v)
                        for v in values)
        except TypeError:
            msg = f"table values must be a list, got {values!r}"
            raise TerraspecError("invalid-family-param", msg) from None
        if not tab:
            raise TerraspecError("invalid-family-param", "table needs at least one value")
        if any(not (v > 0.0) for v in tab):
            raise TerraspecError("invalid-family-param", "table values must be strictly positive")
        return SequenceSpec("table", (), tab, None, asym)
    if family == "custom":
        if fn is None:
            raise TerraspecError("invalid-family-param", "custom family needs fn")
        return SequenceSpec("custom", (), None, fn, asym)
    if len(params) != len(rec.params):
        raise TerraspecError(
            "invalid-family-param", f"{family} takes {len(rec.params)} parameter(s), got {len(params)}"
        )
    pars = tuple(_finite(family, f"parameter {name}", p) for name, p in zip(rec.params, params))
    if rec.positive and pars[0] <= 0.0:
        raise TerraspecError("invalid-family-param", f"{family} parameter must be positive, got {pars[0]}")
    return SequenceSpec(family, pars, None, None, rec.asym(pars) if asym is None else asym)


# Thin constructors; tests and scripts read better with these.
def cesaro_scaled(chi: float = 1.0) -> SequenceSpec:
    return make_family("cesaro_scaled", chi)


def p_cesaro(p: float) -> SequenceSpec:
    return make_family("p_cesaro", p)


def log_reciprocal() -> SequenceSpec:
    return make_family("log_reciprocal")


def power_weight(beta: float) -> SequenceSpec:
    return make_family("power_weight", beta)


def geometric(ratio: float) -> SequenceSpec:
    return make_family("geometric", ratio)


def constant(value: float = 1.0) -> SequenceSpec:
    return make_family("constant", value)


def table(values: Sequence[float]) -> SequenceSpec:
    return make_family("table", values=values)


def custom(fn: Callable[[int], float], asym: AsymptoticClass | None = None) -> SequenceSpec:
    return make_family("custom", fn=fn, asym=asym)


def max_index(spec: SequenceSpec) -> int | None:
    """Largest evaluable n (table length), or None when unlimited."""
    return None if spec.table is None else len(spec.table)


def scan_depth(spec: SequenceSpec, n: int, first: int = 1) -> int:
    """n capped at a table's last index.

    A table that ends before ``first`` (the least depth the caller can
    use) raises ``index-out-of-range``.
    """
    limit = max_index(spec)
    if limit is None or limit >= n:
        return n
    if limit < first:
        raise TerraspecError("index-out-of-range", f"table has {limit} entries, asked for n={first}")
    return limit


def from_json(obj: dict) -> SequenceSpec:
    """Build a spec from the {"family": ..., "params": {...}} sub-schema."""
    if not isinstance(obj, dict) or "family" not in obj:
        raise TerraspecError("invalid-family-param", f"bad sequence object: {obj!r}")
    family = obj["family"]
    params = obj.get("params", {}) or {}
    if not isinstance(params, dict):
        raise TerraspecError("invalid-family-param", f"params must be an object, got {params!r}")
    if family == "table":
        return make_family("table", values=params.get("values", ()))
    if family == "custom":
        raise TerraspecError("invalid-family-param", "custom sequences are not expressible in JSON")
    try:
        pos = tuple(params[name] for name in _family(family).params)
    except KeyError as missing:
        raise TerraspecError("invalid-family-param", f"{family} needs parameter {missing}") from None
    return make_family(family, *pos)


def to_json(spec: SequenceSpec) -> dict:
    if spec.fn is not None:
        raise TerraspecError("invalid-family-param", "custom sequences are not expressible in JSON")
    if spec.table is not None:
        return {"family": "table", "params": {"values": list(spec.table)}}
    return {"family": spec.family, "params": dict(zip(_FAMILIES[spec.family].params, spec.params))}


@dataclass(frozen=True)
class ChiEstimate:
    """chi = lim n * a_n with the residual seen over the probe window."""

    chi: float
    method: str  # "analytic" | "numeric"
    residual: float


def estimate_chi(a: SequenceSpec, window: tuple[int, int] = (16, 65536)) -> ChiEstimate:
    """Estimate chi, refusing sequences whose probes drift or vanish.

    Analytic when the attached class is C/n (chi = C, residual merely
    informational).  Otherwise dyadic probes of n * a_n across the window,
    which ends early at the last entry of a table;
    monotone drift beyond 10% between consecutive probes raises
    ``chi-not-convergent`` and an estimate below 1e-9 raises ``chi-zero``.
    """
    n_lo, n_hi = window
    if not (1 <= n_lo < n_hi):
        raise TerraspecError("index-out-of-range", f"bad window {window}")
    # a table shortens the window; two probes are the least that show a drift
    probes = dyadic_probes(n_lo, scan_depth(a, n_hi, n_lo + 1))
    if a.asym is not None:
        na_class = mul(a.asym, INDEX)
        lim = limit_class(na_class)
        if lim is Limit.INFINITE:
            raise TerraspecError("chi-not-convergent", "n * a_n grows without bound (by class)")
        if lim is Limit.ZERO:
            raise TerraspecError("chi-zero", "n * a_n tends to zero (by class)")
        chi = na_class.constant
        residual = max(abs(a.scaled(n, float(n)) - chi) for n in probes)
        return ChiEstimate(chi, "analytic", residual)

    t = [a.scaled(n, float(n)) for n in probes]
    if len(t) >= 2:
        diffs = np.diff(t)
        rel = np.abs(diffs) / np.abs(t[:-1])
        monotone = np.all(diffs > 0) or np.all(diffs < 0)
        if monotone and np.all(rel > 0.10):
            raise TerraspecError(
                "chi-not-convergent", f"n * a_n drifts monotonically over probes {probes}"
            )
    chi = t[-1]
    if chi < 1e-9:  # sequences are positive by contract, so this also rejects junk
        raise TerraspecError("chi-zero", f"n * a_n probe {chi!r} is below 1e-9")
    residual = max(abs(v - chi) for v in t)
    return ChiEstimate(chi, "numeric", residual)


@dataclass(frozen=True)
class WeightFlags:
    bounded: bool
    strictly_positive: bool
    decreasing: bool  # non-strict: w_{n+1} <= w_n throughout the scan
    bounded_below: bool | None = None  # inf w_k > 0 (then c0(w) is plain c0); None if unknown


def verify_weight(w: SequenceSpec, n_max: int = 4096) -> WeightFlags:
    """Check the weight hypotheses: bounded, strictly positive, decreasing.

    Boundedness comes from the growth class when one is attached, else
    from the scan; monotonicity is always an adjacent-comparison scan.
    """
    if n_max < 2:
        raise TerraspecError("index-out-of-range", "n_max must be >= 2")
    vals = w.values(n_max)
    # Parametric families are positive by construction; the scan only needs
    # to reject bad tables/callables (and must not trip on float underflow
    # of, say, geometric weights at large n).
    if (w.table is not None or w.fn is not None) and np.any(vals <= 0.0):
        bad = int(np.argmax(vals <= 0.0)) + 1
        raise TerraspecError("weight-not-positive", f"w_{bad} = {vals[bad - 1]!r} <= 0")
    with np.errstate(invalid="ignore"):  # inf - inf in overflowed tails
        decreasing = bool(np.all(np.diff(vals) <= 0.0))
    bounded_below: bool | None = None
    if w.asym is not None:
        lim = limit_class(w.asym)
        bounded = lim is not Limit.INFINITE
        bounded_below = lim is Limit.FINITE_NONZERO
    else:
        probe_vals = vals[np.array(dyadic_probes(2, n_max)) - 1]
        trend = classify_limit_trend(probe_vals)
        bounded = trend is not Limit.INFINITE if trend is not None else bool(vals.max() < 1e12)
        if trend is Limit.FINITE_NONZERO:
            bounded_below = True
    return WeightFlags(bounded, True, decreasing, bounded_below)
