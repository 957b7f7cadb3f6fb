"""Spans and counters around terraspec's public functions, recorded from outside.

:meth:`Tracer.install` replaces each traced function at its defining module
*and* in every ``terraspec`` namespace that imported it by name (so
``spectrum.verify_weight`` is seen as well as ``sequences.verify_weight``),
plus the ``SequenceSpec`` evaluation methods and the two SVD entry points
the package calls.  A span records (name, start, end, parent span, op id);
spans stay in memory until :meth:`Tracer.write` at the end of the run.
Self time is a span's duration minus the durations of its direct children
(the code is single-threaded, so children never overlap).

The scalar evaluation methods (``scaled``, ``log_value``, ``value``), the
trend heuristic and the class-limit helper are counted without spans: the
criterion scan calls them once per index, and a span each would cost more
than the work it measures.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import numpy as np
import numpy.linalg
import scipy.linalg

import terraspec
from terraspec import asymptotics, cli, ideals, numerics, products, sequences, spectrum, terraced

NAMESPACES = (terraspec, asymptotics, cli, ideals, numerics, products, sequences, spectrum, terraced)

#: layer -> (module, functions wrapped with a span)
SPANNED = {
    "sequences": (sequences, ("verify_weight", "estimate_chi")),
    "terraced": (terraced, ("classify_boundedness", "build_section")),
    "spectrum": (spectrum, ("classify_point", "find_in_S", "dist_to_S", "point_spectrum_test",
                            "adjoint_point_test", "spectrum_grid", "resolvent_section",
                            "verify_resolvent", "pseudospectrum_grid", "eigenvector",
                            "adjoint_eigvector")),
    "products": (products, ("ratio_band", "log_product")),
    "ideals": (ideals, ("check_quasinorm_axioms", "quasi_norm", "snumbers_from_section",
                        "stype_membership", "ideal_preconditions")),
    "numerics": (numerics, ("exact_prefix_sums",)),
    "cli": (cli, ("main",)),
}

#: counted only: (layer.name, module, function)
COUNTED = (
    ("numerics.classify_limit_trend", numerics, "classify_limit_trend"),
    ("asymptotics.limit_class", asymptotics, "limit_class"),
)

SCALAR_METHODS = ("scaled", "log_value", "value")

#: per-layer metrics: (name, unit, better)
PER_LAYER = [
    ("sequences.scalar.calls", "count", "lower"),
    ("sequences.values.calls", "count", "lower"),
    ("sequences.values.self_s", "s", "lower"),
    ("sequences.values.cache_hit_ratio", "1", "higher"),
    ("sequences.verify_weight.calls", "count", "lower"),
    ("sequences.verify_weight.self_s", "s", "lower"),
    ("sequences.estimate_chi.self_s", "s", "lower"),
    ("terraced.classify_boundedness.calls", "count", "lower"),
    ("terraced.classify_boundedness.self_s", "s", "lower"),
    ("terraced.criterion_terms", "count", "lower"),
    ("terraced.analytic_share", "1", "higher"),
    ("terraced.truncated_share", "1", "lower"),
    ("terraced.build_section.self_s", "s", "lower"),
    ("terraced.build_section.bytes", "B", "lower"),
]
for _fn in SPANNED["spectrum"][1]:
    PER_LAYER += [(f"spectrum.{_fn}.calls", "count", "lower"), (f"spectrum.{_fn}.self_s", "s", "lower")]
PER_LAYER += [
    ("spectrum.resolvent_section.bytes", "B", "lower"),
    ("spectrum.pseudospectrum_grid.node_ms", "ms", "lower"),
    ("products.ratio_band.calls", "count", "lower"),
    ("products.ratio_band.self_s", "s", "lower"),
    ("products.log_product.calls", "count", "lower"),
    ("products.log_product.self_s", "s", "lower"),
]
for _fn in SPANNED["ideals"][1]:
    PER_LAYER += [(f"ideals.{_fn}.calls", "count", "lower"), (f"ideals.{_fn}.self_s", "s", "lower")]
PER_LAYER += [
    ("numerics.exact_prefix_sums.calls", "count", "lower"),
    ("numerics.exact_prefix_sums.self_s", "s", "lower"),
    ("numerics.classify_limit_trend.calls", "count", "lower"),
    ("asymptotics.limit_class.calls", "count", "lower"),
    ("linalg.svd.calls", "count", "lower"),
    ("linalg.svd.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
    # oracle outcomes of the traced pass
    ("failed_ratio", "1", "lower"),
    ("wrong_ratio", "1", "lower"),
    ("max_rel_err", "1", "lower"),
    ("defect.closure_boundary.count", "count", "lower"),
    ("defect.scan_depth.count", "count", "lower"),
    ("defect.norm_underreport.count", "count", "lower"),
    ("defect.snap_tolerance.count", "count", "lower"),
]


class Tracer:
    """Records spans and counts while :attr:`active`; a pass-through otherwise."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple] = []  # (name id, t0 ns, t1 ns, parent index, op)
        self._stack: list[int] = []
        self._root: tuple = ()
        self.counts: Counter = Counter()
        self.extra: defaultdict = defaultdict(float)
        self._patches: list[tuple] = []

    # -- recording
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, hook=None):
        name_id = self._id(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent, self.op)
            if hook is not None:
                hook(self.extra, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def begin_op(self, op: int, kind: str):
        """Open the benchmark's own root span for one op."""
        self.op = op
        self._root = (self._id(f"op.{kind}"), len(self.spans), time.perf_counter_ns())
        self.spans.append(None)
        self._stack.append(self._root[1])

    def end_op(self):
        name_id, idx, t0 = self._root
        self._stack.pop()
        self.spans[idx] = (name_id, t0, time.perf_counter_ns(), -1, self.op)

    # -- installation
    def _replace(self, obj, attr, new):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def _wrap_everywhere(self, orig, wrapper):
        for mod in NAMESPACES:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._replace(mod, attr, wrapper)

    def install(self):
        hooks = {
            "terraced.classify_boundedness": _scan_hook,
            "terraced.build_section": _section_bytes("terraced.build_section.bytes"),
            "spectrum.resolvent_section": _section_bytes("spectrum.resolvent_section.bytes"),
            "spectrum.pseudospectrum_grid": _node_hook,
        }
        for layer, (mod, names) in SPANNED.items():
            for fn_name in names:
                name = f"{layer}.{fn_name}"
                orig = getattr(mod, fn_name)
                self._wrap_everywhere(orig, self.span(name, orig, hooks.get(name)))
        for name, mod, fn_name in COUNTED:
            orig = getattr(mod, fn_name)
            self._wrap_everywhere(orig, self.counter(name, orig))
        spec = sequences.SequenceSpec
        self._replace(spec, "values", self.span("sequences.values", spec.values))
        for meth in SCALAR_METHODS:
            self._replace(spec, meth, self.counter(f"sequences.{meth}", getattr(spec, meth)))
        self._replace(scipy.linalg, "svdvals", self.span("linalg.svd", scipy.linalg.svdvals))
        self._replace(numpy.linalg, "svd", self.span("linalg.svd", numpy.linalg.svd))

    def uninstall(self):
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    # -- results
    def self_times(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name."""
        rows = np.array(self.spans, dtype=np.int64).reshape(-1, 5)
        dur = (rows[:, 2] - rows[:, 1]).astype(float) * 1e-9
        child = np.zeros(len(rows))
        has_parent = rows[:, 3] >= 0
        np.add.at(child, rows[has_parent, 3], dur[has_parent])
        own = dur - child
        calls, self_s = Counter(), Counter()
        for name_id, name in enumerate(self.names):
            mask = rows[:, 0] == name_id
            calls[name] = int(mask.sum())
            self_s[name] = float(own[mask].sum())
        return calls, self_s

    def write(self, path: str) -> None:
        """Write the spans as tab-separated rows: op, name, start ns, end ns, parent."""
        with open(path, "w") as fh:
            fh.write("op\tname\tstart_ns\tend_ns\tparent\n")
            for name_id, t0, t1, parent, op in self.spans:
                fh.write(f"{op}\t{self.names[name_id]}\t{t0}\t{t1}\t{parent}\n")


def _scan_hook(extra, args, kwargs, report):
    extra["terraced.criterion_terms"] += args[3] if len(args) > 3 else kwargs.get("n_max", 10000)
    extra["terraced.analytic"] += report.method == "analytic"
    extra["terraced.truncated"] += bool(report.truncated)


def _section_bytes(key):
    """Computed bytes of the complex N x N matrix a call returns."""

    def hook(extra, args, kwargs, result):
        extra[key] += 16 * result.n * result.n

    return hook


def _node_hook(extra, args, kwargs, result):
    extra["spectrum.pseudospectrum_grid.nodes"] += result.sigma_min.size


def per_layer_metrics(tracer: Tracer, cache_hits: int, cache_misses: int,
                      overhead_ratio: float, cli_bytes: int, quality: dict) -> dict:
    """Every PER_LAYER metric from one traced pass."""
    calls, self_s = tracer.self_times()
    counts, extra = tracer.counts, tracer.extra
    out = {}
    for layer, (_mod, names) in SPANNED.items():
        for fn_name in names:
            out[f"{layer}.{fn_name}.calls"] = calls[f"{layer}.{fn_name}"]
            out[f"{layer}.{fn_name}.self_s"] = self_s[f"{layer}.{fn_name}"]
    out["sequences.scalar.calls"] = sum(counts[f"sequences.{m}"] for m in SCALAR_METHODS)
    out["sequences.values.calls"] = calls["sequences.values"]
    out["sequences.values.self_s"] = self_s["sequences.values"]
    lookups = cache_hits + cache_misses
    out["sequences.values.cache_hit_ratio"] = cache_hits / lookups if lookups else 0.0
    n_scan = calls["terraced.classify_boundedness"]
    out["terraced.criterion_terms"] = int(extra["terraced.criterion_terms"])
    out["terraced.analytic_share"] = extra["terraced.analytic"] / n_scan if n_scan else 0.0
    out["terraced.truncated_share"] = extra["terraced.truncated"] / n_scan if n_scan else 0.0
    out["terraced.build_section.bytes"] = int(extra["terraced.build_section.bytes"])
    out["spectrum.resolvent_section.bytes"] = int(extra["spectrum.resolvent_section.bytes"])
    nodes = extra["spectrum.pseudospectrum_grid.nodes"]
    out["spectrum.pseudospectrum_grid.node_ms"] = (
        1e3 * self_s["spectrum.pseudospectrum_grid"] / nodes if nodes else 0.0)
    for name, _mod, _fn in COUNTED:
        out[f"{name}.calls"] = counts[name]
    out["linalg.svd.calls"] = calls["linalg.svd"]
    out["linalg.svd.self_s"] = self_s["linalg.svd"]
    out["cli.bytes_written"] = cli_bytes
    out["trace.spans"] = len(tracer.spans)
    out["trace.overhead_ratio"] = overhead_ratio
    out.update(quality)
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: {"value": out[name], "unit": units[name]} for name, _, _ in PER_LAYER}
