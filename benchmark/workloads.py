"""Seeded workload generators and op execution for the terraspec benchmark.

A workload is an endless stream of *rounds*.  A round is a fixed mix of op
kinds, in a fixed order, whose sizes are drawn by stratified sampling (one
draw per equal stratum of the size range), so every round does nearly the
same amount of work, and leaves the program's caches in nearly the same
state, whatever the seed, while every op still gets fresh parameters.  The
parameters are plain JSON; the program only ever sees the generated config
files and the sequences built from them.

An op is one public entry call: ``terraspec.cli.main([...])`` on a
generated config where the CLI exposes the function, otherwise a direct
library call (custom sequences, ``spectrum_grid`` with power weights,
``pseudospectrum_grid`` and the eigenvectors).  Functions are looked up on
their module at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from terraspec import cli, sequences, spectrum, terraced
from terraspec.errors import TerraspecError

WORKLOADS = ("scan", "portrait", "sections")

#: n_max range of the criterion scan ops (log-uniform)
SCAN_N_RANGE = (3_000, 100_000)

#: chi values of the portrait workload; a small set so operators recur
CHI_SET = (0.5, 0.7, 1.0, 2.0)

#: power-weight exponents used as s in the portrait workload
BETA_SET = (0.5, 1.5, 2.5)

PSEUDO_EPSILONS = (1e-1, 1e-2, 1e-3)


def seq(family: str, **params) -> dict:
    """The CLI's JSON form of a sequence."""
    return {"family": family, "params": params}


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _strata(rng, m: int, lo: float, hi: float, *, log: bool = False) -> list[float]:
    """m draws in ascending order, one near the centre of each of m equal strata of [lo, hi].

    The draw stays within the middle tenth of its stratum, and the i-th op
    of a kind always gets the i-th stratum, so the sizes of a round, and
    with them its work and its slowest ops, barely depend on the seed.
    """
    u = (np.arange(m) + 0.5 + 0.1 * (rng.random(m) - 0.5)) / m
    if log:
        vals = np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    else:
        vals = lo + u * (hi - lo)
    return [float(v) for v in vals]


def _int_strata(rng, m, lo, hi, *, log=False) -> list[int]:
    """Integer version of :func:`_strata`, values in lo..hi inclusive."""
    return [min(hi, int(v)) for v in _strata(rng, m, lo, hi + 1, log=log)]


# ---------------------------------------------------------------- scan


def _classify_op(family, a, r, s, n_max, **extra) -> dict:
    cfg = {"a": a, "r": r, "s": s, "seed": 0, "n_max": n_max}
    return {"kind": "classify", "cli": "classify", "ext": ".json", "config": cfg,
            "family": family, **extra}


def scan_round(rng) -> list[dict]:
    """Boundedness/compactness sweep: 18 CLI classify ops, 6 custom-callable calls."""
    ops = []

    def n_maxes(m):
        return _int_strata(rng, m, *SCAN_N_RANGE, log=True)

    for n in n_maxes(3):
        ops.append(_classify_op(
            "cesaro_const", seq("cesaro_scaled", chi=_u(rng, 0.5, 3.0)),
            seq("constant", value=_u(rng, 0.5, 2.0)), seq("constant", value=_u(rng, 0.5, 2.0)), n))
    for n in n_maxes(3):
        ops.append(_classify_op(
            "cesaro_power", seq("cesaro_scaled", chi=_u(rng, 0.5, 3.0)),
            seq("constant", value=_u(rng, 0.5, 2.0)), seq("power_weight", beta=_u(rng, 0.25, 1.5)), n))
    # one unbounded, one bounded-not-compact and one compact p per round
    for n, p in zip(n_maxes(3), (_u(rng, 0.5, 0.9), 1.0, _u(rng, 1.25, 2.0))):
        ops.append(_classify_op(
            "p_cesaro", seq("p_cesaro", p=p),
            seq("constant", value=_u(rng, 0.5, 2.0)), seq("constant", value=_u(rng, 0.5, 2.0)), n))
    # a_n = n^-beta_a against r_n = n^-beta_r: exponent of c_n is -delta
    for n, delta in zip(n_maxes(3), (-0.25, 0.0, 0.25)):
        beta_r = int(rng.integers(0, 65)) / 64.0
        ops.append(_classify_op(
            "power_pair", seq("power_weight", beta=beta_r + 1.0 + delta),
            seq("power_weight", beta=beta_r), seq("constant", value=_u(rng, 0.5, 2.0)), n))
    # tables sampled from 1/n^p: the numeric-fallback route with a JSON-borne table
    for n, p in zip(n_maxes(2), (1.0, 1.5)):
        values = [1.0 / float(k) ** p for k in range(1, n + 1)]
        ops.append(_classify_op(
            "table", seq("table", values=values), seq("constant", value=1.0),
            seq("constant", value=1.0), n, p=p))
    # 1/log(n+1) against geometric weights: enters the log-space tail of the scan.
    # The unbounded "higher" case stops early, so it takes the smallest n_max;
    # the two "equal" ops share the top stratum, so the slowest op of a round
    # comes twice and the tail percentile sits inside one cluster
    low, mid, top = n_maxes(3)
    for n, rel in ((low, "higher"), (mid, "lower"), (top, "equal"), (n_maxes(3)[2], "equal")):
        rho_r = _u(rng, 0.4, 0.8)
        rho_s = {"equal": rho_r, "lower": rho_r * _u(rng, 0.8, 0.95),
                 "higher": min(rho_r * _u(rng, 1.05, 1.2), 0.95)}[rel]
        ops.append(_classify_op(
            "log_geo", seq("log_reciprocal"), seq("geometric", ratio=rho_r),
            seq("geometric", ratio=rho_s), n))
    # custom callables (no growth class): direct library calls, numeric route
    for n in n_maxes(2):
        ops.append({"kind": "classify_custom", "recipe": "cesaro", "n_max": n,
                    "chi": _u(rng, 0.5, 3.0), "v_r": _u(rng, 0.5, 2.0), "v_s": _u(rng, 0.5, 2.0)})
    for n in n_maxes(2):
        ops.append({"kind": "classify_custom", "recipe": "power", "n_max": n,
                    "p": _u(rng, 1.25, 2.0), "v_r": _u(rng, 0.5, 2.0), "v_s": _u(rng, 0.5, 2.0)})
    # s_n = L n / (n + h) rises to L: the supremum of c_n is never attained
    for n in n_maxes(2):
        ops.append({"kind": "classify_custom", "recipe": "rising", "n_max": n,
                    "chi": _u(rng, 0.5, 3.0), "v_r": _u(rng, 0.5, 2.0),
                    "L": _u(rng, 0.5, 2.0), "h": _u(rng, 0.5, 2.0)})
    return ops


def custom_specs(op: dict):
    """(a, r, s) of a classify_custom op, built with fresh closures."""
    if op["recipe"] == "cesaro":
        chi = op["chi"]
        a = sequences.custom(lambda n: chi / n)
        s = sequences.constant(op["v_s"])
    elif op["recipe"] == "power":
        p = op["p"]
        a = sequences.custom(lambda n: 1.0 / float(n) ** p)
        s = sequences.constant(op["v_s"])
    else:
        big_l, h = op["L"], op["h"]
        a = sequences.cesaro_scaled(op["chi"])
        s = sequences.custom(lambda n: big_l * n / (n + h))
    return a, sequences.constant(op["v_r"]), s


# ---------------------------------------------------------------- portrait


def _grid_block(rng, chi, res) -> dict:
    h = _u(rng, 0.4, 0.9)
    return {"re_range": [_u(rng, -0.45, -0.1) * chi, _u(rng, 1.1, 1.45) * chi],
            "im_range": [-h * chi, h * chi], "resolution": res}


def _weight(rng) -> dict:
    beta = BETA_SET[int(rng.integers(len(BETA_SET)))]
    return seq("power_weight", beta=beta)


def _disk_point(rng, chi, r_lo, r_hi) -> list[float]:
    """A point at relative radius in [r_lo, r_hi] around the disk centre chi/2."""
    rad = _u(rng, r_lo, r_hi) * chi / 2.0
    theta = _u(rng, 0.0, 2.0 * math.pi)
    return [chi / 2.0 + rad * math.cos(theta), rad * math.sin(theta)]


def portrait_round(rng) -> list[dict]:
    """Fine-spectrum labelling: 7 spectrum-map grids, 4 point lists, 3 library grids."""
    ops = []
    # the two largest grids share the top stratum (see scan_round)
    resolutions = _int_strata(rng, 5, 9, 41) + _int_strata(rng, 5, 9, 41)[-1:]
    for i, res in enumerate(resolutions):
        chi = CHI_SET[int(rng.integers(len(CHI_SET)))]
        cfg = {"a": seq("cesaro_scaled", chi=chi), "s": seq("constant", value=1.0), "seed": 0,
               "spectrum_map": {"grid": _grid_block(rng, chi, res)}}
        ops.append({"kind": "spectrum_map", "cli": "spectrum-map", "config": cfg,
                    "ext": ".csv" if i % 2 else ".json"})
    # README ranges at chi = 0.7, resolution 13: one node rounds to 2.8e-17, not 0
    chi = 0.7
    cfg = {"a": seq("cesaro_scaled", chi=chi), "s": seq("constant", value=1.0), "seed": 0,
           "spectrum_map": {"grid": {"re_range": [-0.25 * chi, 1.25 * chi],
                                     "im_range": [-0.75 * chi, 0.75 * chi], "resolution": 13}}}
    ops.append({"kind": "spectrum_map", "cli": "spectrum-map", "config": cfg, "ext": ".csv"})
    for i in range(4):
        chi = CHI_SET[int(rng.integers(len(CHI_SET)))]
        s = seq("constant", value=1.0) if i % 2 else _weight(rng)
        lams = []
        for _ in range(4):  # diagonal points a_k, k log-uniform in 1..1e5
            k = int(round(math.exp(_u(rng, 0.0, math.log(1e5)))))
            lams.append([chi / k, 0.0])
        for _ in range(4):  # within 1e-12 (relative) of the diagonal
            k = int(round(math.exp(_u(rng, math.log(2), math.log(1e4)))))
            delta = _u(rng, 1e-14, 1e-12) * (1 if rng.random() < 0.5 else -1)
            lams.append([chi / k * (1.0 + delta), 0.0])
        lams += [_disk_point(rng, chi, 0.1, 0.95) for _ in range(4)]
        lams += [_disk_point(rng, chi, 1.05, 2.0) for _ in range(4)]
        lams = [lams[j] for j in rng.permutation(len(lams))]
        cfg = {"a": seq("cesaro_scaled", chi=chi), "s": s, "seed": 0,
               "point_test": {"lambdas": lams}}
        ops.append({"kind": "point_test", "cli": "point-test", "config": cfg, "ext": ".json"})
    # three equal mid-size grids: the op-latency median falls inside their cluster
    for _ in range(3):
        chi = CHI_SET[int(rng.integers(len(CHI_SET)))]
        ops.append({"kind": "spectrum_grid", "chi": chi, "s": _weight(rng),
                    "grid": _grid_block(rng, chi, 17)})
    return ops


def grid_spec(block: dict) -> spectrum.GridSpec:
    res = block["resolution"]
    return spectrum.GridSpec(tuple(block["re_range"]), tuple(block["im_range"]), (res, res))


# ---------------------------------------------------------------- sections


def _far_from_diagonal(lam: complex, chi: float, gap: float) -> bool:
    """|lambda| and |lambda - chi/k| for every k are at least gap."""
    if abs(lam) < gap:
        return False
    if lam.real <= 0.0:
        return True
    k0 = chi / lam.real
    ks = {1, max(1, math.floor(k0)), max(1, math.ceil(k0))}
    return min(abs(lam - chi / k) for k in ks) >= gap


def _draw_lambda(rng, chi, re_lo, re_hi, im_hi, gap, real, accept=None) -> complex:
    while True:
        lam = complex(_u(rng, re_lo, re_hi) * chi, 0.0 if real else _u(rng, -im_hi, im_hi) * chi)
        if _far_from_diagonal(lam, chi, gap * chi) and (accept is None or accept(lam)):
            return lam


def _ideal_pair(rng, normalized: bool) -> tuple[dict, dict]:
    """(a, r) for the ideal ops; normalized pairs have sup a_i r_i = 1 exactly."""
    if rng.random() < 0.5:
        if normalized:
            v = (0.5, 1.0, 2.0)[int(rng.integers(3))]
            return seq("cesaro_scaled", chi=1.0 / v), seq("constant", value=v)
        chi = _u(rng, 0.5, 2.0)
        if abs(chi - 1.0) < 1e-3:
            chi += 0.01
        if rng.random() < 0.5:
            return seq("cesaro_scaled", chi=chi), seq("power_weight", beta=_u(rng, 0.25, 1.0))
        return seq("cesaro_scaled", chi=chi), seq("constant", value=1.0)
    p = (1.0, _u(rng, 1.1, 2.0))[int(rng.integers(2))]
    if normalized:
        return seq("p_cesaro", p=p), seq("constant", value=1.0)
    return seq("p_cesaro", p=p), seq("constant", value=_u(rng, 1.5, 3.0))


def sections_round(rng) -> list[dict]:
    """Dense finite-section numerics: resolvents, products, ideals, pseudospectra, eigenvectors."""
    ops = []
    # the two largest sections share the top stratum (see scan_round)
    for i, n in enumerate(_int_strata(rng, 3, 200, 1000) + _int_strata(rng, 3, 200, 1000)[-1:]):
        chi = _u(rng, 0.5, 2.5)
        lam = _draw_lambda(rng, chi, -2.0, 3.0, 2.0, 0.2, real=(i == 1))
        cfg = {"a": seq("cesaro_scaled", chi=chi), "seed": 0,
               "resolvent_verify": {"lambda": [lam.real, lam.imag], "n": n, "tol": 1e-10}}
        ops.append({"kind": "resolvent_verify", "cli": "resolvent-verify", "config": cfg,
                    "ext": ".json"})
    for i, n_hi in enumerate(_int_strata(rng, 6, 2**12, 2**20, log=True)):
        chi = _u(rng, 0.5, 2.5)
        lam = _draw_lambda(rng, chi, -3.0, 3.0, 3.0, 0.1, real=(i == 0),
                           accept=lambda z: abs(chi * z.real / abs(z) ** 2 - 1.0) >= 0.1)
        ops.append(_band_op(chi, lam, n_hi, csv=bool(i % 2)))
    # (chi/k)(1 + delta) with 1e-13 < delta < 1e-12: off S for classify_point,
    # inside the near-singular band of ratio_band
    chi, k = _u(rng, 0.5, 2.5), int(rng.integers(2, 65))
    lam = complex(chi / k * (1.0 + _u(rng, 2e-13, 9e-13)), 0.0)
    ops.append(_band_op(chi, lam, 2**16, csv=False))
    for i, n in enumerate(_int_strata(rng, 3, 64, 512)):
        a, r = _ideal_pair(rng, normalized=bool(i % 2))
        cfg = {"a": a, "r": r, "s": seq("constant", value=1.0), "seed": 0,
               "ideal_qnorm": {"section_n": n}}
        ops.append({"kind": "ideal_qnorm", "cli": "ideal-qnorm", "config": cfg, "ext": ".json"})
    for i, trials in enumerate(_int_strata(rng, 3, 50, 200)):
        a, r = _ideal_pair(rng, normalized=bool(i % 2))
        cfg = {"a": a, "r": r, "seed": int(rng.integers(2**31)),
               "ideal_axioms": {"trials": trials, "dim": 8}}
        ops.append({"kind": "ideal_axioms", "cli": "ideal-axioms", "config": cfg, "ext": ".json"})
    for n in _int_strata(rng, 3, 50, 200):
        chi = _u(rng, 0.5, 2.5)
        h = _u(rng, 0.3, 0.6)
        ops.append({"kind": "pseudospectrum", "chi": chi, "n": n,
                    "grid": {"re_range": [_u(rng, -0.35, -0.15) * chi, _u(rng, 1.15, 1.35) * chi],
                             "im_range": [-h * chi, h * chi], "resolution": 4}})
    for n in _int_strata(rng, 3, 1_000, 100_000, log=True):
        ops.append({"kind": "eigenvector", "chi": _u(rng, 0.5, 2.5), "m": int(rng.integers(1, 31)),
                    "n": n})
    for i, n in enumerate(_int_strata(rng, 3, 1_000, 100_000, log=True)):
        chi = _u(rng, 0.5, 2.5)
        if i == 0:  # on the diagonal: the vector truncates to exact zeros
            lam = complex(chi / int(rng.integers(1, 31)), 0.0)
        else:
            lam = _draw_lambda(rng, chi, -2.0, 3.0, 2.0, 0.2, real=(i == 1))
        ops.append({"kind": "adjoint_eigvector", "chi": chi, "lam": [lam.real, lam.imag], "n": n})
    return ops


def _band_op(chi, lam, n_hi, csv) -> dict:
    cfg = {"a": seq("cesaro_scaled", chi=chi), "seed": 0,
           "product_band": {"lambda": [lam.real, lam.imag], "n_range": [128, n_hi]}}
    return {"kind": "product_band", "cli": "product-band", "config": cfg, "ext": ".json",
            "csv": csv}


ROUNDS = {"scan": scan_round, "portrait": portrait_round, "sections": sections_round}


def rounds(workload: str, seed: int):
    """The endless, seeded stream of rounds of one workload."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    make = ROUNDS[workload]
    while True:
        yield make(rng)


def warmup_ops(workload: str) -> list[dict]:
    """One small op of every kind the workload issues (fixed, not seeded)."""
    ops, seen = [], set()
    for op in ROUNDS[workload](np.random.default_rng(12345)):
        if op["kind"] in seen:
            continue
        seen.add(op["kind"])
        ops.append(_shrink(op))
    return ops


def _shrink(op: dict) -> dict:
    """A copy of the op at a size that only exercises its fixed costs."""
    op = json.loads(json.dumps(op))
    cfg = op.get("config", {})
    if "n_max" in cfg:
        cfg["n_max"] = 300
        if cfg["a"]["family"] == "table":
            cfg["a"]["params"]["values"] = cfg["a"]["params"]["values"][:300]
    for key, small in (("n_max", 300), ("n", 64)):
        if key in op:
            op[key] = small
    if "grid" in op:
        op["grid"]["resolution"] = 3
    block = cfg.get("spectrum_map")
    if block:
        block["grid"]["resolution"] = 3
    for name, key, small in (("resolvent_verify", "n", 32), ("ideal_qnorm", "section_n", 16),
                             ("ideal_axioms", "trials", 5)):
        if name in cfg:
            cfg[name][key] = small
    if "product_band" in cfg:
        cfg["product_band"]["n_range"] = [128, 1024]
    if "point_test" in cfg:
        cfg["point_test"]["lambdas"] = cfg["point_test"]["lambdas"][:2]
    return op


# ---------------------------------------------------------------- execution


@dataclass
class Outcome:
    """What one op returned; filled by :func:`run_op` and :func:`collect`."""

    latency_s: float = 0.0
    exit: int | None = None          # CLI exit code
    error: str | None = None         # TerraspecError code or exception type
    stderr: str = ""
    value: object = None             # library return value
    text: str | None = None          # CLI report
    csv_text: str | None = None      # product-band --csv
    bytes_written: int = 0


@dataclass
class Prepared:
    op: dict
    argv: list[str] | None = None
    call: object = None
    out: str | None = None
    csv: str | None = None
    cfg: str | None = None


def prepare(op: dict, workdir: str, i: int) -> Prepared:
    """Write the op's config (CLI) or build its sequences (library); untimed."""
    if op.get("cli"):
        cfg_path = os.path.join(workdir, f"cfg{i}.json")
        with open(cfg_path, "w") as fh:
            json.dump(op["config"], fh)
        out = os.path.join(workdir, f"out{i}{op['ext']}")
        argv = [op["cli"], "--config", cfg_path, "--out", out]
        csv = None
        if op.get("csv"):
            csv = os.path.join(workdir, f"pairs{i}.csv")
            argv += ["--csv", csv]
        return Prepared(op, argv=argv, out=out, csv=csv, cfg=cfg_path)
    kind = op["kind"]
    if kind == "classify_custom":
        a, r, s = custom_specs(op)
        n_max = op["n_max"]
        return Prepared(op, call=lambda: terraced.classify_boundedness(a, r, s, n_max))
    if kind == "spectrum_grid":
        a = sequences.cesaro_scaled(op["chi"])
        s = sequences.from_json(op["s"])
        grid = grid_spec(op["grid"])
        chi = op["chi"]
        return Prepared(op, call=lambda: spectrum.spectrum_grid(a, s, chi, grid))
    if kind == "pseudospectrum":
        sec = terraced.build_section(sequences.cesaro_scaled(op["chi"]), op["n"])
        grid = grid_spec(op["grid"])
        return Prepared(op, call=lambda: spectrum.pseudospectrum_grid(sec, grid, PSEUDO_EPSILONS))
    if kind == "eigenvector":
        a = sequences.cesaro_scaled(op["chi"])
        lam = complex(op["chi"] / op["m"])
        n = op["n"]
        return Prepared(op, call=lambda: spectrum.eigenvector(lam, a, n))
    if kind == "adjoint_eigvector":
        a = sequences.cesaro_scaled(op["chi"])
        lam = complex(*op["lam"])
        n = op["n"]
        return Prepared(op, call=lambda: spectrum.adjoint_eigvector(lam, a, n))
    raise ValueError(f"unknown op kind {kind!r}")


def run_op(p: Prepared) -> Outcome:
    """Execute one prepared op and time it; exceptions become recorded failures."""
    res = Outcome()
    if p.argv is not None:
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                res.exit = cli.main(p.argv)
        except Exception as exc:  # an escaped exception is a failed op, not a crash
            res.error = type(exc).__name__
        res.latency_s = time.perf_counter() - t0
        res.stderr = err.getvalue()
        return res
    t0 = time.perf_counter()
    try:
        res.value = p.call()
    except TerraspecError as exc:
        res.error = exc.code
    except Exception as exc:
        res.error = type(exc).__name__
    res.latency_s = time.perf_counter() - t0
    return res


def collect(p: Prepared, res: Outcome) -> None:
    """Read a CLI op's report back and delete its files; untimed."""
    if p.argv is None:
        return
    for path, attr in ((p.out, "text"), (p.csv, "csv_text")):
        if path and os.path.exists(path):
            with open(path) as fh:
                text = fh.read()
            setattr(res, attr, text)
            res.bytes_written += len(text.encode())
            os.remove(path)
    os.remove(p.cfg)
