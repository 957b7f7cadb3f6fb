#!/usr/bin/env python3
"""terraspec benchmark: seeded closed-loop workloads with oracle-checked ops.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 30 --trace 0

One process, one client: each op starts when the previous one returns.
``--trace 0`` times untraced rounds of ops for ``--seconds`` seconds and
prints the end-to-end metrics; ``--trace 1`` runs a fixed number of rounds
untraced and then traced, and prints the per-layer metrics.  Every op is
checked against an independent oracle (``oracle.py``) after its round, so
the checks cost no op latency.  The last line of standard output is the
result object; the lines before it are a readable report and a JSON
detail record (provenance, oracle outcomes, known-defect counts), which
is also written to ``.bench_out/`` in the checkout.

The program under test is imported from ``src/`` of the checkout and
nowhere else; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

#: percentile reported as op_tail_ms: the highest with at least ten
#: samples beyond it at the calibrated run length (see README.md)
TAIL_PERCENTILE = {"scan": 97, "portrait": 96, "sections": 97}

#: cold starts measured per run; setup_s is their median
SETUP_REPEATS = 3

#: rounds of each traced-run pass per second of --seconds (rounds take about 1.5 s)
TRACE_ROUNDS_PER_S = 1 / 6

SETUP_TIMEOUT_S = 120


def use_source_tree() -> None:
    """Import terraspec from the checkout's src/, or exit 2 without a result."""
    if not (SRC / "terraspec" / "__init__.py").is_file():
        print(f"benchmark: no terraspec sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def setup_probe(workload: str) -> None:
    """Child process: import terraspec, run one warm-up op of each kind, report the time."""
    t0 = time.perf_counter()
    import terraspec  # noqa: F401
    import terraspec.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    workdir = WORK_DIR / f"setup-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops_s = warm_up(workload, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": import_s + ops_s, "import_s": import_s}))


def warm_up(workload: str, workdir: str) -> float:
    """Run one small op of each kind the workload issues; returns their summed latency."""
    import workloads

    total = 0.0
    for i, op in enumerate(workloads.warmup_ops(workload)):
        p = workloads.prepare(op, workdir, i)
        out = workloads.run_op(p)
        workloads.collect(p, out)
        total += out.latency_s
    return total


def measure_setup(workload: str) -> list[dict]:
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return runs


def blas_info() -> dict:
    """OpenBLAS builds loaded in this process, with their configured thread counts."""
    info = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        info[os.path.basename(path)] = entry
    return info


def provenance(workload: str, seed: int) -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "seed": seed,
        "workload": workload,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "loop": "closed loop, one process, one client",
        "computed_not_measured": ["terraced.build_section.bytes (16 N^2)",
                                  "spectrum.resolvent_section.bytes (16 N^2)"],
    }


def run_pass(stream, workdir, *, seconds=None, n_rounds=None, tracer=None) -> dict:
    """Run rounds from ``stream`` for ``seconds`` of op time, or for ``n_rounds`` rounds.

    Only the ops of a round are timed; writing configs, reading reports
    back and the oracle checks happen between rounds.
    """
    import oracle
    import workloads
    from terraspec.sequences import _values_cached

    records, seen, round_rates = [], set(), []
    timed, done, index, cli_bytes = 0.0, 0, 0, 0
    hits = misses = 0
    rss_kib = 0
    while (done < n_rounds) if n_rounds is not None else (timed < seconds or done == 0):
        ops = next(stream)
        prepared = [workloads.prepare(op, workdir, i) for i, op in enumerate(ops)]
        cache0 = _values_cached.cache_info()
        if tracer is not None:
            tracer.active = True
        outcomes = []
        t0 = time.perf_counter()
        for i, p in enumerate(prepared):
            if tracer is not None:
                tracer.begin_op(index + i, p.op["kind"])
            outcomes.append(workloads.run_op(p))
            if tracer is not None:
                tracer.end_op()
        elapsed = time.perf_counter() - t0
        timed += elapsed
        round_rates.append(len(ops) / elapsed)
        if tracer is not None:
            tracer.active = False
        cache1 = _values_cached.cache_info()
        hits += cache1.hits - cache0.hits
        misses += cache1.misses - cache0.misses
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for p, out in zip(prepared, outcomes):
            workloads.collect(p, out)
            cli_bytes += out.bytes_written
            chk = oracle.check(p.op, out, index)
            key = operator_key(p.op)
            records.append({
                "kind": p.op["kind"], "latency_s": out.latency_s, "status": chk.status,
                "defects": chk.defects, "unexplained": chk.unexplained,
                "max_err": max(chk.errs, default=0.0), "inconclusive": chk.inconclusive,
                "seen": key in seen if key is not None else None,
            })
            if key is not None:
                seen.add(key)
            index += 1
        done += 1
    return {"records": records, "timed_s": timed, "rounds": done, "rss_kib": rss_kib,
            "round_rates": round_rates,
            "cache_hits": hits, "cache_misses": misses, "cli_bytes": cli_bytes}


def operator_key(op: dict):
    """(a, s) of a portrait op, to measure how often an operator recurs."""
    if op["kind"] in ("spectrum_map", "point_test"):
        cfg = op["config"]
        return json.dumps([cfg["a"], cfg["s"]], sort_keys=True)
    if op["kind"] == "spectrum_grid":
        return json.dumps([{"family": "cesaro_scaled", "params": {"chi": op["chi"]}}, op["s"]],
                          sort_keys=True)
    return None


def quality(records: list[dict]) -> dict:
    """Oracle outcomes: failure and disagreement ratios, worst error, defect counts."""
    import oracle

    n = len(records)
    defects = Counter(d for r in records for d in r["defects"])
    out = {
        "failed_ratio": sum(r["status"] == "failed" for r in records) / n,
        "wrong_ratio": sum(r["status"] == "wrong" for r in records) / n,
        "max_rel_err": max((r["max_err"] for r in records), default=0.0),
    }
    for name in oracle.DEFECTS:
        out[f"defect.{name}.count"] = defects[name]
    return out


def latency_summary(workload: str, records: list[dict]) -> dict:
    import numpy as np

    lat = np.array([r["latency_s"] for r in records])
    pct = TAIL_PERCENTILE[workload]
    tail = float(np.percentile(lat, pct))
    return {"p50_ms": 1e3 * float(np.median(lat)), "tail_ms": 1e3 * tail,
            "tail_percentile": pct, "samples": len(lat),
            "samples_beyond_tail": int((lat > tail).sum())}


def kind_shares(records: list[dict]) -> dict:
    total = sum(r["latency_s"] for r in records)
    shares = Counter()
    for r in records:
        shares[r["kind"]] += r["latency_s"] / total
    return {k: round(v, 4) for k, v in sorted(shares.items())}


def run_all(args) -> int:
    """Run every workload, each in its own process (peak RSS is per process)."""
    results = {}
    for workload in ("scan", "portrait", "sections"):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-2]))  # the readable report; details stay in .bench_out/
        results[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("scan", "portrait", "sections", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    use_source_tree()
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    if args.workload == "all":
        return run_all(args)

    setup_runs = None if args.trace else measure_setup(args.workload)
    import oracle
    import tracing
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = WORK_DIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        warm_up(args.workload, str(workdir))
        stream = workloads.rounds(args.workload, args.seed)
        if args.trace:
            # the traced pass takes the next rounds of the stream: fresh
            # parameters, so the untraced pass warms no cache for it
            n_rounds = max(2, round(args.seconds * TRACE_ROUNDS_PER_S))
            plain = run_pass(stream, str(workdir), n_rounds=n_rounds)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_pass(stream, str(workdir), n_rounds=n_rounds, tracer=tracer)
            finally:
                tracer.uninstall()
            result_pass = traced
        else:
            result_pass = run_pass(stream, str(workdir), seconds=args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = result_pass["records"]
    n_ops = len(records)
    qual = quality(records)
    lat = latency_summary(args.workload, records)
    unexplained = [u for r in records for u in r["unexplained"]]
    portrait_ops = [r["seen"] for r in records if r["seen"] is not None]
    detail = {
        "provenance": provenance(args.workload, args.seed),
        "ops": n_ops,
        "rounds": result_pass["rounds"],
        "timed_s": result_pass["timed_s"],
        "round_ops_per_s": result_pass["round_rates"],
        "latency": lat,
        "kind_time_share": kind_shares(records),
        "operator_seen_share": (sum(portrait_ops) / len(portrait_ops)) if portrait_ops else None,
        "inconclusive_ops": sum(r["inconclusive"] for r in records),
        "quality": qual,
        "known_defects": oracle.DEFECTS,
        "unexplained": unexplained[:20],
    }
    if args.trace:
        overhead = (len(plain["records"]) / plain["timed_s"]) / (n_ops / traced["timed_s"])
        metrics = tracing.per_layer_metrics(
            tracer, traced["cache_hits"], traced["cache_misses"], overhead,
            traced["cli_bytes"], qual)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv"
        tracer.write(str(spans_path))
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        setup = [r["setup_s"] for r in setup_runs]
        detail["setup_runs_s"] = setup
        detail["import_runs_s"] = [r["import_s"] for r in setup_runs]
        values = {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (n_ops / result_pass["timed_s"], "ops/s"),
            "op_p50_ms": (lat["p50_ms"], "ms"),
            "op_tail_ms": (lat["tail_ms"], "ms"),
            "peak_rss_mb": (result_pass["rss_kib"] / 1024.0, "MiB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for name in ("failed_ratio", "wrong_ratio", "max_rel_err"):
        print(f"{args.workload} {name} = {qual[name]:.6g} 1")
    for name in oracle.DEFECTS:
        print(f"{args.workload} defect {name} = {qual[f'defect.{name}.count']}")
    detail["metrics"] = metrics
    detail_path = OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1, default=float) + "\n")
    print(json.dumps(detail, default=float))
    result = {
        "correct": not unexplained and n_ops > 0,
        "attempted": n_ops,
        "failed": sum(r["status"] == "failed" for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
