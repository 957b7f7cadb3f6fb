"""Self-tests of the benchmark: tiny runs, oracle rejection, determinism.

Run from the repository root:

    python -m pytest -q benchmark/test_benchmark.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from itertools import islice
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.use_source_tree()

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from terraspec import sequences, spectrum  # noqa: E402

BENCHMARK_JSON = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def execute(op, workdir, i=0):
    p = workloads.prepare(op, str(workdir), i)
    out = workloads.run_op(p)
    workloads.collect(p, out)
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_ops_of_every_kind_pass_their_oracle(workload, tmp_path):
    for i, op in enumerate(workloads.warmup_ops(workload)):
        chk = oracle.check(op, execute(op, tmp_path, i), i)
        assert chk.unexplained == [], (op["kind"], chk.issues)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_round_is_correct_and_counts_its_defects(workload, tmp_path):
    res = run.run_pass(workloads.rounds(workload, 7), str(tmp_path), n_rounds=1)
    assert res["records"]
    assert [u for r in res["records"] for u in r["unexplained"]] == []
    defects = {d for r in res["records"] for d in r["defects"]}
    expected = {"scan": {"norm_underreport"}, "portrait": {"closure_boundary", "scan_depth"},
                "sections": {"snap_tolerance"}}[workload]
    assert defects == expected


def test_traced_pass_reports_every_per_layer_metric(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = run.run_pass(workloads.rounds("sections", 3), str(tmp_path), n_rounds=1,
                           tracer=tracer)
    finally:
        tracer.uninstall()
    assert spectrum.resolvent_section.__name__ == "resolvent_section"  # uninstalled
    metrics = tracing.per_layer_metrics(tracer, res["cache_hits"], res["cache_misses"], 1.0,
                                        res["cli_bytes"], run.quality(res["records"]))
    assert list(metrics) == [m["name"] for m in BENCHMARK_JSON["per_layer"]]
    assert metrics["spectrum.verify_resolvent.calls"]["value"] == 4  # one per resolvent-verify op
    assert metrics["linalg.svd.calls"]["value"] > 0
    assert metrics["trace.spans"]["value"] == len(tracer.spans)


def test_benchmark_json_lists_the_metrics_run_prints():
    assert [m["name"] for m in BENCHMARK_JSON["end_to_end"]] == [
        "setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb"]
    assert [w["name"] for w in BENCHMARK_JSON["workloads"]] == list(workloads.WORKLOADS)
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    assert {m["name"]: m["unit"] for m in BENCHMARK_JSON["per_layer"]} == units


def _first(workload, kind, seed=5):
    for ops in islice(workloads.rounds(workload, seed), 3):
        for op in ops:
            if op["kind"] == kind:
                return op
    raise LookupError(kind)


def test_oracle_rejects_a_corrupted_label(tmp_path):
    op = workloads._shrink(_first("portrait", "spectrum_grid"))
    out = execute(op, tmp_path)
    assert oracle.check(op, out, 0).unexplained == []
    pt = out.value[0]
    wrong = "resolvent" if pt.label.value != "resolvent" else "residual"
    out.value[0] = dataclasses.replace(pt, label=spectrum.Label(wrong))
    assert oracle.check(op, out, 0).unexplained


def test_oracle_rejects_a_corrupted_verdict(tmp_path):
    op = _first("scan", "classify")
    out = execute(op, tmp_path)
    assert oracle.check(op, out, 0).unexplained == []
    report = json.loads(out.text)
    report["result"]["compact"] = "no" if report["result"]["compact"] == "yes" else "yes"
    out.text = json.dumps(report)
    assert oracle.check(op, out, 0).unexplained


def test_oracle_rejects_a_corrupted_resolvent_entry():
    chi, lam, n = 1.3, complex(2.1, 0.4), 120
    B = spectrum.resolvent_section(lam, sequences.cesaro_scaled(chi), n).entries.copy()
    good = oracle.Check()
    oracle.check_resolvent_entries(B, chi, lam, [0, 57], good)
    assert good.status == "ok" and max(good.errs) < 1e-10
    B[90, 57] *= 1 + 1e-8
    bad = oracle.Check()
    oracle.check_resolvent_entries(B, chi, lam, [0, 57], bad)
    assert bad.unexplained


def test_known_defect_signatures_do_not_absorb_other_failures(tmp_path):
    op = _first("sections", "product_band")
    out = workloads.Outcome(exit=1, stderr="terraspec: error: lambda-in-S: lambda matches a_3")
    chk = oracle.check(op, out, 0)
    assert chk.status == "failed" and chk.unexplained  # lambda is far from the diagonal


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops_and_identical_reports(workload, tmp_path):
    first = list(islice(workloads.rounds(workload, 42), 2))
    again = list(islice(workloads.rounds(workload, 42), 2))
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps(list(islice(workloads.rounds(workload, 43), 2)))
    for i, op in enumerate(workloads.warmup_ops(workload)):
        if not op.get("cli"):
            continue
        outs = []
        for name in ("one", "two"):
            workdir = tmp_path / f"{name}{i}"
            workdir.mkdir()
            outs.append(execute(op, workdir, i))
        assert outs[0].text == outs[1].text and outs[0].csv_text == outs[1].csv_text, op["kind"]


def test_generated_configs_cover_all_seven_subcommands():
    from terraspec import cli

    seen = {op["cli"] for w in workloads.WORKLOADS for op in next(workloads.rounds(w, 0))
            if op.get("cli")}
    assert seen == set(cli._COMMANDS)


def test_strata_cover_the_range_with_one_draw_per_stratum():
    vals = workloads._strata(np.random.default_rng(0), 4, 0.0, 1.0)
    assert [int(v * 4) for v in vals] == [0, 1, 2, 3]
