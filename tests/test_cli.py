import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import terraspec
from terraspec import ideals, products, spectrum, terraced
from terraspec.cli import main
from terraspec.numerics import TriState
from terraspec.sequences import cesaro_scaled, constant, geometric, log_reciprocal, p_cesaro, power_weight, table
from terraspec.sequences import to_json
from terraspec.spectrum import adjoint_point_test, point_spectrum_test

CESARO_CFG = {
    "a": {"family": "cesaro_scaled", "params": {"chi": 1.0}},
    "r": {"family": "constant", "params": {"value": 1.0}},
    "s": {"family": "constant", "params": {"value": 1.0}},
    "seed": 42,
    "n_max": 2000,
}


def write_cfg(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


def run(args):
    return main([str(a) for a in args])


class TestClassify:
    def test_cesaro_baseline(self, tmp_path):
        cfg = write_cfg(tmp_path, CESARO_CFG)
        out = tmp_path / "report.json"
        assert run(["classify", "--config", cfg, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["norm"] == 1.0
        assert payload["result"]["bounded"] == "yes"
        assert payload["result"]["compact"] == "no"
        assert payload["version"]
        assert len(payload["config_digest"]) == 64

    def test_compact_log_geometric_pair(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "a": {"family": "log_reciprocal"},
                "r": {"family": "geometric", "params": {"ratio": 0.5}},
                "s": {"family": "geometric", "params": {"ratio": 0.5}},
                "n_max": 500,
            },
        )
        out = tmp_path / "report.json"
        assert run(["classify", "--config", cfg, "--out", out]) == 0
        assert json.loads(out.read_text())["result"]["compact"] == "yes"

    def test_malformed_family(self, tmp_path):
        cfg = write_cfg(tmp_path, {"a": {"family": "not-a-family"}})
        assert run(["classify", "--config", cfg, "--out", tmp_path / "x.json"]) == 1

    def test_inconclusive_exits_two(self, tmp_path):
        values = [(2.0 + (n % 3)) / n for n in range(1, 1025)]
        cfg = write_cfg(
            tmp_path,
            {"a": {"family": "table", "params": {"values": values}}, "n_max": 1024},
        )
        out = tmp_path / "report.json"
        assert run(["classify", "--config", cfg, "--out", out]) == 2
        assert json.loads(out.read_text())["result"]["bounded"] == "inconclusive"

    def test_missing_config_file(self, tmp_path):
        assert run(["classify", "--config", tmp_path / "nope.json", "--out", tmp_path / "x.json"]) == 1

    def test_nan_family_parameter(self, tmp_path, capsys):
        # json.dumps writes NaN, which json.loads accepts
        cfg = write_cfg(tmp_path, {"a": {"family": "p_cesaro", "params": {"p": float("nan")}}})
        assert run(["classify", "--config", cfg, "--out", tmp_path / "x.json"]) == 1
        assert "invalid-family-param" in capsys.readouterr().err

    def test_string_family_parameter(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"a": {"family": "cesaro_scaled", "params": {"chi": "abc"}}})
        assert run(["classify", "--config", cfg, "--out", tmp_path / "x.json"]) == 1
        assert "invalid-family-param" in capsys.readouterr().err


class TestSpectrumMap:
    def cfg(self, tmp_path, grid):
        return write_cfg(
            tmp_path,
            {
                "a": {"family": "cesaro_scaled", "params": {"chi": 1.0}},
                "s": {"family": "constant", "params": {"value": 1.0}},
                "n_max": 2000,
                "spectrum_map": {"grid": grid},
            },
        )

    def test_three_by_three(self, tmp_path):
        cfg = self.cfg(tmp_path, {"re_range": [-0.2, 1.2], "im_range": [-0.2, 0.2], "resolution": 3})
        out = tmp_path / "grid.csv"
        assert run(["spectrum-map", "--config", cfg, "--out", out]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("# terraspec")
        assert lines[1] == "re,im,label,alpha,alpha_chi,dist_to_S,a1,a2"
        assert len(lines) == 2 + 9

    def test_node_labels(self, tmp_path):
        cfg = self.cfg(tmp_path, {"re_range": [-0.2, 0.2], "im_range": [-0.2, 0.2], "resolution": 3})
        out = tmp_path / "grid.csv"
        assert run(["spectrum-map", "--config", cfg, "--out", out]) == 0
        rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[2:]]
        by_node = {(float(r[0]), float(r[1])): r[2] for r in rows}
        assert by_node[(0.0, 0.0)] == "continuous_candidate"
        assert by_node[(-0.2, 0.0)] == "resolvent"

    def test_exterior_node_resolvent(self, tmp_path):
        cfg = self.cfg(tmp_path, {"re_range": [1.5, 2.0], "im_range": [-0.1, 0.1], "resolution": 2})
        out = tmp_path / "grid.csv"
        assert run(["spectrum-map", "--config", cfg, "--out", out]) == 0
        rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[2:]]
        assert all(r[2] == "resolvent" for r in rows)

    def test_json_output(self, tmp_path):
        cfg = self.cfg(tmp_path, {"re_range": [-0.2, 0.2], "im_range": [-0.2, 0.2], "resolution": 3})
        out = tmp_path / "grid.json"
        assert run(["spectrum-map", "--config", cfg, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["result"]) == 9
        zero = [r for r in payload["result"] if r["lambda"] == [0.0, 0.0]][0]
        assert zero["label"] == "continuous_candidate"

    def test_degenerate_grid(self, tmp_path):
        cfg = self.cfg(tmp_path, {"re_range": [0, 1], "im_range": [0, 1], "resolution": 1})
        assert run(["spectrum-map", "--config", cfg, "--out", tmp_path / "x.csv"]) == 1

    def test_jobs_flag_rejected(self, tmp_path, capsys):
        cfg = self.cfg(tmp_path, {"re_range": [-0.2, 1.2], "im_range": [-0.2, 0.2], "resolution": 5})
        with pytest.raises(SystemExit) as exc:
            run(["spectrum-map", "--config", cfg, "--out", tmp_path / "x.csv", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


class TestPointTest:
    def test_lambda_list(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "a": {"family": "cesaro_scaled", "params": {"chi": 1.0}},
                "s": {"family": "constant", "params": {"value": 1.0}},
                "n_max": 2000,
                "point_test": {"lambdas": [[0.4, 0.0], [2.0, 0.0], 0.5]},
            },
        )
        out = tmp_path / "points.json"
        assert run(["point-test", "--config", cfg, "--out", out]) == 0
        results = json.loads(out.read_text())["result"]
        assert [r["label"] for r in results] == ["residual", "resolvent", "residual"]
        assert results[0]["adjoint"] == "yes"
        assert results[1]["adjoint"] == "no"

    def test_malformed_lambda_in_the_middle(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {**CESARO_CFG, "point_test": {"lambdas": [0.4, "x", 2.0]}})
        out = tmp_path / "points.json"
        assert run(["point-test", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err == "terraspec: error: lambda must be a number or [re, im], got 'x'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "lambdas,err",
        [
            (0.5, "point_test.lambdas must be a list, got 0.5"),
            ("ab", "point_test.lambdas must be a list, got 'ab'"),
            ({"re": 0.5}, "point_test.lambdas must be a list, got {'re': 0.5}"),
        ],
    )
    def test_lambdas_not_a_list(self, tmp_path, capsys, lambdas, err):
        cfg = write_cfg(tmp_path, {**CESARO_CFG, "point_test": {"lambdas": lambdas}})
        assert run(["point-test", "--config", cfg, "--out", tmp_path / "points.json"]) == 1
        assert capsys.readouterr().err == f"terraspec: error: {err}\n"

    def test_zero_on_a_diagonal_that_underflows(self, tmp_path):
        # geometric(0.5) reaches 0.0 at a_1075; 0 is still not in S
        cfg = write_cfg(
            tmp_path,
            {
                "a": {"family": "geometric", "params": {"ratio": 0.5}},
                "chi": 1.0,
                "point_test": {"lambdas": [0, 0.25, [0.3, 0.1]]},
            },
        )
        out = tmp_path / "points.json"
        assert run(["point-test", "--config", cfg, "--out", out]) == 0
        zero = json.loads(out.read_text())["result"][0]
        assert (zero["point"], zero["point_detail"]) == ("no", "lambda not in S, kernel is trivial")
        assert (zero["adjoint"], zero["adjoint_detail"]) == ("no", "0 is never an adjoint eigenvalue")
        assert zero["label"] == "continuous_candidate"

    @pytest.mark.parametrize("lam", [1e-200, [1e-200, 1e-200], [0.0, -1e-200]], ids=repr)
    def test_tiny_lambda_is_answered(self, tmp_path, lam):
        cfg = write_cfg(tmp_path, {**CESARO_CFG, "point_test": {"lambdas": [lam]}})
        out = tmp_path / "points.json"
        assert run(["point-test", "--config", cfg, "--out", out]) == 0
        row = json.loads(out.read_text())["result"][0]
        assert (row["point"], row["adjoint"], row["label"]) == ("no", "no", "boundary_unknown")

    def test_tiny_diagonal_value_is_answered(self, tmp_path):
        # a_900 = 2^-900 of geometric(0.5): |lambda|^2 underflows to 0.0
        a = geometric(0.5)
        cfg = write_cfg(tmp_path, {"a": to_json(a), "chi": 1.0, "point_test": {"lambdas": [a.value(900)]}})
        out = tmp_path / "points.json"
        assert run(["point-test", "--config", cfg, "--out", out]) == 0
        row = json.loads(out.read_text())["result"][0]
        assert (row["point"], row["adjoint_detail"]) == ("yes", "lambda = a_900, adjoint eigenvector truncates")

    def test_n_max_one(self, tmp_path):
        cfg = write_cfg(tmp_path, {**CESARO_CFG, "n_max": 1, "point_test": {"lambdas": [1.0, 0.4, 2.0]}})
        out = tmp_path / "points.json"
        assert run(["point-test", "--config", cfg, "--out", out]) == 0
        results = json.loads(out.read_text())["result"]
        assert [r["label"] for r in results] == ["residual", "residual", "resolvent"]
        assert [r["adjoint"] for r in results] == ["yes", "yes", "no"]

    def test_tiny_lambda_past_the_alpha_range_is_an_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {**CESARO_CFG, "point_test": {"lambdas": [1e-310]}})
        assert run(["point-test", "--config", cfg, "--out", tmp_path / "points.json"]) == 1
        assert capsys.readouterr().err.startswith("terraspec: error: alpha-overflow: ")


def _point_test_lambdas(a, chi):
    """Diagonal values, their snap band, disk interior and exterior, negative reals and 0."""
    lams = [complex(a.value(k)) for k in (1, 2, 7, 250, 3000)]
    lams += [a.value(k) * (1 + d) for k in (3, 40, 200) for d in (1e-14, -1e-14, 5e-13, -5e-13, 1e-12, -1e-12)]
    for r in (0.3, 0.9, 1.2, 1.9):
        for theta in (0.4, 2.0, 3.5):
            lams.append(chi / 2 + r * chi / 2 * complex(math.cos(theta), math.sin(theta)))
    return lams + [complex(1.5 * chi), complex(-0.5 * chi), complex(-1e-3), 0j]


class TestPointTestColumns:
    """point-test's columns equal what point_spectrum_test and adjoint_point_test give per lambda."""

    @pytest.mark.parametrize(
        "a,chi",
        [
            (cesaro_scaled(0.7), 0.7),
            (cesaro_scaled(2.0), 2.0),
            (p_cesaro(1.0), 1.0),
            (table([0.7 / (k + 0.5) for k in range(1, 3001)]), 0.7),
            (geometric(0.5), 1.0),
        ],
        ids=["cesaro_0.7", "cesaro_2", "p_cesaro_1", "table", "geometric"],
    )
    @pytest.mark.parametrize(
        "s", [constant(1.0), power_weight(1.5), log_reciprocal()], ids=["constant", "power", "log_reciprocal"]
    )
    def test_rows_match_the_public_tests(self, tmp_path, a, chi, s):
        lams = _point_test_lambdas(a, chi)
        cfg = write_cfg(
            tmp_path,
            {"a": to_json(a), "s": to_json(s), "chi": chi,
             "point_test": {"lambdas": [[lam.real, lam.imag] for lam in lams]}},
        )
        out = tmp_path / "points.json"
        assert run(["point-test", "--config", cfg, "--out", out]) in (0, 2)
        rows = json.loads(out.read_text())["result"]
        assert [complex(*row["lambda"]) for row in rows] == lams
        for lam, row in zip(lams, rows):
            point = point_spectrum_test(lam, a, s, chi)
            adjoint = adjoint_point_test(lam, a, s, chi)
            assert (row["point"], row["point_detail"]) == (point.outcome.value, point.detail), lam
            assert (row["adjoint"], row["adjoint_detail"]) == (adjoint.outcome.value, adjoint.detail), lam


class TestConfigCoercion:
    def test_non_finite_lambdas(self, tmp_path, capsys):
        for lam in (float("nan"), float("inf"), [0.5, float("nan")]):
            cfg = write_cfg(tmp_path, {**CESARO_CFG, "point_test": {"lambdas": [lam]}})
            assert run(["point-test", "--config", cfg, "--out", tmp_path / "x.json"]) == 1
            assert "terraspec: error: lambda-not-finite" in capsys.readouterr().err

    def test_bad_chi(self, tmp_path, capsys):
        for chi in ("x", float("nan"), float("inf"), True, "0.5"):
            cfg = write_cfg(tmp_path, {**CESARO_CFG, "chi": chi, "point_test": {"lambdas": [0.5]}})
            assert run(["point-test", "--config", cfg, "--out", tmp_path / "x.json"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("terraspec: error: ") and "chi" in err

    @pytest.mark.parametrize("bad", [True, [True, False], [0.5, False], ["0.5", 0.0]], ids=repr)
    @pytest.mark.parametrize(
        "command,block",
        [
            ("point-test", lambda v: {"point_test": {"lambdas": [0.5, v]}}),
            ("resolvent-verify", lambda v: {"resolvent_verify": {"lambda": v, "n": 10}}),
            ("product-band", lambda v: {"product_band": {"lambda": v}}),
        ],
        ids=["point-test", "resolvent-verify", "product-band"],
    )
    def test_lambda_is_not_a_bool_or_string(self, tmp_path, capsys, command, block, bad):
        cfg = write_cfg(tmp_path, {**CESARO_CFG, **block(bad)})
        assert run([command, "--config", cfg, "--out", tmp_path / "x.json"]) == 1
        assert capsys.readouterr().err == f"terraspec: error: lambda must be a number or [re, im], got {bad!r}\n"

    def test_bad_numbers(self, tmp_path, capsys):
        def grid(**fields):
            return {"spectrum_map": {"grid": {"re_range": [0, 1], "im_range": [0, 1], "resolution": 3, **fields}}}

        cases = [
            ("resolvent-verify", {"resolvent_verify": {"lambda": 2.0, "n": "x"}}, "resolvent_verify.n"),
            ("resolvent-verify", {"resolvent_verify": {"lambda": ["x", 0.0], "n": 10}}, "lambda"),
            ("product-band", {"product_band": {"lambda": 2.0, "n_range": ["a", 64]}}, "product_band.n_range"),
            ("product-band", {"product_band": {"lambda": 2.0, "exponent": "e"}}, "product_band.exponent"),
            ("spectrum-map", grid(resolution="ab"), "spectrum_map.grid.resolution"),
            ("ideal-qnorm", {"ideal_qnorm": {"snumbers": [1.0, "x"]}}, "ideal_qnorm.snumbers"),
            ("ideal-axioms", {"ideal_axioms": {"trials": "many"}}, "ideal_axioms.trials"),
            # a range list takes exactly two entries; longer ones used to be cut to their first two
            ("spectrum-map", grid(re_range=[-0.2, 1.2, 5.0], resolution=[3, 2, 7]), "spectrum_map.grid.re_range"),
            ("spectrum-map", grid(im_range=[0.5]), "spectrum_map.grid.im_range"),
            ("spectrum-map", grid(resolution=[3, 2, 7]), "spectrum_map.grid.resolution"),
            ("spectrum-map", grid(resolution=[]), "spectrum_map.grid.resolution"),
            ("product-band", {"product_band": {"lambda": 2.0, "n_range": [128, 1024, 7]}}, "product_band.n_range"),
            ("product-band", {"product_band": {"lambda": 2.0, "n_range": 128}}, "product_band.n_range"),
        ]
        for command, block, key in cases:
            cfg = write_cfg(tmp_path, {**CESARO_CFG, **block})
            assert run([command, "--config", cfg, "--out", tmp_path / "x.json"]) == 1, block
            err = capsys.readouterr().err
            assert err.startswith(f"terraspec: error: {key} ") or err.startswith(f"terraspec: error: bad {key}: "), err


    @pytest.mark.parametrize(
        "bad,err",
        [(math.nan, "must be finite"), (math.inf, "must be finite"), (-math.inf, "must be finite"),
         (False, "must be a number, got False"), ("1e-3", "must be a number, got '1e-3'")],
        ids=["nan", "inf", "-inf", "bool", "string"],
    )
    @pytest.mark.parametrize(
        "command,block",
        [
            ("resolvent-verify", lambda x: {"resolvent_verify": {"lambda": 2.0, "n": 10, "tol": x}}),
            ("product-band", lambda x: {"product_band": {"lambda": 2.0, "exponent": x}}),
            ("ideal-qnorm", lambda x: {"ideal_qnorm": {"snumbers": [1.0, x]}}),
        ],
        ids=["tol", "exponent", "snumbers"],
    )
    def test_non_finite_floats(self, tmp_path, capsys, command, block, bad, err):
        cfg = write_cfg(tmp_path, {**CESARO_CFG, **block(bad)})
        assert run([command, "--config", cfg, "--out", tmp_path / "x.json"]) == 1
        assert err in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["re_range", "im_range"])
    def test_non_finite_grid_range(self, tmp_path, capsys, field):
        grid = {"re_range": [0, 1], "im_range": [0, 1], "resolution": 3, field: [0, math.inf]}
        cfg = write_cfg(tmp_path, {**CESARO_CFG, "spectrum_map": {"grid": grid}})
        assert run(["spectrum-map", "--config", cfg, "--out", tmp_path / "x.csv"]) == 1
        assert capsys.readouterr().err == f"terraspec: error: spectrum_map.grid.{field} must be finite, got inf\n"

    @pytest.mark.parametrize("bad", [True, 20.9, "20"], ids=["bool", "fraction", "string"])
    @pytest.mark.parametrize(
        "command,block",
        [
            ("classify", lambda v: {"n_max": v}),
            ("classify", lambda v: {"seed": v}),
            ("resolvent-verify", lambda v: {"resolvent_verify": {"lambda": 2.0, "n": v}}),
            ("ideal-qnorm", lambda v: {"ideal_qnorm": {"section_n": v}}),
            ("ideal-axioms", lambda v: {"ideal_axioms": {"trials": v}}),
            ("ideal-axioms", lambda v: {"ideal_axioms": {"dim": v}}),
            ("product-band", lambda v: {"product_band": {"lambda": 2.0, "n_range": [v, 256]}}),
            ("spectrum-map", lambda v: {"spectrum_map": {"grid": {"re_range": [0, 1], "im_range": [0, 1],
                                                                  "resolution": v}}}),
        ],
        ids=["n_max", "seed", "n", "section_n", "trials", "dim", "n_range", "resolution"],
    )
    def test_integer_fields(self, tmp_path, capsys, command, block, bad):
        cfg = write_cfg(tmp_path, {**CESARO_CFG, **block(bad)})
        assert run([command, "--config", cfg, "--out", tmp_path / "x.json"]) == 1
        assert "must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [[0.5], 0.5, "x", None], ids=repr)
    @pytest.mark.parametrize(
        "command,block",
        [
            ("spectrum-map", "spectrum_map"),
            ("point-test", "point_test"),
            ("resolvent-verify", "resolvent_verify"),
            ("product-band", "product_band"),
            ("ideal-qnorm", "ideal_qnorm"),
            ("ideal-axioms", "ideal_axioms"),
        ],
        ids=lambda v: v if "_" in v else None,
    )
    def test_block_is_not_an_object(self, tmp_path, capsys, command, block, bad):
        cfg = write_cfg(tmp_path, {**CESARO_CFG, block: bad})
        assert run([command, "--config", cfg, "--out", tmp_path / "x.json"]) == 1
        assert capsys.readouterr().err == f"terraspec: error: {block} must be a JSON object, got {bad!r}\n"

    def test_integral_float_is_an_integer(self, tmp_path):
        cfg = write_cfg(tmp_path, {**CESARO_CFG, "n_max": 2000.0, "seed": 3.0})
        out = tmp_path / "report.json"
        assert run(["classify", "--config", cfg, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["criterion_samples"][-1][0] == 2000
        assert payload["seed"] == 3 and isinstance(payload["seed"], int)


class TestResolventVerify:
    def test_cesaro_200(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "a": {"family": "cesaro_scaled", "params": {"chi": 1.0}},
                "resolvent_verify": {"lambda": [2.0, 0.0], "n": 200, "tol": 1e-10},
            },
        )
        out = tmp_path / "resolvent.json"
        assert run(["resolvent-verify", "--config", cfg, "--out", out]) == 0
        payload = json.loads(out.read_text())["result"]
        assert payload["passed"] is True
        assert payload["max_residual"] <= 1e-10

    def test_lambda_in_S_is_config_error(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "a": {"family": "cesaro_scaled", "params": {"chi": 1.0}},
                "resolvent_verify": {"lambda": [1.0, 0.0], "n": 50},
            },
        )
        assert run(["resolvent-verify", "--config", cfg, "--out", tmp_path / "x.json"]) == 1


class TestProductBand:
    def test_bounded_band(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "a": {"family": "cesaro_scaled", "params": {"chi": 1.0}},
                "product_band": {"lambda": [2.0, 0.0], "n_range": [128, 8192]},
            },
        )
        out = tmp_path / "band.json"
        csv_out = tmp_path / "band.csv"
        assert run(["product-band", "--config", cfg, "--out", out, "--csv", csv_out]) == 0
        payload = json.loads(out.read_text())["result"]
        assert payload["verdict"] == "bounded_band"
        lines = csv_out.read_text().strip().split("\n")
        assert lines[1] == "n,ratio"
        assert len(lines) == 2 + len(payload["ratios"])

    def test_perturbed_exponent_fails(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "a": {"family": "cesaro_scaled", "params": {"chi": 1.0}},
                "product_band": {"lambda": [2.0, 0.0], "n_range": [128, 8192], "exponent": 0.55},
            },
        )
        assert run(["product-band", "--config", cfg, "--out", tmp_path / "x.json"]) == 3

    @pytest.mark.parametrize("lam,n", [([-0.7, 0.0], 4096), ([0.0, 0.9], 131072)], ids=["negative", "imaginary"])
    def test_ratio_past_double_range(self, tmp_path, capsys, lam, n):
        cfg = write_cfg(
            tmp_path,
            {
                "a": {"family": "log_reciprocal"},
                "chi": 1.0,
                "product_band": {"lambda": lam, "n_range": [128, 2**17]},
            },
        )
        out = tmp_path / "band.json"
        assert run(["product-band", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("terraspec: error: product-overflow: ") and err.endswith(f" at n={n} is past the double range\n")
        assert not out.exists()


class TestIdealCommands:
    def test_qnorm_from_user_values(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "a": {"family": "cesaro_scaled", "params": {"chi": 1.0}},
                "r": {"family": "constant", "params": {"value": 1.0}},
                "ideal_qnorm": {"snumbers": [2.0, 0.0, 0.0]},
            },
        )
        out = tmp_path / "qnorm.json"
        assert run(["ideal-qnorm", "--config", cfg, "--out", out]) == 0
        payload = json.loads(out.read_text())["result"]
        assert payload["value"] == 2.0
        assert payload["qnorm_normalized"] == "yes"

    def test_qnorm_of_user_values_past_the_double_range(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {**CESARO_CFG, "ideal_qnorm": {"snumbers": [1e308, 1e308, 1e308]}})
        out = tmp_path / "qnorm.json"
        assert run(["ideal-qnorm", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("terraspec: error: snumbers-overflow: ")
        assert not out.exists()

    def test_section_past_the_dense_cap_is_refused_before_it_is_built(self, tmp_path, capsys, monkeypatch):
        built = []
        build = terraced.build_section
        monkeypatch.setattr(terraced, "build_section", lambda a, n: built.append(n) or build(a, n))
        n = terraced.DENSE_CAP + 1
        cfg = write_cfg(tmp_path, {**CESARO_CFG, "ideal_qnorm": {"section_n": n}})
        assert run(["ideal-qnorm", "--config", cfg, "--out", tmp_path / "qnorm.json"]) == 1
        err = f"terraspec: error: section-too-large: dense SVD capped at {terraced.DENSE_CAP}, got {n}\n"
        assert capsys.readouterr().err == err
        assert built == []

    def test_axioms_clean(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {
                "a": {"family": "cesaro_scaled", "params": {"chi": 1.0}},
                "r": {"family": "constant", "params": {"value": 1.0}},
                "seed": 77,
                "ideal_axioms": {"trials": 25, "dim": 6},
            },
        )
        out = tmp_path / "axioms.json"
        assert run(["ideal-axioms", "--config", cfg, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["total_violations"] == 0
        assert payload["seed"] == 77


    @pytest.mark.parametrize(
        "block,bad",
        [({"dim": 1}, "dim=1"), ({"dim": -2}, "dim=-2"), ({"dim": 0}, "dim=0"), ({"trials": -3}, "trials=-3")],
    )
    def test_axioms_bad_trial_shape(self, tmp_path, capsys, block, bad):
        cfg = write_cfg(tmp_path, {**CESARO_CFG, "ideal_axioms": block})
        out = tmp_path / "axioms.json"
        assert run(["ideal-axioms", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("terraspec: error: invalid-trials: ") and bad in err
        assert not out.exists()

    def test_axioms_zero_trials(self, tmp_path):
        cfg = write_cfg(tmp_path, {**CESARO_CFG, "ideal_axioms": {"trials": 0}})
        out = tmp_path / "axioms.json"
        assert run(["ideal-axioms", "--config", cfg, "--out", out]) == 0
        result = json.loads(out.read_text())["result"]
        assert result["trials"] == 0 and result["total_violations"] == 0


class TestShortTables:
    """A table shorter than a command's default scan depth is scanned to its end."""

    def test_spectral_commands_estimate_chi_from_a_5000_entry_table(self, tmp_path):
        # chi used to be probed to n = 65536, past the table's end
        cfg = write_cfg(
            tmp_path,
            {
                "a": {"family": "table", "params": {"values": [0.7 / (k + 0.5) for k in range(1, 5001)]}},
                "n_max": 5000,
                "spectrum_map": {"grid": {"re_range": [-0.2, 1.2], "im_range": [-0.2, 0.2], "resolution": 3}},
                "point_test": {"lambdas": [0.35, 2.0]},
                "product_band": {"lambda": 2.0, "n_range": [128, 4096]},
            },
        )
        for command in ("spectrum-map", "point-test", "product-band"):
            out = tmp_path / f"{command}.json"
            assert run([command, "--config", cfg, "--out", out]) == 0, command
        chi = json.loads((tmp_path / "product-band.json").read_text())["result"]["chi"]
        assert chi == pytest.approx(0.7, rel=1e-3)

    def test_ideal_commands_on_a_100_entry_table(self, tmp_path):
        # the ideal preconditions used to probe to n = 4096
        cfg = write_cfg(
            tmp_path,
            {
                "a": {"family": "table", "params": {"values": [1.0 / k for k in range(1, 101)]}},
                "ideal_qnorm": {"snumbers": [2.0, 1.0, 0.5]},
                "ideal_axioms": {"trials": 30, "dim": 8},
            },
        )
        for command, key in (("ideal-qnorm", "qnorm_normalized"), ("ideal-axioms", "normalized")):
            out = tmp_path / f"{command}.json"
            assert run([command, "--config", cfg, "--out", out]) == 0, command
            assert json.loads(out.read_text())["result"][key] == "yes"

    def test_classify_past_a_table_end_still_fails(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"a": {"family": "table", "params": {"values": [1.0 / k for k in range(1, 101)]}}})
        assert run(["classify", "--config", cfg, "--out", tmp_path / "c.json"]) == 1
        assert capsys.readouterr().err.startswith("terraspec: error: index-out-of-range: table has 100 entries")


#: the keys of each report's result (of each entry where it is a list, the CSV header for
#: spectrum-map); a field added to a library record changes its report and fails here
REPORT_KEYS = {
    "classify": {"bounded", "compact", "norm", "sup_estimate", "method", "truncated", "criterion_samples"},
    "spectrum-map": {"re", "im", "label", "alpha", "alpha_chi", "dist_to_S", "a1", "a2"},
    "point-test": {"lambda", "point", "point_detail", "adjoint", "adjoint_detail", "label"},
    "resolvent-verify": {"lambda", "n", "tol", "left_residual", "right_residual", "max_residual", "passed"},
    "product-band": {"lambda", "chi", "exponent", "verdict", "log_log_slope", "band", "ratios"},
    "ideal-qnorm": {"value", "argmax_index", "truncation_N", "tail_status", "stype_member",
                    "ideal_ok", "closed_ok", "qnorm_normalized"},
    "ideal-axioms": {"trials", "dim", "normalized", "violations", "total_violations"},
}


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        grid = {"re_range": [-0.2, 1.2], "im_range": [-0.3, 0.3], "resolution": [5, 3]}
        for command, extra, suffix in [
            ("classify", {}, ".json"),
            ("spectrum-map", {"spectrum_map": {"grid": grid}}, ".csv"),
            ("point-test", {"point_test": {"lambdas": [0.5, [0.3, 0.1], 2.0, 0.0]}}, ".json"),
            ("resolvent-verify", {"resolvent_verify": {"lambda": [-0.6, 0.8], "n": 120}}, ".json"),
            ("product-band", {"product_band": {"lambda": [2.0, 0.5], "n_range": [64, 8192]}}, ".json"),
            ("ideal-qnorm", {"ideal_qnorm": {"section_n": 24}}, ".json"),
            ("ideal-axioms", {"ideal_axioms": {"trials": 10, "dim": 5}}, ".json"),
        ]:
            cfg = write_cfg(tmp_path, {**CESARO_CFG, **extra}, name=f"{command}.json")
            outputs = []
            for rerun in (1, 2):
                stem = tmp_path / f"{command}-{rerun}"
                args = [command, "--config", cfg, "--out", f"{stem}{suffix}"]
                if command == "product-band":
                    args += ["--csv", f"{stem}.csv"]
                assert run(args) == 0, command
                outputs.append([p.read_bytes() for p in sorted(tmp_path.glob(f"{command}-{rerun}.*"))])
            assert outputs[0] == outputs[1], command
            assert len(outputs[0]) == (2 if command == "product-band" else 1)
            report = outputs[0][-1].decode()
            if suffix == ".csv":
                assert set(report.split("\n")[1].split(",")) == REPORT_KEYS[command]
                continue
            payload = json.loads(report)
            assert set(payload) == {"version", "config_digest", "seed", "result"}
            result = payload["result"]
            for entry in result if isinstance(result, list) else [result]:
                assert set(entry) == REPORT_KEYS[command], command
            if command == "product-band":
                assert outputs[0][0].decode().split("\n")[1] == "n,ratio"

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, dict(CESARO_CFG, ideal_axioms={"trials": 5, "dim": 4}))
        out = tmp_path / "axioms.json"
        monkeypatch.setenv("TERRASPEC_SEED", "12345")
        assert run(["ideal-axioms", "--config", cfg, "--out", out]) == 0
        assert json.loads(out.read_text())["seed"] == 12345


def test_report_records_are_json_native():
    # reports hand these records to json.dumps as they are; a numpy or enum field would fail here, not in the CLI
    a, unit = cesaro_scaled(1.0), constant(1.0)
    snum = ideals.snumbers_from_section(terraced.build_section(a, 24), unit, unit)
    records = [
        terraced.classify_boundedness(a, unit, unit, 2000),
        spectrum.verify_resolvent(-0.6 + 0.8j, a, 60),
        products.ratio_band(a, 2.0 + 0.5j, 1.0, (64, 1024)),
        ideals.quasi_norm(snum, a, unit),
        ideals.ideal_preconditions(a, unit),
    ]
    for record in records:
        json.dumps(vars(record))
    assert json.dumps(ideals.stype_membership(snum, a, unit)) in ('"yes"', '"no"', '"inconclusive"')
    assert json.dumps(TriState.YES) == '"yes"'


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests' reference oracles alone
    src = str(Path(terraspec.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, terraspec, terraspec.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert child.stdout == "[]\n"
