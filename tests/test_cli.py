import json
import math

import pytest

from terraspec.cli import main

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


class TestConfigCoercion:
    def test_non_finite_lambdas(self, tmp_path, capsys):
        for lam in (float("nan"), float("inf"), [0.5, float("nan")]):
            cfg = write_cfg(tmp_path, {**CESARO_CFG, "point_test": {"lambdas": [lam]}})
            assert run(["point-test", "--config", cfg, "--out", tmp_path / "x.json"]) == 1
            assert "terraspec: error: lambda-not-finite" in capsys.readouterr().err

    def test_bad_chi(self, tmp_path, capsys):
        for chi in ("x", float("nan"), float("inf")):
            cfg = write_cfg(tmp_path, {**CESARO_CFG, "chi": chi, "point_test": {"lambdas": [0.5]}})
            assert run(["point-test", "--config", cfg, "--out", tmp_path / "x.json"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("terraspec: error: ") and "chi" in err

    def test_bad_numbers(self, tmp_path, capsys):
        cases = [
            ("resolvent-verify", {"resolvent_verify": {"lambda": 2.0, "n": "x"}}),
            ("resolvent-verify", {"resolvent_verify": {"lambda": ["x", 0.0], "n": 10}}),
            ("product-band", {"product_band": {"lambda": 2.0, "n_range": ["a", 64]}}),
            ("product-band", {"product_band": {"lambda": 2.0, "exponent": "e"}}),
            ("spectrum-map", {"spectrum_map": {"grid": {"re_range": [0, 1], "im_range": [0, 1], "resolution": "ab"}}}),
            ("ideal-qnorm", {"ideal_qnorm": {"snumbers": [1.0, "x"]}}),
            ("ideal-axioms", {"ideal_axioms": {"trials": "many"}}),
        ]
        for command, block in cases:
            cfg = write_cfg(tmp_path, {**CESARO_CFG, **block})
            assert run([command, "--config", cfg, "--out", tmp_path / "x.json"]) == 1
            assert "terraspec: error: " in capsys.readouterr().err


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "command,block",
        [
            ("resolvent-verify", lambda x: {"resolvent_verify": {"lambda": 2.0, "n": 10, "tol": x}}),
            ("product-band", lambda x: {"product_band": {"lambda": 2.0, "exponent": x}}),
            ("ideal-qnorm", lambda x: {"ideal_qnorm": {"snumbers": [1.0, x]}}),
        ],
        ids=["tol", "exponent", "snumbers"],
    )
    def test_non_finite_floats(self, tmp_path, capsys, command, block, bad):
        cfg = write_cfg(tmp_path, {**CESARO_CFG, **block(bad)})
        assert run([command, "--config", cfg, "--out", tmp_path / "x.json"]) == 1
        assert "must be finite" in capsys.readouterr().err

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
            ("resolvent-verify", lambda v: {"resolvent_verify": {"lambda": 2.0, "n": v}}),
            ("ideal-qnorm", lambda v: {"ideal_qnorm": {"section_n": v}}),
            ("ideal-axioms", lambda v: {"ideal_axioms": {"trials": v}}),
            ("ideal-axioms", lambda v: {"ideal_axioms": {"dim": v}}),
            ("product-band", lambda v: {"product_band": {"lambda": 2.0, "n_range": [v, 256]}}),
            ("spectrum-map", lambda v: {"spectrum_map": {"grid": {"re_range": [0, 1], "im_range": [0, 1],
                                                                  "resolution": v}}}),
        ],
        ids=["n_max", "n", "section_n", "trials", "dim", "n_range", "resolution"],
    )
    def test_integer_fields(self, tmp_path, capsys, command, block, bad):
        cfg = write_cfg(tmp_path, {**CESARO_CFG, **block(bad)})
        assert run([command, "--config", cfg, "--out", tmp_path / "x.json"]) == 1
        assert "must be an integer" in capsys.readouterr().err

    def test_integral_float_is_an_integer(self, tmp_path):
        cfg = write_cfg(tmp_path, {**CESARO_CFG, "n_max": 2000.0})
        out = tmp_path / "report.json"
        assert run(["classify", "--config", cfg, "--out", out]) == 0
        assert json.loads(out.read_text())["result"]["criterion_samples"][-1][0] == 2000


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

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, dict(CESARO_CFG, ideal_axioms={"trials": 5, "dim": 4}))
        out = tmp_path / "axioms.json"
        monkeypatch.setenv("TERRASPEC_SEED", "12345")
        assert run(["ideal-axioms", "--config", cfg, "--out", out]) == 0
        assert json.loads(out.read_text())["seed"] == 12345
