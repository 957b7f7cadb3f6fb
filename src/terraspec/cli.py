"""Command-line interface: one subcommand per analysis surface.

Subcommands: classify, spectrum-map, point-test, resolvent-verify,
product-band, ideal-qnorm, ideal-axioms.  Every command reads a single
JSON config (--config), writes a machine-readable report (--out), and
embeds the config digest and tool version in the output.  Identical
config + seed reproduces byte-identical files; TERRASPEC_SEED overrides
the config seed.

Exit codes: 0 pass/decisive, 1 usage or config error, 2 inconclusive,
3 assertion failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

from . import __version__, ideals, products, sequences, spectrum, terraced
from .errors import TerraspecError
from .numerics import TriState

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2
EXIT_FAILED = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_report(path: str, cfg: dict, digest: str, result) -> None:
    """The JSON report: tool version, config digest and effective seed around one result.

    result holds JSON values only: a TriState is a str, a lambda is written as [re, im].
    """
    payload = {"version": __version__, "config_digest": digest, "seed": _effective_seed(cfg), "result": result}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _write_csv(path: str, cfg: dict, digest: str, header: list[str], rows) -> None:
    """A CSV report: one '#' line with the same metadata as _write_report, the header, the rows."""
    lines = [f"# terraspec {__version__} config_digest={digest} seed={_effective_seed(cfg)}", ",".join(header)]
    lines += [",".join(row) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class ConfigError(Exception):
    pass


def _load_config(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg, digest


def _effective_seed(cfg: dict) -> int:
    env = os.environ.get("TERRASPEC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"TERRASPEC_SEED must be an integer, got {env!r}") from exc
    return _integer(cfg.get("seed", 0), "seed")


def _number(convert, value, name: str):
    """convert(value) for a config entry; a value it cannot take is a config error."""
    try:
        return convert(value)
    except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name}: {value!r}") from exc


def _finite_float(value, name: str) -> float:
    """A JSON number as a float; a bool, a string, NaN or an infinity is a config error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    x = _number(float, value, name)
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return x


def _integer(value, name: str) -> int:
    """A JSON integer or an integral float; a bool, a fraction or a string is a config error."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _pair(value, name: str, convert) -> tuple:
    """A config list of exactly two entries, each through convert(entry, name); any other value is a config error."""
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{name} must be a list of two entries, got {value!r}")
    return tuple(convert(v, name) for v in value)


def _sequence(cfg: dict, key: str, default=None) -> sequences.SequenceSpec:
    if key not in cfg:
        if default is not None:
            return default
        raise ConfigError(f"config needs sequence {key!r}")
    try:
        return sequences.from_json(cfg[key])
    except TerraspecError as exc:
        raise ConfigError(f"bad sequence {key!r}: {exc}") from exc


def _chi(cfg: dict, a: sequences.SequenceSpec) -> float:
    if "chi" in cfg:
        chi = _finite_float(cfg["chi"], "chi")
        if chi <= 0:
            raise ConfigError("chi must be positive and finite")
        return chi
    try:
        return sequences.estimate_chi(a).chi
    except TerraspecError as exc:
        raise ConfigError(f"chi could not be estimated: {exc}") from exc


def _lambda(value) -> complex:
    """A JSON number or an [re, im] pair of numbers; a bool, a string or another shape is a config error."""
    parts = value if isinstance(value, list) and len(value) == 2 else [value, 0.0]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in parts):
        raise ConfigError(f"lambda must be a number or [re, im], got {value!r}")
    return _number(lambda p: complex(float(p[0]), float(p[1])), parts, "lambda")


def _block(cfg: dict, name: str) -> dict:
    """The subcommand block cfg[name] ({} when absent); anything but a JSON object is a config error."""
    block = cfg.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be a JSON object, got {block!r}")
    return block


def _n_max(cfg: dict, default: int = 10000) -> int:
    n = _integer(cfg.get("n_max", default), "n_max")
    if n < 1:
        raise ConfigError("n_max must be a positive integer")
    return n


def cmd_classify(cfg: dict, digest: str, out: str) -> int:
    a = _sequence(cfg, "a")
    r = _sequence(cfg, "r", sequences.constant(1.0))
    s = _sequence(cfg, "s", sequences.constant(1.0))
    report = terraced.classify_boundedness(a, r, s, _n_max(cfg))
    _write_report(out, cfg, digest, vars(report))
    decisive = TriState.INCONCLUSIVE not in (report.bounded, report.compact)
    return EXIT_OK if decisive else EXIT_INCONCLUSIVE


def _grid_from_cfg(block: dict) -> spectrum.GridSpec:
    try:
        re_range = _pair(block["re_range"], "spectrum_map.grid.re_range", _finite_float)
        im_range = _pair(block["im_range"], "spectrum_map.grid.im_range", _finite_float)
        res = block["resolution"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad grid block: {exc}") from exc
    name = "spectrum_map.grid.resolution"
    res = _pair(res, name, _integer) if isinstance(res, list) else (_integer(res, name),) * 2
    try:
        return spectrum.GridSpec(re_range, im_range, res)
    except TerraspecError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_spectrum_map(cfg: dict, digest: str, out: str) -> int:
    a = _sequence(cfg, "a")
    s = _sequence(cfg, "s", sequences.constant(1.0))
    chi = _chi(cfg, a)
    block = _block(cfg, "spectrum_map")
    if "grid" not in block:
        raise ConfigError("spectrum-map needs spectrum_map.grid")
    grid = _grid_from_cfg(block["grid"])
    # one row per grid point in CSV column order; the JSON entry keeps re and im as one "lambda" pair
    columns = ["re", "im", "label", "alpha", "alpha_chi", "dist_to_S", "a1", "a2"]
    rows = [
        [pt.lam.real, pt.lam.imag, pt.label.value, ev.alpha, ev.alpha_chi, ev.dist_to_S, ev.a1, ev.a2]
        for pt in spectrum.spectrum_grid(a, s, chi, grid, n_max=_n_max(cfg))
        for ev in (pt.evidence,)
    ]
    if out.endswith(".json"):
        _write_report(out, cfg, digest, [{"lambda": row[:2], **dict(zip(columns[2:], row[2:]))} for row in rows])
    else:
        _write_csv(out, cfg, digest, columns, [  # format(v, ".17g") is _fmt(v) without a call per cell
            ["nan" if v is None else v if isinstance(v, str) else format(v, ".17g") for v in row] for row in rows
        ])
    return EXIT_OK


def cmd_point_test(cfg: dict, digest: str, out: str) -> int:
    a = _sequence(cfg, "a")
    s = _sequence(cfg, "s", sequences.constant(1.0))
    chi = _chi(cfg, a)
    block = _block(cfg, "point_test")
    lambdas = block.get("lambdas")
    if not lambdas:
        raise ConfigError("point-test needs point_test.lambdas")
    if not isinstance(lambdas, list):
        raise ConfigError(f"point_test.lambdas must be a list, got {lambdas!r}")
    n_max = _n_max(cfg)
    lams = [_lambda(raw) for raw in lambdas]
    results = []
    inconclusive = False
    for pt in spectrum.classify_points(lams, a, s, chi, n_max=n_max):
        point, adjoint = spectrum.point_tests(pt)
        inconclusive |= TriState.INCONCLUSIVE in (point.outcome, adjoint.outcome)
        results.append(
            {
                "lambda": [pt.lam.real, pt.lam.imag],
                "point": point.outcome,
                "point_detail": point.detail,
                "adjoint": adjoint.outcome,
                "adjoint_detail": adjoint.detail,
                "label": pt.label.value,
            }
        )
    _write_report(out, cfg, digest, results)
    return EXIT_INCONCLUSIVE if inconclusive else EXIT_OK


def cmd_resolvent_verify(cfg: dict, digest: str, out: str) -> int:
    a = _sequence(cfg, "a")
    block = _block(cfg, "resolvent_verify")
    if "lambda" not in block or "n" not in block:
        raise ConfigError("resolvent-verify needs resolvent_verify.lambda and .n")
    lam = _lambda(block["lambda"])
    n = _integer(block["n"], "resolvent_verify.n")
    tol = _finite_float(block.get("tol", 1e-10), "resolvent_verify.tol")
    check = spectrum.verify_resolvent(lam, a, n, tol)
    _write_report(out, cfg, digest, {"lambda": [lam.real, lam.imag], "n": n, **vars(check)})
    return EXIT_OK if check.passed else EXIT_FAILED


def cmd_product_band(cfg: dict, digest: str, out: str, csv_out: str | None = None) -> int:
    a = _sequence(cfg, "a")
    chi = _chi(cfg, a)
    block = _block(cfg, "product_band")
    if "lambda" not in block:
        raise ConfigError("product-band needs product_band.lambda")
    lam = _lambda(block["lambda"])
    n_range = _pair(block.get("n_range", [128, 32768]), "product_band.n_range", _integer)
    exponent = block.get("exponent")
    report = products.ratio_band(
        a, lam, chi, n_range,
        exponent=None if exponent is None else _finite_float(exponent, "product_band.exponent"),
    )
    _write_report(out, cfg, digest, {"lambda": [lam.real, lam.imag], "chi": chi, **vars(report)})
    if csv_out:
        _write_csv(csv_out, cfg, digest, ["n", "ratio"], [[str(n), _fmt(v)] for n, v in report.ratios])
    if report.verdict == "bounded_band":
        return EXIT_OK
    if report.verdict == "degenerate":
        return EXIT_INCONCLUSIVE
    return EXIT_FAILED


def cmd_ideal_qnorm(cfg: dict, digest: str, out: str) -> int:
    a = _sequence(cfg, "a")
    r = _sequence(cfg, "r", sequences.constant(1.0))
    block = _block(cfg, "ideal_qnorm")
    if "snumbers" in block:
        name = "ideal_qnorm.snumbers"
        values = _number(lambda vs: tuple(_finite_float(v, name) for v in vs), block["snumbers"], name)
        snum = ideals.SNumberSequence(values, "user")
    elif "section_n" in block:
        n = _integer(block["section_n"], "ideal_qnorm.section_n")
        terraced.check_dense_cap(n)  # before the dense n x n build, not after it
        sec = terraced.build_section(a, n)
        s_w = _sequence(cfg, "s", sequences.constant(1.0))
        snum = ideals.snumbers_from_section(sec, r, s_w)
    else:
        raise ConfigError("ideal-qnorm needs ideal_qnorm.snumbers or .section_n")
    result = ideals.quasi_norm(snum, a, r)
    flags = ideals.ideal_preconditions(a, r)
    membership = ideals.stype_membership(snum, a, r)
    _write_report(out, cfg, digest, {**vars(result), "stype_member": membership, **vars(flags)})
    return EXIT_INCONCLUSIVE if membership is TriState.INCONCLUSIVE else EXIT_OK


def cmd_ideal_axioms(cfg: dict, digest: str, out: str) -> int:
    a = _sequence(cfg, "a")
    r = _sequence(cfg, "r", sequences.constant(1.0))
    block = _block(cfg, "ideal_axioms")
    trials = _integer(block.get("trials", 200), "ideal_axioms.trials")
    dim = _integer(block.get("dim", 8), "ideal_axioms.dim")
    report = ideals.check_quasinorm_axioms(trials, dim, a, r, seed=_effective_seed(cfg))
    _write_report(out, cfg, digest, {
        "trials": report.trials,
        "dim": report.dim,
        "normalized": report.normalized,
        "violations": report.violations,
        "total_violations": report.total_violations,
    })
    return EXIT_OK if report.total_violations == 0 else EXIT_FAILED


_COMMANDS = {
    "classify": cmd_classify,
    "spectrum-map": cmd_spectrum_map,
    "point-test": cmd_point_test,
    "resolvent-verify": cmd_resolvent_verify,
    "product-band": cmd_product_band,
    "ideal-qnorm": cmd_ideal_qnorm,
    "ideal-axioms": cmd_ideal_axioms,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="terraspec",
        description="Spectral numerics for terraced operators on weighted c0 spaces.",
    )
    parser.add_argument("--version", action="version", version=f"terraspec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", required=True, help="output report path")
        if name == "product-band":
            p.add_argument("--csv", default=None, help="also write (n, ratio) pairs as CSV")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, digest = _load_config(args.config)
        if args.command == "product-band":
            return cmd_product_band(cfg, digest, args.out, args.csv)
        return _COMMANDS[args.command](cfg, digest, args.out)
    except (ConfigError, TerraspecError) as exc:
        print(f"terraspec: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
