#!/usr/bin/env python3
"""Write every CLI report of a fixed set of configs into one directory tree.

    PYTHONPATH=src python scripts/report_bytes.py OUTDIR

Runs all seven subcommands on each config below: spectrum-map once as
.json and once as .csv, product-band with --csv.  For each run
OUTDIR/<config>/ holds the report and CSV a run wrote (none when it
failed), <run>.exit with the exit code, and <run>.stderr with the error
text followed by one "Category: message" line per warning, so that the
file and source line a warning quotes do not enter the comparison.

Two trees made from two versions of the library (point PYTHONPATH at
each) compare with one `diff -r`; identical trees mean byte-identical
reports, exit codes and messages.  OUTDIR must not exist yet.
"""

import contextlib
import io
import json
import sys
import warnings
from pathlib import Path

from terraspec import cli

CONFIGS = {
    "readme": {  # the README example config with point_test and ideal_qnorm blocks added
        "a": {"family": "cesaro_scaled", "params": {"chi": 1.0}},
        "r": {"family": "constant", "params": {"value": 1.0}},
        "s": {"family": "constant", "params": {"value": 1.0}},
        "seed": 42,
        "n_max": 10000,
        "spectrum_map": {"grid": {"re_range": [-0.25, 1.25], "im_range": [-0.75, 0.75], "resolution": 41}},
        "point_test": {"lambdas": [0.5, [0.3, 0.1], 2.0, 0.0, [1.0, 0.0], -0.5]},
        "resolvent_verify": {"lambda": [2.0, 0.0], "n": 200, "tol": 1e-10},
        "product_band": {"lambda": [2.0, 0.0], "n_range": [128, 32768]},
        "ideal_qnorm": {"section_n": 64},
        "ideal_axioms": {"trials": 200, "dim": 8},
    },
    "power_weight": {
        "a": {"family": "cesaro_scaled", "params": {"chi": 1.0}},
        "r": {"family": "power_weight", "params": {"beta": 1.5}},
        "s": {"family": "power_weight", "params": {"beta": 1.5}},
        "seed": 7,
        "n_max": 4000,
        "spectrum_map": {"grid": {"re_range": [-0.2, 1.2], "im_range": [-0.3, 0.3], "resolution": [15, 7]}},
        "point_test": {"lambdas": [0.6, [0.45, 0.3], 2.0, 0.5]},
        "resolvent_verify": {"lambda": [-0.6, 0.8], "n": 120},
        "product_band": {"lambda": [2.0, 0.5], "n_range": [64, 8192]},
        "ideal_qnorm": {"section_n": 48},
        "ideal_axioms": {"trials": 40, "dim": 5},
    },
    "table_diagonal": {
        "a": {"family": "table", "params": {"values": [0.7 / (k + 0.5) for k in range(1, 5001)]}},
        "n_max": 5000,
        "spectrum_map": {"grid": {"re_range": [-0.2, 1.2], "im_range": [-0.2, 0.2], "resolution": 9}},
        "point_test": {"lambdas": [0.35, 2.0, [0.1, 0.1]]},
        "resolvent_verify": {"lambda": 2.0, "n": 100},
        "product_band": {"lambda": 2.0, "n_range": [128, 4096]},
        "ideal_qnorm": {"snumbers": [2.0, 1.0, 0.5, 0.25]},
        "ideal_axioms": {"trials": 30, "dim": 8},
    },
    "malformed": {
        "a": {"family": "cesaro_scaled", "params": {"chi": 1.0}},
        "n_max": 2000,
        "spectrum_map": {"grid": {"re_range": [0, 1], "im_range": [0, 1]}},
        "point_test": {"lambdas": "0.5"},
        "resolvent_verify": {"lambda": 2.0},
        "product_band": {"lambda": True},
        "ideal_qnorm": [0.5],
        "ideal_axioms": {"trials": "many"},
    },
    "overlong_lists": {
        "a": {"family": "cesaro_scaled", "params": {"chi": 1.0}},
        "n_max": 2000,
        "spectrum_map": {"grid": {"re_range": [-0.2, 1.2, 5.0], "im_range": [-0.3, 0.3], "resolution": [3, 2, 7]}},
        "product_band": {"lambda": 2.0, "n_range": [128, 1024, 7]},
    },
}

#: (run name, subcommand, report suffix, whether the run also writes --csv)
RUNS = [
    ("classify", "classify", ".json", False),
    ("spectrum-map", "spectrum-map", ".json", False),
    ("spectrum-map-csv", "spectrum-map", ".csv", False),
    ("point-test", "point-test", ".json", False),
    ("resolvent-verify", "resolvent-verify", ".json", False),
    ("product-band", "product-band", ".json", True),
    ("ideal-qnorm", "ideal-qnorm", ".json", False),
    ("ideal-axioms", "ideal-axioms", ".json", False),
]


def run(directory: Path, config: Path, name: str, command: str, suffix: str, with_csv: bool) -> None:
    argv = [command, "--config", str(config), "--out", str(directory / f"{name}{suffix}")]
    if with_csv:
        argv += ["--csv", str(directory / f"{name}.pairs.csv")]
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = cli.main(argv)
    lines = [f"{w.category.__name__}: {w.message}\n" for w in caught]
    (directory / f"{name}.exit").write_text(f"{code}\n")
    (directory / f"{name}.stderr").write_text(stderr.getvalue() + "".join(lines))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    root = Path(argv[0])
    try:
        root.mkdir(parents=True)
    except FileExistsError:
        print(f"{root} exists; give a new directory", file=sys.stderr)
        return 1
    for label, cfg in CONFIGS.items():
        directory = root / label
        directory.mkdir()
        config = directory / "config.json"
        config.write_text(json.dumps(cfg, indent=2) + "\n")
        for name, command, suffix, with_csv in RUNS:
            run(directory, config, name, command, suffix, with_csv)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
