#!/usr/bin/env python3
"""Median wall time of each library layer at the fixed sizes of the ROADMAP baseline table.

Every run starts from a cold values cache.  The pseudospectrum rows time a
terraced Cesaro section (chi = 1) on the grid Re in [-0.25, 1.25],
Im in [-0.45, 0.45]; the peak RSS of the 21x21 grid at N = 200 is read
from a fresh child process that imports terraspec and makes that one call.
The cold-import row times fresh children that import terraspec and its CLI
and exit.  The two spectrum-map rows run the README example's a, s, n_max and
grid, chi given, through an in-process ``cli.main`` and write the 41x41 map
as .json and as .csv into a temporary directory.

    PYTHONPATH=src python scripts/layer_timings.py [--repeats 5]
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from terraspec import cli, ideals, products, sequences, spectrum, terraced

CESARO = sequences.cesaro_scaled(1.0)
UNIT = sequences.constant(1.0)
PORTRAIT_GRID = spectrum.GridSpec((-0.25, 1.25), (-0.75, 0.75), (41, 41))
README_MAP_CONFIG = {
    "a": {"family": "cesaro_scaled", "params": {"chi": 1.0}},
    "s": {"family": "constant", "params": {"value": 1.0}},
    "chi": 1.0,
    "seed": 42,
    "n_max": 10000,
    "spectrum_map": {"grid": {"re_range": [-0.25, 1.25], "im_range": [-0.75, 0.75], "resolution": 41}},
}


def pseudo_grid(nodes: int) -> spectrum.GridSpec:
    return spectrum.GridSpec((-0.25, 1.25), (-0.45, 0.45), (nodes, nodes))


def pseudospectrum(n: int, nodes: int):
    sec = terraced.build_section(CESARO, n)
    return lambda: spectrum.pseudospectrum_grid(sec, pseudo_grid(nodes), [1e-3, 1e-2, 1e-1])


LAYERS = [
    ("cold import terraspec, terraspec.cli (fresh child)",
     lambda: subprocess.run([sys.executable, "-c", "import terraspec, terraspec.cli"], check=True)),
    ("classify_boundedness Cesaro, n_max = 1e6",
     lambda: terraced.classify_boundedness(CESARO, UNIT, UNIT, 10**6)),
    ("classify_boundedness 1/log(n+1) vs geometric(0.5), n_max = 1e6",
     lambda: terraced.classify_boundedness(sequences.log_reciprocal(), sequences.geometric(0.5),
                                           sequences.geometric(0.5), 10**6)),
    ("classify_point, one lambda", lambda: spectrum.classify_point(0.3 + 0.2j, CESARO, UNIT, 1.0)),
    ("spectrum_grid 41x41", lambda: spectrum.spectrum_grid(CESARO, UNIT, 1.0, PORTRAIT_GRID)),
    ("resolvent_section N = 2000, real lambda", lambda: spectrum.resolvent_section(2.0, CESARO, 2000)),
    ("resolvent_section N = 2000, complex lambda",
     lambda: spectrum.resolvent_section(0.3 + 0.4j, CESARO, 2000)),
    ("verify_resolvent N = 1000", lambda: spectrum.verify_resolvent(0.3 + 0.4j, CESARO, 1000)),
    ("ratio_band n = 128..2^20", lambda: products.ratio_band(CESARO, 2.0, 1.0, (128, 2**20))),
    ("pseudospectrum_grid 3x3 nodes, N = 64 (sections warm-up shape)", pseudospectrum(64, 3)),
    ("pseudospectrum_grid 4x4 nodes, N = 175", pseudospectrum(175, 4)),
    ("pseudospectrum_grid 21x21 nodes, N = 200", pseudospectrum(200, 21)),
    ("check_quasinorm_axioms 200 trials x dim 8",
     lambda: ideals.check_quasinorm_axioms(200, 8, CESARO, UNIT, seed=42)),
    ("apply with build_section N = 4000",
     lambda: terraced.apply(terraced.build_section(CESARO, 4000), np.ones(4000))),
]


def spectrum_map_layers(tmp: str) -> list:
    """The README 41x41 spectrum-map through cli.main, once written as .json and once as .csv."""
    config = Path(tmp, "readme.json")
    config.write_text(json.dumps(README_MAP_CONFIG))
    return [
        (f"cli spectrum-map 41x41 README grid, chi given, {suffix}",
         lambda out=str(Path(tmp, "map" + suffix)): cli.main(["spectrum-map", "--config", str(config), "--out", out]))
        for suffix in (".json", ".csv")
    ]


def median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        sequences._values_cached.cache_clear()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def rss_child() -> int:
    """Print the peak RSS (MiB) after imports and after one 21x21 grid at N = 200."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pseudospectrum(200, 21)()
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{before:.1f} {after:.1f}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=5, help="runs per layer; the median is printed")
    ap.add_argument("--rss-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.rss_child:
        return rss_child()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    # first: Linux keeps a process's peak RSS across fork and exec, so the child
    # starts from this process's peak, which is still its import footprint here
    child = subprocess.run([sys.executable, __file__, "--rss-child"], capture_output=True, text=True, check=True)
    before, after = child.stdout.split()
    with tempfile.TemporaryDirectory() as tmp:
        layers = LAYERS + spectrum_map_layers(tmp)
        width = max(len(name) for name, _ in layers)
        for name, fn in layers:
            print(f"{name:<{width}}  {median_ms(fn, args.repeats):9.1f} ms", flush=True)
    print(f"{'peak RSS, pseudospectrum_grid 21x21 nodes, N = 200':<{width}}  {after:>9} MiB "
          f"({before} MiB after imports)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
