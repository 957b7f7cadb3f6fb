"""The benchmark's tracer must still find every function and method it wraps.

``benchmark/tracing.py`` patches terraspec functions by name; a rename in the
package would otherwise surface only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

from terraspec import sequences

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("terraspec_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = _load_tracing()
    originals = {
        (mod.__name__, name): getattr(mod, name)
        for mod, names in tracing.SPANNED.values()
        for name in names
    }
    scaled = sequences.SequenceSpec.scaled
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod, names in tracing.SPANNED.values():
            for name in names:
                assert getattr(mod, name).__wrapped__ is originals[(mod.__name__, name)]
        assert sequences.SequenceSpec.scaled.__wrapped__ is scaled
    finally:
        tracer.uninstall()
    for mod, names in tracing.SPANNED.values():
        for name in names:
            assert getattr(mod, name) is originals[(mod.__name__, name)]
    assert sequences.SequenceSpec.scaled is scaled
    info = sequences._values_cached.cache_info()
    assert info.maxsize == 128
