import pytest

from terraspec.sequences import SequenceSpec


@pytest.fixture
def scalar_calls(monkeypatch):
    """The names of the scalar SequenceSpec evaluations made while the test runs, in call order."""
    calls = []
    for name in ("scaled", "log_value", "value"):
        orig = getattr(SequenceSpec, name)

        def counted(self, *args, _orig=orig, _name=name):
            calls.append(_name)
            return _orig(self, *args)

        monkeypatch.setattr(SequenceSpec, name, counted)
    return calls
