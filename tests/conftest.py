import pytest

from terraspec.sequences import SequenceSpec


@pytest.fixture
def call_log(monkeypatch):
    """call_log(owner, *names): record every call to the named attributes of a module or class.

    Returns a list that receives (name, args) per call, in call order; for
    a class the instance is left out of args.  The originals come back when
    the test ends.
    """

    def install(owner, *names):
        calls = []
        skip = 1 if isinstance(owner, type) else 0
        for name in names:
            orig = getattr(owner, name)

            def counted(*args, _orig=orig, _name=name, **kwargs):
                calls.append((_name, args[skip:]))
                return _orig(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        return calls

    return install


@pytest.fixture
def scalar_calls(call_log):
    """The scalar SequenceSpec evaluations made while the test runs, in call order."""
    return call_log(SequenceSpec, "scaled", "log_value", "value")
