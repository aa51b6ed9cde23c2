import collections
import os

import numpy as np
import pytest
from hypothesis import settings

from ghzsense.qfim import _clear_ring_memos

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a property
# that fails in CI fails the same way locally; example counts are unchanged.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

_ACCEPTANCE_LINES = []


@pytest.fixture(autouse=True)
def fresh_ring_memos():
    """Start every test with no ring geometry memoized.

    Charts and reparametrizations are shared per ring size, so without this
    the factorization counts a test sees would depend on which tests ran
    before it.
    """
    _clear_ring_memos()


@pytest.fixture
def linalg_calls(monkeypatch):
    """``linalg_calls(*names)`` counts later calls of those ``np.linalg`` functions.

    Returns a Counter keyed by function name; the patches end with the test.
    """

    def count(*names):
        calls = collections.Counter()
        for name in names:
            original = getattr(np.linalg, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        return calls

    return count


@pytest.fixture
def acceptance_report():
    """Record one PASS/FAIL line per acceptance criterion.

    The line is printed immediately (visible on failure or with -s) and
    echoed in a terminal summary section so a plain ``pytest -v`` run shows
    every criterion verdict.
    """

    def emit(number: int, ok: bool, detail: str) -> None:
        line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
        print(line)
        _ACCEPTANCE_LINES.append(line)
        assert ok, line

    return emit


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
