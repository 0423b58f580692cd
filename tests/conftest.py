import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def memo_log(monkeypatch):
    """The (ideal, key) of every derived value an ideal computes from now
    on, in order: each entry is one run of a memoized computation."""
    from monord import hilbert, ideal

    log = []
    memo = ideal._memo

    def logged(e, key, compute):
        def run(e):
            log.append((e, key))
            return compute(e)
        return memo(e, key, run)

    for module in (ideal, hilbert):
        monkeypatch.setattr(module, "_memo", logged)
    return log


@pytest.fixture
def int_digit_limit():
    """Python's default int-string digit limit, in force for one test:
    monord.cli.main lifts the limit for the whole process."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-string digit limit")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)
