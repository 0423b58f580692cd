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
