import os
import resource
import subprocess
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
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


@pytest.fixture
def cli_child():
    """run(args, limit_mb): ``python -m monord.cli args`` in a child process
    whose address space RLIMIT_AS caps at ``limit_mb`` MB.  The limit is
    set in the child after the fork, so the test process keeps its own.
    Returns the CompletedProcess, with text stdout and stderr."""
    import monord
    src = str(Path(monord.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)

    def run(args, limit_mb, timeout=60):
        limit = limit_mb << 20

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        return subprocess.run(
            [sys.executable, "-m", "monord.cli", *map(str, args)],
            capture_output=True, text=True, env=env, preexec_fn=cap,
            timeout=timeout)

    return run
