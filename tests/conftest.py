"""A time limit per test, so a test that never returns fails instead of hanging the run.

This file holds only the autouse fixture below.  Import nothing from it:
``bench/conftest.py`` has the same module name.
"""

import signal

import pytest

LIMIT_S = 60  # the slowest test takes under 2 s


@pytest.fixture(autouse=True)
def time_limit():
    if not hasattr(signal, "SIGALRM"):  # not on Windows
        yield
        return

    def expire(signum, frame):
        # pytest.fail raises a BaseException, so no `except Exception` under test hides it
        pytest.fail(f"test still running after {LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
