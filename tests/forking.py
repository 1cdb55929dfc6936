"""Helpers for tests that fork: a deadline, and a check that no child is left."""

from __future__ import annotations

import contextlib
import os
import signal

import pytest

DEADLINE_S = 60


@contextlib.contextmanager
def deadline(seconds: float = DEADLINE_S):
    """Raise TimeoutError in the body after seconds, so a hung child fails its test."""

    def expire(signum, frame):
        raise TimeoutError(f"test exceeded its {seconds} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
