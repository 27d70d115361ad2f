"""Fixtures shared by the test modules."""

import os

import pytest

from sddeimpulse import simulate


@pytest.fixture
def forking(monkeypatch):
    """force(cores, floor) makes the fork sites see `cores` usable cores
    and fork path ranges down to `floor` paths per worker, a policy run's
    included; it returns the pids forked so far.  After the test, no child
    of this process is left."""
    forked, real_fork = [], os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    def force(cores, floor=1):
        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: cores)
        monkeypatch.setattr(simulate, "FORK_PATHS", floor)
        monkeypatch.setattr(simulate, "POLICY_PATHS", floor)
        return forked

    yield force
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
