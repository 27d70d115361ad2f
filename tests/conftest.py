"""Fixtures shared by the test modules."""

import os

import pytest

from sddeimpulse import simulate


@pytest.fixture
def forking(monkeypatch):
    """force(cores, floor, entries) makes the fork sites see `cores` usable
    cores and fork path ranges down to `floor` paths per worker, and, given
    `entries`, value tables (the grid solve's and solve's side-by-side
    save) down to that many entries; it returns the pids forked so far.  After the test, no child of this process is
    left."""
    forked, real_fork = [], os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    def force(cores, floor=1, entries=None):
        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(simulate, "_usable_cores", lambda: cores)
        monkeypatch.setattr(simulate, "FORK_PATHS", floor)
        if entries is not None:
            monkeypatch.setattr(simulate, "FORK_ENTRIES", entries)
        return forked

    yield force
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
