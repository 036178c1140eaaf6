import os

import pytest
from hypothesis import settings

import tvd._workers
from tvd.linalg import _MEMOS

# print_blob: a failure prints its @reproduce_failure line, since CI keeps no example database
settings.register_profile("numeric", deadline=None, max_examples=60, print_blob=True)
settings.load_profile("numeric")


def clear_memos() -> None:
    for memo in _MEMOS:
        memo.clear()


@pytest.fixture(autouse=True)
def cold_memos():
    """Start every test with empty memo tables, so no result depends on test order."""
    clear_memos()


def assert_no_children() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def reaped_children():
    """End every test with every child process it started reaped."""
    yield
    assert_no_children()


def count_forks(monkeypatch) -> list[int]:
    """The pids of the children ``os.fork`` starts from now on."""
    forks = []
    real_fork = os.fork

    def counting():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def usable_cpus(monkeypatch, cpus: int, floor: int | None = None) -> None:
    """Make the workers see ``cpus`` usable CPUs and, if given, cut shares of at least ``floor`` floats (``SHARE_FLOATS``).

    One CPU gives the serial path, which forks nothing.
    """
    monkeypatch.setattr(tvd._workers, "usable_cpus", lambda: cpus)
    if floor is not None:
        monkeypatch.setattr(tvd._workers, "SHARE_FLOATS", floor)


def send_half(encode, share, fd: int) -> None:
    """A worker child's body (``tvd._workers._send``) that stops half way through its answer."""
    answer = bytes(encode(share))
    os.write(fd, len(answer).to_bytes(8, "little") + answer[: len(answer) // 2])
