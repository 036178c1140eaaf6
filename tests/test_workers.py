"""How the decode and format workers count their shares (``_workers.share_count``) and share them (``_workers.scatter``).

The protocol's failure kinds are tested one at a time.
"""

import os
import signal

import pytest
from conftest import count_forks, send_half
from hypothesis import given
from hypothesis import strategies as st

import tvd._workers

FAILING = 2


@given(st.integers(0, 1 << 22), st.integers(1, 64))
def test_each_share_holds_at_least_the_floor_and_work_below_twice_it_is_one_share(floats, cpus):
    floor = tvd._workers.SHARE_FLOATS
    count = tvd._workers.share_count(floats, cpus)
    assert 1 <= count <= cpus
    assert count == 1 or count * floor <= floats
    if floats < 2 * floor:
        assert count == 1
    # no fewer shares than the CPUs and the floor allow
    assert count == cpus or (count + 1) * floor > floats


def raising():
    raise RuntimeError("worker failed")


# what share 2's child does in its encode instead of answering, or sends instead of its answer
FAILURES = {"exits": lambda: os._exit(1), "raises": raising, "killed": lambda: os.kill(os.getpid(), signal.SIGKILL)}
SENDERS = {"short_header": lambda encode, share, fd: os.write(fd, b"\x01\x02"), "short_body": send_half}


def answer(share: int) -> bytes:
    # share 2's is longer than a pipe holds (64 KiB): its child blocks on the write until the caller reads
    return bytes([share]) * (1 << 22 if share == FAILING else 16)


def scattered(kind: str, monkeypatch) -> tuple[list[str], list[int]]:
    """What ``scatter`` did with shares 0 to 3, in order, when share 2's child fails as ``kind`` says; and its children."""
    done, forks = [], count_forks(monkeypatch)

    def encode(share):
        if share == FAILING and kind in FAILURES:
            FAILURES[kind]()
        return answer(share)

    def take(pipe, size):
        sent = pipe.read(size)
        if sent != answer(sent[0]):
            return False
        done.append(f"took {sent[0]}")
        return True

    tvd._workers.scatter([0, 1, 2, 3], lambda share: done.append(f"ran {share}"), encode, take)
    return done, forks


def test_each_child_answers_in_share_order(monkeypatch):
    done, forks = scattered("answers", monkeypatch)
    assert done == ["ran 0", "took 1", "took 2", "took 3"] and len(forks) == 3


@pytest.mark.parametrize("kind", ["exits", "raises", "killed", "short_header", "short_body"])
def test_a_share_whose_child_did_not_answer_is_run_by_the_caller_at_its_turn(kind, monkeypatch):
    if kind in SENDERS:
        real_send = tvd._workers._send
        monkeypatch.setattr(tvd._workers, "_send", lambda encode, share, fd: (
            SENDERS[kind] if share == FAILING else real_send)(encode, share, fd))
    done, forks = scattered(kind, monkeypatch)
    assert done == ["ran 0", "took 1", "ran 2", "took 3"] and len(forks) == 3


def test_shares_whose_child_never_started_are_run_by_the_caller(monkeypatch):
    monkeypatch.setattr(tvd._workers, "fork", lambda work: None)
    assert scattered("answers", monkeypatch) == (["ran 0", "ran 1", "ran 2", "ran 3"], [])


def test_a_child_writes_nothing_before_encode_returns():
    read_fd, write_fd = os.pipe()
    os.set_blocking(read_fd, False)

    def encode(share):
        # the pipe is still empty while the share is encoded
        with pytest.raises(BlockingIOError):
            os.read(read_fd, 1)
        return answer(share)

    try:
        tvd._workers._send(encode, 3, write_fd)
        sent = os.read(read_fd, 1 << 10)
    finally:
        os.close(read_fd)
    assert sent == (16).to_bytes(8, "little") + answer(3)
