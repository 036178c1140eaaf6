"""The one worker protocol (``_workers.scatter``), which the parse, decode and format workers share, and how the decode and format workers count their shares (``_workers.share_count``).

The protocol's failure kinds are tested here, one at a time; each worker
kind keeps one fallback pin of its own.
"""

import os
import signal

import pytest
from conftest import count_forks
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


# what a child does, on the pipe it writes to, in place of the failing item's answer: the
# first three end it in encode, the last two send a short frame and stop
FAILURES = {
    "exits": lambda fd, answer: os._exit(1),
    "raises": lambda fd, answer: raising(),
    "killed": lambda fd, answer: os.kill(os.getpid(), signal.SIGKILL),
    "short_header": lambda fd, answer: os.write(fd, b"\x01\x02"),
    "short_body": lambda fd, answer: os.write(fd, len(answer).to_bytes(8, "little") + answer[: len(answer) // 2]),
}
# items 1 and 4 go to child 1, items 2 and 5 to child 2, the others are run here
OWNERS = [0, 1, 2, 0, 1, 2]


def answer(item: int) -> bytes:
    # item 2's is longer than a pipe holds (64 KiB): its child blocks on the write until the caller reads
    return bytes([item]) * (1 << 22 if item == 2 else 16)


def scattered(monkeypatch, kind: str = "answers", failing: int = -1) -> tuple[list[str], list[int]]:
    """What ``scatter`` did with items 0 to 5, in order, when the child of item ``failing`` fails there as ``kind`` says; and its children."""
    done, forks = [], count_forks(monkeypatch)
    real_send = tvd._workers._send

    def sending(encode, items, fd):
        def failing_encode(item):
            if item == failing:
                FAILURES[kind](fd, answer(item))
                os._exit(0)
            return encode(item)

        real_send(failing_encode, items, fd)

    def take(pipe, size):
        sent = pipe.read(size)
        if sent != answer(sent[0]):
            return False
        done.append(f"took {sent[0]}")
        return True

    monkeypatch.setattr(tvd._workers, "_send", sending)
    tvd._workers.scatter(range(6), OWNERS, lambda item: done.append(f"ran {item}"), answer, take)
    return done, forks


def test_each_child_answers_its_items_in_order(monkeypatch):
    done, forks = scattered(monkeypatch)
    assert done == ["ran 0", "took 1", "took 2", "ran 3", "took 4", "took 5"] and len(forks) == 2


@pytest.mark.parametrize("kind", sorted(FAILURES))
@pytest.mark.parametrize("failing", [2, 5])
def test_items_a_child_did_not_answer_are_run_by_the_caller_each_at_its_turn(kind, failing, monkeypatch):
    done, forks = scattered(monkeypatch, kind, failing)
    # child 2 sends nothing after the item it failed on, so the caller runs its later items too
    child_2 = ["ran 2", "ran 5"] if failing == 2 else ["took 2", "ran 5"]
    assert done == ["ran 0", "took 1", child_2[0], "ran 3", "took 4", child_2[1]] and len(forks) == 2


def test_items_whose_child_never_started_are_run_by_the_caller(monkeypatch):
    monkeypatch.setattr(tvd._workers, "fork", lambda work: None)
    assert scattered(monkeypatch) == ([f"ran {item}" for item in range(6)], [])


def test_a_child_writes_each_frame_whole_before_it_encodes_the_next_item():
    read_fd, write_fd = os.pipe()
    os.set_blocking(read_fd, False)

    def pending() -> bytes:
        try:
            return os.read(read_fd, 1 << 10)
        except BlockingIOError:
            return b""

    waiting = []

    def encode(item):
        # what the pipe holds when each item's encoding starts
        waiting.append(pending())
        return answer(item)

    try:
        tvd._workers._send(encode, [3, 4], write_fd)
        waiting.append(pending())
    finally:
        os.close(read_fd)
    frames = [len(answer(item)).to_bytes(8, "little") + answer(item) for item in (3, 4)]
    assert waiting == [b"", frames[0], frames[1]]
