"""Forked workers: the one fork, pipe and reap path of the parse, decode and format workers.

The parse, decode and format workers share one protocol (``scatter``):
each child sends its answers through a pipe, one frame per item, and the
caller does itself whatever a child did not send. The decode and format
workers also share one share count (``share_count``). A child only
parses, decodes or formats: it never calls BLAS, whose threads fork did
not copy.
"""

from __future__ import annotations

import io
import os
import signal
from collections.abc import Callable, Sequence
from functools import partial
from typing import TypeVar

_Item = TypeVar("_Item")

# The fewest floats a decode or format share holds, so that its child pays for its fork,
# pipe and reap. On a 2-vCPU VM (in process, medians of 40 pairs alternating one usable
# CPU and two), decoding a shipped scenario took 0.3 to 0.6 ms alone and 4.1 to 5.9 ms
# with a child. Decoding broke even at about 23k floats and won from about 41k; formatting
# lost at about 10k floats and won from about 23k. Two shares of 1 << 14 floats, the
# fewest that fork, lie above both break-evens and below the 41k from which both won.
SHARE_FLOATS = 1 << 14


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 without ``os.fork``, which could not use more."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def share_count(floats: int, cpus: int) -> int:
    """The shares work on ``floats`` floats is cut into: one per CPU at most, each of ``SHARE_FLOATS`` floats or more."""
    return max(1, min(cpus, floats // SHARE_FLOATS))


def fork(work: Callable[[int], None]) -> tuple[int, io.BufferedReader] | None:
    """A forked child running ``work`` on the write end of a pipe, and the read end; None if no child started."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        # os._exit, so the child never flushes the caller's stdio buffers or runs its exit hooks
        try:
            os.close(read_fd)
            work(write_fd)
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _send(encode: Callable[[_Item], bytes | memoryview], items: list[_Item], fd: int) -> None:
    """Encode ``items`` in order, writing each answer to ``fd`` once it is whole, as a frame: its length (8 bytes, little-endian), then its bytes."""
    # nothing of an answer is written before encode returns: a pipe filled early would
    # hold the child until the caller, busy with an item of its own, came to read
    with open(fd, "wb") as pipe:
        for item in items:
            answer = encode(item)
            pipe.write(len(answer).to_bytes(8, "little"))
            pipe.write(answer)
            pipe.flush()


def scatter(items: Sequence[_Item], owners: Sequence[int], run: Callable[[_Item], None],
            encode: Callable[[_Item], bytes | memoryview], decode: Callable[[io.BufferedReader, int], bool]) -> None:
    """Handle ``items`` in order: ``run`` here each one whose owner is 0, and take each other one from its owner's forked child.

    Child ``k`` sends the ``encode`` of each item whose owner is ``k``, in
    order (``_send``), and each frame goes to ``decode(pipe, size)``, which
    returns False, keeping nothing, if the pipe ends before ``size`` bytes.
    A full pipe holds a child until this process reads. An item whose child
    did not start, failed, died or sent a short header or body is ``run``
    here at its turn, and so is every later item of that child, so the
    outcome is that of one process. Every pipe is closed and every child
    killed and reaped before the call returns, whatever ends it: a child
    still working for a caller that has stopped reading is not waited for.
    """
    children: list[tuple[int, io.BufferedReader]] = []
    pipes: dict[int, io.BufferedReader] = {}
    try:
        for owner in sorted(set(owners) - {0}):
            child = fork(partial(_send, encode, [item for item, k in zip(items, owners) if k == owner]))
            if child is not None:
                children.append(child)
                pipes[owner] = child[1]
        for item, owner in zip(items, owners):
            pipe = pipes.get(owner)
            header = pipe.read(8) if pipe is not None else b""
            # a frame cut short ends its pipe, so the child's later items are run here too
            if len(header) < 8 or not decode(pipe, int.from_bytes(header, "little")):
                run(item)
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
