"""Forked workers: the one fork, pipe and reap path for the parse, decode and format workers.

The decode and format workers share one protocol (``scatter``) and one
share count (``share_count``); the parse workers stream their own
(``cli._parse_workers``). A child only parses, decodes or formats: it
never calls BLAS, whose threads fork did not copy.
"""

from __future__ import annotations

import contextlib
import io
import os
import signal
from collections.abc import Callable, Iterator
from functools import partial
from typing import TypeVar

_Share = TypeVar("_Share")

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


@contextlib.contextmanager
def forked(works: list[Callable[[int], None]]) -> Iterator[list[io.BufferedReader | None]]:
    """Yield the pipe each of ``works`` sends through from its own forked child (``fork``), or None where none started.

    Every pipe is closed and every child killed and reaped on the way out,
    whatever ends the block: a child still working for a caller that has
    stopped reading is not waited for.
    """
    children: list[tuple[int, io.BufferedReader] | None] = []
    try:
        for work in works:
            children.append(fork(work))
        yield [child[1] if child else None for child in children]
    finally:
        for pid, pipe in filter(None, children):
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _send(encode: Callable[[_Share], bytes | memoryview], share: _Share, fd: int) -> None:
    """Encode ``share`` in full, then write the answer's length (8 bytes, little-endian) and bytes to ``fd``."""
    # nothing is written before encode returns: a pipe filled early would hold
    # the child until the caller, busy with its own share, came to read
    answer = encode(share)
    with open(fd, "wb") as pipe:
        pipe.write(len(answer).to_bytes(8, "little"))
        pipe.write(answer)


def scatter(shares: list[_Share], run: Callable[[_Share], None], encode: Callable[[_Share], bytes | memoryview],
            decode: Callable[[io.BufferedReader, int], bool]) -> None:
    """``run`` the first share here while one forked child per further share sends its ``encode`` (``_send``).

    Then each child's answer goes, in share order, to ``decode(pipe, size)``,
    which returns False, keeping nothing, if the pipe ends before ``size``
    bytes. A share whose child did not start, failed, died or sent a short
    header or body is ``run`` here at its turn, so the outcome is that of
    one process. Every child is reaped before the call returns (``forked``).
    """
    with forked([partial(_send, encode, share) for share in shares[1:]]) as pipes:
        run(shares[0])
        for share, pipe in zip(shares[1:], pipes):
            header = pipe.read(8) if pipe is not None else b""
            if len(header) < 8 or not decode(pipe, int.from_bytes(header, "little")):
                run(share)
