"""Independent items of work spread over the CPUs this process may use.

:func:`fan_out` yields ``work(0)``, ..., ``work(n - 1)`` in order, computing
some of them in forked children.  It has three callers: ``solve`` and
``matrix`` format their rows through it in pieces of 2^``cli.PIECE_BITS``
(only past 2^CHUNK_BITS rows, which no matrix dump has), ``verify``
(``analytic.run_suite``) runs its suites through it, and ``empirical``
(``generate_blocks``) generates the ranges of terms of pow3 and fibonacci
through it.  Every caller's ``work(i)`` depends on ``i`` alone, so which
process computes an item changes no result, and each prints exactly the
bytes of computing every item in one process.

A module that a child's work first imports after the fork is imported
once in each child.  So a caller whose children need numpy, which the
library imports only inside the functions that use it, runs ``import
numpy`` before calling :func:`fan_out`; this module loads nothing, so a
caller that never uses numpy forks without it.

A pipe holds 64 KiB by default on Linux, less than one piece of a table, so
a writer blocks on it until the reader has taken most of the piece, and the
two run in lockstep.  :func:`_grow_pipe` lets a pipe hold ``_PIPE_BYTES``
instead, several pieces: :func:`fan_out` grows each child's frame pipe, and
the table writer its output when that is a pipe and the table spans more
than one piece.
"""

from __future__ import annotations

import marshal
import os
import signal
from typing import BinaryIO, Callable, Iterator, TypeVar

T = TypeVar("T")

# the work worth a fork: solve forks only past 2^16 rows (matrix never: 4^8 rows at
# most), and empirical generates ranges of up to 2^16 terms
CHUNK_BITS = 16
_SIZE_BYTES = 8  # each frame a child sends starts with its size
# Linux's default /proc/sys/fs/pipe-max-size: the most an unprivileged process may give a pipe
_PIPE_BYTES = 1 << 20


def _grow_pipe(fd: object) -> None:
    """Let the pipe ``fd`` (a descriptor or an object with ``fileno()``) hold ``_PIPE_BYTES``.

    It does nothing where ``fd`` is no pipe, already holds as much, or the
    OS has no ``F_SETPIPE_SZ`` (macOS) or refuses it.  ``fcntl`` is imported
    here, so a command that never grows a pipe does not load it.
    """
    try:
        import fcntl

        if fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ) < _PIPE_BYTES:  # F_GETPIPE_SZ fails on anything but a pipe
            fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (ImportError, AttributeError, OSError):  # no fcntl (Windows), no constant, or refused
        pass


def _frame(item: int, result: object) -> bytes:
    """The marshalled ``(item, result)``, or ``(item,)`` when marshal does not carry ``result`` exactly.

    Marshal refuses some types, and writes any other object that has the
    buffer protocol (a ``numpy.float64``, a ``bytearray``, an ``array``) as
    ``bytes``; ``(item,)`` leaves the item to the process.  A child sends
    the frame's size in ``_SIZE_BYTES`` bytes, then the frame.
    """
    try:
        frame = marshal.dumps((item, result))
    except ValueError:  # a type marshal refuses
        return marshal.dumps((item,))
    carried = marshal.loads(frame)[1]
    if type(carried) is type(result) and carried == result:
        return frame
    return marshal.dumps((item,))


def _receive(reader: BinaryIO) -> object:
    """The next frame a child sent, read whole before it is unmarshalled.

    ``marshal.load`` on the pipe itself reads every object with its own
    call: a list of 50 000 ints took 32 ms to arrive that way, 2 ms whole.
    """
    size = int.from_bytes(reader.read(_SIZE_BYTES), "little")
    return marshal.loads(reader.read(size))  # a frame cut short raises EOFError


def fan_out(work: Callable[[int], T], count: int) -> Iterator[T]:
    """Yield ``work(0)``, ..., ``work(count - 1)``, in order.

    Item i goes to worker i mod W, with W = min(CPUs in this process's
    affinity mask, ``count``).  This process is worker 0, so it starts on
    the first item at once; each other worker is a forked child that
    computes its items in order and marshals each ``(item, result)`` into
    its own pipe as soon as it is computed.  This process computes its own
    items in order and reads a child's result when it reaches that child's
    item.
    It computes any item whose result does not arrive (the child failed or
    could not be forked) itself, so errors are those of computing every
    item here.  A child sends only a result that :mod:`marshal` reads back
    equal and of the same type; it leaves any other item to this process.
    Every child is killed and reaped when the generator finishes, raises or
    is closed.
    """
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else {0}
    workers = min(len(cpus), count)
    readers: dict[int, BinaryIO] = {}
    pids = []
    try:
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            _grow_pipe(write_fd)  # so the child can send several frames ahead of this process
            try:
                pid = os.fork()
            except OSError:  # no process to spare: its items are computed here
                os.close(read_fd)
                os.close(write_fd)
                continue
            if pid == 0:  # never returns, so it flushes no inherited buffer and runs no atexit hook
                try:  # the child holds no read end, so its writes fail once the parent is gone
                    os.close(read_fd)
                    for reader in readers.values():
                        reader.close()
                    with open(write_fd, "wb") as pipe:
                        for item in range(worker, count, workers):
                            frame = _frame(item, work(item))
                            pipe.write(len(frame).to_bytes(_SIZE_BYTES, "little"))
                            pipe.write(frame)
                            pipe.flush()
                    os._exit(0)
                finally:
                    os._exit(1)
            pids.append(pid)
            os.close(write_fd)
            readers[worker] = open(read_fd, "rb")
        for item in range(count):
            frame = None  # frees the last result before the next one is read
            worker = item % workers
            if worker in readers:
                try:
                    frame = _receive(readers[worker])
                except (EOFError, ValueError, TypeError):
                    pass
                if type(frame) is not tuple or frame[:1] != (item,):
                    readers.pop(worker).close()  # the child failed: its later frames cannot be trusted
            yield frame[1] if worker in readers and len(frame) == 2 else work(item)
    finally:
        for reader in readers.values():
            reader.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
