"""Independent items of work spread over the CPUs this process may use.

:func:`fan_out` yields ``work(0)``, ..., ``work(n - 1)`` in order, computing
some of them in forked children.  It has four callers: ``solve`` and
``matrix`` format their rows through it in pieces of 2^``cli.PIECE_BITS``
(forking only past 2^CHUNK_BITS rows, which no matrix dump has),
``convergence_table`` solves its depths through it on the ``fast`` and
``dense`` backends (its default ``closed`` backend forks nothing),
``verify`` (``analytic.run_suite``) runs its suites through it, and
``empirical`` (``generate_blocks``) generates the ranges of terms of pow3
and fibonacci through it.  Every caller's ``work(i)`` depends on ``i``
alone, so which process computes an item changes no result, and each
prints exactly the bytes of computing every item in one process.

A module that a child's work first imports after the fork is imported
once in each child.  So a caller whose children need numpy, which the
library imports only inside the functions that use it, runs ``import
numpy`` before calling :func:`fan_out`; this module loads nothing, so a
caller that never uses numpy forks without it.
"""

from __future__ import annotations

import marshal
import os
import signal
from typing import BinaryIO, Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")

# the work worth a fork: solve forks only past 2^16 rows (matrix never: 4^8 rows at
# most), table1's oracles only for a share above 2^16 entries, and empirical
# generates ranges of up to 2^16 terms
CHUNK_BITS = 16
_SIZE_BYTES = 8  # each frame a child sends starts with its size


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


def _assign(weights: Sequence[int], workers: int) -> tuple[list[int], list[int]]:
    """The worker of each item and the load of each worker.

    Heaviest item first (ties in item order), each goes to the least-loaded
    worker (ties to the lowest number).  Equal weights give item i to worker
    i mod ``workers``.
    """
    owner = [0] * len(weights)
    loads = [0] * workers
    for item in sorted(range(len(weights)), key=lambda i: -weights[i]):
        worker = loads.index(min(loads))
        owner[item] = worker
        loads[worker] += weights[item]
    return owner, loads


def fan_out(work: Callable[[int], T], weights: Sequence[int], floor: int = 0) -> Iterator[T]:
    """Yield ``work(0)``, ..., ``work(len(weights) - 1)``, in order.

    The items are split over W = min(CPUs in this process's affinity mask,
    items) workers by :func:`_assign`.  This process is the worker of item
    0, so it starts on the first item at once and, when the weights grow
    along the items, leaves the heaviest to the others.  Each other worker
    whose share weighs more than ``floor`` is a forked child that computes
    its items in order and marshals each ``(item, result)`` into its own
    pipe as soon as it is computed; a lighter share stays here.  This
    process computes its own items in order and reads a child's result when
    it reaches that child's item.
    It computes any item whose result does not arrive (the child failed or
    could not be forked) itself, so errors are those of computing every
    item here.  A child sends only a result that :mod:`marshal` reads back
    equal and of the same type; it leaves any other item to this process.
    Every child is killed and reaped when the generator finishes, raises or
    is closed.
    """
    count = len(weights)
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else {0}
    owner, loads = _assign(weights, min(len(cpus), count))
    readers: dict[int, BinaryIO] = {}
    pids = []
    children = [worker for worker, load in enumerate(loads) if worker != owner[0] and load > floor]
    try:
        for worker in children:
            read_fd, write_fd = os.pipe()
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
                        for item in range(count):
                            if owner[item] == worker:
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
            worker = owner[item]
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
