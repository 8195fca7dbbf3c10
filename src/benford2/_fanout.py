"""Independent items of work spread over the CPUs this process may use.

:func:`fan_out` yields ``work(0)``, ..., ``work(n - 1)`` in order, computing
some of them in forked children.  It has three callers: ``solve`` formats
its rows through it, ``convergence_table`` solves its depths through it, and
``verify`` (``analytic.run_suite``) runs its suites through it.  Each prints
exactly the bytes of computing every item in one process.

Before its first fork, :func:`fan_out` executes the modules that
:mod:`benford2._lazy` deferred (numpy), so that no child imports numpy
again; a call that forks nothing leaves them deferred.
"""

from __future__ import annotations

import marshal
import os
import signal
from typing import BinaryIO, Callable, Iterator, Sequence, TypeVar

from benford2._lazy import load_deferred

T = TypeVar("T")

CHUNK_BITS = 16  # solve formats and writes 2^16 rows at a time


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
    item here.  Every child is killed and reaped when the generator
    finishes, raises or is closed.  Results must be values that
    :mod:`marshal` writes and reads back unchanged (``str``, ``float``).
    """
    count = len(weights)
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else {0}
    owner, loads = _assign(weights, min(len(cpus), count))
    readers: dict[int, BinaryIO] = {}
    pids = []
    children = [worker for worker, load in enumerate(loads) if worker != owner[0] and load > floor]
    if children:
        load_deferred()  # once here, not once in each child
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
                                marshal.dump((item, work(item)), pipe)
                                pipe.flush()
                    os._exit(0)
                finally:
                    os._exit(1)
            pids.append(pid)
            os.close(write_fd)
            readers[worker] = open(read_fd, "rb")
        for item in range(count):
            result = None  # frees the last result before the next one is read
            worker = owner[item]
            if worker in readers:
                try:
                    sent, result = marshal.load(readers[worker])
                except (EOFError, ValueError, TypeError):
                    sent = None
                if sent != item:  # the child failed: its later frames cannot be trusted
                    readers.pop(worker).close()
            yield result if worker in readers else work(item)
    finally:
        for reader in readers.values():
            reader.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
