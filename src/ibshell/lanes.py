"""The second thread a coupled step runs on, where the process has a core
for it.

`share(fn, items, points)` is the one way onto it: it returns
[fn(item) for item in items] for independent items of the work on a lattice
of `points` points (`share_rows`: blocks of a lattice's rows). From
SPLIT_MIN_POINTS points on, the calling thread takes item 0 before the
worker is fed, and then each thread takes the next item as it comes free.
The first error stops both threads from taking new items, and share returns
or raises only once every item begun is done. The worker is one bare daemon
thread, created at first use and shared by the process, fed jobs through a
`_queue.SimpleQueue`: a thread pool's `concurrent.futures` imports
`logging`, `traceback` and `string`, 0.4 MB of every process's peak. It
drops each job as soon as it has run, and a job keeps none of its call's
function, items or results once share has returned. On smaller lattices,
and where the process may use only one core, the items run in order on the
calling thread.

Every public stage function (`fluid.upwind_advection`, `FluidSolver.step`,
the shell force, spreading, interpolation) is called on the calling thread
and returns only when all of its work is done, so a stage call spans its
work however it is split. The worker runs private kernels and, while the
calling thread forms the shell force, the public `coupling_matrix`
(`Simulation.step` lists the force first, so the force stays on the calling
thread).
"""

from __future__ import annotations

import os
import threading
from _queue import SimpleQueue
from collections import deque


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


#: threads a coupled step runs on: two where the process has a second core
LANES = min(2, _cores())

#: lattices of at least this many points share their items between both
#: lanes (`share`, `share_rows`); smaller ones run on one thread. On a
#: 2-core host, with S built beside the force at N = 32, the `wave`
#: benchmark's step tail rose 4.6% over ten alternating pairs (faster in 3);
#: at N = 64, S and the force in order took 1.08 times the step of S beside
#: the force (three in-process runs of 150 alternated pairs).
#: At N = 64 the forward and inverse FFTs of a step took 18.6 ms (90th
#: percentile 26.2) with their components shared, 23.8 (38.2) as batches on
#: pocketfft's two threads and 27.7 (36.4) on one (scipy 1.17.1). Below,
#: FFTs by component cost no more than batches: a step's took 2.55-3.96 ms
#: against 2.69-4.21 at N = 32 (medians of three runs of 550 alternated
#: pairs, one process), and ten alternating `wave` pairs read step tails of
#: 21.7 ms [q1-q3 21.2-23.2] against the batches' 22.8 [20.6-24.4].
SPLIT_MIN_POINTS = 64**3

#: rows of the first lattice axis per block of `share_rows` from
#: SPLIT_MIN_POINTS points on; below it the rows go as one block, which
#: spares the per-block numpy calls (8-row blocks on one thread took 4-7%
#: longer per fluid step at N = 32, 20% at N = 16). Small blocks keep the
#: temporaries small on whichever thread forms them (at N = 64, 8 rows of
#: the advection are 0.3 MB per array; the worker's freed blocks are not
#: reused by the calling thread, so large ones raise the peak memory) and
#: let a thread that other load slows take fewer blocks.
BLOCK_ROWS = 8


class _Worker:
    """The worker thread and the queue that feeds it jobs."""

    def __init__(self):
        jobs = SimpleQueue()
        self.submit = jobs.put
        threading.Thread(target=self._work, args=(jobs,), name="ibshell-lane",
                         daemon=True).start()

    @staticmethod
    def _work(jobs):
        # no local holds a job after its run: one that held the last job
        # would keep its closure (a Simulation, say) alive
        while True:
            jobs.get()()


_pool = None
_pool_lock = threading.Lock()


def _lane_pool():
    """The worker thread, started at first use; None on one core."""
    global _pool
    if LANES < 2:
        return None
    with _pool_lock:
        if _pool is None:
            _pool = _Worker()
    return _pool


def share(fn, items, points: int) -> list:
    """[fn(item) for item in items], for `items`, a sequence of independent
    pieces of the work on a lattice of `points` points: from
    SPLIT_MIN_POINTS points on shared between the lanes by the rules above
    (item 0 here, then each thread the next item as it comes free, until
    the first error), else run in order on this thread. The worker's job
    reaches fn, the items and the results only through the deque of items
    left, which is empty when share returns.
    """
    pool = _lane_pool() if points >= SPLIT_MIN_POINTS else None
    if pool is None:
        return [fn(item) for item in items]
    results = [None] * len(items)
    todo = deque((fn, item, results, i) for i, item in enumerate(items))
    running, errors = threading.Lock(), []  # running: held by the worker's job

    def run(fn, item, results, i):
        try:
            results[i] = fn(item)
        except BaseException as exc:
            todo.clear()  # no item begins after the first error
            errors.append(exc)

    def drain():
        try:
            while True:
                run(*todo.popleft())
        except IndexError:  # no item left (run raises none)
            pass

    def on_worker():
        with running:
            drain()

    first = todo.popleft()
    pool.submit(on_worker)
    try:
        run(*first)
        drain()
    finally:
        todo.clear()  # an interrupt here left items: the worker takes none
        with running:  # the worker's item, if it took one, is done
            pass
    if errors:
        raise errors.pop(0)
    return results


def share_rows(fn, n: int, points: int):
    """fn(lo, hi) over rows 0..n of a lattice of `points` points: in blocks
    of BLOCK_ROWS rows shared between the lanes (`share`) from
    SPLIT_MIN_POINTS points on, else as one block."""
    if points < SPLIT_MIN_POINTS:
        fn(0, n)
        return
    blocks = [(a, min(a + BLOCK_ROWS, n)) for a in range(0, n, BLOCK_ROWS)]
    share(lambda block: fn(*block), blocks, points)
