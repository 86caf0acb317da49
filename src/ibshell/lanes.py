"""The second thread a coupled step runs on, where the process has a core
for it.

On lattices of at least SPLIT_MIN_POINTS points, `beside(on_worker, here,
points)` runs two independent jobs at once, one on the worker thread and
one on the calling thread, and `share(fn, items, points)` runs fn on
independent items (`share_rows`: blocks of a lattice's rows), the two
threads taking the next item in turn. All return when all the work is
done. The worker is one thread, created at first use and shared by the
process. On smaller lattices, and where the process may use only one core,
the work runs in order on the calling thread.

Only private kernels run on the worker. Every public stage function
(`fluid.upwind_advection`, `FluidSolver.step`, the shell force, spreading,
interpolation) is called on the calling thread and returns only when all of
its work is done, so a stage call spans its work however it is split.
"""

from __future__ import annotations

import os
import threading
from concurrent import futures


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


#: threads a coupled step runs on: two where the process has a second core
LANES = min(2, _cores())

#: lattices of at least this many points run their step on both lanes
#: (`beside`, `share`, `share_rows`); smaller ones run on one thread. On a
#: 2-core host, with S built beside the force at N = 32, the `wave`
#: benchmark's step tail rose 4.6% over ten alternating pairs (faster in 3).
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

_pool = None
_pool_lock = threading.Lock()


def _lane_pool():
    """The worker thread, started at first use; None on one core."""
    global _pool
    if LANES < 2:
        return None
    with _pool_lock:
        if _pool is None:
            _pool = futures.ThreadPoolExecutor(
                max_workers=LANES - 1, thread_name_prefix="ibshell-lane")
    return _pool


def beside(on_worker, here, points: int):
    """(on_worker(), here()) for work on a lattice of `points` points.

    From SPLIT_MIN_POINTS points on, the first runs on the worker thread
    while the second runs on this one. If the worker has not begun
    `on_worker` by the time `here` is done (its core taken by other work),
    this thread runs it instead. Both are done before anything is returned
    or raised: an error of `here` surfaces first (a job not yet begun is
    then dropped), then one of `on_worker`. Below SPLIT_MIN_POINTS, and on
    one core, both run here, `on_worker` first.
    """
    pool = _lane_pool() if points >= SPLIT_MIN_POINTS else None
    if pool is None:
        first = on_worker()
        return first, here()
    job = pool.submit(on_worker)
    try:
        second = here()
    except BaseException:
        job.cancel()
        futures.wait((job,))
        raise
    if job.cancel():
        return on_worker(), second
    return job.result(), second


def share(fn, items, points: int):
    """fn(item) for each of `items` (independent of one another) of the
    work on a lattice of `points` points.

    Where `beside` runs two jobs at once, both threads take part, each
    taking the next item as it comes free, so a thread slowed by other load
    takes fewer. Otherwise the items run in order on this thread.
    """
    items = iter(items)
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                item = next(items, None)
            if item is None:
                return
            fn(item)

    beside(drain, drain, points)


def share_rows(fn, n: int, points: int):
    """fn(lo, hi) over rows 0..n of a lattice of `points` points: in blocks
    of BLOCK_ROWS rows shared between the lanes (`share`) from
    SPLIT_MIN_POINTS points on, else as one block."""
    if points < SPLIT_MIN_POINTS:
        fn(0, n)
        return
    blocks = [(a, min(a + BLOCK_ROWS, n)) for a in range(0, n, BLOCK_ROWS)]
    share(lambda block: fn(*block), blocks, points)
