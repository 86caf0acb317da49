"""The second thread a coupled step runs on, where the process has a core
for it.

On lattices of at least SPLIT_MIN_POINTS points, `beside(on_worker, here,
points)` runs two independent jobs at once, one on the worker thread and
one on the calling thread, and `share(fn, items, points)` runs fn on
independent items (`share_rows`: blocks of a lattice's rows), the two
threads taking the next item in turn. All return when all the work is
done. The worker is one bare daemon thread, created at first use and
shared by the process, fed jobs through a `_queue.SimpleQueue`: a thread
pool's `concurrent.futures` imports `logging`, `traceback` and `string`,
0.4 MB of every process's peak. It drops each job as soon as it has run, so
a finished job's closure keeps nothing alive. On smaller lattices, and where
the process may use only one core, the work runs in order on the calling
thread.

Only private kernels run on the worker. Every public stage function
(`fluid.upwind_advection`, `FluidSolver.step`, the shell force, spreading,
interpolation) is called on the calling thread and returns only when all of
its work is done, so a stage call spans its work however it is split.
"""

from __future__ import annotations

import os
import threading
from _queue import SimpleQueue


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


class _Job:
    """A call submitted to the worker, run once by whichever thread claims
    it first: the worker, or the submitter through `cancel`."""

    def __init__(self, fn):
        self._fn, self._value, self._error = fn, None, None
        self._claim = threading.Lock()  # taken by whoever runs the call
        self._done = threading.Lock()  # held until the worker has run it
        self._done.acquire()

    def cancel(self) -> bool:
        """True if the worker had not begun the call, which it now never
        runs; False once it has begun."""
        if not self._claim.acquire(blocking=False):
            return False
        self._fn = None
        return True

    def exception(self):
        """The error the worker's call raised, or None, once it is done."""
        with self._done:
            return self._error

    def result(self):
        """The worker's call's value once it is done; its error is raised."""
        error = self.exception()
        if error is not None:
            raise error
        return self._value

    def run(self):
        """Run the call on the worker unless it was cancelled, and drop it."""
        if not self._claim.acquire(blocking=False):
            return
        fn, self._fn = self._fn, None
        try:
            self._value = fn()
        except BaseException as exc:
            self._error = exc
        finally:
            self._done.release()


class _Worker:
    """The worker thread and the queue that feeds it jobs."""

    def __init__(self):
        self._jobs = SimpleQueue()
        threading.Thread(target=self._work, args=(self._jobs,),
                         name="ibshell-lane", daemon=True).start()

    @staticmethod
    def _work(jobs):
        # no local outlives a job's run: one that held the last job would
        # keep what it returned (an S, say) alive
        while True:
            jobs.get().run()

    def submit(self, fn) -> _Job:
        job = _Job(fn)
        self._jobs.put(job)
        return job


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
        if not job.cancel():  # begun: wait for it; not begun: it never runs
            job.exception()
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
