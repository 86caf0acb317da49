"""`lanes.share` on two threads: the calling thread's item 0, items the
worker has not begun, the first error, and what the worker holds and
imports.

For the items not begun the worker is a one-thread pool whose thread is held
on an event, so a job submitted to it cannot begin before the calling thread
is done with its own. A timer releases the event after HOLD_SECONDS, so that
a call that waits for the held worker fails its test instead of hanging.
"""

import contextlib
import subprocess
import sys
import threading
import time
import weakref
from concurrent import futures
from pathlib import Path

import pytest

from ibshell import lanes
from ibshell.simulation import ModelConfig, Simulation

POINTS = lanes.SPLIT_MIN_POINTS  # large enough to use the worker
HOLD_SECONDS = 10.0


@contextlib.contextmanager
def held_worker(monkeypatch):
    """`lanes._lane_pool` patched to a pool whose one thread is busy until
    the block ends (or HOLD_SECONDS pass); the thread is then released and
    the pool shut down. Yields the event that holds it."""
    pool = futures.ThreadPoolExecutor(max_workers=1)
    gate = threading.Event()
    pool.submit(gate.wait)
    timer = threading.Timer(HOLD_SECONDS, gate.set)
    timer.start()
    monkeypatch.setattr(lanes, "_lane_pool", lambda: pool)
    try:
        yield gate
    finally:
        timer.cancel()
        gate.set()
        pool.shutdown(wait=True)


def _recorder(calls, name, value=None):
    def job():
        calls.append((name, threading.get_ident()))
        return value
    return job


def test_share_runs_an_item_not_begun_here(monkeypatch):
    calls = []
    with held_worker(monkeypatch):
        got = lanes.share(lambda job: job(), (_recorder(calls, "first", 1),
                                              _recorder(calls, "second", 2)),
                          POINTS)
    assert got == [1, 2]
    me = threading.get_ident()
    assert calls == [("first", me), ("second", me)]


def test_share_drops_an_item_not_begun_when_the_first_fails(monkeypatch):
    calls = []

    def first():
        raise KeyError("first failed")

    with held_worker(monkeypatch) as gate:
        with pytest.raises(KeyError, match="first failed"):
            lanes.share(lambda job: job(), (first, _recorder(calls, "second")),
                        POINTS)
        assert not gate.is_set()  # raised without waiting for the worker
    assert calls == []  # not run, even once the worker was free


def test_share_leaves_a_job_not_begun_nothing_of_the_call(monkeypatch):
    # the worker's queued job outlives share; it must not keep the call's
    # function, items or results (a finished Simulation, say) alive
    class Piece:
        pass

    def fn(item):
        return Piece()

    items = [Piece(), Piece()]
    with held_worker(monkeypatch):
        got = lanes.share(fn, items, POINTS)
        refs = [weakref.ref(obj) for obj in (fn, *items, *got)]
        del fn, items, got
        assert [ref() for ref in refs] == [None] * 5


def test_share_runs_every_item_once_here(monkeypatch):
    calls = []
    with held_worker(monkeypatch):
        got = lanes.share(
            lambda item: calls.append((item, threading.get_ident())) or -item,
            range(20), POINTS)
    assert got == [-item for item in range(20)]
    assert sorted(item for item, _ in calls) == list(range(20))
    assert {ident for _, ident in calls} == {threading.get_ident()}


class _AtOnce:
    """A pool whose submit runs the job to its end on another thread before
    it returns: a worker that starts at once and takes every item it can."""

    def submit(self, job):
        thread = threading.Thread(target=job)
        thread.start()
        thread.join()


def test_share_takes_item_0_here_when_the_worker_starts_at_once(monkeypatch):
    monkeypatch.setattr(lanes, "_lane_pool", lambda: _AtOnce())
    me, calls = threading.get_ident(), []
    got = lanes.share(
        lambda item: calls.append((item, threading.get_ident() == me)) or -item,
        range(5), POINTS)
    assert got == [0, -1, -2, -3, -4]
    assert sorted(calls) == [(0, True)] + [(item, False) for item in range(1, 5)]


@pytest.mark.parametrize("fails_on", ["worker", "here"])
def test_share_raises_an_item_error_once_after_both_threads_stop(
        monkeypatch, fails_on):
    # the first item each thread takes waits until both have begun one, so
    # both threads take part; the failing thread's first item then raises,
    # while the other thread's first item runs on past the error. No item
    # begins after the error, the error surfaces from share once, after the
    # other thread's item is finished, and no item runs twice
    me = threading.get_ident()
    pool = futures.ThreadPoolExecutor(max_workers=1)
    both = threading.Barrier(2, timeout=HOLD_SECONDS)  # a hang fails instead
    failed = threading.Event()
    monkeypatch.setattr(lanes, "_lane_pool", lambda: pool)
    lock = threading.Lock()
    started, finished, raised, seen = [], [], [], set()

    def fn(item):
        on_worker = threading.get_ident() != me
        with lock:
            started.append((item, failed.is_set()))
            first = on_worker not in seen
            seen.add(on_worker)
        if first:
            both.wait()
        if first and on_worker == (fails_on == "worker"):
            raised.append(item)
            failed.set()
            raise KeyError(item)
        failed.wait(HOLD_SECONDS)
        time.sleep(0.1)  # still busy well after the error
        with lock:
            finished.append(item)

    try:
        with pytest.raises(KeyError) as exc:
            lanes.share(fn, range(20), POINTS)
        done_at_raise = sorted(finished)
        assert seen == {True, False}, "the worker took no item"
        assert len(raised) == 1 and exc.value.args == (raised[0],)
        assert sorted(started) == [(0, False), (1, False)]  # none after it
        assert done_at_raise == [1 - raised[0]]
        lanes.share(lambda item: None, range(4), POINTS)  # it does not recur
    finally:
        both.abort()
        failed.set()
        pool.shutdown(wait=True)


def test_share_under_rapid_thread_switches_runs_each_item_once(monkeypatch):
    # with the interpreter switching threads every microsecond, an item
    # taken twice or lost between the threads shows as a wrong count
    monkeypatch.setattr(lanes, "_lane_pool", lambda: pool)
    switch = sys.getswitchinterval()
    counts = [0] * 40

    def count(i):
        counts[i] += 1
        return -i

    with futures.ThreadPoolExecutor(max_workers=1) as pool:
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(200):
                assert lanes.share(count, range(40), POINTS) == [
                    -i for i in range(40)]
        finally:
            sys.setswitchinterval(switch)
    assert counts == [200] * 40


@pytest.mark.skipif(lanes.LANES < 2, reason="one core: no worker thread")
def test_worker_holds_nothing_between_jobs():
    # a worker that kept its last job kept that job's closure, and with it a
    # finished Simulation, alive while the next one was built
    sim = Simulation(ModelConfig(N=64, dt=2e-8))
    sim.run(2)
    refs = weakref.ref(sim), weakref.ref(sim._S)
    del sim
    # the worker drops a job just after the calling thread is released
    deadline = time.monotonic() + HOLD_SECONDS
    while any(ref() is not None for ref in refs) and time.monotonic() < deadline:
        time.sleep(0.001)
    assert [ref() for ref in refs] == [None, None]


def test_run_does_not_import_thread_pool_machinery():
    # concurrent.futures, to run one worker thread, brought in logging,
    # traceback and string: 0.4 MB of every process's peak memory
    src = Path(__file__).resolve().parents[1] / "src"
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(src)!r})",
        "import ibshell.cli",
        "from ibshell.simulation import ModelConfig, Simulation",
        "Simulation(ModelConfig(N=64, dt=2e-8)).run(2)",
        "print(sorted(m for m in ('concurrent.futures', 'logging') "
        "if m in sys.modules))",
    ])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]", run.stdout
