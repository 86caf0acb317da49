"""The fallbacks of `lanes.beside` for a worker job that has not begun, the
error path of `lanes.share` on two threads, and what the worker holds and
imports.

For the fallbacks the worker is a one-thread pool whose thread is held on an
event, so a job submitted to it cannot begin before the calling thread is
done with its own. A timer releases the event after HOLD_SECONDS, so that a
call that waits for the held worker fails its test instead of hanging.
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


def test_beside_runs_a_job_not_begun_here(monkeypatch):
    calls = []
    with held_worker(monkeypatch):
        got = lanes.beside(_recorder(calls, "on_worker", 1),
                           _recorder(calls, "here", 2), POINTS)
    assert got == (1, 2)
    me = threading.get_ident()
    assert calls == [("here", me), ("on_worker", me)]


def test_beside_drops_a_job_not_begun_when_here_fails(monkeypatch):
    calls = []

    def here():
        raise KeyError("here failed")

    with held_worker(monkeypatch) as gate:
        with pytest.raises(KeyError, match="here failed"):
            lanes.beside(_recorder(calls, "on_worker"), here, POINTS)
        assert not gate.is_set()  # raised without waiting for the worker
    assert calls == []  # not run, even once the worker was free


def test_share_runs_every_item_once_here(monkeypatch):
    calls = []
    with held_worker(monkeypatch):
        lanes.share(lambda item: calls.append((item, threading.get_ident())),
                    range(20), POINTS)
    assert sorted(item for item, _ in calls) == list(range(20))
    assert {ident for _, ident in calls} == {threading.get_ident()}


@pytest.mark.parametrize("fails_on", ["worker", "here"])
def test_share_raises_an_item_error_once_after_both_threads_stop(
        monkeypatch, fails_on):
    # the first item each thread takes waits until the worker has begun, so
    # both threads take part; the failing thread's first item raises. The
    # error surfaces from share once, after the other thread has finished
    # every item left, and no item runs twice
    me = threading.get_ident()
    pool = futures.ThreadPoolExecutor(max_workers=1)
    began = threading.Event()
    timer = threading.Timer(HOLD_SECONDS, began.set)  # a hang fails instead
    timer.start()
    monkeypatch.setattr(lanes, "_lane_pool", lambda: pool)
    lock = threading.Lock()
    started, finished, raised, seen = [], [], [], set()

    def fn(item):
        on_worker = threading.get_ident() != me
        with lock:
            started.append(item)
            first = on_worker not in seen
            seen.add(on_worker)
        if on_worker:
            began.set()
        began.wait()
        if first and on_worker == (fails_on == "worker"):
            raised.append(item)
            raise KeyError(item)
        time.sleep(0.002)  # the other thread is still busy when one fails
        with lock:
            finished.append(item)

    try:
        with pytest.raises(KeyError) as exc:
            lanes.share(fn, range(20), POINTS)
        done_at_raise = sorted(finished)
        assert seen == {True, False}, "the worker took no item"
        assert len(raised) == 1 and exc.value.args == (raised[0],)
        assert sorted(started) == list(range(20))  # each item once
        assert done_at_raise == sorted(set(range(20)) - set(raised))
        lanes.share(lambda item: None, range(4), POINTS)  # it does not recur
    finally:
        timer.cancel()
        began.set()
        pool.shutdown(wait=True)


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
