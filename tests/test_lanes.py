"""The fallbacks of `lanes.beside` for a worker job that has not begun.

The worker is a one-thread pool whose thread is held on an event, so a job
submitted to it cannot begin before the calling thread is done with its own.
A timer releases the event after HOLD_SECONDS, so that a call that waits for
the held worker fails its test instead of hanging.
"""

import contextlib
import threading
from concurrent import futures

import pytest

from ibshell import lanes

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
