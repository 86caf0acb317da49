"""Spans recorded around the program's public callables, from outside it.

The benchmark replaces a callable at the name its caller looks it up (a
module global or a class attribute) with a wrapper that records one span per
call, and puts the original back afterwards. Nothing under the program's
source changes.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(slots=True)
class Span:
    """One call: parent is the index of the enclosing span, -1 at top level.

    `tag` is the fluid lattice size N of the call, inherited from the
    enclosing span unless the wrapper computes its own. `run` names the unit
    of work the call belongs to.
    """

    name: str
    start: float
    end: float
    parent: int
    run: str
    tag: int | None
    error: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span log; spans are written out once, at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run = ""

    def wrap(self, name, fn, tag=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if tag is not None:
                value = tag(args)
            else:
                value = spans[parent].tag if parent >= 0 else None
            span = Span(name, 0.0, 0.0, parent, self.run, value)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()

        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap each (owner, attribute, span name, tag) for the block."""
        saved = []
        try:
            for owner, attr, name, tag in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, tag))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_seconds(self) -> list[float]:
        """Span time minus the time its direct children cover."""
        out = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.seconds
        return out

    def per_step(self, runs) -> dict[int, dict[str, float]]:
        """Self seconds by span name inside each `simulation.step` subtree.

        Keyed by the step span's index; only steps of the given runs.
        """
        selfs = self.self_seconds()
        owner = [-1] * len(self.spans)
        rows: dict[int, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            if s.name == "simulation.step":
                if s.run not in runs:
                    continue
                owner[i] = i
                rows[i] = {}
            elif s.parent >= 0:
                owner[i] = owner[s.parent]
            if owner[i] >= 0:
                row = rows[owner[i]]
                row[s.name] = row.get(s.name, 0.0) + selfs[i]
        return rows

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
