"""In-memory spans around the public calls into each ``ideatree`` layer.

A span is ``(id, name, start, end, parent)``. Spans nest by thread: the
parent is the innermost open span of the same thread, and a span opened
on a worker thread with nothing open takes the innermost open span of
the thread that built the tracer, which is the one waiting for it. A
span's self time is its duration minus the part of it that its child
spans cover, so time a stage spends waiting on parallel evaluations is
the evaluations', not the stage's.

Names are patched where they are looked up at call time: a function
imported into several modules (``backpropagate``) is patched in each of
them, methods on their class, and ports through a forwarding proxy.
Per-pair hot calls (``MergeMemory.excluded``) are not wrapped; their
counts are derived from state instead.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._main_ident = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> tuple[list[int], int]:
        """The calling thread's open spans and the parent for a new one."""
        if threading.get_ident() == self._main_ident:
            stack = self._main_stack
            return stack, stack[-1] if stack else 0
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            return stack, stack[-1]
        waiting = self._main_stack[-1:]
        return stack, waiting[0] if waiting else 0

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` recording one span per call; ``on_result`` sees the
        return value after the span has closed."""
        spans, errors, ids, clock = self.spans, self.errors, self._ids, time.perf_counter
        open_stack = self._stack

        def traced(*args, **kwargs):
            stack, parent = open_stack()
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block, for the benchmark's own call sites."""
        stack, parent = self._stack()
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def replace(self, owner, attr: str, new) -> None:
        """Set ``owner.attr`` to ``new`` until ``unpatch_all``."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        self.replace(owner, attr, self.wrap(getattr(owner, attr), name, on_result))

    def unpatch_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Spans as JSON lines ``[id, name, start, end, parent]``,
        ordered by end time."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.writelines(
                f'[{sid},"{name}",{start!r},{end!r},{parent}]\n'
                for sid, name, start, end, parent in self.spans
            )


class TracedPort:
    """Forwards every attribute to ``inner``; the methods named in
    ``spans`` (method name to span name) are traced."""

    def __init__(self, inner, tracer: Tracer, spans: dict):
        self._inner = inner
        for method, span_name in spans.items():
            setattr(self, method, tracer.wrap(getattr(inner, method), span_name))

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def union_length(intervals: list[tuple[float, float]]) -> float:
    if not intervals:
        return 0.0
    return _covered(intervals, min(s for s, _ in intervals), max(e for _, e in intervals))


def summarize(spans) -> dict:
    """Per span name: call count, inclusive seconds, self seconds, and
    every inclusive duration and interval."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent in spans:
        if parent:
            children[parent].append((start, end))
    out: dict[str, dict] = {}
    for sid, name, start, end, _ in spans:
        stats = out.get(name)
        if stats is None:
            stats = out[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                 "durations": [], "intervals": []}
        duration = end - start
        kids = children.get(sid)
        stats["calls"] += 1
        stats["total_s"] += duration
        stats["self_s"] += duration - (_covered(kids, start, end) if kids else 0.0)
        stats["durations"].append(duration)
        stats["intervals"].append((start, end))
    return out
