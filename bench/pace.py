"""Timing at a fixed machine pace.

The benchmark runs on a few cores of a shared host. The host's speed
changes by up to twice, within seconds and over minutes, so the wall
time of the same work differs by as much between runs. The pace is how
slowly the machine runs right now: the median time of a fixed piece of
reference work, as a share of what it takes at pace 1. A stretch of
wall time divided by the pace around it is the time the work would
have taken at pace 1. Those paced seconds are what the benchmark
reports; it prints the wall seconds beside them.

This module imports nothing from ``ideatree``: the reference work is
the benchmark's own and does not change when the program does.
"""

from __future__ import annotations

import json
import statistics
import threading
import time

REFERENCE_S = 0.005     # what one reference_work call takes at pace 1
SAMPLE_CALLS = 6        # reference_work calls in one pace sample
INTERVAL_S = 0.25       # wall time between samples, when the work ticks


def reference_work() -> int:
    """A fixed piece of the two kinds of work the program does: build
    small dicts, encode and decode them as JSON, group and sort them;
    and plain interpreted arithmetic. The program slows less than the
    first alone when the host is busy, and more than the second alone."""
    nodes = [{"id": i, "parent": i // 3, "score": (i * 7919 % 1000) / 1000,
              "text": f"idea {i}"} for i in range(750)]
    doc = json.dumps(nodes, sort_keys=True)
    children: dict[int, list[int]] = {}
    for node in json.loads(doc):
        children.setdefault(node["parent"], []).append(node["id"])
    best = sorted(nodes, key=lambda n: (-n["score"], n["id"]))
    total = 0
    for i in range(40_000):
        total += i * 7 % 13
    return len(doc) + len(children) + best[0]["id"] + total


def sample() -> float:
    """The pace now."""
    times = []
    for _ in range(SAMPLE_CALLS):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / REFERENCE_S


class PacedTimer:
    """Times a stretch of work in wall seconds and in paced seconds.

    The pace is sampled when the timer starts and stops, and when a call
    to ``tick`` from the thread that started it finds INTERVAL_S passed
    since the last sample. In each stretch between two samples, the CPU
    time of the process counts at the mean of their paces; the rest of
    the stretch, in which the process sleeps or waits, counts as it is.
    Time spent sampling is in neither figure.
    """

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.paced_s = 0.0

    def __enter__(self) -> "PacedTimer":
        self._thread = threading.get_ident()
        self._pace = sample()
        self._since = (time.perf_counter(), time.process_time())
        return self

    def tick(self) -> None:
        now = time.perf_counter()
        if now - self._since[0] >= INTERVAL_S and threading.get_ident() == self._thread:
            self._close(now)

    def _close(self, now: float) -> None:
        stretch = now - self._since[0]
        cpu = min(time.process_time() - self._since[1], stretch)
        before, self._pace = self._pace, sample()
        self.wall_s += stretch
        self.paced_s += stretch - cpu + cpu / ((before + self._pace) / 2)
        self._since = (time.perf_counter(), time.process_time())

    def __exit__(self, *exc) -> None:
        self._close(time.perf_counter())

    @property
    def pace(self) -> float:
        """The pace over the whole stretch."""
        return self.wall_s / self.paced_s if self.paced_s else 1.0
