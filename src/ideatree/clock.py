"""Run clocks: real wall time or a simulated cost accountant.

Both expose elapsed/budget in the same unit (minutes). The simulated
clock only advances when evaluation work is charged to it, which makes
runs deterministic and lets tests replay exact budget arithmetic.
"""

from __future__ import annotations

import time


class WallClock:
    """Real elapsed time in minutes: the cost of real work is the time
    it takes. ``longest_job`` is the longest evaluation job noted so
    far, in minutes, which the engine projects the pending work with."""

    def __init__(self, budget_minutes: float):
        self.budget = float(budget_minutes)
        self._start = time.monotonic()
        self.longest_job = 0.0

    def note_job(self, seconds: float) -> None:
        self.longest_job = max(self.longest_job, seconds / 60.0)

    def elapsed(self) -> float:
        return (time.monotonic() - self._start) / 60.0

    def remaining(self) -> float:
        return self.budget - self.elapsed()

    def exhausted(self) -> bool:
        return self.elapsed() >= self.budget


class SimulatedClock:
    """Single accountant for simulated cost units.

    It has no lock: the engine charges it only on the thread that
    commits results, never from an evaluation worker. Reads are
    monotone because costs are non-negative.
    """

    def __init__(self, budget_minutes: float):
        self.budget = float(budget_minutes)
        self._elapsed = 0.0

    def elapsed(self) -> float:
        return self._elapsed

    def charge(self, cost: float | None) -> None:
        if cost is None:
            return
        if cost < 0:
            raise ValueError(f"cost must be non-negative, got {cost}")
        self._elapsed += float(cost)

    def remaining(self) -> float:
        return self.budget - self.elapsed()

    def exhausted(self) -> bool:
        return self.elapsed() >= self.budget
