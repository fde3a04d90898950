"""Latency adapters for the ports-2.5k workload.

They sleep, then delegate. Scores, costs and clock charges all come
from the wrapped synthetic ports, so with every delay at zero a run
produces the same final snapshot as the bare ports (check_adapters.py
checks this). The sleep comes before the delegated call, so a parallel
batch is dispatched before any of its evaluations charges the clock, as
it would be with real ports.
"""

from __future__ import annotations

import dataclasses
import time

from ideatree import PortSet
from ideatree.evaluation import EvalMode

from workloads import Latency


class LatencyEvaluator:
    def __init__(self, inner, full_s: float, debug_s: float):
        self.inner = inner
        self.full_s = full_s
        self.debug_s = debug_s

    def evaluate(self, node, mode):
        delay = self.full_s if mode is EvalMode.FULL else self.debug_s
        if delay:
            time.sleep(delay)
        return self.inner.evaluate(node, mode)

    def cost(self, mode):
        return self.inner.cost(mode)


class LatencyGenerator:
    """Every ``IdeaGenerator`` method sleeps ``delay_s`` first."""

    def __init__(self, inner, delay_s: float):
        self.inner = inner
        self.delay_s = delay_s

    def _call(self, method: str, *args):
        if self.delay_s:
            time.sleep(self.delay_s)
        return getattr(self.inner, method)(*args)

    def propose_fe(self, ctx, n):
        return self._call("propose_fe", ctx, n)

    def propose_mt(self, fe_node, ctx, m):
        return self._call("propose_mt", fe_node, ctx, m)

    def merge_fe(self, a, b, ctx):
        return self._call("merge_fe", a, b, ctx)

    def merge_mt(self, a, b, ctx):
        return self._call("merge_mt", a, b, ctx)

    def enrich_eda(self, tree, ctx):
        return self._call("enrich_eda", tree, ctx)

    def query_external(self, ctx):
        return self._call("query_external", ctx)


def with_latency(ports: PortSet, latency: Latency) -> PortSet:
    return dataclasses.replace(
        ports,
        gen=LatencyGenerator(ports.gen, latency.generator_s),
        evaluator=LatencyEvaluator(ports.evaluator, latency.full_s, latency.debug_s),
    )
