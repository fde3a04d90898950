"""The bench's ``--trace 1`` still finds every name it patches.

``bench/rep.py``'s ``trace_program`` patches engine functions and
methods by name where they are looked up. A refactor that renames one
would otherwise break only a traced bench run, which no test starts;
a name the run no longer calls records no span."""

from __future__ import annotations

import importlib
from pathlib import Path

from ideatree.config import RunConfig
from ideatree.orchestrator import build_synthetic_ports, execute_run

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_trace_program_patches_and_counts_the_run_layers(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    rep = importlib.import_module("rep")
    tracer = rep.Tracer()
    config = RunConfig.from_dict({
        "seed": 3,
        "clock_mode": "simulated",
        "time_run_minutes": 200.0,
        "synthetic": {"full_cost": 10.0, "debug_cost": 1.0},
        "predict_before_evaluate": True,
        "validation_attempts": 1,
    })
    out = tmp_path / "run"
    try:
        ports = rep.trace_program(tracer, build_synthetic_ports(config))
        execute_run(config, ports, out)
    finally:
        tracer.unpatch_all()
    metrics, self_s = rep.layer_metrics(tracer, out)
    assert metrics["tree.backpropagate.calls"] > 0
    assert metrics["tree.snapshot.calls"] > 0
    assert {"search.adding", "search.merging", "setup_stages.pipeline_setup"} <= set(self_s)
    assert metrics["evaluation.debug.calls"] > 0
    assert metrics["scoring.predict.calls"] > 0
