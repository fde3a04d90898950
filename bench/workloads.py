"""The benchmark's three workloads and the inputs each one is built from.

Every input is a pure function of the workload and the seed: the run
config (the seed becomes ``RunConfig.seed``) and, for ``ports-2.5k``, a
corpus of plain-text documents for the retriever. This module does not
import ``ideatree``, so run.py can prepare inputs without it.

All workloads use the simulated clock, so the budget is in cost units
(synthetic full evaluation 10, debug evaluation 1) and a run's tree is
the same for a given seed whatever the machine.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional


@dataclass(frozen=True)
class Latency:
    """Sleeps the ports-2.5k adapters add before delegating, in seconds."""

    full_s: float
    debug_s: float
    generator_s: float


ZERO_LATENCY = Latency(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    corpus_docs: int = 0
    latency: Optional[Latency] = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grow-25k",
            why=(
                "engine-bound: no checkpoints, so merge-pair enumeration, full "
                "backpropagate recomputes and level scans, which grow with the tree, "
                "dominate"
            ),
            config={
                "time_run_minutes": 25_000,
                "clock_mode": "simulated",
                "checkpoint_every_stage": False,
                "predict_before_evaluate": False,
                "worker_count": 1,
            },
        ),
        Workload(
            name="checkpoint-10k",
            why=(
                "persistence-bound: the default config snapshots the tree after every "
                "stage, so snapshot encoding and file writes dominate"
            ),
            config={
                "time_run_minutes": 10_000,
                "clock_mode": "simulated",
                "checkpoint_every_stage": True,
            },
        ),
        Workload(
            name="ports-2.5k",
            why=(
                "port-bound: latency adapters, 2 workers, prediction and retrieval on "
                "every stage keep the tree small, as real ports would"
            ),
            config={
                "time_run_minutes": 2_500,
                "clock_mode": "simulated",
                "worker_count": 2,
                "predict_before_evaluate": True,
                "validation_attempts": 1,
                "rag_policy": "always",
            },
            corpus_docs=200,
            latency=Latency(full_s=0.004, debug_s=0.0004, generator_s=0.001),
        ),
    )
}


def run_config(workload: Workload, seed: int) -> dict:
    return {**workload.config, "seed": int(seed)}


# words for the generated corpus; the query the synthetic generator
# sends is the latest context segment ("tree survey: ..."), so a few
# of those words appear here too
_VOCABULARY = (
    "gradient boosting trees ensemble feature engineering target encoding "
    "cross validation stratified folds leakage holdout tabular data neural "
    "network embedding categorical numeric missing values imputation scaling "
    "regularization dropout learning rate schedule early stopping stacking "
    "blending model idea tree survey nodes search merge selection softmax "
    "budget evaluation metric score ranking augmentation pseudo labels "
    "hyperparameter tuning bayesian optimisation random forest linear ridge "
    "lasso kernel attention transformer convolution pooling sequence time "
    "series lag rolling window aggregate interaction polynomial clustering"
).split()


def write_corpus(directory: Path, n_docs: int, seed: int) -> None:
    """Write ``n_docs`` header-plus-body documents, seeded."""
    rng = random.Random(f"corpus:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(n_docs):
        source = rng.choice(("papers", "competitions"))
        title = " ".join(rng.choices(_VOCABULARY, k=rng.randint(3, 7)))
        body = " ".join(rng.choices(_VOCABULARY, k=rng.randint(60, 140)))
        (directory / f"doc_{i:04d}.txt").write_text(
            f"source: {source}\ntitle: {title}\n\n{body}\n", encoding="utf-8"
        )


def prepare_inputs(workload: Workload, seed: int, work_dir: Path) -> Path:
    """Write the config (and corpus) for one seed; returns the config path."""
    work_dir.mkdir(parents=True, exist_ok=True)
    config_path = work_dir / "config.json"
    config_path.write_text(json.dumps(run_config(workload, seed), sort_keys=True),
                           encoding="utf-8")
    if workload.corpus_docs:
        write_corpus(work_dir / "corpus", workload.corpus_docs, seed)
    return config_path
