"""Pinned run directories: the sha256 of every file a run writes
(``config.yaml``, ``run.jsonl``, ``final_snapshot.json`` and
``result.json``) for three small seeded runs with the settings of the
benchmark's workloads (``bench/workloads.py``), over bare synthetic
ports, and for one run whose stage knobs each hold a value of their
own (``STAGE_KNOBS``).

Criterion 8 compares two runs of one commit. These digests compare a
run with the same run at an earlier commit, so a change that is meant
to keep every run directory byte-identical fails here if it does not.
A change that alters trajectories on purpose updates the digests and
says so."""

from __future__ import annotations

import hashlib
import importlib
from pathlib import Path

import pytest

from ideatree.config import RunConfig
from ideatree.orchestrator import (
    CONFIG_COPY_FILENAME,
    FINAL_SNAPSHOT_FILENAME,
    LOG_FILENAME,
    RESULT_FILENAME,
    build_synthetic_ports,
    execute_run,
    verify_replay,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"

# workload, budget in cost units, and the digests of its seed-1 run
GOLDEN = {
    "grow-25k": (10_000, {
        CONFIG_COPY_FILENAME: "6ce5b6f7d0123790d991e8ed72eb83c1e9f05cc8b61e18dc3ccfd350a28caa5f",
        LOG_FILENAME: "c4bcbb9f654df32fe99808bfd91b66a9cf1b6a1e07088061c7eeb0ab435351e9",
        FINAL_SNAPSHOT_FILENAME:
            "59fea66b4fbace87f2a0520a5a1de63781dd8fc019427fd3fba7b6612aa6d6b1",
        RESULT_FILENAME: "2c97995df68c208e762e83eeb797af956724b747b44b91edcb74ec50621aaf1b",
    }),
    "checkpoint-10k": (3_000, {
        CONFIG_COPY_FILENAME: "b2d1f0f7e998b224ae93840044e637d4c8d46c7fba473943f39224f3a943e576",
        LOG_FILENAME: "4c50411655b198f1067b8c3761b9b7bd6a030409cf0a09aa19c95719eef309f7",
        FINAL_SNAPSHOT_FILENAME:
            "774e63dec2487da3240ab0550fecb67c32cdf0ecac7b96e8e00f93934e6871b9",
        RESULT_FILENAME: "b4e65a747aec31d978c1ec5c4c9cb81ad2682d5f8c437c146ffe00e4ea93ec87",
    }),
    "ports-2.5k": (2_500, {
        CONFIG_COPY_FILENAME: "148bac2441b7b5a6dc093bc51295bcde715bd6c4b73c7dd454bce22d02449bfd",
        LOG_FILENAME: "875d06066e6cfe6ec623e0c4978c3ffa6aee25b0674b7b46ad1fe34b12543eaf",
        FINAL_SNAPSHOT_FILENAME:
            "418097edd46e373018fb50dd2408633adfc13dee380444b046fcb913ad981b6a",
        RESULT_FILENAME: "c61639cf7b9f2db4a7dafe94f8f04b7932fcf36c6f107de52f0f96f740126d43",
    }),
    "stage-knobs": (5_000, {
        CONFIG_COPY_FILENAME: "d22ab0b13c8db661e2054137523fca9e9ea16c96edd4fef26d200ed18019f1a3",
        LOG_FILENAME: "73b96085613643b79bb7e03438afbdbecffbc66156b2d2a24f8b762fcc78b72d",
        FINAL_SNAPSHOT_FILENAME:
            "934bc3e0a8ab63755dce4b760cb6501eb7fb5d174a149f6c43cc1d960a8ad912",
        RESULT_FILENAME: "681b1aef16fa3176aa6431a49da54608a5e74a996a7f9b2865dfdc0579273858",
    }),
}

# The knobs a stage reads, the counts each set to a value no other
# holds, so a change that hands a stage one knob's value for another's
# moves this run's digests; changing any one of them alone moves its
# log too. The two retrieval knobs are the exception: the retrieval cap
# is below the papers retrieved so that it bites, but the context it
# caps is in no file of the run.
STAGE_KNOBS = {
    "clock_mode": "simulated",
    "checkpoint_every_stage": False,
    "worker_count": 2,
    "predict_before_evaluate": True,
    "predict_fraction": 0.75,
    "validation_attempts": 1,
    "accelerated_debugging": False,
    "rag_policy": "always",
    "retrieve_n_papers": 3,
    "number_rag_ideas": 2,
    "number_of_ideas_eda": 1,
    "number_of_ideas_max": 3,
    "theta_fail": 1,
    "number_of_iterations_parents": 2,
    "max_add_idea": 3,
    "number_of_ideas_modelling": 4,
    "number_of_ideas_data": 5,
    "number_of_selected_node_merging": 6,
    "number_of_selected_node": 7,
    "number_of_iterations_children": 8,
    "softmax_temperature": 0.5,
    "merge_epsilon": 0.01,
}
STAGE_KNOBS_CORPUS_DOCS = 20


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_directory_matches_its_pinned_digests(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    budget, digests = GOLDEN[name]
    if name == "stage-knobs":
        doc, corpus_docs = {**STAGE_KNOBS, "seed": 1}, STAGE_KNOBS_CORPUS_DOCS
    else:
        workload = workloads.WORKLOADS[name]
        doc, corpus_docs = workloads.run_config(workload, seed=1), workload.corpus_docs
    config = RunConfig.from_dict({**doc, "time_run_minutes": budget})
    corpus = None
    if corpus_docs:
        corpus = tmp_path / "corpus"
        workloads.write_corpus(corpus, corpus_docs, seed=1)
    out = tmp_path / "run"
    execute_run(config, build_synthetic_ports(config, corpus_dir=corpus), out)
    assert {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.iterdir()
    } == digests
    assert verify_replay(out)
