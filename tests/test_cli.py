"""CLI surface and report arithmetic: exit codes, artifact layout,
tables, leaderboard standings."""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import pytest
import yaml

from ideatree.cli import (
    EXIT_CONFIG_INVALID,
    EXIT_FAILURE,
    EXIT_INITIALIZATION,
    EXIT_OK,
    build_llm_ports,
    main,
)
from ideatree.clock import WallClock
from ideatree.config import RunConfig
from ideatree.generation import EndpointConfig
from ideatree.errors import (
    ConfigInvalid,
    CorruptLog,
    MalformedLeaderboardFile,
    MissingRunArtifacts,
)
from ideatree.events import read_log
from ideatree.orchestrator import build_synthetic_ports, execute_run, verify_replay
from ideatree.report import (
    percent_humans_beaten,
    progress_report,
    read_leaderboard,
    run_summary,
)
from ideatree.tree import MetricDirection

from helpers import FlakyEvaluator


@pytest.fixture
def config_path(tmp_path):
    doc = {
        "seed": 13,
        "clock_mode": "simulated",
        "time_run_minutes": 250,
        "synthetic": {"full_cost": 10.0, "debug_cost": 1.0},
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


@pytest.fixture
def finished_run(tmp_path, config_path):
    out = tmp_path / "run_a"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    return out


# ---- validate-config ----

def test_validate_config_ok(config_path, capsys):
    assert main(["validate-config", "--config", str(config_path)]) == EXIT_OK
    assert "ok" in capsys.readouterr().out


def test_validate_config_unknown_key(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("no_such_knob: 1\n", encoding="utf-8")
    assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG_INVALID
    assert "no_such_knob" in capsys.readouterr().err


def test_validate_config_missing_file(capsys):
    assert main(["validate-config", "--config", "/nope.yaml"]) == EXIT_CONFIG_INVALID


@pytest.mark.parametrize("kind", ["not utf-8", "a directory"])
def test_validate_config_unreadable_file(tmp_path, capsys, kind):
    """A config file that cannot be read is a config error naming it,
    exit 2, not a traceback."""
    path = tmp_path / "bad.yaml"
    if kind == "a directory":
        path.mkdir()
    else:
        path.write_bytes(b"seed: 3\n# \xff\xfe\n")
    assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG_INVALID
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(path) in err


# ---- run ----

def test_run_writes_artifacts(finished_run):
    for name in ("config.yaml", "run.jsonl", "final_snapshot.json", "result.json"):
        assert (finished_run / name).exists()
    assert not (finished_run / "checkpoints").exists()


def test_run_again_into_a_run_directory_replaces_its_log(finished_run, config_path):
    """A second run into the same directory leaves only its own log,
    which reads strictly and replays to its final snapshot."""
    first = (finished_run / "run.jsonl").read_bytes()
    assert main(["run", "--config", str(config_path), "--out", str(finished_run),
                 "--seed", "7"]) == EXIT_OK
    events = read_log(finished_run / "run.jsonl")
    assert events[0]["payload"]["seed"] == 7
    assert (finished_run / "run.jsonl").read_bytes() != first
    assert verify_replay(finished_run)
    assert main(["replay", str(finished_run)]) == EXIT_OK


def test_run_seed_flag_overrides_config(tmp_path, config_path):
    out = tmp_path / "run_seeded"
    assert main(["run", "--config", str(config_path), "--out", str(out),
                 "--seed", "99"]) == EXIT_OK
    copied = yaml.safe_load((out / "config.yaml").read_text(encoding="utf-8"))
    assert copied["seed"] == 99


def test_run_seed_flag_is_validated(tmp_path, config_path, capsys):
    out = tmp_path / "run_negative"
    assert main(["run", "--config", str(config_path), "--out", str(out),
                 "--seed", "-1"]) == EXIT_CONFIG_INVALID
    assert capsys.readouterr().err == "config error: seed must be in [0, 2**64), got -1\n"
    assert not out.exists()


def test_run_initialization_failure_exit_code(tmp_path, config_path, monkeypatch):
    import ideatree.cli as cli_module

    real_builder = cli_module.build_synthetic_ports

    def sabotaged(config, corpus_dir=None):
        ports = real_builder(config, corpus_dir)
        ports.evaluator = FlakyEvaluator(ports.evaluator, lambda node: True)
        return ports

    monkeypatch.setattr(cli_module, "build_synthetic_ports", sabotaged)
    out = tmp_path / "run_broken"
    code = main(["run", "--config", str(config_path), "--out", str(out)])
    assert code == EXIT_INITIALIZATION


def test_run_llm_ports_require_dataset(tmp_path, config_path, capsys):
    code = main(["run", "--config", str(config_path),
                 "--out", str(tmp_path / "x"), "--ports", "llm+subprocess"])
    assert code == EXIT_CONFIG_INVALID
    assert "--dataset" in capsys.readouterr().err


def test_run_llm_ports_require_endpoint(tmp_path, config_path, capsys):
    dataset = tmp_path / "ds"
    dataset.mkdir()
    (dataset / "description.txt").write_text("a task", encoding="utf-8")
    code = main(["run", "--config", str(config_path), "--out", str(tmp_path / "x"),
                 "--ports", "llm+subprocess", "--dataset", str(dataset)])
    assert code == EXIT_CONFIG_INVALID
    assert "endpoint.base_url" in capsys.readouterr().err


def test_run_llm_ports_without_a_description_is_a_reader_error(tmp_path, capsys):
    dataset = tmp_path / "ds"
    dataset.mkdir()
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump({"endpoint": {"base_url": "http://localhost:9",
                                                   "model": "m"}}), encoding="utf-8")
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "x"),
                 "--ports", "llm+subprocess", "--dataset", str(dataset)])
    assert code == EXIT_FAILURE
    assert capsys.readouterr().err == f"error: reader: description.txt missing in {dataset}\n"


def test_llm_ports_and_the_run_read_the_dataset_once(tmp_path, monkeypatch):
    """Building the llm ports reads the task and infers its metric; the
    run's setup and its ``run_started`` event use those, opening no
    dataset file again. The generator and evaluator are swapped for
    synthetic ones so the run needs no endpoint."""
    dataset = tmp_path / "ds"
    dataset.mkdir()
    (dataset / "description.txt").write_text(
        "Predict late deliveries.\nmetric: f1 (higher is better)\n", encoding="utf-8")
    (dataset / "data.csv").write_text("distance,late\n4.0,0\n9.5,1\n", encoding="utf-8")
    opened = []
    real_open = Path.open

    def counting_open(self, *args, **kwargs):
        if self.parent == dataset:
            opened.append(self.name)
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    config = RunConfig(seed=5, clock_mode="simulated", time_run_minutes=100.0,
                       endpoint=EndpointConfig(base_url="http://localhost:9", model="m"))
    ports = build_llm_ports(config, dataset, tmp_path / "run")
    synthetic = build_synthetic_ports(config)
    ports = dataclasses.replace(ports, gen=synthetic.gen, evaluator=synthetic.evaluator,
                                predictor=None)
    execute_run(config, ports, tmp_path / "run")
    assert sorted(opened) == ["data.csv", "description.txt"]
    (started,) = [e for e in read_log(tmp_path / "run" / "run.jsonl")
                  if e["kind"] == "run_started"]
    assert started["payload"]["metric"] == {"name": "f1", "direction": "higher_better"}
    assert started["payload"]["task_rows"] == 2


def test_llm_ports_clamp_subprocess_timeouts_to_the_run_clock(tmp_path):
    """The subprocess evaluator gets the wall clock the run is timed
    by; building the ports calls no endpoint."""
    dataset = tmp_path / "ds"
    dataset.mkdir()
    (dataset / "description.txt").write_text("a task", encoding="utf-8")
    config = RunConfig(clock_mode="wall",
                       endpoint=EndpointConfig(base_url="http://localhost:9", model="m"))
    ports = build_llm_ports(config, dataset, tmp_path / "run")
    assert isinstance(ports.clock, WallClock)
    assert ports.evaluator.clock is ports.clock
    assert ports.evaluator.wall_minutes == config.runtime_error_time


@pytest.mark.parametrize("extra_rows, subset_percent", [(0, None), (1, 25.0)],
                         ids=["at the threshold", "one row over"])
def test_llm_ports_send_the_subset_only_for_a_large_table(tmp_path, monkeypatch,
                                                          extra_rows, subset_percent):
    """The subprocess evaluator gets ``subset_size_in_percent`` only for
    a table of more than ``validator_size_threshold`` rows; building
    the ports calls no endpoint."""
    def no_endpoint(*args, **kwargs):
        raise AssertionError("building the ports called an endpoint")

    monkeypatch.setattr("requests.Session.request", no_endpoint)
    config = RunConfig(validator_size_threshold=3, subset_size_in_percent=25.0,
                       endpoint=EndpointConfig(base_url="http://localhost:9", model="m"))
    dataset = tmp_path / "ds"
    dataset.mkdir()
    (dataset / "description.txt").write_text("a task", encoding="utf-8")
    rows = config.validator_size_threshold + extra_rows
    (dataset / "data.csv").write_text("a\n" + "1\n" * rows, encoding="utf-8")
    ports = build_llm_ports(config, dataset, tmp_path / "run")
    assert ports.task.row_count == rows
    assert ports.evaluator.subset_percent == subset_percent


def test_llm_ports_refuse_an_invalid_config_before_reading_the_dataset(tmp_path):
    config = RunConfig(runtime_error_time=0.0,
                       endpoint=EndpointConfig(base_url="http://localhost:9", model="m"))
    with pytest.raises(ConfigInvalid) as exc_info:
        build_llm_ports(config, tmp_path / "missing", tmp_path / "run")
    assert exc_info.value.problems == ["runtime_error_time must be positive, got 0.0"]


# ---- replay ----

def test_replay_intact_run(finished_run, capsys):
    assert main(["replay", str(finished_run)]) == EXIT_OK
    assert "exactly" in capsys.readouterr().out


def test_replay_tampered_log(finished_run, capsys):
    log_path = finished_run / "run.jsonl"
    lines = log_path.read_text(encoding="utf-8").splitlines()
    del lines[5]
    log_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["replay", str(finished_run)]) == EXIT_FAILURE


def test_replay_missing_artifacts(tmp_path, capsys):
    assert main(["replay", str(tmp_path)]) == EXIT_FAILURE
    assert "error" in capsys.readouterr().err


def test_replay_detects_divergence(finished_run, capsys):
    snapshot_path = finished_run / "final_snapshot.json"
    doc = json.loads(snapshot_path.read_text(encoding="utf-8"))
    doc["nodes"][0]["idea_text"] = "edited after the fact"
    snapshot_path.write_text(json.dumps(doc, indent=2, sort_keys=True),
                             encoding="utf-8")
    assert main(["replay", str(finished_run)]) == EXIT_FAILURE
    assert "DIVERGES" in capsys.readouterr().err


# ---- report ----

def test_report_progress_table(finished_run, capsys):
    assert main(["report", str(finished_run)]) == EXIT_OK
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if "\t" in l]
    header = lines[0].split("\t")
    assert header[:3] == ["iteration", "elapsed", "best_oriented_score"]
    summary = run_summary(finished_run)
    # one row per iteration plus the initialization row
    assert len(lines) - 1 == summary["iterations"] + 1
    best_column = [float(l.split("\t")[2]) for l in lines[1:]]
    assert best_column == sorted(best_column)


def test_report_reads_a_crashed_run(finished_run, tmp_path):
    """A log cut anywhere past the first stage, as a crash leaves it,
    still reports: exit 0, and its rows are a prefix of the full run's."""
    log = (finished_run / "run.jsonl").read_bytes()
    full_rows = progress_report(finished_run)
    first_stage = log.index(b'"kind":"stage_finished"')
    start = log.index(b"\n", first_stage) + 1
    offsets = random.Random(5).sample(range(start, len(log) - 1), 25)
    for i, offset in enumerate(sorted(offsets)):
        crashed = tmp_path / f"crashed_{i}"
        crashed.mkdir()
        (crashed / "run.jsonl").write_bytes(log[:offset])
        assert main(["report", str(crashed), "--out", str(crashed / "tables")]) == EXIT_OK
        rows = progress_report(crashed)
        assert rows and rows == full_rows[:len(rows)]
        summary = json.loads((crashed / "tables" / "summary.json").read_text(encoding="utf-8"))
        assert summary == run_summary(crashed)


@pytest.mark.parametrize("with_leaderboard", [False, True])
def test_report_progress_parses_the_log_once(finished_run, tmp_path, monkeypatch,
                                             with_leaderboard):
    import ideatree.report as report_module

    calls = []
    read = report_module.iter_log

    def counted(*args, **kwargs):
        calls.append(args)
        return read(*args, **kwargs)

    monkeypatch.setattr(report_module, "iter_log", counted)
    argv = ["report", str(finished_run)]
    if with_leaderboard:
        lb = tmp_path / "lb.txt"
        lb.write_text("higher_better\n0.2\n", encoding="utf-8")
        argv += ["--leaderboard", str(lb)]
    assert main(argv) == EXIT_OK
    assert len(calls) == 1


def test_report_on_a_malformed_payload_is_an_error_naming_the_event(finished_run, capsys):
    """A record whose payload lacks a field the report reads ends the
    command with an error naming the record's seq, exit 1, and no
    traceback; ``run_summary`` raises CorruptLog."""
    log_path = finished_run / "run.jsonl"
    records = [json.loads(line) for line in log_path.read_text(encoding="utf-8").splitlines()]
    broken = next(r for r in records if r["kind"] == "node_evaluated")
    del broken["payload"]["status"]
    log_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert main(["report", str(finished_run)]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert f"error: event {broken['seq']} does not apply: KeyError('status')" in err
    assert "Traceback" not in err
    with pytest.raises(CorruptLog, match=f"event {broken['seq']} "):
        run_summary(finished_run)


def test_report_progress_rejects_multiple_dirs(finished_run, tmp_path, capsys):
    code = main(["report", str(finished_run), str(tmp_path)])
    assert code == EXIT_FAILURE


@pytest.mark.parametrize("command", ["run", "report"])
def test_an_out_path_that_is_a_file_is_an_error(finished_run, tmp_path, config_path,
                                                 capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    args = (["run", "--config", str(config_path)] if command == "run"
            else ["report", str(finished_run)])
    capsys.readouterr()
    assert main(args + ["--out", str(taken)]) == EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(taken) in err


def test_report_writes_files(finished_run, tmp_path):
    out_dir = tmp_path / "tables"
    assert main(["report", str(finished_run), "--out", str(out_dir)]) == EXIT_OK
    progress = (out_dir / "progress.tsv").read_text(encoding="utf-8").splitlines()
    assert progress[0] == "\t".join(
        ["iteration", "elapsed", "best_oriented_score", "fe_count", "mt_count", "merged_count"])
    assert len(progress) == len(progress_report(finished_run)) + 1
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert summary["iterations"] >= 1


def test_report_comparison_modes(finished_run, tmp_path, config_path):
    other = tmp_path / "run_b"
    assert main(["run", "--config", str(config_path), "--seed", "14",
                 "--out", str(other)]) == EXIT_OK
    out_dir = tmp_path / "tables"
    assert main(["report", str(finished_run), str(other),
                 "--mode", "ablation", "--out", str(out_dir)]) == EXIT_OK
    assert main(["report", str(finished_run), str(other),
                 "--mode", "acceleration", "--out", str(out_dir)]) == EXIT_OK
    ablation = (out_dir / "ablation.tsv").read_text(encoding="utf-8").splitlines()
    assert len(ablation) == 3
    acceleration = (out_dir / "acceleration.tsv").read_text(encoding="utf-8")
    assert "speedup" in acceleration.splitlines()[0]


def test_report_missing_run_dir(tmp_path, capsys):
    assert main(["report", str(tmp_path / "ghost")]) == EXIT_FAILURE


def test_report_leaderboard_standing(finished_run, tmp_path, capsys):
    lb = tmp_path / "lb.txt"
    lb.write_text("higher_better\n0.2\n0.5\n0.95\n", encoding="utf-8")
    assert main(["report", str(finished_run), "--leaderboard", str(lb)]) == EXIT_OK
    assert "percent humans beaten: 66.7%" in capsys.readouterr().out


def test_report_malformed_leaderboard(finished_run, tmp_path, capsys):
    lb = tmp_path / "lb.txt"
    lb.write_text("sideways_better\n0.2\n", encoding="utf-8")
    assert main(["report", str(finished_run), "--leaderboard", str(lb)]) == EXIT_FAILURE


# ---- report internals ----

def test_percent_beaten_documented_example():
    percent = percent_humans_beaten(0.15, [0.1, 0.2, 0.9], MetricDirection.LOWER_BETTER)
    assert percent == pytest.approx(100 * 2 / 3)


def test_percent_beaten_worse_than_everyone():
    percent = percent_humans_beaten(0.95, [0.1, 0.2, 0.9], MetricDirection.LOWER_BETTER)
    assert percent == 0.0


def test_percent_beaten_no_submission():
    assert percent_humans_beaten(None, [0.1, 0.2], MetricDirection.HIGHER_BETTER) == 0.0


def test_percent_beaten_ties_do_not_count():
    percent = percent_humans_beaten(0.5, [0.5, 0.5, 0.4], MetricDirection.HIGHER_BETTER)
    assert percent == pytest.approx(100 / 3)


def test_read_leaderboard_roundtrip(tmp_path):
    lb = tmp_path / "lb.txt"
    lb.write_text("LOWER_BETTER\n\n0.1\n0.2\n0.9\n", encoding="utf-8")
    direction, scores = read_leaderboard(lb)
    assert direction is MetricDirection.LOWER_BETTER
    assert scores == [0.1, 0.2, 0.9]


@pytest.mark.parametrize("text", [
    "",
    "0.1\n0.2\n",
    "higher_better\n",
    "higher_better\nnot a number\n",
    "higher_better\n0.5\nnan\n",
    "higher_better\n0.5\ninf\n",
    "higher_better\n0.5\n-inf\n",
    "higher_better\n0.5\n1e999\n",
    b"higher_better\n\xff\xfe0.5\n",
])
def test_read_leaderboard_rejects_malformed(tmp_path, text):
    lb = tmp_path / "lb.txt"
    lb.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    with pytest.raises(MalformedLeaderboardFile):
        read_leaderboard(lb)


def test_progress_report_requires_log(tmp_path):
    with pytest.raises(MissingRunArtifacts):
        progress_report(tmp_path)


def test_progress_rows_count_nodes_by_kind(finished_run):
    rows = progress_report(finished_run)
    last = rows[-1]
    summary = run_summary(finished_run)
    assert last.fe_count == summary["fe_count"]
    assert last.mt_count == summary["mt_count"]
    assert last.merged_count == summary["merged_count"]
    # the log's counts agree with the final tree's, read independently
    nodes = json.loads((finished_run / "final_snapshot.json").read_text(encoding="utf-8"))["nodes"]
    assert last.fe_count == sum(n["level"] == "fe" for n in nodes)
    assert last.mt_count == sum(n["level"] == "mt" for n in nodes)
    assert last.merged_count == sum(n["provenance"]["kind"] == "merged" for n in nodes) > 0
    assert rows[0].iteration == 0
    assert [r.iteration for r in rows] == list(range(len(rows)))
