"""Command-line front door: run budgeted searches, validate configs,
replay logs, and emit plot-ready report tables.

Exit codes: 0 for a finished command, 2 for an invalid config, 3 for a
run that could not initialize, 1 for anything else that went wrong.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import Optional

from .config import RunConfig, load_config
from .errors import ConfigInvalid, IdeaTreeError, InitializationFailure
from .evaluation import ExecLimits, SubprocessEvaluator
from .events import collector_paused
from .generation import LlmGenerator, MemoryStrategy
from .orchestrator import (
    PortSet,
    build_clock,
    build_synthetic_ports,
    execute_run,
    verify_replay,
)
from .report import (
    ABLATION_COLUMNS,
    ACCELERATION_COLUMNS,
    ablation_table,
    acceleration_table,
    leaderboard_standing,
    render_rows,
    render_summary,
    render_table,
    run_summary,
    walk_run_log,
)
from .retrieval import FileCorpusRetriever
from .scoring import LlmPredictor
from .setup_stages import (
    DescriptionMetric,
    DirectoryReader,
    RotatingValidator,
    ScriptedBaseliner,
    SetupStages,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG_INVALID = 2
EXIT_INITIALIZATION = 3

PORTS_SYNTHETIC = "synthetic"
PORTS_LLM = "llm+subprocess"

REPORT_MODES = ("progress", "ablation", "acceleration")

CORPUS_DIRNAME = "corpus"


def _corpus_dir(dataset_dir: Optional[Path]) -> Optional[Path]:
    if dataset_dir is None:
        return None
    candidate = Path(dataset_dir) / CORPUS_DIRNAME
    return candidate if candidate.is_dir() else None


def build_llm_ports(config: RunConfig, dataset_dir: Path, out_dir: Path) -> PortSet:
    """Wire the real ports: chat-completion generation, subprocess
    execution of code artifacts, dataset read from disk."""
    if not config.endpoint.base_url:
        raise ConfigInvalid(
            [f"endpoint.base_url is required for {PORTS_LLM} ports"]
        )
    dataset_dir = Path(dataset_dir)
    reader = DirectoryReader()
    task = reader.read(dataset_dir)
    metric_port = DescriptionMetric()
    metric = metric_port.infer(task)
    clock = build_clock(config)
    corpus = _corpus_dir(dataset_dir)
    gen = LlmGenerator(
        config.endpoint,
        retriever=FileCorpusRetriever(corpus) if corpus else None,
        retrieve_k=config.retrieve_n_papers,
        memory_n=config.memory_size,
        memory_strategy=MemoryStrategy(config.memory_strategy),
        memory_seed=config.seed,
    )
    evaluator = SubprocessEvaluator(
        workspace=Path(out_dir) / "workspace",
        limits=ExecLimits(wall_minutes=config.runtime_error_time),
        metric=metric,
        subset_percent=config.subset_size_in_percent,
        clock=clock,
    )
    predictor = None
    if config.predict_before_evaluate:
        predictor = LlmPredictor(config.endpoint, metric_name=metric.name)
    stages = SetupStages(
        reader=reader,
        metric=metric_port,
        validator=RotatingValidator(),
        baseliner=ScriptedBaseliner(),
    )
    return PortSet(stages=stages, gen=gen, evaluator=evaluator, metric=metric,
                   clock=clock, predictor=predictor)


# =====================================================================
# Subcommands
# =====================================================================

def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        config.seed = args.seed
        config.validate()
    out_dir = Path(args.out)
    dataset_dir = Path(args.dataset) if args.dataset else None
    if args.ports == PORTS_LLM:
        if dataset_dir is None:
            raise ConfigInvalid([f"--dataset is required for {PORTS_LLM} ports"])
        ports = build_llm_ports(config, dataset_dir, out_dir)
    else:
        ports = build_synthetic_ports(config, corpus_dir=_corpus_dir(dataset_dir))
    result = execute_run(config, ports, out_dir, dataset_dir=dataset_dir)
    score = "none" if result.best_raw_score is None else f"{result.best_raw_score:.6g}"
    print(f"run finished after {result.iterations} iterations; "
          f"best node {result.best_node_id}, {ports.metric.name} {score}")
    print(f"artifacts in {out_dir}")
    return EXIT_OK


def cmd_validate_config(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    print(f"{args.config}: ok (seed {config.seed}, "
          f"budget {config.time_run_minutes:g} minutes)")
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    if verify_replay(run_dir):
        print(f"{run_dir}: log replays to the final snapshot exactly")
        return EXIT_OK
    print(f"{run_dir}: replay DIVERGES from the final snapshot", file=sys.stderr)
    return EXIT_FAILURE


# progress mode walks the log once, outside progress_report and
# run_summary, so the whole command is paused
@collector_paused()
def cmd_report(args: argparse.Namespace) -> int:
    run_dirs = [Path(p) for p in args.run_dirs]
    outputs: list[tuple[str, str]] = []
    summary = None  # of run_dirs[0], once the log is read
    if args.mode == "progress":
        if len(run_dirs) != 1:
            print("progress mode takes exactly one run directory", file=sys.stderr)
            return EXIT_FAILURE
        walk = walk_run_log(run_dirs[0])
        summary = walk.summary(run_dirs[0])
        outputs.append(("progress.tsv", render_rows(walk.rows, delimiter=args.delimiter)))
        outputs.append(("summary.json", render_summary(summary)))
    elif args.mode == "ablation":
        table = ablation_table(run_dirs)
        outputs.append(
            ("ablation.tsv", render_table(ABLATION_COLUMNS, table, delimiter=args.delimiter))
        )
    else:
        table = acceleration_table(run_dirs)
        outputs.append(
            ("acceleration.tsv",
             render_table(ACCELERATION_COLUMNS, table, delimiter=args.delimiter))
        )
    if args.leaderboard:
        standing = leaderboard_standing(summary or run_summary(run_dirs[0]),
                                        Path(args.leaderboard))
        outputs.append(("standing.json", render_summary(standing)))
        print(f"percent humans beaten: {standing['percent_humans_beaten']:.1f}% "
              f"({standing['entries']} entries, {standing['direction']})")
    for _, text in outputs:
        print(text, end="")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in outputs:
            (out_dir / name).write_text(text, encoding="utf-8")
        print(f"wrote {len(outputs)} file(s) to {out_dir}")
    return EXIT_OK


# =====================================================================
# Parser
# =====================================================================

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ideatree",
        description="Tree-guided search over data and model ideas, on a time budget",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="execute a budgeted search")
    run_parser.add_argument("--config", type=Path, default=None,
                            help="YAML or JSON run config (defaults apply if omitted)")
    run_parser.add_argument("--dataset", type=Path, default=None,
                            help="dataset directory (description.txt, data.csv, ...)")
    run_parser.add_argument("--out", type=Path, required=True,
                            help="run directory to create")
    run_parser.add_argument("--seed", type=int, default=None,
                            help="override the config seed")
    run_parser.add_argument("--ports", choices=(PORTS_SYNTHETIC, PORTS_LLM),
                            default=PORTS_SYNTHETIC,
                            help="which port set to wire up")
    run_parser.set_defaults(func=cmd_run)

    report_parser = subparsers.add_parser("report", help="tabulate finished runs")
    report_parser.add_argument("run_dirs", nargs="+", metavar="RUN_DIR",
                               help="run directories (first is the baseline)")
    report_parser.add_argument("--mode", choices=REPORT_MODES, default="progress")
    report_parser.add_argument("--leaderboard", type=Path, default=None,
                               help="human score file: direction header, one score per line")
    report_parser.add_argument("--out", type=Path, default=None,
                               help="also write tables into this directory")
    report_parser.add_argument("--delimiter", default="\t",
                               help="column separator for tables")
    report_parser.set_defaults(func=cmd_report)

    replay_parser = subparsers.add_parser(
        "replay", help="rebuild the tree from the log and compare to the snapshot")
    replay_parser.add_argument("run_dir", metavar="RUN_DIR")
    replay_parser.set_defaults(func=cmd_replay)

    validate_parser = subparsers.add_parser("validate-config",
                                            help="parse and validate a config file")
    validate_parser.add_argument("--config", type=Path, required=True)
    validate_parser.set_defaults(func=cmd_validate_config)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigInvalid as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG_INVALID
    except InitializationFailure as exc:
        print(f"initialization failed: {exc}", file=sys.stderr)
        return EXIT_INITIALIZATION
    except IdeaTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
