"""Tree-guided search over data and model ideas, on a time budget.

The package grows a three-level ideation tree (one analysis root,
feature ideas, model ideas under them), alternating an expansion stage
with a recombination stage until the clock runs out. Scores flow up the
tree, selection flows down, and every mutation lands in an event log
that replays to the exact final state.
"""

from .clock import SimulatedClock, WallClock
from .config import RunConfig, SyntheticConfig, load_config
from .events import EventKind, RunLog, read_log
from .orchestrator import (
    PortSet,
    RunResult,
    build_synthetic_ports,
    execute_run,
    initialize_tree,
    replay,
    run_main_loop,
    verify_replay,
)
from .report import ReportRow, percent_humans_beaten, progress_report, run_summary
from .search import MergeMemory, adding_stage, merging_stage
from .tree import (
    IdeationTree,
    MetricDirection,
    MetricSpec,
    Node,
    NodeLevel,
    NodeStatus,
    backpropagate,
)

__version__ = "0.1.0"

__all__ = [
    "EventKind",
    "IdeationTree",
    "MergeMemory",
    "MetricDirection",
    "MetricSpec",
    "Node",
    "NodeLevel",
    "NodeStatus",
    "PortSet",
    "ReportRow",
    "RunConfig",
    "RunLog",
    "RunResult",
    "SimulatedClock",
    "SyntheticConfig",
    "WallClock",
    "adding_stage",
    "backpropagate",
    "build_synthetic_ports",
    "execute_run",
    "initialize_tree",
    "load_config",
    "merging_stage",
    "percent_humans_beaten",
    "progress_report",
    "read_log",
    "replay",
    "run_main_loop",
    "run_summary",
    "verify_replay",
]
