"""Exception taxonomy for the ideatree engine.

Errors are grouped by the layer that raises them. Stage-level code catches
the generator and evaluation families and converts them into logged outcomes;
everything else is a programming or input error and propagates.
"""

from __future__ import annotations


class IdeaTreeError(Exception):
    """Base class for all engine errors."""


# ---- tree structure ----

class UnknownParent(IdeaTreeError):
    """Referenced parent id does not exist in the tree."""


class LevelMismatch(IdeaTreeError):
    """Node level is not the required child level of its parent."""


class InvariantViolation(IdeaTreeError):
    """A structural invariant of the tree does not hold."""


class DuplicateId(InvariantViolation):
    """Node id already present in the tree."""


class MalformedDocument(IdeaTreeError):
    """Snapshot document cannot be parsed or is missing required fields."""


class NonFiniteScore(IdeaTreeError):
    """A score value is NaN or infinite."""


class NoEvaluatedChildren(IdeaTreeError):
    """Operation requires at least one evaluated child node."""


# ---- search ----

class EmptyInput(IdeaTreeError):
    """An input collection that must be non-empty was empty."""


class InvalidParams(IdeaTreeError):
    """Stage or selection parameters are out of range."""


class InsufficientParents(IdeaTreeError):
    """Merging requires at least two eligible parent nodes."""


# ---- generation ----

class GeneratorFailure(IdeaTreeError):
    """Idea generation failed; the enclosing stage aborts."""


class TransportFailure(GeneratorFailure):
    """HTTP transport to the completion endpoint failed."""


class MalformedResponse(GeneratorFailure):
    """Endpoint response could not be parsed into the requested ideas."""


class RetriesExhausted(GeneratorFailure):
    """All retry attempts against the endpoint failed."""


class RetrievalFailure(IdeaTreeError):
    """External document retrieval failed; treated as an empty result."""


class UnparseableIdea(IdeaTreeError):
    """Idea text does not parse as a numeric idea vector."""


# ---- evaluation ----

class EvaluationFailure(IdeaTreeError):
    """Candidate evaluation failed; carries the failure report when known."""

    def __init__(self, message: str = "", report=None):
        super().__init__(message or (report.message if report is not None else ""))
        self.report = report


class BudgetExhausted(IdeaTreeError):
    """Time budget ran out mid-stage; partial results were committed."""


# ---- orchestration ----

class StageFailure(IdeaTreeError):
    """Reading the run's dataset failed; carries the stage name
    (``reader``) and the cause's message."""

    def __init__(self, stage: str, message: str = ""):
        super().__init__(f"{stage}: {message}" if message else stage)
        self.stage = stage


class InitializationFailure(IdeaTreeError):
    """Tree initialization produced no evaluated candidates."""


class ConfigInvalid(IdeaTreeError):
    """Run configuration failed validation; carries one message per problem."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


# ---- scoring ----

class AnchorConstructionFailed(IdeaTreeError):
    """Too few anchors survived evaluation to form a usable set."""


# ---- run artifacts ----

class CorruptLog(IdeaTreeError):
    """Run log is unreadable, has gaps, or is missing its terminal record."""


class LogVersionMismatch(CorruptLog):
    """Run log was written with an unsupported schema version."""


class MissingRunArtifacts(IdeaTreeError):
    """Run directory lacks a required artifact (log, config, or snapshot)."""


class MalformedLeaderboardFile(IdeaTreeError):
    """Leaderboard file is empty, lacks a direction header, or has bad rows."""
