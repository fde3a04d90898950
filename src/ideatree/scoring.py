"""Predictive scoring of model-training candidates from anchor examples.

Cheap score estimates let the engine rank fresh candidates and spend
full evaluations only on the promising half. Anchors are real evaluated
nodes gathered in two sweeps: several architectures under the strongest
feature idea, then the winning architecture under each remaining feature
idea. Predictors consume (description, score) pairs; the baseline one is
a pure similarity-weighted mean used to verify the plumbing without an
endpoint.
"""

from __future__ import annotations

import logging
import re
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Protocol

from .embedding import cosine_similarity
from .errors import (
    AnchorConstructionFailed,
    EmptyAnchorSet,
    InvalidParams,
    MalformedResponse,
    NoFeNodes,
)
from .evaluation import EvaluationPort
from .events import EventKind, RunLog
from .generation import EndpointConfig, _load_template, complete_with_retries
from .search import EvalPolicy, PendingSet, softmax_select
from .tree import IdeationTree, MetricSpec, Node, NodeLevel, NodeStatus, backpropagate

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Anchor:
    """One evaluated reference point: what was tried and what it scored.

    ``mt_node_id`` ties the anchor back to the tree node whose full
    evaluation produced ``true_score``; it is also the canonical sort
    key wherever anchor order must not matter.
    """

    description: str
    true_score: float
    fe_node_id: int
    architecture_tag: str
    mt_node_id: int


@dataclass(frozen=True)
class AnchorSet:
    anchors: tuple[Anchor, ...]
    phase1_fe: int
    phase2_arch: str

    def __post_init__(self):
        if not self.anchors:
            raise EmptyAnchorSet("anchor set cannot be empty")

    def sorted_anchors(self) -> list[Anchor]:
        return sorted(self.anchors, key=lambda a: a.mt_node_id)

    def score_bounds(self) -> tuple[float, float]:
        scores = [a.true_score for a in self.anchors]
        return min(scores), max(scores)


class Predictor(Protocol):
    """Estimates the raw metric value a candidate would achieve."""

    def predict(self, candidate_description: str, anchor_set: AnchorSet,
                dataset_description: str) -> float: ...


def rank_fe_nodes(fe_nodes: list[Node], metric: MetricSpec) -> list[Node]:
    """Feature nodes best first: highest oriented aggregate, nodes with
    no aggregate last, ties to the lowest id."""

    def rank(node: Node) -> tuple[float, int]:
        oriented = (
            metric.orient(node.aggregated_score)
            if node.aggregated_score is not None
            else float("-inf")
        )
        return (-oriented, node.id)

    return sorted(fe_nodes, key=rank)


def build_anchor_set(
    tree: IdeationTree,
    evaluator: EvaluationPort,
    architectures: list[str],
    metric: MetricSpec,
    *,
    min_anchors: int = 2,
    max_anchors: int = 5,
    log: Optional[RunLog] = None,
    clock=None,
    pool: Optional[Executor] = None,
) -> AnchorSet:
    """Gather anchors in two sweeps of real evaluations.

    Sweep one runs each architecture (up to ``max_anchors``) under the
    feature node with the best oriented aggregate, ties to the lowest
    id. Sweep two takes the architecture that scored best in sweep one
    and runs it under the remaining feature nodes, best aggregates
    first, until ``max_anchors`` is reached. Every evaluation lands in
    the tree as an ordinary node, charged to ``clock`` like a stage's
    (sweep one's run together on ``pool`` when given); failures are
    marked and omitted. If fewer than ``min_anchors`` survive the whole
    procedure, nothing usable came back and AnchorConstructionFailed is
    raised.
    """
    if min_anchors < 1 or max_anchors < min_anchors:
        raise InvalidParams(
            f"need 1 <= min_anchors <= max_anchors, got {min_anchors}..{max_anchors}"
        )
    fe_nodes = tree.fe_nodes()
    if not fe_nodes:
        raise NoFeNodes("anchor construction needs at least one feature node")
    if not architectures:
        raise InvalidParams("architectures must be non-empty")

    ranked_fe = rank_fe_nodes(fe_nodes, metric)
    phase1_fe = ranked_fe[0]

    pending = PendingSet(tree, evaluator, EvalPolicy(), clock=clock, log=log, pool=pool)

    def evaluate_anchors(fe: Node, archs: list[str]) -> list[Anchor]:
        nodes = []
        for arch in archs:
            node = tree.spawn(fe.id, NodeLevel.MT, arch)
            if log is not None:
                log.append(EventKind.NODE_PROPOSED, node=node.to_record())
            pending.dispatch(node)
            nodes.append(node)
        pending.commit()
        anchors = []
        for arch, node in zip(archs, nodes):
            if node.status is NodeStatus.EVALUATED:
                anchors.append(Anchor(
                    description=arch, true_score=node.raw_score, fe_node_id=fe.id,
                    architecture_tag=arch, mt_node_id=node.id,
                ))
            else:
                logger.warning("anchor evaluation failed for %r under fe %d", arch, fe.id)
        return anchors

    anchors = evaluate_anchors(phase1_fe, architectures[:max_anchors])

    if not anchors:
        backpropagate(tree)
        raise AnchorConstructionFailed("every architecture sweep evaluation failed")

    phase2_arch = min(
        anchors, key=lambda a: (-metric.orient(a.true_score), a.mt_node_id)
    ).architecture_tag

    slots = max_anchors - len(anchors)
    for fe in ranked_fe[1:]:
        if slots <= 0:
            break
        found = evaluate_anchors(fe, [phase2_arch])
        anchors.extend(found)
        slots -= len(found)

    backpropagate(tree)
    if len(anchors) < min_anchors:
        raise AnchorConstructionFailed(
            f"only {len(anchors)} anchors survived, need at least {min_anchors}"
        )
    return AnchorSet(anchors=tuple(anchors), phase1_fe=phase1_fe.id, phase2_arch=phase2_arch)


# =====================================================================
# Prompt assembly and the baseline predictor
# =====================================================================

def assemble_prediction_prompt(
    candidate: str,
    anchor_set: AnchorSet,
    dataset_description: str,
    *,
    metric_name: str = "metric",
) -> str:
    """Render the prediction prompt. Anchors are sorted by node id so
    the text is identical no matter how the set was assembled."""
    if not anchor_set.anchors:
        raise EmptyAnchorSet("cannot assemble a prompt from zero anchors")
    blocks = [
        f"- idea: {anchor.description}\n  {metric_name}: {anchor.true_score!r}"
        for anchor in anchor_set.sorted_anchors()
    ]
    template = _load_template("score_prediction.txt")
    return template.format(
        dataset=dataset_description,
        anchors="\n".join(blocks),
        candidate=candidate,
        metric_name=metric_name,
    )


def baseline_predict(
    candidate: str,
    anchor_set: AnchorSet,
    embedder,
    *,
    temperature: float = 1.0,
) -> float:
    """Similarity-weighted mean of anchor scores.

    Weights are a softmax over cosine similarities between the candidate
    embedding and each anchor description embedding; lower temperatures
    concentrate mass on the nearest anchors. Being a convex combination,
    the output always lies inside the anchor score range.
    """
    anchors = anchor_set.sorted_anchors()
    candidate_vec = embedder.embed(candidate)
    sims = [
        cosine_similarity(candidate_vec, embedder.embed(anchor.description))
        for anchor in anchors
    ]
    weights = softmax_select(sims, temperature).probabilities
    return float(sum(w * a.true_score for w, a in zip(weights, anchors)))


@dataclass
class BaselinePredictor:
    """Predictor port backed by baseline_predict. Pure in its inputs;
    the dataset description is accepted for port compatibility and
    ignored."""

    embedder: object
    temperature: float = 1.0

    def predict(self, candidate_description: str, anchor_set: AnchorSet,
                dataset_description: str = "") -> float:
        return baseline_predict(
            candidate_description, anchor_set, self.embedder,
            temperature=self.temperature,
        )


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def parse_predicted_value(reply: str) -> float:
    """Pull the single number out of a predictor reply. Tolerates
    surrounding whitespace or a trailing period, nothing more."""
    text = reply.strip().rstrip(".")
    match = _NUMBER.fullmatch(text)
    if match is None:
        raise MalformedResponse(f"expected one number, got {reply[:80]!r}")
    return float(text)


class LlmPredictor:
    """Predictor that asks a chat-completion endpoint for the number."""

    def __init__(self, endpoint: EndpointConfig, metric_name: str = "metric",
                 session: Optional[requests.Session] = None):
        self.endpoint = endpoint
        self.metric_name = metric_name
        if session is None:
            import requests

            session = requests.Session()
        self._session = session

    def predict(self, candidate_description: str, anchor_set: AnchorSet,
                dataset_description: str = "") -> float:
        prompt = assemble_prediction_prompt(
            candidate_description, anchor_set, dataset_description,
            metric_name=self.metric_name,
        )
        return complete_with_retries(
            self._session, self.endpoint,
            "You estimate evaluation scores from reference examples.",
            prompt, parse_predicted_value,
        )
