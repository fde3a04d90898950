"""Predictive scoring of model-training candidates from anchor examples.

Cheap score estimates let the engine rank fresh candidates and spend
full evaluations only on the promising half. Anchors are the evaluated
MT nodes of two sweeps: several architectures under the strongest
feature idea, then the winning architecture under each remaining feature
idea. Predictors read each anchor's idea text and raw score; the
baseline one is a pure similarity-weighted mean used to verify the
plumbing without an endpoint.
"""

from __future__ import annotations

import logging
import re
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Protocol, Sequence

import numpy as np

from .embedding import cosine_from_norms
from .errors import AnchorConstructionFailed, MalformedResponse
from .evaluation import EvalMode
from .events import RunLog
from .generation import ContextState, EndpointConfig, _load_template, complete_with_retries
from .search import PendingSet, softmax_select
from .tree import (
    IdeationTree,
    MetricSpec,
    Node,
    NodeLevel,
    NodeStatus,
    backpropagate,
    sum_in_order,
)

if TYPE_CHECKING:
    import requests

    from .config import RunConfig
    from .orchestrator import PortSet

logger = logging.getLogger(__name__)


class Predictor(Protocol):
    """Estimates the raw metric value a candidate would achieve from
    ``anchors``, evaluated MT nodes, each read for its ``idea_text``
    and ``raw_score`` in ascending id."""

    def predict(self, candidate_description: str, anchors: Sequence[Node],
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
    ctx: ContextState,
    ports: PortSet,
    config: RunConfig,
    *,
    log: Optional[RunLog] = None,
    pool: Optional[Executor] = None,
) -> tuple[Node, ...]:
    """Gather the anchors, the evaluated MT nodes of two sweeps of real
    evaluations, with the ports' generator, evaluator, metric and clock;
    returned in ascending id.

    The feature nodes are ranked once: best oriented aggregate first,
    ties to the lowest id. Sweep one asks the generator for
    ``number_of_ideas_modelling`` architectures under the top feature
    node and runs each (up to ``number_of_ideas_max``) there. Sweep two
    takes the architecture that scored best in sweep one and runs it
    under the remaining feature nodes, in rank order, until
    ``number_of_ideas_max`` is reached. Every evaluation lands in the
    tree as an ordinary node, charged to the clock like a stage's
    (sweep one's run together on ``pool`` when given), but gets the
    metric run alone, none of the validation runs a stage's candidate
    gets. Failures are marked and omitted. If sweep one scores nothing
    (no architecture proposed, or every evaluation failed), or fewer
    than ``number_of_ideas_min`` survive the whole procedure, nothing
    usable came back and AnchorConstructionFailed is raised.
    """
    metric = ports.metric
    min_anchors, max_anchors = config.number_of_ideas_min, config.number_of_ideas_max
    ranked_fe = rank_fe_nodes(tree.fe_nodes(), metric)
    architectures = ports.gen.propose_mt(ranked_fe[0], ctx, config.number_of_ideas_modelling)

    pending = PendingSet(tree, ports.evaluator, (EvalMode.FULL,), clock=ports.clock, log=log,
                         pool=pool)

    def sweep(fe: Node, archs: list[str]) -> list[Node]:
        nodes = []
        for arch in archs:
            node = pending.spawn(fe.id, NodeLevel.MT, arch)
            pending.dispatch(node)
            nodes.append(node)
        pending.commit()
        for node in nodes:
            if node.status is not NodeStatus.EVALUATED:
                logger.warning("anchor evaluation failed for %r under fe %d",
                               node.idea_text, fe.id)
        return [node for node in nodes if node.status is NodeStatus.EVALUATED]

    swept = architectures[:max_anchors]
    anchors = sweep(ranked_fe[0], swept)

    if not anchors:
        backpropagate(tree)
        raise AnchorConstructionFailed(
            f"the architecture sweep scored no anchor out of {len(swept)} proposed architectures"
        )

    winner = min(anchors, key=lambda node: (-metric.orient(node.raw_score), node.id))

    slots = max_anchors - len(anchors)
    for fe in ranked_fe[1:]:
        if slots <= 0:
            break
        found = sweep(fe, [winner.idea_text])
        anchors.extend(found)
        slots -= len(found)

    backpropagate(tree)
    if len(anchors) < min_anchors:
        raise AnchorConstructionFailed(
            f"only {len(anchors)} anchors survived, need at least {min_anchors}"
        )
    return tuple(anchors)


# =====================================================================
# Prompt assembly and the baseline predictor
# =====================================================================

def assemble_prediction_prompt(
    candidate: str,
    anchors: Sequence[Node],
    dataset_description: str,
    *,
    metric_name: str = "metric",
) -> str:
    """Render the prediction prompt. Anchors are sorted by node id so
    the text is identical no matter how they were assembled."""
    blocks = [
        f"- idea: {node.idea_text}\n  {metric_name}: {node.raw_score!r}"
        for node in sorted(anchors, key=lambda node: node.id)
    ]
    template = _load_template("score_prediction.txt")
    return template.format(
        dataset=dataset_description,
        anchors="\n".join(blocks),
        candidate=candidate,
        metric_name=metric_name,
    )


@dataclass(frozen=True)
class BaselinePredictor:
    """Predictor port: a similarity-weighted mean of anchor scores.

    Pure in its inputs: a prediction is a function of the candidate,
    the anchors' texts and scores, the embedder and the temperature.
    The predictor keeps each anchor text's embedding and its norm, made
    at the first prediction that reads the text, so a prediction
    embeds only its candidate; the map grows only with the distinct
    anchor texts. The dataset description is accepted for port
    compatibility and ignored.
    """

    embedder: object
    temperature: float = 1.0
    _anchor_vectors: dict[str, tuple[np.ndarray, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def _anchor_vector(self, text: str) -> tuple[np.ndarray, float]:
        cached = self._anchor_vectors.get(text)
        if cached is None:
            vec = self.embedder.embed(text)
            cached = self._anchor_vectors[text] = (vec, float(np.linalg.norm(vec)))
        return cached

    def predict(self, candidate_description: str, anchors: Sequence[Node],
                dataset_description: str = "") -> float:
        """Weights are a softmax over cosine similarities between the
        candidate embedding and each anchor's idea embedding; lower
        temperatures concentrate mass on the nearest anchors. The
        weighted scores are added in node-id order (``sum_in_order``).
        Being a convex combination, the output always lies inside the
        anchor score range."""
        anchors = sorted(anchors, key=lambda node: node.id)
        candidate = self.embedder.embed(candidate_description)
        norm = float(np.linalg.norm(candidate))
        sims = [cosine_from_norms(candidate, norm, *self._anchor_vector(node.idea_text))
                for node in anchors]
        weights = softmax_select(sims, self.temperature).probabilities.tolist()
        return float(sum_in_order(w * node.raw_score for w, node in zip(weights, anchors)))


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

    def predict(self, candidate_description: str, anchors: Sequence[Node],
                dataset_description: str = "") -> float:
        prompt = assemble_prediction_prompt(
            candidate_description, anchors, dataset_description,
            metric_name=self.metric_name,
        )
        return complete_with_retries(
            self._session, self.endpoint,
            "You estimate evaluation scores from reference examples.",
            prompt, parse_predicted_value,
        )
