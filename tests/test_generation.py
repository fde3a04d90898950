"""Context state, memory selection, retrieval gating, and both generators.

The HTTP generator and the HTTP score predictor are exercised against a
throwaway local server rather than mocks, so transport, retry, and
parse behaviour are all real.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from ideatree.checker import (
    Check,
    nonempty_check,
    python_syntax_check,
    required_columns_check,
    run_checks,
)
from ideatree.embedding import HashedEmbedding, cosine_distance, parse_idea_vector
from ideatree.errors import (
    CheckerCrash,
    EmptyInput,
    MalformedResponse,
    RetrievalFailure,
    RetriesExhausted,
    TransportFailure,
    UnparseableIdea,
)
from ideatree.generation import (
    RETRY_BACKOFF_BASE_S,
    RETRY_BACKOFF_CAP_S,
    ContextState,
    EndpointConfig,
    ExternalQueryPolicy,
    IDEA_SEPARATOR,
    LlmGenerator,
    MemoryStrategy,
    SegmentTag,
    SpaceConfig,
    SyntheticGenerator,
    complete_with_retries,
    gate_external_query,
    request_completion,
    select_context_nodes,
    split_ideas,
)
from ideatree.errors import InvalidSpaceConfig
from ideatree.retrieval import FileCorpusRetriever
from ideatree.scoring import Anchor, AnchorSet, LlmPredictor
from ideatree.tree import IdeationTree, NodeLevel

from helpers import ReferenceGenerator, attach_evaluated_fe, reference_retrieve


# ---- context state ----

def test_context_append_and_render():
    ctx = ContextState()
    ctx.append(SegmentTag.EDA, "skewed target")
    ctx.append(SegmentTag.EXTERNAL, "try target encoding")
    assert ctx.revision == 2
    assert len(ctx.segments) == 2
    assert ctx.render() == "[eda] skewed target\n\n[external] try target encoding"


def test_context_rejects_empty_text():
    ctx = ContextState()
    with pytest.raises(EmptyInput):
        ctx.append(SegmentTag.EDA, "   ")


def test_context_by_tag():
    ctx = ContextState()
    ctx.append(SegmentTag.EDA, "a")
    ctx.append(SegmentTag.READER, "b")
    ctx.append(SegmentTag.EDA, "c")
    assert [s.text for s in ctx.by_tag(SegmentTag.EDA)] == ["a", "c"]


def test_context_segments_tuple_is_readonly_view():
    ctx = ContextState()
    ctx.append(SegmentTag.EDA, "a")
    view = ctx.segments
    assert isinstance(view, tuple)
    ctx.append(SegmentTag.EDA, "b")
    assert len(view) == 1 and len(ctx.segments) == 2


# ---- memory selection ----

def _vector_tree():
    tree = IdeationTree.create("root")
    # comma vectors at distinct angles so cosine distances are all different
    for text in ("1.0,0.0", "0.9,0.1", "0.0,1.0", "0.5,0.5"):
        attach_evaluated_fe(tree, [0.5], idea=text)
    return tree


class EuclidEmbed:
    """Embeds comma vectors as-is; cosine distance then orders like angle."""

    def embed(self, text):
        return np.asarray(parse_idea_vector(text), dtype=float)


def test_select_context_nodes_nearest_oracle():
    tree = _vector_tree()
    fe = tree.fe_nodes()
    anchor = fe[0]
    embedder = EuclidEmbed()
    rng = np.random.default_rng(0)
    picked = select_context_nodes(tree, anchor, MemoryStrategy.NEAREST, 2, embedder, rng)
    # brute-force oracle
    anchor_vec = embedder.embed(anchor.idea_text)
    expected = sorted(
        (n for n in fe if n.id != anchor.id),
        key=lambda n: (cosine_distance(anchor_vec, embedder.embed(n.idea_text)), n.id),
    )[:2]
    assert [n.id for n in picked] == [n.id for n in expected]


def test_select_context_nodes_farthest_is_reverse_of_nearest():
    tree = _vector_tree()
    anchor = tree.fe_nodes()[0]
    embedder = EuclidEmbed()
    rng = np.random.default_rng(0)
    near = select_context_nodes(tree, anchor, MemoryStrategy.NEAREST, 3, embedder, rng)
    far = select_context_nodes(tree, anchor, MemoryStrategy.FARTHEST, 3, embedder, rng)
    assert near[0].id != far[0].id
    assert {n.id for n in near} == {n.id for n in far}


@pytest.mark.parametrize("strategy, expected", [
    (MemoryStrategy.NEAREST, ["3.0,0.0", "1.0,1.0", "2.0,2.0", "0.0,1.0", "0.0,2.0"]),
    (MemoryStrategy.FARTHEST, ["0.0,1.0", "0.0,2.0", "1.0,1.0", "2.0,2.0", "3.0,0.0"]),
])
def test_select_context_nodes_embeds_once_and_ties_break_on_id(strategy, expected):
    """Vectors along one ray are at equal distance from the anchor, so
    the lower node id goes first in both directions; every node is
    embedded once."""
    tree = IdeationTree.create("root")
    for text in ("1.0,0.0", "0.0,1.0", "0.0,2.0", "1.0,1.0", "2.0,2.0", "3.0,0.0"):
        attach_evaluated_fe(tree, [0.5], idea=text)
    anchor = tree.fe_nodes()[0]
    calls = []

    class CountingEmbed(EuclidEmbed):
        def embed(self, text):
            calls.append(text)
            return super().embed(text)

    picked = select_context_nodes(tree, anchor, strategy, 10, CountingEmbed(),
                                  np.random.default_rng(0))
    assert [n.idea_text for n in picked] == expected
    assert len(calls) == 6


def test_select_context_nodes_random_excludes_anchor():
    tree = _vector_tree()
    anchor = tree.fe_nodes()[1]
    rng = np.random.default_rng(5)
    for _ in range(50):
        picked = select_context_nodes(tree, anchor, MemoryStrategy.RANDOM, 2, HashedEmbedding(), rng)
        assert len(picked) == 2
        assert anchor.id not in {n.id for n in picked}


def test_select_context_nodes_handles_small_pools():
    tree = IdeationTree.create("root")
    attach_evaluated_fe(tree, [0.5], idea="only one")
    anchor = tree.fe_nodes()[0]
    rng = np.random.default_rng(0)
    assert select_context_nodes(tree, anchor, MemoryStrategy.NEAREST, 3, HashedEmbedding(), rng) == []
    assert select_context_nodes(tree, anchor, MemoryStrategy.RANDOM, 0, HashedEmbedding(), rng) == []


# ---- external gating ----

class StubGen:
    def __init__(self, texts=None, fail=False):
        self.texts = texts or []
        self.fail = fail
        self.calls = 0

    def query_external(self, ctx):
        self.calls += 1
        if self.fail:
            raise RetrievalFailure("corpus offline")
        return list(self.texts)


def test_gate_external_never_skips_generator():
    ctx = ContextState()
    gen = StubGen(texts=["hint"])
    assert gate_external_query(ctx, ExternalQueryPolicy.NEVER, gen) == []
    assert gen.calls == 0
    assert ctx.revision == 0


def test_gate_external_always_appends_up_to_cap():
    ctx = ContextState()
    gen = StubGen(texts=["a", "b", "c", "d"])
    appended = gate_external_query(ctx, ExternalQueryPolicy.ALWAYS, gen, cap=2)
    assert [s.text for s in appended] == ["a", "b"]
    assert all(s.tag is SegmentTag.EXTERNAL for s in ctx.segments)


def test_gate_external_failure_is_soft():
    ctx = ContextState()
    gen = StubGen(fail=True)
    assert gate_external_query(ctx, ExternalQueryPolicy.ALWAYS, gen) == []
    assert ctx.revision == 0


def test_gate_external_adaptive_respects_empty_decision():
    ctx = ContextState()
    gen = StubGen(texts=[])
    assert gate_external_query(ctx, ExternalQueryPolicy.ADAPTIVE, gen) == []
    assert gen.calls == 1


# ---- retrieval ----

@pytest.fixture
def corpus(tmp_path):
    docs = {
        "a_trees.txt": "source: papers\ntitle: Tree ensembles\n\ngradient boosting and forests",
        "b_tabular.txt": "source: competitions\ntitle: Tabular playground\n\nfeature crosses won",
        "c_images.txt": "source: papers\ntitle: Image augmentation\n\nflips and crops",
        "d_text.txt": "source: papers\ntitle: Text vectorizers\n\ntfidf remains strong",
        "e_misc.txt": "plain file without a header block",
    }
    for name, body in docs.items():
        (tmp_path / name).write_text(body, encoding="utf-8")
    return tmp_path


def test_retriever_returns_k_ranked(corpus):
    retriever = FileCorpusRetriever(corpus)
    docs = retriever.retrieve("gradient boosting trees", 3)
    assert len(docs) == 3
    assert docs[0].title == "Tree ensembles"


def test_retriever_k_edge_cases(corpus):
    retriever = FileCorpusRetriever(corpus)
    assert retriever.retrieve("anything", 0) == []
    assert len(retriever.retrieve("anything", 99)) == 5


def test_retriever_missing_dir(tmp_path):
    """A failed read is not kept: once the directory exists, the same
    retriever reads it."""
    retriever = FileCorpusRetriever(tmp_path / "nope")
    with pytest.raises(RetrievalFailure):
        retriever.retrieve("anything", 1)
    (tmp_path / "nope").mkdir()
    (tmp_path / "nope" / "a.txt").write_text("title: Late arrival\n\nbody", encoding="utf-8")
    assert [d.title for d in retriever.retrieve("anything", 1)] == ["Late arrival"]


def test_retriever_headerless_file_becomes_local_doc(corpus):
    retriever = FileCorpusRetriever(corpus)
    docs = retriever.retrieve("plain file without a header block", 5)
    hit = [d for d in docs if "plain file" in d.body]
    assert hit and hit[0].source.value == "local"


# words with mixed case, non-ASCII letters and digits; a small pool, so
# texts share tokens and repeat them
_WORDS = ("gradient", "Boosting", "trees", "tree", "ensemble", "FEATURE", "crosses",
          "naïve", "straße", "İstanbul", "x1", "42", "tfidf")
_phrases = st.lists(st.sampled_from(_WORDS), max_size=8).map(" ".join)
_documents = st.one_of(
    st.builds(lambda source, title, body: f"source: {source}\ntitle: {title}\n\n{body}",
              st.sampled_from(("papers", "competitions", "local", "Papers", "blogs")),
              _phrases, _phrases),
    _phrases,
    st.text(max_size=40),
)


@st.composite
def _corpora(draw):
    """File name -> text. Some texts repeat under other names, and
    header documents that differ only in their source embed alike, so
    rankings tie and the file name decides."""
    texts = draw(st.lists(_documents, max_size=8))
    if texts:
        texts += draw(st.lists(st.sampled_from(texts), max_size=4))
    order = draw(st.permutations(range(len(texts))))
    return {f"doc_{i:02d}.txt": text for i, text in zip(order, texts)}


@settings(max_examples=150, deadline=None)
@given(_corpora(), st.lists(st.tuples(st.one_of(_phrases, st.text(max_size=30)),
                                      st.integers(-1, 14)), min_size=1, max_size=5))
def test_retriever_index_matches_cold_reference(files, queries):
    """One retriever answers every query in turn exactly as a cold read,
    parse, embed and rank of the directory would."""
    with tempfile.TemporaryDirectory() as tmp:
        corpus_dir = Path(tmp)
        for name, text in files.items():
            (corpus_dir / name).write_text(text, encoding="utf-8")
        retriever = FileCorpusRetriever(corpus_dir)
        for query, k in queries:
            got = [(d.source.value, d.title, d.body) for d in retriever.retrieve(query, k)]
            expected = [(source, title, body)
                        for _, source, title, body in reference_retrieve(corpus_dir, query, k)]
            assert got == expected


# ---- checker ----

def test_run_checks_pass_and_fail():
    result = run_checks("x = 1\n", [nonempty_check(), python_syntax_check()])
    assert result.passed and result.reasons == ()
    result = run_checks("def broken(:\n", [python_syntax_check()])
    assert not result.passed
    assert "syntax" in result.reasons[0]


def test_run_checks_required_columns():
    check = required_columns_check(["id", "target"])
    ok = run_checks("id,feature,target\n1,2,3\n", [check])
    assert ok.passed
    bad = run_checks("id,feature\n1,2\n", [check])
    assert not bad.passed and "target" in bad.reasons[0]


def test_run_checks_empty_candidate():
    with pytest.raises(EmptyInput):
        run_checks("", [nonempty_check()])


def test_run_checks_crashing_check():
    def boom(text):
        raise RuntimeError("oops")

    with pytest.raises(CheckerCrash):
        run_checks("fine", [Check(name="boom", fn=boom)])


# ---- synthetic generator ----

def test_space_config_validation():
    with pytest.raises(InvalidSpaceConfig):
        SpaceConfig(dimension=0)
    with pytest.raises(InvalidSpaceConfig):
        SpaceConfig(dimension=2, low=1.0, high=-1.0)
    with pytest.raises(InvalidSpaceConfig):
        SpaceConfig(dimension=2, mt_jitter=-0.1)


def test_synthetic_deterministic_per_seed():
    space = SpaceConfig(dimension=3)
    ctx = ContextState()
    a = SyntheticGenerator(space, seed=9).propose_fe(ctx, 4)
    b = SyntheticGenerator(space, seed=9).propose_fe(ctx, 4)
    c = SyntheticGenerator(space, seed=10).propose_fe(ctx, 4)
    assert a == b != c


def test_synthetic_fe_within_bounds():
    space = SpaceConfig(dimension=5, low=-2.0, high=3.0)
    gen = SyntheticGenerator(space, seed=1)
    for text in gen.propose_fe(ContextState(), 20):
        vec = parse_idea_vector(text)
        assert len(vec) == 5
        assert all(-2.0 <= v <= 3.0 for v in vec)


def test_synthetic_mt_jitters_around_parent():
    space = SpaceConfig(dimension=2, mt_jitter=0.01)
    gen = SyntheticGenerator(space, seed=2)
    tree = IdeationTree.create("root")
    fe = tree.spawn(tree.root.id, NodeLevel.FE, "1.0,1.0")
    for text in gen.propose_mt(fe, None, 10):
        vec = np.asarray(parse_idea_vector(text))
        assert np.linalg.norm(vec - np.array([1.0, 1.0])) < 0.2


def test_synthetic_merge_is_midpoint():
    space = SpaceConfig(dimension=2)
    gen = SyntheticGenerator(space, seed=3)
    tree = IdeationTree.create("root")
    a = tree.spawn(tree.root.id, NodeLevel.FE, "0.0,0.0")
    b = tree.spawn(tree.root.id, NodeLevel.FE, "1.0,2.0")
    merged = parse_idea_vector(gen.merge_fe(a, b, None))
    assert merged == [0.5, 1.0]


_JITTER = st.just(0.0) | st.floats(1e-6, 10.0)


@st.composite
def _spaces(draw) -> SpaceConfig:
    low = draw(st.floats(-100.0, 100.0))
    return SpaceConfig(
        dimension=draw(st.integers(1, 8)),
        low=low,
        high=low + draw(st.floats(1e-3, 100.0)),
        mt_jitter=draw(_JITTER),
        merge_jitter=draw(_JITTER),
    )


_PORT_CALLS = st.lists(
    st.tuples(st.sampled_from(["propose_fe", "propose_mt", "merge_fe", "merge_mt"]),
              st.integers(0, 3), st.integers(0, 50), st.integers(0, 50)),
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**64 - 1), _spaces(), _PORT_CALLS, st.data())
def test_synthetic_ports_match_their_numpy_forms(seed, space, calls, data):
    """Over a sequence of proposals and merges, each call returns the
    strings of the ports' numpy forms, so the same floats bit for bit,
    and leaves the Generator in the same state: the same draws, of the
    same sizes, in the same order. Parents are a drawn point and
    whatever the calls made."""
    tree = IdeationTree.create("root")
    start = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=space.dimension,
                               max_size=space.dimension))
    nodes = [tree.spawn(tree.root.id, NodeLevel.FE, ",".join(map(repr, start)))]
    gen, ref = SyntheticGenerator(space, seed), ReferenceGenerator(space, seed)
    ctx = ContextState()
    for name, count, i, j in calls:
        a, b = nodes[i % len(nodes)], nodes[j % len(nodes)]
        args = {"propose_fe": (ctx, count), "propose_mt": (a, ctx, count)}.get(name, (a, b, ctx))
        got = getattr(gen, name)(*args)
        assert got == getattr(ref, name)(*args)
        assert gen._rng.bit_generator.state == ref._rng.bit_generator.state
        for text in got if isinstance(got, list) else [got]:
            nodes.append(tree.spawn(tree.root.id, NodeLevel.FE, text))


def test_synthetic_ports_reject_a_point_of_another_dimension():
    gen = SyntheticGenerator(SpaceConfig(dimension=2, merge_jitter=0.1), seed=5)
    tree = IdeationTree.create("root")
    flat = tree.spawn(tree.root.id, NodeLevel.FE, "1.0")
    plane = tree.spawn(tree.root.id, NodeLevel.FE, "1.0,2.0")
    state = gen._rng.bit_generator.state
    with pytest.raises(UnparseableIdea):
        gen.propose_mt(flat, None, 2)
    with pytest.raises(UnparseableIdea):
        gen.merge_fe(plane, flat, None)
    assert gen._rng.bit_generator.state == state


def test_synthetic_enrich_and_external(corpus):
    space = SpaceConfig(dimension=2)
    gen = SyntheticGenerator(space, seed=4, retriever=FileCorpusRetriever(corpus), retrieve_k=3)
    tree = IdeationTree.create("root")
    ctx = ContextState()
    note = gen.enrich_eda(tree, ctx)
    assert "1 nodes" in note
    ctx.append(SegmentTag.EDA, "gradient boosting trees")
    assert len(gen.query_external(ctx)) == 3
    assert SyntheticGenerator(space, seed=4).query_external(ctx) == []


# ---- idea splitting ----

def test_split_ideas_happy_path():
    content = "first idea\n---\nsecond idea\n---\nthird"
    assert split_ideas(content, 3) == ["first idea", "second idea", "third"]


def test_split_ideas_wrong_count():
    with pytest.raises(MalformedResponse):
        split_ideas("only one", 2)
    with pytest.raises(MalformedResponse):
        split_ideas("a\n---\nb\n---\nc", 2)


def test_split_ideas_blank_blocks_rejected():
    with pytest.raises(MalformedResponse):
        split_ideas("a\n---\n   \n", 2)


# ---- http generator against a live stub ----

class _ScriptedHandler(BaseHTTPRequestHandler):
    script = []  # list of (status, body_dict_or_str) consumed per request
    requests_seen = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).requests_seen.append(
            {"path": self.path, "auth": self.headers.get("Authorization"), "body": body}
        )
        if not type(self).script:
            status, payload = 500, {"error": "script exhausted"}
        else:
            status, payload = type(self).script.pop(0)
        data = json.dumps(payload).encode() if isinstance(payload, dict) else payload.encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def _chat_reply(content):
    return {"choices": [{"message": {"content": content}}]}


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _ScriptedHandler.script = []
    _ScriptedHandler.requests_seen = []
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def _endpoint(base_url, **kw):
    return EndpointConfig(base_url=base_url, model="test-model", max_retries=1, **kw)


def test_llm_propose_fe_round_trip(stub_server, monkeypatch):
    monkeypatch.setenv("STUB_KEY", "sk-test-123")
    _ScriptedHandler.script = [(200, _chat_reply("idea one\n---\nidea two"))]
    gen = LlmGenerator(_endpoint(stub_server, api_key_env="STUB_KEY"))
    ideas = gen.propose_fe(ContextState(), 2)
    assert ideas == ["idea one", "idea two"]
    seen = _ScriptedHandler.requests_seen[0]
    assert seen["path"] == "/chat/completions"
    assert seen["auth"] == "Bearer sk-test-123"
    assert seen["body"]["model"] == "test-model"
    assert {m["role"] for m in seen["body"]["messages"]} == {"system", "user"}


def test_llm_retries_then_succeeds(stub_server):
    _ScriptedHandler.script = [
        (503, {"error": "busy"}),
        (200, _chat_reply("merged plan")),
    ]
    gen = LlmGenerator(_endpoint(stub_server))
    tree = IdeationTree.create("root")
    a = tree.spawn(tree.root.id, NodeLevel.FE, "plan a")
    b = tree.spawn(tree.root.id, NodeLevel.FE, "plan b")
    assert gen.merge_fe(a, b, None) == "merged plan"
    assert len(_ScriptedHandler.requests_seen) == 2


def test_llm_retries_exhausted(stub_server):
    _ScriptedHandler.script = [(503, {"error": "busy"})] * 5
    gen = LlmGenerator(_endpoint(stub_server))
    with pytest.raises(RetriesExhausted):
        gen.propose_fe(ContextState(), 1)
    # max_retries=1 means two attempts total
    assert len(_ScriptedHandler.requests_seen) == 2


def test_llm_malformed_shape_retries_then_fails(stub_server):
    _ScriptedHandler.script = [(200, {"unexpected": True})] * 5
    gen = LlmGenerator(_endpoint(stub_server))
    with pytest.raises(RetriesExhausted):
        gen.propose_fe(ContextState(), 1)


def test_llm_wrong_idea_count_is_malformed(stub_server):
    _ScriptedHandler.script = [(200, _chat_reply("one idea only"))] * 5
    gen = LlmGenerator(_endpoint(stub_server))
    with pytest.raises(RetriesExhausted):
        gen.propose_fe(ContextState(), 3)


def test_llm_unreachable_endpoint_is_transport_failure():
    gen = LlmGenerator(EndpointConfig(base_url="http://127.0.0.1:1", model="x", max_retries=0, timeout_s=0.5))
    with pytest.raises(RetriesExhausted) as err:
        gen.propose_fe(ContextState(), 1)
    assert "unreachable" in str(err.value)


def test_llm_transport_failure_surfaces_directly():
    endpoint = EndpointConfig(base_url="http://127.0.0.1:1", model="x", timeout_s=0.5)
    with pytest.raises(TransportFailure):
        request_completion(requests.Session(), endpoint, "s", "u")


# ---- retry backoff against a fake session ----

class _FakeResponse:
    def __init__(self, status_code: int, body):
        self.status_code = status_code
        self._body = body

    def json(self):
        return self._body


class _FakeSession:
    """Answers each post with the next scripted ``(status, body)``,
    without a network."""

    def __init__(self, script):
        self.script = list(script)
        self.posts = 0

    def post(self, url, **kwargs):
        self.posts += 1
        return _FakeResponse(*self.script.pop(0))


def _complete_recording_sleeps(script, max_retries: int):
    """complete_with_retries over a fake session, with a sleep that only
    records its delays; returns the content or the error, the delays
    and the post count."""
    session = _FakeSession(script)
    endpoint = EndpointConfig(base_url="http://fake", model="m", max_retries=max_retries)
    delays: list[float] = []
    try:
        outcome = complete_with_retries(session, endpoint, "s", "u", str.strip,
                                        sleep=delays.append)
    except RetriesExhausted as exc:
        outcome = exc
    return outcome, delays, session.posts


def test_retry_delays_double_up_to_the_cap():
    start = time.perf_counter()
    outcome, delays, posts = _complete_recording_sleeps([(503, {})] * 8, max_retries=7)
    assert isinstance(outcome, RetriesExhausted)
    assert posts == 8
    # no sleep after the last attempt
    assert len(delays) == 7
    assert delays[0] == RETRY_BACKOFF_BASE_S
    assert delays == [min(RETRY_BACKOFF_BASE_S * 2 ** i, RETRY_BACKOFF_CAP_S) for i in range(7)]
    assert delays[-1] == RETRY_BACKOFF_CAP_S > delays[0]
    # the recorded delays add up to seconds; none of them was slept
    assert sum(delays) > 10 and time.perf_counter() - start < 1.0


def test_retry_sleeps_only_between_failed_attempts():
    ok = (200, _chat_reply(" done "))
    assert _complete_recording_sleeps([ok], max_retries=3) == ("done", [], 1)
    malformed = (200, {"unexpected": True})
    outcome, delays, posts = _complete_recording_sleeps([(503, {}), malformed, ok],
                                                        max_retries=3)
    assert (outcome, posts) == ("done", 3)
    assert delays == [RETRY_BACKOFF_BASE_S, 2 * RETRY_BACKOFF_BASE_S]
    outcome, delays, posts = _complete_recording_sleeps([(503, {})], max_retries=0)
    assert isinstance(outcome, RetriesExhausted) and (delays, posts) == ([], 1)


def test_import_loads_no_http_client():
    """Runs without an endpoint, reports and replays never load
    ``requests``: it is imported only where an endpoint is called."""
    code = ("import sys, ideatree, ideatree.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'requests'))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_llm_enrich_refreshes_memory_notes(stub_server):
    _ScriptedHandler.script = [(200, _chat_reply("dataset is imbalanced"))]
    gen = LlmGenerator(_endpoint(stub_server), memory_n=2)
    tree = IdeationTree.create("root")
    for text in ("ratios", "log transforms", "binning"):
        attach_evaluated_fe(tree, [0.5], idea=text)
    note = gen.enrich_eda(tree, ContextState())
    assert note == "dataset is imbalanced"
    assert len(gen._memory_notes) == 2
    assert set(gen._memory_notes) <= {"ratios", "log transforms", "binning"}


def test_llm_no_key_env_sends_no_auth_header(stub_server):
    _ScriptedHandler.script = [(200, _chat_reply("x"))]
    gen = LlmGenerator(_endpoint(stub_server))
    gen.propose_fe(ContextState(), 1)
    assert _ScriptedHandler.requests_seen[0]["auth"] is None


# ---- http score predictor against the same stub ----

def _anchor_set():
    return AnchorSet(
        anchors=(
            Anchor(description="gbm", true_score=0.7, fe_node_id=1,
                   architecture_tag="gbm", mt_node_id=2),
            Anchor(description="mlp", true_score=0.6, fe_node_id=1,
                   architecture_tag="mlp", mt_node_id=3),
        ),
        phase1_fe=1, phase2_arch="gbm",
    )


def test_llm_predictor_retries_then_returns_number(stub_server):
    _ScriptedHandler.script = [
        (503, {"error": "busy"}),
        (200, _chat_reply(" 0.75.\n")),
    ]
    predictor = LlmPredictor(_endpoint(stub_server), metric_name="auc")
    assert predictor.predict("stacked gbm", _anchor_set(), "churn data") == 0.75
    assert len(_ScriptedHandler.requests_seen) == 2
    prompt = _ScriptedHandler.requests_seen[1]["body"]["messages"][1]["content"]
    assert "stacked gbm" in prompt and "auc" in prompt


@pytest.mark.parametrize("max_retries", [0, 2])
def test_llm_predictor_non_number_exhausts_retries(stub_server, max_retries):
    _ScriptedHandler.script = [(200, _chat_reply("about 0.7, I think"))] * 5
    endpoint = EndpointConfig(base_url=stub_server, model="test-model",
                              max_retries=max_retries)
    with pytest.raises(RetriesExhausted):
        LlmPredictor(endpoint).predict("stacked gbm", _anchor_set())
    assert len(_ScriptedHandler.requests_seen) == max_retries + 1
