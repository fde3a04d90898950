"""File-backed document retrieval for external context enrichment.

The corpus is a directory of plain text files with a tiny header block
(``source:`` and ``title:`` lines, then a blank line, then the body).
Retrieval ranks documents by cosine similarity of hashed embeddings and
is a pure function of corpus content, query, and k.

A retriever reads and embeds its corpus once, at its first successful
``retrieve``, and ranks every later query against that index. A run
builds one retriever over a corpus written before the run starts, so
edits made to the directory after that first call are not seen by the
retriever.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .embedding import HashedEmbedding, cosine_similarity
from .errors import RetrievalFailure

logger = logging.getLogger(__name__)


class DocumentSource(str, Enum):
    PAPERS = "papers"
    COMPETITIONS = "competitions"
    LOCAL = "local"


@dataclass(frozen=True)
class Document:
    source: DocumentSource
    title: str
    body: str


def _parse_document(path: Path) -> Document:
    text = path.read_text(encoding="utf-8")
    source = DocumentSource.LOCAL
    title = path.stem
    lines = text.splitlines()
    body_start = 0
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            body_start = i + 1
            break
        if stripped.lower().startswith("source:"):
            value = stripped.split(":", 1)[1].strip().lower()
            try:
                source = DocumentSource(value)
            except ValueError:
                source = DocumentSource.LOCAL
        elif stripped.lower().startswith("title:"):
            title = stripped.split(":", 1)[1].strip()
        else:
            # no header block, the whole file is body
            body_start = 0
            break
        body_start = i + 1
    body = "\n".join(lines[body_start:]).strip()
    return Document(source=source, title=title, body=body)


class FileCorpusRetriever:
    """Ranked lookup over a directory of ``*.txt`` documents."""

    def __init__(self, corpus_dir: str | Path, embedder: HashedEmbedding | None = None):
        self.corpus_dir = Path(corpus_dir)
        self.embedder = embedder or HashedEmbedding()
        self._index: list[tuple[str, Document, np.ndarray]] | None = None

    def _load_index(self) -> list[tuple[str, Document, np.ndarray]]:
        """Every document with its file name and embedding, in file name
        order; read at the first call that succeeds, then kept."""
        if self._index is not None:
            return self._index
        if not self.corpus_dir.is_dir():
            raise RetrievalFailure(f"corpus directory {self.corpus_dir} does not exist")
        index = []
        try:
            for path in sorted(self.corpus_dir.glob("*.txt")):
                doc = _parse_document(path)
                index.append((path.name, doc, self.embedder.embed(doc.title + "\n" + doc.body)))
        except OSError as exc:
            raise RetrievalFailure(f"cannot read corpus: {exc}") from exc
        self._index = index
        return index

    def retrieve(self, query: str, k: int) -> list[Document]:
        """Top-k documents by similarity to the query; ties broken by
        file name so results are stable. The corpus is read and embedded
        once, at the first call that succeeds; later edits to the
        directory are not seen by this retriever. Raises RetrievalFailure
        when the corpus directory cannot be read, and a later call tries
        again."""
        if k <= 0:
            return []
        index = self._load_index()
        if not index:
            return []
        q = self.embedder.embed(query)
        scored = [(-cosine_similarity(q, vec), name, doc) for name, doc, vec in index]
        scored.sort(key=lambda t: (t[0], t[1]))
        return [doc for _, _, doc in scored[:k]]
