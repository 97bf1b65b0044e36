"""BM25 inverted-index retriever.

Lucene-style scoring: idf = ln(1 + (N - df + 0.5) / (df + 0.5)), which is
always non-negative, with k1 = 0.9 and b = 0.4 defaults. Query terms are
deduplicated before scoring, passages with score 0 are never returned, and
ties break by ascending corpus position, the passage id order, so rankings
are fully reproducible. A search returns (position, score) arrays, not ids.
Every posting's BM25 weight is precomputed on the index's first search (the
impact form of BM25), so a query sums its terms' impact rows.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .corpus import Corpus, TokenizerConfig, DEFAULT_TOKENIZER

__all__ = [
    "BM25Params",
    "InvertedIndex",
    "Postings",
    "build_index",
    "bm25_score",
    "impact_scores",
    "search_sparse",
    "top_k",
]

@dataclass(frozen=True)
class BM25Params:
    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self) -> None:
        if not 0.0 <= self.k1 < math.inf:
            raise ValueError("k1 must be finite and non-negative")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")


@dataclass(eq=False)
class Postings:
    """Term -> [(passage id, tf), ...] in ascending id order, stored once as
    term-major CSR arrays.

    ``row`` maps each term to its row: the postings of row i are
    ``indptr[i]:indptr[i + 1]`` of ``rank`` (the passage's position in
    ascending id order, its corpus position, int32) and ``tf`` (int32).
    """

    row: Mapping[str, int]
    indptr: np.ndarray
    rank: np.ndarray
    tf: np.ndarray
    ids: Sequence[str]  # passage ids in ascending order; rank r is ids[r]

    @classmethod
    def from_lists(cls, lists: Mapping[str, Sequence[tuple[str, int]]], ids: Sequence[str]) -> Postings:
        """The view of plain posting lists; ``ids`` are the passage ids in ascending order."""
        rank_of = {pid: r for r, pid in enumerate(ids)}
        sizes = [len(plist) for plist in lists.values()]
        # filled straight from the lists, with no Python object per posting
        rank = np.fromiter((rank_of[pid] for plist in lists.values() for pid, _ in plist), np.int32, sum(sizes))
        tf = np.fromiter((tf for plist in lists.values() for _, tf in plist), np.int32, sum(sizes))
        row = {t: i for i, t in enumerate(lists)}
        return cls(row, np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))), rank, tf, ids)

    def span(self, term: str) -> tuple[int, int]:
        """Bounds of the term's postings; (0, 0) for an unknown term."""
        i = self.row.get(term)
        if i is None:
            return 0, 0
        return int(self.indptr[i]), int(self.indptr[i + 1])

    def tf_of(self, term: str, passage_id: str) -> int:
        """The term's frequency in the passage, by binary search of ``ids`` and
        then of the term's postings; KeyError for a passage it does not hold."""
        r = bisect_left(self.ids, passage_id)
        if r == len(self.ids) or self.ids[r] != passage_id:
            raise KeyError(passage_id)
        lo, hi = self.span(term)
        j = lo + int(np.searchsorted(self.rank[lo:hi], r))
        return int(self.tf[j]) if j < hi and self.rank[j] == r else 0


def _idf(n: int, df: int) -> float:
    return math.log(1.0 + (n - df + 0.5) / (df + 0.5))


@dataclass
class InvertedIndex:
    """BM25 statistics plus every posting's precomputed BM25 impact.

    ``postings`` is a ``Postings`` or plain posting lists (term -> [(passage
    id, tf), ...] in ascending id order), which are stored as one. ``impact``
    holds, per posting, the term's BM25 weight in that passage, so a query
    scores by summing its terms' rows. It is computed on first access (the
    first search), so an index only ever scored with ``bm25_score`` never holds it.
    """

    postings: Postings | Mapping[str, Sequence[tuple[str, int]]]
    doc_len: dict[str, int]
    N: int
    avgdl: float
    params: BM25Params = field(default_factory=BM25Params)
    tokenizer: TokenizerConfig = DEFAULT_TOKENIZER

    def __post_init__(self) -> None:
        if not isinstance(self.postings, Postings):
            self.postings = Postings.from_lists(self.postings, sorted(self.doc_len))

    def df(self, term: str) -> int:
        lo, hi = self.postings.span(term)
        return hi - lo

    def idf(self, term: str) -> float:
        return _idf(self.N, self.df(term))

    @cached_property
    def impact(self) -> np.ndarray:
        # bm25_score's float operations, one posting per lane, idf through
        # math.log as there. In place, to keep the build's peak memory low:
        # a + b == b + a and a * b == b * a hold exactly, so impacts are bit-equal.
        k1, b = self.params.k1, self.params.b
        p = self.postings
        norm = np.array([self.doc_len[pid] for pid in p.ids], dtype=np.float64)[p.rank]
        norm *= b
        norm /= self.avgdl
        norm += 1.0 - b
        norm *= k1
        norm += p.tf
        df = np.diff(p.indptr)
        impact = np.repeat([_idf(self.N, d) for d in df.tolist()], df)
        impact *= p.tf
        impact *= k1 + 1.0
        impact /= norm
        return impact


def build_index(
    corpus: Corpus,
    tok: TokenizerConfig = DEFAULT_TOKENIZER,
    params: BM25Params = BM25Params(),
) -> InvertedIndex:
    """Build the inverted index with corpus statistics for BM25.

    Postings list (passage id, term frequency) pairs in ascending id order.
    """
    if len(corpus) == 0:
        raise ValueError("cannot build an index over an empty corpus")
    tc = corpus.tokenized(tok)
    ids = corpus.ids
    n = len(ids)
    lens = np.diff(tc.offsets)
    # one key per (term, passage) occurrence, ordered by term, then passage id
    keys, tfs = np.unique(tc.ids.astype(np.int64) * n + np.repeat(np.arange(n), lens), return_counts=True)
    terms, ranks = np.divmod(keys, n)
    postings = Postings(
        tc.index,
        np.searchsorted(terms, np.arange(len(tc.vocab) + 1)),
        ranks.astype(np.int32),
        tfs.astype(np.int32),
        ids,
    )
    doc_len = dict(zip(ids, lens.tolist()))
    avgdl = sum(doc_len.values()) / n
    return InvertedIndex(
        postings=postings, doc_len=doc_len, N=n, avgdl=avgdl, params=params, tokenizer=tok
    )


def _dedupe(tokens: Sequence[str]) -> list[str]:
    return list(dict.fromkeys(tokens))


def bm25_score(index: InvertedIndex, query_tokens: list[str], passage_id: str) -> float:
    """BM25 score of one passage for the (deduplicated) query tokens.

    Computed term by term from tf, the passage length and idf, without the
    index's precomputed impacts: it is the exhaustive oracle for search.
    """
    if passage_id not in index.doc_len:
        raise KeyError(f"unknown passage id {passage_id!r}")
    k1, b = index.params.k1, index.params.b
    dl = index.doc_len[passage_id]
    score = 0.0
    for term in _dedupe(query_tokens):
        tf = index.postings.tf_of(term, passage_id)
        if tf:
            norm = tf + k1 * (1.0 - b + b * dl / index.avgdl)
            score += index.idf(term) * tf * (k1 + 1.0) / norm
    return score


def top_k(scores: np.ndarray, k: int, candidates: np.ndarray) -> np.ndarray:
    """Indices of the ``k`` best ``candidates`` (indices into ``scores``) by
    (score desc, index asc).

    Exact: a partition finds the k-th best score, every candidate scoring at
    least that much survives (so ties at the boundary compete on index), and
    only the survivors are sorted. When fewer than k survive (NaN scores, which
    sort last), all candidates are sorted.
    """
    pool = scores[candidates]
    n = len(pool)
    keep = np.arange(n)
    if k < n:
        kth = np.partition(pool, n - k)[n - k]
        survivors = np.flatnonzero(pool >= kth)
        if len(survivors) >= k:
            keep = survivors
    idx = candidates[keep]
    return idx[np.lexsort((idx, -scores[idx]))[:k]]


def impact_scores(index: InvertedIndex, tokens: Sequence[str]) -> np.ndarray:
    """Every passage's BM25 score for a query's ``tokens``, indexed by its corpus
    position, its place in ascending id order (``index.postings.ids``): the sum
    of the query terms' impact rows, added in query-term order."""
    p = index.postings
    scores = np.zeros(len(p.ids))
    for term in _dedupe(tokens):
        lo, hi = p.span(term)
        scores[p.rank[lo:hi]] += index.impact[lo:hi]
    return scores


def search_sparse(index: InvertedIndex, tokens: Sequence[str], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k passages by BM25 for a query's ``tokens`` under ``index.tokenizer``,
    excluding zero-score passages: at most k int64 positions and float64 scores.

    Equivalent to scoring every passage and sorting by (score desc, position
    asc); only passages containing at least one query term can appear. Scores
    are ``impact_scores``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = impact_scores(index, tokens)
    best = top_k(scores, k, np.flatnonzero(scores > 0.0))
    return best, scores[best]
