"""BM25 inverted-index retriever.

Lucene-style scoring: idf = ln(1 + (N - df + 0.5) / (df + 0.5)), which is
always non-negative, with k1 = 0.9 and b = 0.4 defaults. Query terms are
deduplicated before scoring, passages with score 0 are never returned, and
ties break by ascending passage id so rankings are fully reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Corpus, Query, TokenizerConfig, DEFAULT_TOKENIZER, tokenize

__all__ = [
    "BM25Params",
    "InvertedIndex",
    "RankedList",
    "build_index",
    "bm25_score",
    "search_sparse",
    "save_index",
    "load_index",
]

# (passage_id, score) pairs sorted by score descending, then id ascending.
RankedList = list[tuple[str, float]]


@dataclass(frozen=True)
class BM25Params:
    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self) -> None:
        if self.k1 < 0:
            raise ValueError("k1 must be non-negative")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("b must be in [0, 1]")


@dataclass
class InvertedIndex:
    postings: dict[str, list[tuple[str, int]]]
    doc_len: dict[str, int]
    N: int
    avgdl: float
    params: BM25Params = field(default_factory=BM25Params)
    tokenizer: TokenizerConfig = DEFAULT_TOKENIZER

    def df(self, term: str) -> int:
        return len(self.postings.get(term, ()))

    def idf(self, term: str) -> float:
        d = self.df(term)
        return math.log(1.0 + (self.N - d + 0.5) / (d + 0.5))


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
    by_id = sorted(range(n), key=ids.__getitem__)
    id_rank = np.empty(n, dtype=np.int64)
    id_rank[by_id] = np.arange(n)
    # one key per (term, passage) occurrence, ordered by term, then passage id
    keys, tfs = np.unique(tc.ids.astype(np.int64) * n + np.repeat(id_rank, lens), return_counts=True)
    terms, ranks = np.divmod(keys, n)
    sorted_ids = np.array([ids[i] for i in by_id], dtype=object)
    pairs = list(zip(sorted_ids[ranks].tolist(), tfs.tolist()))
    bounds = np.searchsorted(terms, np.arange(len(tc.vocab) + 1)).tolist()
    postings = {term: pairs[lo:hi] for term, lo, hi in zip(tc.vocab, bounds, bounds[1:])}
    doc_len = dict(zip(ids, lens.tolist()))
    avgdl = sum(doc_len.values()) / n
    return InvertedIndex(
        postings=postings, doc_len=doc_len, N=n, avgdl=avgdl, params=params, tokenizer=tok
    )


def _dedupe(tokens: list[str]) -> list[str]:
    return list(dict.fromkeys(tokens))


def _term_weight(index: InvertedIndex, term: str, tf: int, dl: int) -> float:
    k1, b = index.params.k1, index.params.b
    norm = tf + k1 * (1.0 - b + b * dl / index.avgdl)
    return index.idf(term) * tf * (k1 + 1.0) / norm


def bm25_score(index: InvertedIndex, query_tokens: list[str], passage_id: str) -> float:
    """BM25 score of one passage for the (deduplicated) query tokens."""
    if passage_id not in index.doc_len:
        raise KeyError(f"unknown passage id {passage_id!r}")
    dl = index.doc_len[passage_id]
    score = 0.0
    for term in _dedupe(query_tokens):
        plist = index.postings.get(term)
        if not plist:
            continue
        tf = _posting_tf(plist, passage_id)
        if tf:
            score += _term_weight(index, term, tf, dl)
    return score


def _posting_tf(plist: list[tuple[str, int]], passage_id: str) -> int:
    lo, hi = 0, len(plist)
    while lo < hi:
        mid = (lo + hi) // 2
        if plist[mid][0] < passage_id:
            lo = mid + 1
        else:
            hi = mid
    if lo < len(plist) and plist[lo][0] == passage_id:
        return plist[lo][1]
    return 0


def search_sparse(index: InvertedIndex, query: Query | str, k: int) -> RankedList:
    """Top-k passages by BM25, excluding zero-score passages.

    Equivalent to scoring every passage and sorting by (score desc, id asc);
    only passages containing at least one query term can appear.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    text = query.text if isinstance(query, Query) else query
    tokens = _dedupe(tokenize(text, index.tokenizer))
    scores: dict[str, float] = {}
    for term in tokens:
        plist = index.postings.get(term)
        if not plist:
            continue
        for pid, tf in plist:
            w = _term_weight(index, term, tf, index.doc_len[pid])
            scores[pid] = scores.get(pid, 0.0) + w
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def save_index(index: InvertedIndex, path: str | Path) -> None:
    payload = {
        "format": 1,
        "params": {"k1": index.params.k1, "b": index.params.b},
        "tokenizer": {
            "lowercase": index.tokenizer.lowercase,
            "cjk_char_split": index.tokenizer.cjk_char_split,
            "min_token_len": index.tokenizer.min_token_len,
        },
        "N": index.N,
        "avgdl": index.avgdl,
        "doc_len": index.doc_len,
        "postings": {t: [[pid, tf] for pid, tf in plist] for t, plist in index.postings.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False)


def load_index(path: str | Path) -> InvertedIndex:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != 1:
        raise ValueError(f"unsupported index format {payload.get('format')!r}")
    return InvertedIndex(
        postings={t: [(pid, int(tf)) for pid, tf in plist] for t, plist in payload["postings"].items()},
        doc_len={pid: int(v) for pid, v in payload["doc_len"].items()},
        N=int(payload["N"]),
        avgdl=float(payload["avgdl"]),
        params=BM25Params(**payload["params"]),
        tokenizer=TokenizerConfig(**payload["tokenizer"]),
    )
