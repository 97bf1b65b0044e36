"""Mining training pairs from sparse/dense agreement.

A passage both retrievers rank within their top-S is a positive; a passage one
retriever ranks within top-S while the other leaves it outside top-L entirely
is a hard negative. Requiring L >= S makes the two sets provably disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, Query, _load_jsonl_records, _require_str, _save_jsonl_records
from .dense import TrainingSample
from .sparse import RankedList

__all__ = [
    "MiningConfig",
    "MinedSets",
    "mine_pairs",
    "assemble_mined_sample",
    "hybrid_fuse",
    "sample_random_negatives",
    "save_samples",
    "load_samples",
]


@dataclass(frozen=True)
class MiningConfig:
    S: int = 2
    L: int = 20
    n_random_negatives: int = 2
    max_hard_negatives: int = 8

    def __post_init__(self) -> None:
        if self.S < 1:
            raise ValueError("S must be >= 1")
        if self.L < self.S:
            raise ValueError(f"L ({self.L}) must be >= S ({self.S})")
        if self.n_random_negatives < 0 or self.max_hard_negatives < 0:
            raise ValueError("negative counts must be >= 0")


@dataclass(frozen=True)
class MinedSets:
    """Mined positive and negative ids for one query, each in a deterministic
    order (``mine_pairs``: best rank across the two input rankings, then id),
    so downstream sample assembly is reproducible.
    """

    positives: tuple[str, ...]
    negatives: tuple[str, ...]

    def __post_init__(self) -> None:
        if not set(self.positives).isdisjoint(self.negatives):
            raise ValueError("positives and negatives must be disjoint")


def mine_pairs(sparse_topL: RankedList, dense_topL: RankedList, cfg: MiningConfig) -> MinedSets:
    """Derive positive and hard-negative sets from two top-L rankings.

    positives = S_s & S_d and negatives = (S_s - L_d) | (S_d - L_s), where S_x
    is the first min(S, len) entries and L_x all entries of each input list.
    """
    sparse_ids = [pid for pid, _ in sparse_topL]
    dense_ids = [pid for pid, _ in dense_topL]
    s_s = set(sparse_ids[: cfg.S])
    s_d = set(dense_ids[: cfg.S])
    l_s = set(sparse_ids)
    l_d = set(dense_ids)
    positives = s_s & s_d
    negatives = (s_s - l_d) | (s_d - l_s)

    best_rank: dict[str, int] = {}
    for rank, pid in enumerate(sparse_ids, 1):
        best_rank[pid] = min(best_rank.get(pid, rank), rank)
    for rank, pid in enumerate(dense_ids, 1):
        best_rank[pid] = min(best_rank.get(pid, rank), rank)
    order_key = lambda pid: (best_rank[pid], pid)
    return MinedSets(
        positives=tuple(sorted(positives, key=order_key)),
        negatives=tuple(sorted(negatives, key=order_key)),
    )


def sample_random_negatives(
    corpus: Corpus,
    exclude: set[str],
    n: int,
    rng: np.random.Generator,
) -> tuple[str, ...]:
    """Uniform draws without replacement from the corpus, skipping ``exclude``.

    The draw picks indices into the remaining passages in corpus order; each is
    mapped past the excluded passages' positions, so no candidate list is built.
    """
    if n <= 0:
        return ()
    skipped = np.array(sorted(corpus.position(pid) for pid in exclude if pid in corpus), dtype=np.int64)
    count = len(corpus) - len(skipped)
    if count == 0:
        return ()
    picked = rng.choice(count, size=min(n, count), replace=False)
    # skipped[j] has skipped[j] - j remaining passages before it, so remaining
    # passage c lies past every skipped[j] with skipped[j] - j <= c
    shift = np.searchsorted(skipped - np.arange(len(skipped)), picked, side="right")
    return tuple(corpus.id_at(p) for p in (picked + shift).tolist())


def assemble_mined_sample(
    query: Query,
    sets: MinedSets,
    corpus: Corpus,
    rng: np.random.Generator,
    cfg: MiningConfig,
) -> list[TrainingSample]:
    """One TrainingSample per mined positive.

    All samples for the query share the hard-negative list (mined negatives by
    best rank, capped); random negatives are drawn per sample, excluding every
    mined positive and negative. Queries with no positives yield no samples.
    """
    if not sets.positives:
        return []
    hard = sets.negatives[: cfg.max_hard_negatives]
    exclude = {*sets.positives, *sets.negatives}
    samples = []
    for pid in sets.positives:
        randoms = sample_random_negatives(corpus, exclude, cfg.n_random_negatives, rng)
        samples.append(
            TrainingSample(
                query=query,
                positive=pid,
                hard_negatives=hard,
                random_negatives=randoms,
                source="mined",
            )
        )
    return samples


def _minmax_normalize(ranked: RankedList) -> dict[str, float]:
    if not ranked:
        return {}
    scores = [s for _, s in ranked]
    lo, hi = min(scores), max(scores)
    if hi == lo:
        return {pid: 1.0 for pid, _ in ranked}
    return {pid: (s - lo) / (hi - lo) for pid, s in ranked}


def hybrid_fuse(sparse: RankedList, dense: RankedList, mode: str, k: int) -> RankedList:
    """Fuse two rankings by sum or product of min-max normalized scores.

    Each list is normalized to [0, 1] over its own scores (all-equal scores
    normalize to 1.0); ids missing from a list contribute 0. The fused list is
    the top-k of the union under the usual (score desc, id asc) order.
    """
    if mode not in ("sum", "product"):
        raise ValueError(f"mode must be 'sum' or 'product', got {mode!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    ns = _minmax_normalize(sparse)
    nd = _minmax_normalize(dense)
    fused = []
    for pid in set(ns) | set(nd):
        a, b = ns.get(pid, 0.0), nd.get(pid, 0.0)
        fused.append((pid, a + b if mode == "sum" else a * b))
    fused.sort(key=lambda kv: (-kv[1], kv[0]))
    return fused[:k]


# ---------------------------------------------------------------------------
# Dataset persistence
# ---------------------------------------------------------------------------


def save_samples(samples: list[TrainingSample], path: str | Path) -> None:
    """Write training samples as JSONL (one object per sample)."""
    records = (
        {
            "query_id": s.query.id,
            "query_text": s.query.text,
            "positive": s.positive,
            "hard_negatives": list(s.hard_negatives),
            "random_negatives": list(s.random_negatives),
            "source": s.source,
            "lang": s.query.lang,
        }
        for s in samples
    )
    _save_jsonl_records(path, records)


def _id_list(obj: dict, key: str) -> tuple[str, ...]:
    val = obj.get(key, [])
    if not isinstance(val, list) or not all(isinstance(v, str) for v in val):
        raise ValueError(f"field {key!r} must be a list of strings")
    return tuple(val)


def load_samples(path: str | Path, corpus: Corpus | None = None) -> list[TrainingSample]:
    """Read a samples JSONL file; optionally validate passage ids against a corpus."""

    def parse(obj: dict) -> TrainingSample:
        sample = TrainingSample(
            query=Query(
                id=_require_str(obj, "query_id"),
                text=_require_str(obj, "query_text"),
                lang=_require_str(obj, "lang", "en"),
            ),
            positive=_require_str(obj, "positive"),
            hard_negatives=_id_list(obj, "hard_negatives"),
            random_negatives=_id_list(obj, "random_negatives"),
            source=_require_str(obj, "source", "mined"),
        )
        if corpus is not None:
            for pid in (sample.positive, *sample.hard_negatives, *sample.random_negatives):
                if pid not in corpus:
                    raise ValueError(f"unknown passage id {pid!r}")
        return sample

    return _load_jsonl_records(path, parse)
