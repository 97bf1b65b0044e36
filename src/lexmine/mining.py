"""Mining training pairs from sparse/dense agreement.

A passage both retrievers rank within their top-S is a positive; a passage one
retriever ranks within top-S while the other leaves it outside top-L entirely
is a hard negative. Requiring L >= S makes the two sets provably disjoint.
Passages are corpus positions; the sample files name them by passage id.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, Query, _load_jsonl_records, _require_str, _save_jsonl_records
from .dense import TrainingSample

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
    """Mined positive and negative corpus positions for one query, each in a
    deterministic order (``mine_pairs``: best rank across the two input
    rankings, then position), so downstream sample assembly is reproducible.
    """

    positives: tuple[int, ...]
    negatives: tuple[int, ...]

    def __post_init__(self) -> None:
        if not set(self.positives).isdisjoint(self.negatives):
            raise ValueError("positives and negatives must be disjoint")


def mine_pairs(sparse_pos: np.ndarray, dense_pos: np.ndarray, cfg: MiningConfig) -> list[MinedSets]:
    """Positive and hard-negative sets for a block of queries from two top-L
    rankings: row i of each 2-D array holds query i's corpus positions in rank
    order, a row shorter than its array padded with -1.

    Per query, positives = S_s & S_d and negatives = (S_s - L_d) | (S_d - L_s),
    where S_x is the first min(S, len) entries of its row and L_x all of them,
    found by broadcast compares. Every mined position lies in a top-S prefix,
    so its best rank is its rank there; sets are ordered by (best rank, position).
    """
    top_s, top_d = sparse_pos[:, : cfg.S], dense_pos[:, : cfg.S]
    rank_s, rank_d = np.arange(1, top_s.shape[1] + 1), np.arange(1, top_d.shape[1] + 1)
    # a sparse top-S entry's rank in the dense top-S, 0 when it is not there
    in_top_d = (top_s[:, :, None] == top_d[:, None, :]) @ rank_d
    positive = (top_s >= 0) & (in_top_d > 0)
    neg_s = (top_s >= 0) & ~(top_s[:, :, None] == dense_pos[:, None, :]).any(axis=2)
    neg_d = (top_d >= 0) & ~(top_d[:, :, None] == sparse_pos[:, None, :]).any(axis=2)
    # both top-S prefixes side by side, each row sorted by (set, best rank,
    # position): its positives (0), then its negatives (1), then the rest (2)
    kind = np.concatenate((np.where(positive, 0, 2 - neg_s), 2 - neg_d), axis=1)
    best_s = np.where(positive, np.minimum(rank_s, in_top_d), rank_s)
    best = np.concatenate((best_s, np.broadcast_to(rank_d, top_d.shape)), axis=1)
    both = np.concatenate((top_s, top_d), axis=1)
    ranked = np.take_along_axis(both, np.lexsort((both, best, kind)), axis=1).tolist()
    n_pos, n_neg = positive.sum(axis=1).tolist(), (neg_s.sum(axis=1) + neg_d.sum(axis=1)).tolist()
    return [MinedSets(tuple(row[:p]), tuple(row[p : p + n])) for row, p, n in zip(ranked, n_pos, n_neg)]


def sample_random_negatives(
    corpus: Corpus,
    exclude: set[int],
    n: int,
    rng: np.random.Generator,
) -> tuple[int, ...]:
    """Uniform draws without replacement from the corpus positions not in ``exclude``.

    The draw picks indices into the remaining passages in corpus order; each is
    mapped past the excluded positions, so no candidate list is built.
    """
    if n <= 0:
        return ()
    skipped = np.array(sorted(exclude), dtype=np.int64)
    count = len(corpus) - len(skipped)
    if count == 0:
        return ()
    picked = rng.choice(count, size=min(n, count), replace=False)
    # skipped[j] has skipped[j] - j remaining passages before it, so remaining
    # passage c lies past every skipped[j] with skipped[j] - j <= c
    shift = np.searchsorted(skipped - np.arange(len(skipped)), picked, side="right")
    return tuple((picked + shift).tolist())


def assemble_mined_sample(
    query: Query,
    sets: MinedSets,
    corpus: Corpus,
    rng: np.random.Generator,
    cfg: MiningConfig,
    source: str = "mined",
) -> list[TrainingSample]:
    """One TrainingSample per positive, of ``source``: mined, labeled or generated.

    All samples for the query share the hard-negative list (the negatives in
    order, capped); random negatives are drawn per sample, excluding every
    positive and negative. Queries with no positives yield no samples.
    """
    hard = sets.negatives[: cfg.max_hard_negatives]
    exclude = {*sets.positives, *sets.negatives}
    samples = []
    for p in sets.positives:
        randoms = sample_random_negatives(corpus, exclude, cfg.n_random_negatives, rng)
        samples.append(
            TrainingSample(
                query=query,
                positive=p,
                hard_negatives=hard,
                random_negatives=randoms,
                source=source,
            )
        )
    return samples


def _minmax_normalize(positions: np.ndarray, scores: np.ndarray) -> dict[int, float]:
    ranked = [(p, s) for p, s in zip(positions.tolist(), scores.tolist()) if p >= 0]
    if not ranked:
        return {}
    values = [s for _, s in ranked]
    lo, hi = min(values), max(values)
    if hi == lo:
        return {p: 1.0 for p, _ in ranked}
    return {p: (s - lo) / (hi - lo) for p, s in ranked}


def hybrid_fuse(sparse: tuple, dense: tuple, mode: str, k: int) -> list[tuple[int, float]]:
    """Fuse two rankings, each a row of corpus positions (-1 pads a short one)
    and their scores, by sum or product of min-max normalized scores.

    Each ranking is normalized to [0, 1] over its own scores (all-equal scores
    normalize to 1.0); positions missing from a ranking contribute 0. Returns
    the top-k of the union as (position, fused score) pairs under the usual
    (score desc, position asc) order.
    """
    if mode not in ("sum", "product"):
        raise ValueError(f"mode must be 'sum' or 'product', got {mode!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    ns = _minmax_normalize(*sparse)
    nd = _minmax_normalize(*dense)
    fused = []
    for p in ns.keys() | nd.keys():
        a, b = ns.get(p, 0.0), nd.get(p, 0.0)
        fused.append((p, a + b if mode == "sum" else a * b))
    fused.sort(key=lambda kv: (-kv[1], kv[0]))
    return fused[:k]


# ---------------------------------------------------------------------------
# Dataset persistence
# ---------------------------------------------------------------------------


def save_samples(samples: list[TrainingSample], path: str | Path, corpus: Corpus) -> None:
    """Write training samples as JSONL (one object per sample), each passage
    as the id of its position in ``corpus``."""
    ids = corpus.ids
    records = (
        {
            "query_id": s.query.id,
            "query_text": s.query.text,
            "positive": ids[s.positive],
            "hard_negatives": [ids[p] for p in s.hard_negatives],
            "random_negatives": [ids[p] for p in s.random_negatives],
            "source": s.source,
            "lang": s.query.lang,
        }
        for s in samples
    )
    _save_jsonl_records(path, records)


def _position(corpus: Corpus, pid: str) -> int:
    if pid not in corpus:
        raise ValueError(f"unknown passage id {pid!r}")
    return corpus.position(pid)


def _positions(obj: dict, key: str, corpus: Corpus) -> tuple[int, ...]:
    val = obj.get(key, [])
    if not isinstance(val, list) or not all(isinstance(v, str) for v in val):
        raise ValueError(f"field {key!r} must be a list of strings")
    return tuple(_position(corpus, pid) for pid in val)


def load_samples(path: str | Path, corpus: Corpus) -> list[TrainingSample]:
    """Read a samples JSONL file whose every passage id is in ``corpus``, each
    passage as its position there."""

    def parse(obj: dict) -> TrainingSample:
        return TrainingSample(
            query=Query(
                id=_require_str(obj, "query_id"),
                text=_require_str(obj, "query_text"),
                lang=_require_str(obj, "lang", "en"),
            ),
            positive=_position(corpus, _require_str(obj, "positive")),
            hard_negatives=_positions(obj, "hard_negatives", corpus),
            random_negatives=_positions(obj, "random_negatives", corpus),
            source=_require_str(obj, "source", "mined"),
        )

    return _load_jsonl_records(path, parse)
