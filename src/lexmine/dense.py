"""Trainable dual-encoder dense retriever.

The encoder is one mean-pooled token-embedding table that encodes both queries
and passages, scored by dot product. Training minimizes InfoNCE over one
positive and a set of hard/random/in-batch negatives with exact analytic
gradients and an Adam update. The dense index is exact brute-force
top-k behind the same contract an approximate backend would implement.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, DataFormatError, Query, TokenizerConfig, DEFAULT_TOKENIZER, atomic_write
from .sparse import RankedList, rank_ids, top_k

__all__ = [
    "EncoderParams",
    "DenseIndex",
    "TrainingSample",
    "OptimizerState",
    "StaleIndexError",
    "init_params",
    "vocab_from_corpus",
    "build_dense_index",
    "search_dense",
    "infonce_batch",
    "init_optimizer",
    "train_step",
    "corpus_token_rows",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT = 1


class StaleIndexError(RuntimeError):
    """Dense index was built under different encoder parameters."""


@dataclass
class EncoderParams:
    """Token-embedding encoder parameters.

    ``embedding`` is the one table that encodes queries and passages.
    ``version`` increments on every training step and ties indexes to the
    parameters that produced them. ``corpus_token_rows`` memoizes the
    per-passage rows here; the vocabulary, and so the rows, never change after
    construction.
    """

    vocab: dict[str, int]
    embedding: np.ndarray
    version: int = 0
    _passage_rows: tuple[Corpus, TokenizerConfig, dict[str, np.ndarray]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.embedding.ndim != 2:
            raise ValueError("embedding must be a 2-D matrix")
        if len(self.vocab) != self.embedding.shape[0]:
            raise ValueError("vocab size and embedding rows disagree")
        if self.dim < 1:
            raise ValueError("embedding dimension must be >= 1")
        rows = set(self.vocab.values())
        if rows and (min(rows) < 0 or max(rows) >= self.embedding.shape[0]):
            raise ValueError("vocab maps to out-of-range rows")

    @property
    def dim(self) -> int:
        return self.embedding.shape[1]

    def table(self, as_query: bool = False) -> np.ndarray:
        """``embedding``, which encodes either side; the benchmark's oracle names the side."""
        return self.embedding


def vocab_from_corpus(corpus: Corpus, tok: TokenizerConfig = DEFAULT_TOKENIZER) -> tuple[str, ...]:
    """The encoder vocabulary: the corpus's sorted unique tokens under ``tok``.

    No query adds a token, so no held-out query shapes the encoder; a query
    token outside the vocabulary is skipped when pooling.
    """
    return corpus.tokenized(tok).vocab


def init_params(vocab_tokens: Iterable[str], dim: int = 64, seed: int | Sequence[int] = 0) -> EncoderParams:
    """Fresh encoder with embeddings uniform in [-1/sqrt(d), +1/sqrt(d)]."""
    tokens = list(dict.fromkeys(vocab_tokens))
    vocab = {t: i for i, t in enumerate(tokens)}
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(dim)
    return EncoderParams(vocab=vocab, embedding=rng.uniform(-scale, scale, size=(len(tokens), dim)))


def _token_rows(vocab: dict[str, int], tokens: Sequence[str]) -> np.ndarray:
    return np.array([vocab[t] for t in tokens if t in vocab], dtype=np.int64)


def _mean_pool(table: np.ndarray, rows_list: Sequence[np.ndarray]) -> np.ndarray:
    """One row per entry of ``rows_list``: the mean of those table rows, or zero if none.

    Step t adds the t-th row of every entry that has one, so each entry sums
    its rows one by one from zero and is then divided by its size: for a table
    of two or more columns that is ``table[rows].mean(axis=0)`` bit for bit.
    (On one column numpy sums pairwise instead, which can differ in the last
    bits once an entry has 8 or more rows.) Entries are walked longest first,
    so the entries that have a t-th row are a prefix at every step.
    """
    sizes = np.array([rows.size for rows in rows_list], dtype=np.int64)
    order = np.argsort(-sizes, kind="stable")
    starts = (np.cumsum(sizes) - sizes)[order]
    flat = np.concatenate(rows_list) if rows_list else np.zeros(0, dtype=np.int64)
    lengths = sizes[order].tolist()
    acc = np.zeros((len(rows_list), table.shape[1]))
    n = len(lengths)
    for t in range(lengths[0] if n else 0):
        while lengths[n - 1] <= t:
            n -= 1
        acc[:n] += table.take(flat.take(starts[:n] + t), axis=0)
    pooled = np.empty_like(acc)
    pooled[order] = acc / np.maximum(sizes[order], 1)[:, None]
    return pooled


def _scatter_pooled(rows_list: Sequence[np.ndarray], g_pooled: np.ndarray, n_rows: int) -> np.ndarray:
    """The (n_rows, d) table gradient of ``_mean_pool``'s output gradient
    ``g_pooled``: row ``rows_list[i][k]`` gets ``g_pooled[i] / rows_list[i].size``.

    One ``np.bincount`` per column sums each cell's terms in ``rows_list``
    order from zero, so the result is bit-equal to an ``np.add.at`` scatter
    onto a zero table, without a (tokens, d) contribution array.
    """
    sizes = np.array([rows.size for rows in rows_list], dtype=np.int64)
    # entries without rows own no term; dividing them by 1 is harmless
    per_token = g_pooled / np.maximum(sizes, 1)[:, None]
    owner = np.repeat(np.arange(len(rows_list)), sizes)
    rows = np.concatenate(rows_list)
    out = np.empty((n_rows, g_pooled.shape[1]))
    for j, col in enumerate(per_token.T):
        out[:, j] = np.bincount(rows, weights=col[owner], minlength=n_rows)
    return out


def corpus_token_rows(
    params: EncoderParams, corpus: Corpus, tok: TokenizerConfig = DEFAULT_TOKENIZER
) -> dict[str, np.ndarray]:
    """Passage id -> the embedding rows its tokens under ``tok`` pool, in
    corpus order, memoized on ``params`` for the last corpus (by identity) and
    tokenizer config asked, as ``Corpus.tokenized`` is; callers only read it.

    Out-of-vocabulary tokens are skipped, as they are in queries.
    """
    memo = params._passage_rows
    if memo is None or memo[0] is not corpus or memo[1] != tok:
        tc = corpus.tokenized(tok)
        row_of = np.array([params.vocab.get(t, -1) for t in tc.vocab], dtype=np.int64)
        rows = row_of[tc.ids]
        kept = rows >= 0
        ends = np.concatenate(([0], np.cumsum(kept)))[tc.offsets]
        by_id = dict(zip(corpus.ids, np.split(rows[kept], ends[1:-1])))
        memo = params._passage_rows = (corpus, tok, by_id)
    return memo[2]


# ---------------------------------------------------------------------------
# Dense index
# ---------------------------------------------------------------------------


@dataclass
class DenseIndex:
    """Passage vectors in corpus order, built by the encoder ``params`` at
    version ``params_version`` under ``tokenizer``; searches take query tokens
    under that tokenizer and encode them with ``params``."""

    ids: list[str]
    vectors: np.ndarray
    params_version: int
    tokenizer: TokenizerConfig
    params: EncoderParams = field(repr=False, compare=False)
    _id_rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.ids) != self.vectors.shape[0]:
            raise ValueError("ids and vectors disagree in length")
        self._id_rank = rank_ids(self.ids)


def build_dense_index(
    params: EncoderParams, corpus: Corpus, tok: TokenizerConfig = DEFAULT_TOKENIZER
) -> DenseIndex:
    """Encode every passage under the current parameters (exact, corpus order)."""
    if len(corpus) == 0:
        raise ValueError("cannot index an empty corpus")
    vectors = _mean_pool(params.embedding, list(corpus_token_rows(params, corpus, tok).values()))
    return DenseIndex(ids=corpus.ids, vectors=vectors, params_version=params.version, tokenizer=tok, params=params)


DENSE_BLOCK = 64  # queries scored per matrix product; larger blocks raise peak memory


def search_dense(index: DenseIndex, token_lists: Sequence[Sequence[str]], k: int) -> list[RankedList]:
    """Exact top-k by dot product for each query's tokens under
    ``index.tokenizer``; ties break by ascending passage id.

    Queries are encoded by ``index.params`` and pooled ``DENSE_BLOCK`` at a
    time into a matrix scored with one product against the index; a block of
    one is numpy's matrix-vector product. Zero-similarity entries are retained
    (vectors are dense). Raises StaleIndexError once the encoder has trained
    past the version the index was built at.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    params = index.params
    if index.params_version != params.version:
        raise StaleIndexError(
            f"index built at params version {index.params_version}, "
            f"current is {params.version}; rebuild the index"
        )
    rows = [_token_rows(params.vocab, tokens) for tokens in token_lists]
    ranked: list[RankedList] = []
    for lo in range(0, len(rows), DENSE_BLOCK):
        for scores in _mean_pool(params.embedding, rows[lo : lo + DENSE_BLOCK]) @ index.vectors.T:
            best = top_k(scores, index._id_rank, k)
            ranked.append([(index.ids[i], s) for i, s in zip(best.tolist(), scores[best].tolist())])
    return ranked


# ---------------------------------------------------------------------------
# Training samples and loss
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainingSample:
    """One query, one positive passage, ordered hard and random negatives."""

    query: Query
    positive: str
    hard_negatives: tuple[str, ...] = ()
    random_negatives: tuple[str, ...] = ()
    source: str = "mined"

    def __post_init__(self) -> None:
        union = (self.positive,) + self.hard_negatives + self.random_negatives
        if len(set(union)) != len(union):
            raise ValueError(
                f"sample for query {self.query.id!r} has duplicate passages "
                "across positive/hard/random"
            )


def infonce_batch(
    params: EncoderParams,
    batch: Sequence[TrainingSample],
    corpus: Corpus,
    tok: TokenizerConfig = DEFAULT_TOKENIZER,
) -> tuple[float, np.ndarray]:
    """Mean InfoNCE loss over the batch and its exact gradient wrt the table.

    Each sample's candidates are its positive, its hard and random negatives,
    and the other samples' positives (once per other sample, skipping any that
    equal its own positive). The batch is scored as one query x passage matrix
    over the unique passages, each candidate weighted by how often it occurs.
    Passages of ``corpus`` and queries are tokenized under ``tok``. Returns
    ``(loss, g_emb)``. Inputs are not modified, apart from the rows
    ``corpus_token_rows`` memoizes on ``params`` and the tokens ``Query.tokens``
    memoizes on each query.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    # Unique passages touched by the batch, encoded once.
    uniq: dict[str, int] = {}
    for s in batch:
        for pid in (s.positive, *s.hard_negatives, *s.random_negatives):
            uniq.setdefault(pid, len(uniq))
    rows = corpus_token_rows(params, corpus, tok)
    p_rows = [rows[pid] for pid in uniq]
    q_rows = [_token_rows(params.vocab, s.query.tokens(tok)) for s in batch]
    P = _mean_pool(params.embedding, p_rows)
    Q = _mean_pool(params.embedding, q_rows)

    n = len(batch)
    samples = np.arange(n)
    pos = np.array([uniq[s.positive] for s in batch], dtype=np.int64)
    # counts[i, u]: how often passage u is a candidate of sample i; every
    # sample's positive once per sample, but sample i's own positive once
    counts = np.tile(np.bincount(pos, minlength=len(uniq)).astype(np.float64), (n, 1))
    counts[samples, pos] = 1.0
    for i, s in enumerate(batch):
        counts[i, [uniq[pid] for pid in (*s.hard_negatives, *s.random_negatives)]] += 1.0

    S = np.where(counts > 0, Q @ P.T, -np.inf)
    # the loss and the softmax from one max-shifted exp
    m = S.max(axis=1)
    e = counts * np.exp(S - m[:, None])
    z = e.sum(axis=1)
    loss = float(np.mean(m + np.log(z) - S[samples, pos]))
    # dL/dS = (softmax - onehot(positive)) / n
    coeff = e / z[:, None]
    coeff[samples, pos] -= 1.0
    coeff /= n
    # one scatter, so each row sums its passage terms, then its query terms, from zero
    return loss, _scatter_pooled(p_rows + q_rows, np.vstack([coeff.T @ Q, coeff @ P]), len(params.vocab))


# ---------------------------------------------------------------------------
# Optimizer and training step
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_optimizer(params: EncoderParams, lr: float = 1e-2) -> OptimizerState:
    shape = params.embedding.shape
    return OptimizerState(m=np.zeros(shape), v=np.zeros(shape), lr=lr)


def _adam_update(table: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, opt: OptimizerState) -> None:
    """Adam on ``table`` in place, with two temporaries.

    Every element sees the float operations, in order, of
    ``table -= lr * m_hat / (sqrt(v_hat) + eps)`` with m_hat = m / (1 - beta1^t)
    and v_hat = v / (1 - beta2^t); the reordered products are commutations.
    """
    a = np.multiply(g, 1.0 - opt.beta1)
    m *= opt.beta1
    m += a
    np.multiply(g, 1.0 - opt.beta2, out=a)
    a *= g
    v *= opt.beta2
    v += a
    np.divide(v, 1.0 - opt.beta2**opt.step, out=a)
    np.sqrt(a, out=a)
    a += opt.eps
    b = np.divide(m, 1.0 - opt.beta1**opt.step)
    b *= opt.lr
    b /= a
    table -= b


def train_step(
    params: EncoderParams,
    opt: OptimizerState,
    batch: Sequence[TrainingSample],
    corpus: Corpus,
    tok: TokenizerConfig = DEFAULT_TOKENIZER,
) -> float:
    """One Adam update from ``infonce_batch``'s gradient; returns its mean loss.

    Parameters and optimizer state are updated in place; the parameter
    version increments. Deterministic given batch order.
    """
    loss, g_emb = infonce_batch(params, batch, corpus, tok)
    opt.step += 1
    _adam_update(params.embedding, g_emb, opt.m, opt.v, opt)
    params.version += 1
    return loss


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path: str | Path, params: EncoderParams) -> None:
    """Single-file .npz checkpoint of the encoder: the table and its metadata.
    ``shared`` is always true: false marked a checkpoint with a separate query
    table, which this version no longer reads."""
    tokens = [None] * len(params.vocab)
    for t, i in params.vocab.items():
        tokens[i] = t
    meta = {
        "format": CHECKPOINT_FORMAT,
        "tokens": tokens,
        "shared": True,
        "version": params.version,
        "dim": params.dim,
    }
    with atomic_write(path, binary=True) as fh:
        np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), embedding=params.embedding)


def _check_meta(meta: dict) -> None:
    """Raise ValueError unless the metadata holds what ``save_checkpoint``
    writes: a non-negative int ``version`` and ``shared`` true."""
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unsupported checkpoint format {meta.get('format')!r}")
    if type(meta["version"]) is not int or meta["version"] < 0:
        raise ValueError(f"version must be a non-negative int, got {meta['version']!r}")
    if meta["shared"] is not True:
        raise ValueError(f"shared must be true (untied checkpoints are not read), got {meta['shared']!r}")


def load_checkpoint(path: str | Path) -> tuple[EncoderParams, None]:
    """Read a ``save_checkpoint`` file as ``(encoder, None)``; a file that is
    not one, or whose metadata fails ``_check_meta``, raises
    ``DataFormatError`` naming ``path``.

    Earlier files of the same format also carried Adam moments (``adam_m``,
    ``adam_v`` and an ``opt`` metadata entry); they are ignored, so those
    files load as their encoder. The second element is always None and is
    kept because ``perfbench/checks.py`` unpacks ``params, _ = load_checkpoint(...)``.
    """
    try:
        # opened here, since np.load leaks the handle it opens on a malformed zip
        with open(path, "rb") as fh, np.load(fh) as data:
            meta = json.loads(bytes(data["meta"]))
            _check_meta(meta)
            params = EncoderParams(
                vocab={t: i for i, t in enumerate(meta["tokens"])},
                embedding=data["embedding"].astype(np.float64),
                version=meta["version"],
            )
    except (ValueError, KeyError, TypeError, AttributeError, EOFError, zipfile.BadZipFile) as exc:
        raise DataFormatError(f"not a lexmine checkpoint: {exc!r}", path) from exc
    return params, None
