"""Trainable dual-encoder dense retriever.

The encoder is a mean-pooled token-embedding table (shared between query and
passage sides by default), scored by dot product. Training minimizes InfoNCE
over one positive and a set of hard/random/in-batch negatives with exact
analytic gradients and an Adam update. The dense index is exact brute-force
top-k behind the same contract an approximate backend would implement.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus, DataFormatError, Query, TokenizerConfig, DEFAULT_TOKENIZER, atomic_write, tokenize
from .sparse import RankedList, top_k

__all__ = [
    "EncoderParams",
    "DenseIndex",
    "TrainingSample",
    "OptimizerState",
    "StaleIndexError",
    "init_params",
    "vocab_from_corpus",
    "encode",
    "build_dense_index",
    "search_dense",
    "search_dense_block",
    "infonce_from_scores",
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

    ``embedding`` is the passage-side table; when ``shared`` it also encodes
    queries, otherwise ``query_embedding`` holds a separate table. ``version``
    increments on every training step and ties indexes to the parameters that
    produced them.
    """

    vocab: dict[str, int]
    embedding: np.ndarray
    shared: bool = True
    query_embedding: np.ndarray | None = None
    version: int = 0

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
        if self.shared:
            if self.query_embedding is not None:
                raise ValueError("shared params must not carry a separate query table")
        else:
            if self.query_embedding is None or self.query_embedding.shape != self.embedding.shape:
                raise ValueError("untied params need a query table of matching shape")

    @property
    def dim(self) -> int:
        return self.embedding.shape[1]

    def table(self, as_query: bool = False) -> np.ndarray:
        if as_query and not self.shared:
            assert self.query_embedding is not None
            return self.query_embedding
        return self.embedding


def vocab_from_corpus(
    corpus: Corpus, tok: TokenizerConfig = DEFAULT_TOKENIZER, queries: Iterable[Query] = ()
) -> list[str]:
    """The encoder vocabulary: sorted unique tokens of the corpus and of ``queries``."""
    return sorted(set(corpus.tokenized(tok).vocab).union(*(tokenize(q.text, tok) for q in queries)))


def init_params(
    vocab_tokens: Iterable[str],
    dim: int = 64,
    seed: int | Sequence[int] = 0,
    shared: bool = True,
) -> EncoderParams:
    """Fresh encoder with embeddings uniform in [-1/sqrt(d), +1/sqrt(d)]."""
    tokens = list(dict.fromkeys(vocab_tokens))
    vocab = {t: i for i, t in enumerate(tokens)}
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(dim)
    embedding = rng.uniform(-scale, scale, size=(len(tokens), dim))
    query_embedding = None if shared else rng.uniform(-scale, scale, size=(len(tokens), dim))
    return EncoderParams(
        vocab=vocab, embedding=embedding, shared=shared, query_embedding=query_embedding
    )


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


def _scatter_columns(
    rows: np.ndarray, owner: np.ndarray, src: np.ndarray, n_rows: int, weights: np.ndarray | None = None
) -> np.ndarray:
    """The (d, n_rows) transpose of the table that, starting from zero, adds
    ``src[owner[k]] * weights[k]`` (or ``src[owner[k]]``) onto row ``rows[k]``
    for k = 0, 1, ... in that order.

    One ``np.bincount`` per column: it sums each cell's terms in input order,
    as ``np.add.at`` does on a zero table, so the result is bit-equal to that
    scatter without materialising a (len(rows), d) contribution array.
    """
    out = np.empty((src.shape[1], n_rows))
    for j, col in enumerate(src.T):
        w = col[owner]
        if weights is not None:
            w *= weights
        out[j] = np.bincount(rows, weights=w, minlength=n_rows)
    return out


def _scatter_pooled(g_table: np.ndarray, rows_list: Sequence[np.ndarray], g_pooled: np.ndarray) -> None:
    """Chain gradients of ``_mean_pool``'s output back onto ``g_table`` (in place).

    ``g_table`` must be all zeros: each cell's terms are summed in
    ``rows_list`` order from zero and added once, which equals adding them
    one by one only onto a zero table.
    """
    sizes = np.array([rows.size for rows in rows_list], dtype=np.int64)
    # rows without tokens own no entry of ``owner``; dividing them by 1 is harmless
    per_token = g_pooled / np.maximum(sizes, 1)[:, None]
    owner = np.repeat(np.arange(len(rows_list)), sizes)
    rows = np.concatenate(rows_list)
    g_table += _scatter_columns(rows, owner, per_token, g_table.shape[0]).T


def encode(
    params: EncoderParams, tokens: Sequence[str], as_query: bool = False
) -> np.ndarray:
    """Mean of the embedding rows of in-vocabulary tokens (duplicates counted).

    Out-of-vocabulary tokens are skipped; empty or fully-OOV input encodes to
    the zero vector.
    """
    return _mean_pool(params.table(as_query), [_token_rows(params.vocab, tokens)])[0]


def corpus_token_rows(
    params: EncoderParams, corpus: Corpus, tok: TokenizerConfig = DEFAULT_TOKENIZER
) -> dict[str, np.ndarray]:
    """Per-passage embedding-row indices, cached once per (vocab, corpus).

    Out-of-vocabulary tokens are skipped, as ``encode`` skips them.
    """
    tc = corpus.tokenized(tok)
    row_of = np.array([params.vocab.get(t, -1) for t in tc.vocab], dtype=np.int64)
    rows = row_of[tc.ids]
    kept = rows >= 0
    ends = np.concatenate(([0], np.cumsum(kept)))[tc.offsets]
    return dict(zip(corpus.ids, np.split(rows[kept], ends[1:-1])))


# ---------------------------------------------------------------------------
# Dense index
# ---------------------------------------------------------------------------


@dataclass
class DenseIndex:
    """Passage vectors in corpus order, tied to the parameter version and the
    tokenizer they were built under; searches tokenize queries with it."""

    ids: list[str]
    vectors: np.ndarray
    params_version: int
    tokenizer: TokenizerConfig
    _id_rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.ids) != self.vectors.shape[0]:
            raise ValueError("ids and vectors disagree in length")
        order = sorted(range(len(self.ids)), key=self.ids.__getitem__)
        rank = np.empty(len(self.ids), dtype=np.int64)
        for r, i in enumerate(order):
            rank[i] = r
        self._id_rank = rank


def build_dense_index(
    params: EncoderParams,
    corpus: Corpus,
    tok: TokenizerConfig = DEFAULT_TOKENIZER,
    rows_cache: dict[str, np.ndarray] | None = None,
) -> DenseIndex:
    """Encode every passage under the current parameters (exact, corpus order)."""
    if len(corpus) == 0:
        raise ValueError("cannot index an empty corpus")
    rows_cache = rows_cache if rows_cache is not None else corpus_token_rows(params, corpus, tok)
    ids = corpus.ids
    vectors = _mean_pool(params.embedding, [rows_cache[pid] for pid in ids])
    return DenseIndex(ids=ids, vectors=vectors, params_version=params.version, tokenizer=tok)


DENSE_BLOCK = 64  # queries scored per matrix product; larger blocks raise peak memory


def search_dense_block(
    index: DenseIndex,
    params: EncoderParams,
    token_lists: Sequence[Sequence[str]],
    k: int,
) -> list[RankedList]:
    """Exact top-k by dot product for each tokenized query; ties break by
    ascending passage id.

    Tokens must come from the index's tokenizer. Queries are pooled
    ``DENSE_BLOCK`` at a time into a matrix scored with one product against
    the index; a block of one is numpy's matrix-vector product. Zero-similarity
    entries are retained (vectors are dense). Raises StaleIndexError when the
    index predates the current parameters.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if index.params_version != params.version:
        raise StaleIndexError(
            f"index built at params version {index.params_version}, "
            f"current is {params.version}; rebuild the index"
        )
    table = params.table(as_query=True)
    rows = [_token_rows(params.vocab, tokens) for tokens in token_lists]
    ranked: list[RankedList] = []
    for lo in range(0, len(rows), DENSE_BLOCK):
        for scores in _mean_pool(table, rows[lo : lo + DENSE_BLOCK]) @ index.vectors.T:
            best = top_k(scores, index._id_rank, k)
            ranked.append([(index.ids[i], s) for i, s in zip(best.tolist(), scores[best].tolist())])
    return ranked


def search_dense(
    index: DenseIndex,
    params: EncoderParams,
    query: Query | str,
    k: int,
) -> RankedList:
    """``search_dense_block`` for one query, tokenized with the index's tokenizer."""
    text = query.text if isinstance(query, Query) else query
    return search_dense_block(index, params, [tokenize(text, index.tokenizer)], k)[0]


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


def infonce_from_scores(positive_score: float, negative_scores: Sequence[float]) -> float:
    """InfoNCE loss given raw similarity scores, with max-shifted exponentials."""
    z = np.concatenate(([positive_score], np.asarray(negative_scores, dtype=float)))
    m = z.max()
    return float(m + np.log(np.exp(z - m).sum()) - positive_score)


def infonce_batch(
    params: EncoderParams,
    batch: Sequence[TrainingSample],
    rows_cache: dict[str, np.ndarray],
    tok: TokenizerConfig = DEFAULT_TOKENIZER,
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """Mean InfoNCE loss over the batch and its exact gradient wrt the tables.

    Negatives for each sample are its hard negatives, then its random
    negatives, then the other samples' positives (each once, skipping any that
    equal the sample's own positive). ``rows_cache`` maps every passage id to
    its embedding rows (``corpus_token_rows``). Returns ``(loss, g_emb,
    g_query)``: ``g_query`` is the query table's gradient for untied
    parameters and None when shared, where the query side adds into
    ``g_emb``. Inputs are not modified.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    # Unique passages touched by the batch, encoded once.
    uniq: dict[str, int] = {}
    for s in batch:
        for pid in (s.positive, *s.hard_negatives, *s.random_negatives):
            uniq.setdefault(pid, len(uniq))
    p_rows = [rows_cache[pid] for pid in uniq]
    q_rows = [_token_rows(params.vocab, tokenize(s.query.text, tok)) for s in batch]
    P = _mean_pool(params.embedding, p_rows)
    Q = _mean_pool(params.table(as_query=True), q_rows)

    n = len(batch)
    scale = 1.0 / n
    Q_grad = np.zeros_like(Q)
    total_loss = 0.0
    positives = [s.positive for s in batch]
    idx_list = []
    coeff_list = []
    for i, s in enumerate(batch):
        in_batch = [p for j, p in enumerate(positives) if j != i and p != s.positive]
        pids = [s.positive, *s.hard_negatives, *s.random_negatives, *in_batch]
        idx = np.array([uniq[pid] for pid in pids], dtype=np.int64)
        P_i = P[idx]
        scores = P_i @ Q[i]
        # infonce_from_scores and the softmax from one max-shifted exp
        m = scores.max()
        e = np.exp(scores - m)
        e_sum = e.sum()
        total_loss += float(m + np.log(e_sum) - scores[0])
        # dL/ds = softmax - onehot(positive)
        coeff = e / e_sum
        coeff[0] -= 1.0
        coeff *= scale
        Q_grad[i] = coeff @ P_i
        idx_list.append(idx)
        coeff_list.append(coeff)
    # P_grad[idx[k]] += coeff[k] * Q[i], over samples i and then k in order
    P_grad = _scatter_columns(
        np.concatenate(idx_list),
        np.repeat(np.arange(n), [idx.size for idx in idx_list]),
        Q,
        len(uniq),
        np.concatenate(coeff_list),
    ).T

    g_emb = np.zeros_like(params.embedding)
    if params.shared:
        # one scatter, so each row sums its passage terms, then its query terms, from zero
        _scatter_pooled(g_emb, p_rows + q_rows, np.vstack([P_grad, Q_grad]))
        return total_loss / n, g_emb, None
    g_query = np.zeros_like(params.embedding)
    _scatter_pooled(g_emb, p_rows, P_grad)
    _scatter_pooled(g_query, q_rows, Q_grad)
    return total_loss / n, g_emb, g_query


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
    q_m: np.ndarray | None = None
    q_v: np.ndarray | None = None


def init_optimizer(params: EncoderParams, lr: float = 1e-2) -> OptimizerState:
    shape = params.embedding.shape
    q_m = q_v = None
    if not params.shared:
        q_m, q_v = np.zeros(shape), np.zeros(shape)
    return OptimizerState(m=np.zeros(shape), v=np.zeros(shape), lr=lr, q_m=q_m, q_v=q_v)


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
    rows_cache: dict[str, np.ndarray],
    tok: TokenizerConfig = DEFAULT_TOKENIZER,
) -> tuple[EncoderParams, OptimizerState, float]:
    """One Adam update from ``infonce_batch``'s gradient; returns its mean loss.

    Parameters and optimizer state are updated in place; the parameter
    version increments. Deterministic given batch order.
    """
    loss, g_emb, g_query = infonce_batch(params, batch, rows_cache, tok)
    opt.step += 1
    _adam_update(params.embedding, g_emb, opt.m, opt.v, opt)
    if g_query is not None:
        assert opt.q_m is not None and opt.q_v is not None
        _adam_update(params.query_embedding, g_query, opt.q_m, opt.q_v, opt)
    params.version += 1
    return params, opt, loss


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path: str | Path, params: EncoderParams, opt: OptimizerState | None = None) -> None:
    """Single-file .npz checkpoint: tables, optimizer moments, and metadata."""
    tokens = [None] * len(params.vocab)
    for t, i in params.vocab.items():
        tokens[i] = t
    meta = {
        "format": CHECKPOINT_FORMAT,
        "tokens": tokens,
        "shared": params.shared,
        "version": params.version,
        "dim": params.dim,
        "opt": None
        if opt is None
        else {
            "step": opt.step,
            "lr": opt.lr,
            "beta1": opt.beta1,
            "beta2": opt.beta2,
            "eps": opt.eps,
        },
    }
    arrays: dict[str, np.ndarray] = {"embedding": params.embedding}
    if params.query_embedding is not None:
        arrays["query_embedding"] = params.query_embedding
    if opt is not None:
        arrays["adam_m"] = opt.m
        arrays["adam_v"] = opt.v
        if opt.q_m is not None:
            arrays["adam_q_m"] = opt.q_m
            arrays["adam_q_v"] = opt.q_v
    with atomic_write(path, binary=True) as fh:
        np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path: str | Path) -> tuple[EncoderParams, OptimizerState | None]:
    """Read a ``save_checkpoint`` file; a file that is not one raises
    ``DataFormatError`` naming ``path``."""
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]))
            if meta.get("format") != CHECKPOINT_FORMAT:
                raise ValueError(f"unsupported checkpoint format {meta.get('format')!r}")
            params = EncoderParams(
                vocab={t: i for i, t in enumerate(meta["tokens"])},
                embedding=data["embedding"].astype(np.float64),
                shared=meta["shared"],
                query_embedding=data["query_embedding"].astype(np.float64)
                if "query_embedding" in data
                else None,
                version=meta["version"],
            )
            opt = None
            if meta["opt"] is not None:
                o = meta["opt"]
                opt = OptimizerState(
                    m=data["adam_m"].astype(np.float64),
                    v=data["adam_v"].astype(np.float64),
                    step=o["step"],
                    lr=o["lr"],
                    beta1=o["beta1"],
                    beta2=o["beta2"],
                    eps=o["eps"],
                    q_m=data["adam_q_m"].astype(np.float64) if "adam_q_m" in data else None,
                    q_v=data["adam_q_v"].astype(np.float64) if "adam_q_v" in data else None,
                )
    except (ValueError, KeyError, TypeError, AttributeError, EOFError, zipfile.BadZipFile) as exc:
        raise DataFormatError(f"not a lexmine checkpoint: {exc!r}", path) from exc
    return params, opt
