"""Trainable dual-encoder dense retriever.

The encoder is one mean-pooled token-embedding table that encodes both queries
and passages, scored by dot product. Training minimizes InfoNCE over one
positive and a set of hard/random/in-batch negatives with exact analytic
gradients and an Adam update. The dense index is exact brute-force top-k,
returning corpus positions and scores; ``corpus.ids`` names the positions.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import (
    Corpus, DataFormatError, Query, TokenizedCorpus, TokenizerConfig, DEFAULT_TOKENIZER, _check_format, atomic_write,
)
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
    "bind_encoder",
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

    ``embedding`` is the one table that encodes queries and passages, and
    ``vocab`` maps each token to its row. ``version`` increments on every
    training step and ties indexes to the parameters that produced them.
    ``tokenized``, set by ``bind_encoder``, is the tokenized corpus whose
    token ids are the rows and whose passages the encoder indexes and trains on.
    """

    vocab: dict[str, int]
    embedding: np.ndarray
    version: int = 0
    tokenized: TokenizedCorpus | None = field(default=None, repr=False, compare=False)

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
        # with the two checks above: the vocabulary is a permutation of the rows
        if len(rows) != len(self.vocab):
            raise ValueError("vocab maps two tokens to one row")

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


def _token_rows(vocab: dict[str, int], token_lists: Sequence[Sequence[str]]) -> tuple[np.ndarray, np.ndarray]:
    """Each query's in-vocabulary token rows, concatenated, and how many each has."""
    rows = [[vocab[t] for t in tokens if t in vocab] for tokens in token_lists]
    sizes = np.array([len(r) for r in rows], dtype=np.int64)
    return np.array([r for each in rows for r in each], dtype=np.int64), sizes


BLOCK_BYTES = 1 << 18  # per block array of the kernels below: 1,024 rows at d=32, well inside L2


def _block_rows(dim: int) -> int:
    return max(1, BLOCK_BYTES // (8 * dim))


def _group_sums(values: np.ndarray, picks: np.ndarray, sizes: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Row i sums, one by one from +0.0, the ``values`` rows that group
    ``order[i]`` picks: groups are consecutive runs of ``picks`` of the given
    ``sizes``, and ``order`` must list them by non-increasing size.

    Step t adds the t-th pick of every group that has one, so those groups are
    a prefix of the output at every step. The output is walked in blocks of
    ``_block_rows`` rows, so each step's accumulator and gathered rows stay in
    cache; blocks do not change any cell's terms or their order.
    """
    starts = (np.cumsum(sizes) - sizes)[order]
    lengths = sizes[order]
    # ends[t]: how many groups have a t-th pick
    ends = np.searchsorted(-lengths, -np.arange(lengths[0] if len(lengths) else 0)).tolist()
    acc = np.zeros((len(order), values.shape[1]))
    block = _block_rows(values.shape[1])
    for lo in range(0, len(order), block):
        for t, end in enumerate(ends):
            if end <= lo:
                break
            end = min(end, lo + block)
            acc[lo:end] += values.take(picks.take(starts[lo:end] + t), axis=0)
    return acc


def _mean_pool(table: np.ndarray, rows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Row i: the mean of the table rows of entry i, the i-th run of ``rows``
    of the int64 ``sizes``, or zero if it has none.

    ``_group_sums`` sums each entry's rows one by one from zero, and the sum
    is then divided by its size: for a table of two or more columns that is
    ``table[entry_rows].mean(axis=0)`` bit for bit. (On one column numpy sums
    pairwise instead, which can differ in the last bits once an entry has 8
    or more rows.)
    """
    order = np.argsort(-sizes, kind="stable")
    pooled = np.empty((len(sizes), table.shape[1]))
    pooled[order] = _group_sums(table, rows, sizes, order) / np.maximum(sizes[order], 1)[:, None]
    return pooled


def _scatter_pooled(rows: np.ndarray, sizes: np.ndarray, g_pooled: np.ndarray, n_rows: int) -> np.ndarray:
    """The (n_rows, d) table gradient of ``_mean_pool(table, rows, sizes)``'s
    output gradient ``g_pooled``: each row entry i pools gets ``g_pooled[i] / sizes[i]``.

    A stable sort groups the token rows by table row, each group in input
    order, and ``_group_sums`` sums every touched row's terms from zero into
    a compact accumulator that is placed into a zero table. Each cell so sums
    its terms in ``rows`` order from +0.0: bit-equal to an ``np.add.at``
    scatter onto a zero table, without a (tokens, d) contribution array. The
    rows are sorted as the smallest unsigned type that holds them, since
    numpy's stable sort is a radix sort for 16-bit and smaller types.
    """
    # entries without rows own no term; dividing them by 1 is harmless
    per_token = g_pooled / np.maximum(sizes, 1)[:, None]
    rows = rows.astype(np.min_scalar_type(n_rows - 1))
    by_row = np.argsort(rows, kind="stable")
    counts = np.bincount(rows, minlength=n_rows)
    touched = np.flatnonzero(counts)
    counts = counts[touched]
    order = np.argsort(-counts, kind="stable")
    owner = np.repeat(np.arange(len(sizes)), sizes)[by_row]
    out = np.zeros((n_rows, g_pooled.shape[1]))
    out[touched[order]] = _group_sums(per_token, owner, counts, order)
    return out


def bind_encoder(
    params: EncoderParams, corpus: Corpus, tok: TokenizerConfig = DEFAULT_TOKENIZER, path: str | Path | None = None
) -> EncoderParams:
    """``params``, fresh or read from the checkpoint ``path``, bound to
    ``corpus.tokenized(tok)``: its rows permuted into that token-id order and
    the tokenized corpus kept as its ``tokenized``. Raises DataFormatError
    naming ``path`` unless its tokens are exactly the corpus's."""
    tc = corpus.tokenized(tok)
    index = tc.index
    missing, extra = len(index.keys() - params.vocab.keys()), len(params.vocab.keys() - index.keys())
    if missing or extra:
        raise DataFormatError(
            f"vocabulary is not the corpus's tokens under the config's tokenizer ({missing} of {len(index)} "
            f"missing, {extra} extra): it was trained on another corpus or tokenizer config",
            path,
        )
    rows = np.fromiter(map(params.vocab.__getitem__, index), np.int64, len(index))
    return EncoderParams(vocab=index, embedding=params.embedding[rows], version=params.version, tokenized=tc)


def corpus_token_rows(params: EncoderParams) -> TokenizedCorpus:
    """The tokenized corpus ``params`` is bound to, whose token ids are its
    rows; raises ValueError for an encoder that ``bind_encoder`` never bound."""
    if params.tokenized is None:
        raise ValueError("the encoder is bound to no corpus; bind it with bind_encoder first")
    return params.tokenized


# ---------------------------------------------------------------------------
# Dense index
# ---------------------------------------------------------------------------


@dataclass
class DenseIndex:
    """Passage vectors by corpus position, built by the encoder ``params`` at
    version ``params_version`` over its bound corpus, tokenized under
    ``tokenizer``; searches take query tokens under that tokenizer, encode
    them with ``params`` and break ties by position."""

    vectors: np.ndarray
    params_version: int
    tokenizer: TokenizerConfig
    params: EncoderParams = field(repr=False, compare=False)


def build_dense_index(params: EncoderParams) -> DenseIndex:
    """Encode every passage of the corpus ``params`` is bound to
    (``corpus_token_rows``) under the current parameters: exact, in corpus order."""
    tc = corpus_token_rows(params)
    if len(tc.offsets) == 1:
        raise ValueError("cannot index an empty corpus")
    vectors = _mean_pool(params.embedding, tc.ids, np.diff(tc.offsets))
    return DenseIndex(vectors, params.version, tc.tokenizer, params)


DENSE_BLOCK = 64  # queries scored per matrix product; larger blocks raise peak memory
TOP_K_GROUP = 16  # columns per group of ``_block_top_k``'s first stage


def _block_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """The ``min(k, n)`` best entries of every row of the (b, n) ``scores`` by
    (score desc, column asc), in one pass: returns the picked flat positions
    into ``scores``, row after row, each row's in rank order.

    Each row gets a threshold t at most its k-th best score, and every entry
    at least t survives, so ties at the boundary compete on column. The columns
    form G groups of s columns, s = ``TOP_K_GROUP`` when k < n // s and 1
    otherwise; group c holds the columns c, c + G, ..., c + (s - 1)G (the
    last n - sG columns join none), and t is the k-th largest of the group
    maxima: at least k entries are at least t. With s = 1 that is the row's
    k-th best score, or its least one when k >= n. The survivors are found
    on the flattened mask (``np.nonzero`` of a 2-D mask costs ten times
    more) and sorted by one stable lexsort on (row, score desc), so ties keep
    column order; extra survivors score below the k-th and are cut. A row
    with fewer than k survivors (NaN scores, which sort last) sorts every entry.
    """
    b, n = scores.shape
    size = TOP_K_GROUP if k < n // TOP_K_GROUP else 1
    groups = n // size
    at = max(groups - k, 0)
    tops = scores[:, : size * groups].reshape(b, size, groups).max(axis=1)
    tops.partition(at, axis=1)
    mask = scores >= tops[:, at, None]
    flat = np.flatnonzero(mask)
    short = np.bincount(flat // n, minlength=b) < k
    if short.any():
        mask[short] = True
        flat = np.flatnonzero(mask)
    rows = flat // n
    order = np.lexsort((-scores.ravel()[flat], rows))
    survivors = np.bincount(rows, minlength=b)
    # a survivor's place in its row; rows are contiguous in ``order``
    place = np.arange(len(order)) - np.repeat(np.cumsum(survivors) - survivors, survivors)
    return flat[order[place < k]]


def search_dense(index: DenseIndex, token_lists: Sequence[Sequence[str]], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k by dot product for each query's tokens under
    ``index.tokenizer``: int64 corpus positions and float64 scores, two
    ``(len(token_lists), min(k, n))`` arrays; ties break by ascending position.

    Queries are encoded by ``index.params`` and pooled ``DENSE_BLOCK`` at a
    time into a matrix scored with one product against the index and ranked
    by one ``_block_top_k``; a block of one is numpy's matrix-vector product.
    Zero-similarity entries are retained (vectors are dense). Raises
    StaleIndexError once the encoder has trained past the version the index
    was built at.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    params = index.params
    if index.params_version != params.version:
        raise StaleIndexError(
            f"index built at params version {index.params_version}, "
            f"current is {params.version}; rebuild the index"
        )
    n = len(index.vectors)
    shape = (len(token_lists), min(k, n))
    positions, top_scores = np.empty(shape, dtype=np.int64), np.empty(shape)
    for lo in range(0, len(token_lists), DENSE_BLOCK):
        rows, sizes = _token_rows(params.vocab, token_lists[lo : lo + DENSE_BLOCK])
        scores = _mean_pool(params.embedding, rows, sizes) @ index.vectors.T
        picked = _block_top_k(scores, k)
        positions[lo : lo + DENSE_BLOCK] = (picked % n).reshape(-1, shape[1])
        top_scores[lo : lo + DENSE_BLOCK] = scores.ravel()[picked].reshape(-1, shape[1])
    return positions, top_scores


# ---------------------------------------------------------------------------
# Training samples and loss
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainingSample:
    """One query, one positive passage, ordered hard and random negatives, as corpus positions."""

    query: Query
    positive: int
    hard_negatives: tuple[int, ...] = ()
    random_negatives: tuple[int, ...] = ()
    source: str = "mined"

    def __post_init__(self) -> None:
        union = (self.positive,) + self.hard_negatives + self.random_negatives
        if len(set(union)) != len(union):
            raise ValueError(
                f"sample for query {self.query.id!r} has duplicate passages "
                "across positive/hard/random"
            )


def infonce_batch(params: EncoderParams, batch: Sequence[TrainingSample]) -> tuple[float, np.ndarray]:
    """Mean InfoNCE loss over the batch and its exact gradient wrt the table.

    Each sample's candidates are its positive, its hard and random negatives,
    and the other samples' positives (once per other sample, skipping any that
    equal its own positive). The batch is scored as one query x passage matrix
    over the unique passages, each candidate weighted by how often it occurs.
    Passages are positions in the corpus ``params`` is bound to and pool its
    token ids (``corpus_token_rows``); queries are tokenized under its
    tokenizer. Returns ``(loss, g_emb)``. Inputs are not modified, apart from
    the tokens ``Query.tokens`` memoizes on each query.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    # Unique passages touched by the batch, by position, encoded once.
    uniq: dict[int, int] = {}
    for s in batch:
        for p in (s.positive, *s.hard_negatives, *s.random_negatives):
            uniq.setdefault(p, len(uniq))
    tc = corpus_token_rows(params)
    spans = [tc.ids[tc.offsets[p] : tc.offsets[p + 1]] for p in uniq]
    q_rows, q_sizes = _token_rows(params.vocab, [s.query.tokens(tc.tokenizer) for s in batch])
    rows = np.concatenate([*spans, q_rows])
    sizes = np.concatenate([np.array([span.size for span in spans], dtype=np.int64), q_sizes])
    pooled = _mean_pool(params.embedding, rows, sizes)
    P, Q = pooled[: len(uniq)], pooled[len(uniq) :]

    n = len(batch)
    samples = np.arange(n)
    pos = np.array([uniq[s.positive] for s in batch], dtype=np.int64)
    # counts[i, u]: how often passage u is a candidate of sample i; every
    # sample's positive once per sample, but sample i's own positive once
    counts = np.tile(np.bincount(pos, minlength=len(uniq)).astype(np.float64), (n, 1))
    counts[samples, pos] = 1.0
    for i, s in enumerate(batch):
        counts[i, [uniq[p] for p in (*s.hard_negatives, *s.random_negatives)]] += 1.0

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
    return loss, _scatter_pooled(rows, sizes, np.vstack([coeff.T @ Q, coeff @ P]), len(params.vocab))


# ---------------------------------------------------------------------------
# Optimizer and training step
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-2


def init_optimizer(params: EncoderParams, lr: float = 1e-2) -> OptimizerState:
    shape = params.embedding.shape
    return OptimizerState(m=np.zeros(shape), v=np.zeros(shape), lr=lr)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _adam_update(table: np.ndarray, g: np.ndarray, opt: OptimizerState) -> None:
    """Adam on ``table`` and ``opt``'s moments in place, ``_block_rows`` rows
    at a time with two block-sized temporaries, so each block's arrays stay in cache.

    Every element sees the float operations, in order, of
    ``table -= lr * m_hat / (sqrt(v_hat) + eps)`` with m_hat = m / (1 - beta1^t)
    and v_hat = v / (1 - beta2^t); the reordered products are commutations.
    """
    m_scale, v_scale = 1.0 - ADAM_BETA1**opt.step, 1.0 - ADAM_BETA2**opt.step
    block = _block_rows(table.shape[1])
    a = np.empty((min(block, len(table)), table.shape[1]))
    b = np.empty_like(a)
    for lo in range(0, len(table), block):
        rows = slice(lo, lo + block)
        gb, mb, vb = g[rows], opt.m[rows], opt.v[rows]
        ab, bb = a[: len(gb)], b[: len(gb)]
        np.multiply(gb, 1.0 - ADAM_BETA1, out=ab)
        mb *= ADAM_BETA1
        mb += ab
        np.multiply(gb, 1.0 - ADAM_BETA2, out=ab)
        ab *= gb
        vb *= ADAM_BETA2
        vb += ab
        np.divide(vb, v_scale, out=ab)
        np.sqrt(ab, out=ab)
        ab += ADAM_EPS
        np.divide(mb, m_scale, out=bb)
        bb *= opt.lr
        bb /= ab
        table[rows] -= bb


def train_step(params: EncoderParams, opt: OptimizerState, batch: Sequence[TrainingSample]) -> float:
    """One Adam update from ``infonce_batch``'s gradient over the corpus
    ``params`` is bound to; returns its mean loss.

    Parameters and optimizer state are updated in place; the parameter
    version increments. Deterministic given batch order.
    """
    loss, g_emb = infonce_batch(params, batch)
    opt.step += 1
    _adam_update(params.embedding, g_emb, opt)
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
    writes: the int format (``_check_format``), a list of string ``tokens``, a
    non-negative int ``version`` and ``shared`` true."""
    _check_format(meta, CHECKPOINT_FORMAT, "checkpoint")
    if type(meta["tokens"]) is not list or not all(type(t) is str for t in meta["tokens"]):
        raise ValueError("tokens must be a list of strings")
    if type(meta["version"]) is not int or meta["version"] < 0:
        raise ValueError(f"version must be a non-negative int, got {meta['version']!r}")
    if meta["shared"] is not True:
        raise ValueError(f"shared must be true (untied checkpoints are not read), got {meta['shared']!r}")


def load_checkpoint(path: str | Path) -> tuple[EncoderParams, None]:
    """Read a ``save_checkpoint`` file as ``(encoder, None)``, its rows in the
    file's order (``bind_encoder`` puts them in a corpus's). A file that is
    not one, whose metadata fails ``_check_meta``, whose table is not of a
    float dtype or holds a non-finite value, or whose ``dim`` is not its
    table's width raises ``DataFormatError`` naming ``path``.

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
            table = data["embedding"]
            if table.dtype.kind != "f":
                # astype would read strings, bools and ints, and drop imaginary parts
                raise ValueError(f"the table's dtype {table.dtype} is not a float type")
            params = EncoderParams(
                vocab={t: i for i, t in enumerate(meta["tokens"])},
                embedding=table.astype(np.float64),
                version=meta["version"],
            )
            if type(meta["dim"]) is not int or meta["dim"] != params.dim:
                raise ValueError(f"dim {meta['dim']!r} disagrees with the {params.dim}-column table")
            if not np.isfinite(params.embedding).all():
                raise ValueError("the table holds non-finite values")
    except (ValueError, KeyError, TypeError, AttributeError, EOFError, zipfile.BadZipFile) as exc:
        raise DataFormatError(f"not a lexmine checkpoint: {exc!r}", path) from exc
    return params, None
