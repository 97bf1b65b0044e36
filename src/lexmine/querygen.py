"""Query generation for unlabeled passages, with a dual-retriever filter.

The built-in generator is a per-language term-salience sampler trained on
(query, positive passage) pairs: a token's salience estimates how likely a
passage token is to also occur in a query about that passage. Generated
queries sample passage tokens proportionally to salience. A generated pair is
accepted only when both the sparse and the dense retriever return the source
passage as their top-1 result for the generated query.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import (
    Corpus, DataFormatError, Query, TokenizerConfig, DEFAULT_TOKENIZER, _ascii_int, _check_format,
    atomic_write,
)
from .dense import DenseIndex, TrainingSample, search_dense
from .mining import MinedSets, MiningConfig, assemble_mined_sample
from .sparse import InvertedIndex, impact_scores, search_sparse

__all__ = [
    "GeneratorModel",
    "GeneratedPair",
    "train_generator",
    "query_length_cdf",
    "generate_query",
    "filter_generated",
    "assemble_generated_sample",
    "save_generator",
    "load_generator",
]

# Smoothing: salience = (1 + F*r) / (2 + F) with r = P(token in query | token in
# passage) estimated per training call. The fixed pseudo-count keeps the value
# invariant under duplicating the training pairs; tokens never seen in any
# passage fall back to the prior r = 1/2, i.e. salience 0.5.
SALIENCE_PSEUDO_COUNT = 8.0
UNSEEN_SALIENCE = 0.5

SPARSE_MISS, DENSE_MISS = "sparse-top1-miss", "dense-top1-miss"  # filter_generated's rejection reasons


@dataclass
class GeneratorModel:
    term_salience: dict[tuple[str, str], float] = field(default_factory=dict)
    query_len_dist: dict[int, float] = field(default_factory=dict)
    version: int = 0


@dataclass(frozen=True)
class GeneratedPair:
    query: Query
    position: int  # the source passage's corpus position


def train_generator(
    model: GeneratorModel,
    pairs: Sequence[tuple[Query, int]],
    corpus: Corpus,
    tok: TokenizerConfig = DEFAULT_TOKENIZER,
) -> GeneratorModel:
    """Fit per-language term salience and the query-length distribution on
    (query, passage position in ``corpus``) pairs.

    Each passage's tokens are its span of ``corpus.tokenized(tok)`` and its
    language is ``corpus.langs``'s; query tokens come from ``Query.tokens(tok)``.
    Languages present in ``pairs`` get their salience tables recomputed from
    scratch; other languages keep their existing entries. Returns the mutated
    model with its version incremented.
    """
    if not pairs:
        raise ValueError("training pairs must be non-empty")
    in_passage: dict[tuple[str, str], int] = {}
    in_both: dict[tuple[str, str], int] = {}
    lengths: dict[int, int] = {}
    langs = set()
    tc = corpus.tokenized(tok)
    for query, p in pairs:
        lang = corpus.langs[p]
        langs.add(lang)
        q_list = query.tokens(tok)
        q_tokens = set(q_list)
        if q_list:
            lengths[len(q_list)] = lengths.get(len(q_list), 0) + 1
        for t in map(tc.vocab.__getitem__, set(tc.ids[tc.offsets[p] : tc.offsets[p + 1]].tolist())):
            key = (lang, t)
            in_passage[key] = in_passage.get(key, 0) + 1
            if t in q_tokens:
                in_both[key] = in_both.get(key, 0) + 1
    if not lengths:
        raise ValueError("no training query produced any tokens")

    model.term_salience = {
        key: sal for key, sal in model.term_salience.items() if key[0] not in langs
    }
    f = SALIENCE_PSEUDO_COUNT
    for key, n in in_passage.items():
        r = in_both.get(key, 0) / n
        model.term_salience[key] = (1.0 + f * r) / (2.0 + f)
    total = sum(lengths.values())
    model.query_len_dist = {n: c / total for n, c in sorted(lengths.items())}
    model.version += 1
    return model


def query_length_cdf(model: GeneratorModel) -> tuple[list[int], np.ndarray]:
    """The ``lengths`` ``generate_query`` draws from: the trained model's
    query lengths and their cumulative distribution."""
    if model.version < 1:
        raise ValueError("generator must be trained before generating")
    lens = list(model.query_len_dist.keys())
    probs = np.array([model.query_len_dist[n] for n in lens])
    # rng.choice(lens, p=probs / probs.sum())'s own rule and its one double,
    # without the validation of p that choice repeats on every call
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    return lens, cdf


def generate_query(
    lengths: tuple[list[int], np.ndarray],
    lang: str,
    token_ids: np.ndarray,
    weights: np.ndarray,
    vocab: Sequence[str],
    rng: np.random.Generator,
    query_id: str,
) -> Query:
    """Sample a query with id ``query_id`` and language ``lang`` from a
    passage's ``token_ids``, weighted by salience.

    ``lengths`` is the generator's ``query_length_cdf``; ``token_ids`` is the
    passage's span of ``Corpus.tokenized(tok).ids``; ``weights`` holds each
    token id's salience in ``lang``, the passage's language, and ``vocab`` its token.
    The length is drawn from the trained length distribution, then that many
    distinct token ids, in first-occurrence order, are drawn without
    replacement with probability proportional to salience, and uniformly once
    only zero weights remain. The draws are one Gumbel-top-k sample (Kool et
    al., ICML 2019): the top keys log(weight) + Gumbel noise, zero weights
    last in noise order. The query joins the drawn tokens.
    """
    candidates = list(dict.fromkeys(token_ids.tolist()))
    if not candidates:
        raise ValueError(f"query {query_id!r}: its passage has no tokens to sample from")
    lens, cdf = lengths
    length = lens[int(cdf.searchsorted(rng.random(), side="right"))]

    noise = rng.gumbel(size=len(candidates))
    with np.errstate(divide="ignore"):
        keys = np.log(weights[candidates]) + noise
    picked = np.lexsort((-noise, -keys))[:length]
    return Query(id=query_id, text=" ".join(vocab[candidates[i]] for i in picked.tolist()), lang=lang)


def filter_generated(
    pairs: Sequence[GeneratedPair], sparse_index: InvertedIndex, dense_index: DenseIndex, cfg: MiningConfig
) -> list[tuple[np.ndarray, np.ndarray] | str]:
    """Per pair, the positions of its BM25 and dense top-(max_hard_negatives
    + 1) rankings when both rank its passage first, else why not:
    ``SPARSE_MISS`` or ``DENSE_MISS``.

    Every pair is scored once by ``impact_scores``; it is a BM25 hit when its
    passage holds the first maximum and that score is positive. Scores are
    indexed by corpus position, so the first maximum is the lowest position
    among the top scores: ``search_sparse``'s top-1. The hits are ranked by
    one ``search_dense`` call, and only the pairs both retrievers accept are
    ranked by ``search_sparse``; a BM25 miss is never searched densely. Both
    search with the query's tokens under the sparse index's tokenizer, so the
    two indexes must share a tokenizer, as every ``PipelineState``'s do."""
    k = cfg.max_hard_negatives + 1
    token_lists = [pair.query.tokens(sparse_index.tokenizer) for pair in pairs]
    hits = []
    for i, tokens in enumerate(token_lists):
        scores = impact_scores(sparse_index, tokens)
        top = int(scores.argmax())
        if scores[top] > 0.0 and top == pairs[i].position:
            hits.append(i)
    verdicts: list[tuple[np.ndarray, np.ndarray] | str] = [SPARSE_MISS] * len(pairs)
    dense_top, _ = search_dense(dense_index, [token_lists[i] for i in hits], k)
    for i, row in zip(hits, dense_top):
        accepted = row[0] == pairs[i].position
        verdicts[i] = (search_sparse(sparse_index, token_lists[i], k)[0], row) if accepted else DENSE_MISS
    return verdicts


def assemble_generated_sample(
    pair: GeneratedPair,
    rankings: tuple[np.ndarray, np.ndarray],
    corpus: Corpus,
    rng: np.random.Generator,
    cfg: MiningConfig,
) -> TrainingSample:
    """Build a training sample for a generated pair from the positions of the
    (sparse, dense) rankings ``filter_generated`` accepted it with.

    Hard negatives are the retrievers' top passages excluding the positive,
    dense results first then sparse, deduplicated and capped; the sample is
    ``assemble_mined_sample``'s, so random negatives are drawn as in mining.
    In-batch negatives are applied at training time.
    """
    sparse_top, dense_top = rankings
    ranked = (p for p in [*dense_top.tolist(), *sparse_top.tolist()] if p != pair.position)
    hard = tuple(dict.fromkeys(ranked))[: cfg.max_hard_negatives]
    (sample,) = assemble_mined_sample(
        pair.query, MinedSets((pair.position,), hard), corpus, rng, cfg, source="generated"
    )
    return sample


def save_generator(model: GeneratorModel, path: str | Path) -> None:
    payload = {
        "format": 1,
        "version": model.version,
        "query_len_dist": {str(k): v for k, v in model.query_len_dist.items()},
        "term_salience": [
            {"lang": lang, "token": token, "weight": w}
            for (lang, token), w in sorted(model.term_salience.items())
        ],
    }
    # json.dumps encodes in C; json.dump streams through the pure-Python encoder
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, ensure_ascii=False))


def _number(value: object, name: str) -> float:
    """A JSON int or float, which a bool is not, as a float."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _length_key(key: str) -> int:
    """A query length written as ``save_generator`` writes it, ``str(n)``; a
    key such as "01" would name another key's length, and one of them win."""
    n = _ascii_int(key, "query length")
    if str(n) != key:
        raise ValueError(f"query length {key!r} is not written as {str(n)!r}")
    return n


def load_generator(path: str | Path) -> GeneratorModel:
    """Read a trained ``save_generator`` file; anything else raises
    ``DataFormatError`` naming ``path``.

    Every field has the JSON type ``save_generator`` writes: int format and
    version, length keys as ``str(n)`` (``_length_key``), numbers (not bools)
    for probabilities and weights, and strings for each salience entry's lang
    and token. A trained generator has version >= 1, finite, non-negative
    probabilities and weights, and a query-length distribution with positive
    mass over lengths >= 1, so ``generate_query`` can sample from it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        _check_format(payload, 1, "generator")
        if type(payload["version"]) is not int:
            raise ValueError(f"version must be an int, got {payload['version']!r}")
        entries = payload["term_salience"]
        if not all(type(e["lang"]) is str and type(e["token"]) is str for e in entries):
            raise ValueError("each salience entry's lang and token must be strings")
        model = GeneratorModel(
            term_salience={(e["lang"], e["token"]): _number(e["weight"], "weight") for e in entries},
            query_len_dist={
                _length_key(k): _number(v, "probability") for k, v in payload["query_len_dist"].items()
            },
            version=payload["version"],
        )
        lengths = model.query_len_dist
        if model.version < 1:
            raise ValueError(f"generator version {model.version} is untrained")
        if not all(math.isfinite(v) and v >= 0.0 for v in [*lengths.values(), *model.term_salience.values()]):
            raise ValueError("probabilities and weights must be finite and non-negative")
        if min(lengths, default=0) < 1 or sum(lengths.values()) <= 0.0:
            raise ValueError("query_len_dist needs positive probability, over lengths >= 1")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataFormatError(f"not a lexmine generator: {exc!r}", path) from exc
    return model
