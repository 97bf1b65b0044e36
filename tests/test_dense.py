import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lexmine.corpus as corpus_mod
import lexmine.dense as dense_mod
from lexmine.corpus import (
    DEFAULT_TOKENIZER,
    Corpus,
    DataFormatError,
    Passage,
    Query,
    SynthSpec,
    TokenizerConfig,
    synth_benchmark,
    tokenize,
)
from lexmine.dense import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    DENSE_BLOCK,
    TOP_K_GROUP,
    EncoderParams,
    OptimizerState,
    StaleIndexError,
    TrainingSample,
    _adam_update,
    _block_rows,
    _block_top_k,
    _mean_pool,
    _scatter_pooled,
    _token_rows,
    bind_encoder,
    build_dense_index,
    corpus_token_rows,
    infonce_batch,
    init_optimizer,
    init_params,
    load_checkpoint,
    save_checkpoint,
    search_dense,
    train_step,
    vocab_from_corpus,
)
from lexmine.mining import MiningConfig
from lexmine.pipeline import PipelineConfig, pipeline_data_from_benchmark, run_pipeline
from test_sparse import named, reference_top_k

# Frozen with an arbitrary-precision oracle (mpmath, 40 digits):
# ln(1 + e^-1 + e^-1.5) for positive score 2.0 against negatives {1.0, 0.5}.
INFONCE_2_1_05 = 0.46436878410794484


# One table encodes queries and passages. These tests keep the "[True]" id
# under which earlier versions recorded their shared-table case, so results
# stay comparable across versions.
shared_case_id = pytest.mark.parametrize((), [pytest.param(id="True")])


def toy_params(corpus, dim=4, seed=0):
    """A fresh encoder of ``corpus``'s tokens, bound to it."""
    return bind_encoder(init_params(vocab_from_corpus(corpus), dim=dim, seed=seed), corpus)


def encode(params, tokens):
    """Oracle: the mean of the embedding rows of the in-vocabulary tokens
    (duplicates counted), or the zero vector when there are none."""
    rows = [params.vocab[t] for t in tokens if t in params.vocab]
    return params.embedding[rows].mean(axis=0) if rows else np.zeros(params.dim)


def brute_force_dense(index, qv, corpus):
    """Oracle: same score vector, independent python sort/tie-break/truncation
    on the passage ids of ``corpus``, which the index rows follow."""
    scores = index.vectors @ qv
    scored = [(pid, float(scores[i])) for i, pid in enumerate(corpus.ids)]
    scored.sort(key=lambda kv: (-kv[1], kv[0]))
    return scored


def ranked_lists(corpus, result):
    """``search_dense``'s (positions, scores) arrays as one list of (passage
    id, score) pairs per query, each position named through ``corpus.ids``."""
    positions, scores = result
    assert positions.shape == scores.shape and positions.ndim == 2
    return [named(corpus, row) for row in zip(positions, scores)]


def infonce_from_scores(positive_score, negative_scores):
    """Oracle: the InfoNCE loss of one sample from its raw similarity scores,
    with max-shifted exponentials."""
    z = np.concatenate(([positive_score], np.asarray(negative_scores, dtype=float)))
    m = z.max()
    return float(m + np.log(np.exp(z - m).sum()) - positive_score)


def numeric_gradient(params, batch, table, h=1e-5):
    """Central finite differences of the batch mean loss wrt every entry of ``table``."""
    grad = np.zeros_like(table)
    for idx in np.ndindex(*table.shape):
        orig = table[idx]
        table[idx] = orig + h
        lo_plus = infonce_batch(params, batch)[0]
        table[idx] = orig - h
        lo_minus = infonce_batch(params, batch)[0]
        table[idx] = orig
        grad[idx] = (lo_plus - lo_minus) / (2 * h)
    return grad


def random_case(seed):
    """A random 3-sample batch over 7 passages; two samples share a positive,
    so one in-batch negative is skipped, and one query has an OOV token. An
    eighth passage, in no sample, holds every token of the vocabulary."""
    rng = np.random.default_rng(seed)
    vocab = [f"t{i}" for i in range(12)]
    passages = []
    for i in range(7):
        toks = [vocab[int(rng.integers(len(vocab)))] for _ in range(int(rng.integers(2, 7)))]
        passages.append(Passage(id=f"p{i}", text=" ".join(toks)))
    corpus = Corpus([*passages, Passage(id="all", text=" ".join(vocab))])
    params = toy_params(corpus, dim=5, seed=seed)
    params.embedding[:] = rng.normal(0, 0.6, size=params.embedding.shape)

    def query(i):
        return Query(id=f"q{i}", text=" ".join(vocab[int(rng.integers(len(vocab)))] for _ in range(3)))

    pos = corpus.position
    batch = [
        TrainingSample(query(0), pos("p0"), hard_negatives=(pos("p1"), pos("p2")), random_negatives=(pos("p3"),)),
        TrainingSample(query(1), pos("p4"), hard_negatives=(pos("p0"),)),
        TrainingSample(Query(id="q2", text=query(2).text + " zzz"), pos("p0"), random_negatives=(pos("p5"), pos("p6"))),
    ]
    return params, batch, corpus


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------


def test_encode_single_token(tiny_corpus):
    params = toy_params(tiny_corpus)
    row = params.vocab["apple"]
    assert np.array_equal(encode(params, ["apple"]), params.embedding[row])


def test_encode_empty_is_zero(tiny_corpus):
    params = toy_params(tiny_corpus)
    assert np.array_equal(encode(params, []), np.zeros(params.dim))
    assert np.array_equal(encode(params, ["zzz", "yyy"]), np.zeros(params.dim))


def test_encode_order_invariant(tiny_corpus):
    params = toy_params(tiny_corpus)
    a = encode(params, ["apple", "banana", "cherry"])
    b = encode(params, ["cherry", "apple", "banana"])
    assert np.allclose(a, b)


def test_encode_counts_duplicates(tiny_corpus):
    params = toy_params(tiny_corpus)
    e = params.embedding
    v = params.vocab
    want = (2 * e[v["apple"]] + e[v["banana"]]) / 3
    assert np.allclose(encode(params, ["apple", "banana", "apple"]), want)


def test_encode_skips_oov(tiny_corpus):
    params = toy_params(tiny_corpus)
    assert np.allclose(encode(params, ["apple", "zzz"]), encode(params, ["apple"]))


def test_init_params_scale_and_determinism():
    p1 = init_params(["a", "b", "c"], dim=16, seed=5)
    p2 = init_params(["a", "b", "c"], dim=16, seed=5)
    assert np.array_equal(p1.embedding, p2.embedding)
    bound = 1 / math.sqrt(16)
    assert np.all(np.abs(p1.embedding) <= bound)


# ---------------------------------------------------------------------------
# index and search
# ---------------------------------------------------------------------------


def test_index_rows_match_encode(tiny_corpus):
    params = toy_params(tiny_corpus)
    index = build_dense_index(params)
    assert len(index.vectors) == len(tiny_corpus)
    for i, pid in enumerate(tiny_corpus.ids):
        want = encode(params, tokenize(tiny_corpus[pid].text))
        assert np.allclose(index.vectors[i], want)


def test_index_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty corpus"):
        build_dense_index(toy_params(Corpus([])))


# ---------------------------------------------------------------------------
# an encoder's rows are its corpus's token ids
# ---------------------------------------------------------------------------


def permuted(params, seed=0):
    """``params`` with its rows, and its vocabulary with them, in a random order."""
    order = np.random.default_rng(seed).permutation(len(params.vocab))
    tokens = sorted(params.vocab, key=params.vocab.get)
    vocab = {tokens[old]: new for new, old in enumerate(order)}
    return EncoderParams(vocab=vocab, embedding=params.embedding[order], version=params.version)


def test_corpus_token_rows_are_the_corpus_token_ids(tiny_corpus):
    params = toy_params(tiny_corpus)
    tc = corpus_token_rows(params)
    assert tc is tiny_corpus.tokenized()
    for i, p in enumerate(tiny_corpus):
        rows = tc.ids[tc.offsets[i] : tc.offsets[i + 1]].tolist()
        assert rows == [params.vocab[t] for t in tokenize(p.text)]


def test_bind_encoder_permutes_rows_into_corpus_order(tiny_corpus):
    params = toy_params(tiny_corpus, seed=3)
    shuffled = permuted(params)
    shuffled.version = 4
    assert shuffled.vocab != params.vocab
    bound = bind_encoder(shuffled, tiny_corpus)
    assert bound.vocab is tiny_corpus.tokenized().index
    assert corpus_token_rows(bound) is tiny_corpus.tokenized()
    assert bound.version == 4
    assert bound.embedding.tobytes() == params.embedding.tobytes()
    want = build_dense_index(params).vectors
    assert build_dense_index(bound).vectors.tobytes() == want.tobytes()


@pytest.mark.parametrize("change", ["missing", "extra", "other_tokenizer"])
def test_bind_encoder_rejects_other_tokens(tiny_corpus, change):
    tokens = list(vocab_from_corpus(tiny_corpus))
    tok = DEFAULT_TOKENIZER
    if change == "missing":
        tokens = tokens[1:]
    elif change == "extra":
        tokens.append("zzz")
    else:
        tok = TokenizerConfig(min_token_len=5)
    with pytest.raises(DataFormatError, match=r"vocabulary is not the corpus's tokens"):
        bind_encoder(init_params(tokens, dim=2), tiny_corpus, tok)


def test_unbound_encoder_raises_before_pooling_passages(tiny_corpus):
    # another corpus, tokenizer config or row order is bind_encoder's to
    # reject or permute (the two tests above); an encoder never bound pools nothing
    params = init_params(vocab_from_corpus(tiny_corpus), dim=4)
    before = params.embedding.copy()
    opt = init_optimizer(params)
    for call in (
        lambda: corpus_token_rows(params),
        lambda: build_dense_index(params),
        lambda: train_step(params, opt, batch_for(tiny_corpus)),
    ):
        with pytest.raises(ValueError, match="bind_encoder"):
            call()
    assert params.version == 0 and opt.step == 0
    assert np.array_equal(params.embedding, before)


def test_encoder_follows_the_corpus_tokenized_again(tiny_corpus, monkeypatch):
    # the corpus memoizes one tokenizer config, so after another one it would
    # tokenize every passage again; a bound encoder pools the corpus it holds
    trained, params = toy_params(tiny_corpus), toy_params(tiny_corpus)
    batch = batch_for(tiny_corpus)
    want_loss = train_step(trained, init_optimizer(trained), batch)
    want = build_dense_index(params).vectors
    tiny_corpus.tokenized(TokenizerConfig(min_token_len=4))
    calls = []
    real_tokenize = corpus_mod.tokenize
    monkeypatch.setattr(corpus_mod, "tokenize", lambda *a, **k: calls.append(a) or real_tokenize(*a, **k))
    assert build_dense_index(params).vectors.tobytes() == want.tobytes()
    # the batch's queries memoized their tokens in the first step
    assert train_step(params, init_optimizer(params), batch) == want_loss
    assert calls == []
    assert params.embedding.tobytes() == trained.embedding.tobytes()


def test_search_matches_brute_force():
    rng = np.random.default_rng(3)
    passages = [
        Passage(id=f"p{i:02d}", text=" ".join(f"t{int(rng.integers(9))}" for _ in range(4)))
        for i in range(60)
    ]
    corpus = Corpus(passages)
    params = toy_params(corpus, dim=8, seed=1)
    index = build_dense_index(params)
    for trial in range(10):
        q = Query(id="q", text=f"t{trial % 9} t{(trial + 3) % 9}")
        got = ranked_lists(corpus, search_dense(index, [tokenize(q.text)], k=len(corpus)))[0]
        qv = encode(params, tokenize(q.text))
        assert got == brute_force_dense(index, qv, corpus)
        # the arithmetic itself: per-row dot products, up to BLAS summation order
        np.testing.assert_allclose(
            [s for _, s in got],
            [float(np.dot(index.vectors[corpus.position(pid)], qv)) for pid, _ in got],
            rtol=1e-12,
        )


def test_search_matches_brute_force_at_500_passages():
    rng = np.random.default_rng(9)
    passages = [
        Passage(id=f"p{i:03d}", text=" ".join(f"t{int(rng.integers(40))}" for _ in range(6)))
        for i in range(500)
    ]
    corpus = Corpus(passages)
    params = toy_params(corpus, dim=16, seed=2)
    index = build_dense_index(params)
    for trial in range(5):
        q = Query(id="q", text=f"t{trial} t{(trial * 7) % 40} t{(trial * 13) % 40}")
        got = ranked_lists(corpus, search_dense(index, [tokenize(q.text)], k=500))[0]
        qv = encode(params, tokenize(q.text))
        assert got == brute_force_dense(index, qv, corpus)


@pytest.mark.parametrize("k", [1, 2, 7, 29, 30, 31, 100])
def test_search_top_k_with_ties_matches_brute_force(k):
    # vectors on a coarse grid tie many scores, also at the k-th position
    rng = np.random.default_rng(11)
    passages = [Passage(id=f"p{int(i):02d}", text=f"t{int(i) % 5}") for i in rng.permutation(30)]
    corpus = Corpus(passages)
    params = toy_params(corpus, dim=3, seed=4)
    index = build_dense_index(params)
    index.vectors[:] = np.round(rng.normal(size=index.vectors.shape))
    # one-token queries whose vectors are the table rows set here; no token gives the zero vector
    qvs = [np.array([1.0, 0.0, 0.0]), np.array([1.0, -1.0, 2.0]), np.zeros(3)]
    params.embedding[params.vocab["t0"]] = qvs[0]
    params.embedding[params.vocab["t1"]] = qvs[1]
    got = ranked_lists(corpus, search_dense(index, [["t0"], ["t1"], []], k))
    assert got == [brute_force_dense(index, qv, corpus)[:k] for qv in qvs]


def test_search_nan_scores_rank_last():
    corpus = Corpus([Passage(id=f"p{i}", text=f"t{i}") for i in range(6)])
    params = toy_params(corpus, dim=2)
    index = build_dense_index(params)
    index.vectors[:] = [[1.0, 0.0], [np.nan, 0.0], [3.0, 0.0], [np.nan, 0.0], [2.0, 0.0], [2.0, 0.0]]
    params.embedding[params.vocab["t0"]] = [1.0, 0.0]
    got = ranked_lists(corpus, search_dense(index, [["t0"]], 5))[0]
    assert [pid for pid, _ in got] == ["p2", "p4", "p5", "p0", "p1"]


def integer_case(seed, n_passages=40, dim=3):
    """An index of small-integer passage vectors and a query table of small
    integers, so that every score of a query of 1, 2 or 4 tokens is exact."""
    rng = np.random.default_rng(seed)
    # ids out of input order, so that ties must break on id, not on input order
    corpus = Corpus([Passage(id=f"p{int(i):02d}", text=f"t{i % 9}") for i in rng.permutation(n_passages)])
    params = bind_encoder(init_params([f"t{i}" for i in range(9)], dim=dim, seed=seed), corpus)
    params.embedding[:] = rng.integers(-2, 3, size=params.embedding.shape)
    index = build_dense_index(params)
    index.vectors[:] = rng.integers(-2, 3, size=index.vectors.shape)
    sizes = rng.choice([0, 1, 1, 2, 4], size=3 * DENSE_BLOCK + 5)
    token_lists = [[f"t{int(t)}" for t in rng.integers(0, 10, size=n)] for n in sizes]  # t9 is OOV
    return params, index, token_lists, corpus


def assert_same_ranking(got, want):
    """Equal ids and scores, a NaN score equal to a NaN."""
    assert [pid for pid, _ in got] == [pid for pid, _ in want]
    np.testing.assert_array_equal([s for _, s in got], [s for _, s in want])


@pytest.mark.parametrize("k", [1, 3, 39, 40, 55])
def test_block_search_equals_per_query_search_on_integer_vectors(k):
    # exact arithmetic: block rows equal the per-query products bit for bit,
    # so whole rankings are equal, ties at the k-th place included
    params, index, token_lists, corpus = integer_case(seed=k)
    params.embedding[params.vocab["t8"], 1] = np.nan  # queries holding t8 score NaN
    got = ranked_lists(corpus, search_dense(index, token_lists, k))
    assert len(got) == len(token_lists)
    tie_at_k = False
    for tokens, ranked in zip(token_lists, got):
        assert_same_ranking(ranked, ranked_lists(corpus, search_dense(index, [tokens], k))[0])
        if "t8" not in tokens:
            full = brute_force_dense(index, encode(params, tokens), corpus)
            assert ranked == full[:k]
            tie_at_k |= k < len(full) and full[k - 1][1] == full[k][1]
    assert any("t8" in tokens for tokens in token_lists)
    assert tie_at_k or k >= len(corpus)


def test_block_search_nan_row_ranks_by_id():
    params, index, _, corpus = integer_case(seed=0)
    params.embedding[params.vocab["t8"]] = np.nan

    def search(token_lists):
        return ranked_lists(corpus, search_dense(index, token_lists, 5))

    got = search([["t1"], ["t8"], ["t2", "t3"]])
    # every score of the NaN query is NaN: it ranks by id, as top_k sorts NaN last
    assert [pid for pid, _ in got[1]] == sorted(corpus.ids)[:5]
    assert all(math.isnan(s) for _, s in got[1])
    assert_same_ranking(got[1], search([["t8"]])[0])
    assert got[0] == search([["t1"]])[0]
    assert got[2] == search([["t2", "t3"]])[0]


def test_block_search_matches_per_query_search_on_random_floats():
    rng = np.random.default_rng(17)
    passages = [
        Passage(id=f"p{i:03d}", text=" ".join(f"t{int(rng.integers(60))}" for _ in range(8)))
        for i in range(300)
    ]
    corpus = Corpus(passages)
    params = toy_params(corpus, dim=24, seed=5)
    index = build_dense_index(params)
    token_lists = [[f"t{int(t)}" for t in rng.integers(0, 60, size=int(rng.integers(1, 6)))] for _ in range(200)]
    got = ranked_lists(corpus, search_dense(index, token_lists, 20))
    for tokens, ranked in zip(token_lists, got):
        want = ranked_lists(corpus, search_dense(index, [tokens], 20))[0]
        assert [pid for pid, _ in ranked] == [pid for pid, _ in want]
        np.testing.assert_allclose([s for _, s in ranked], [s for _, s in want], rtol=0, atol=1e-12)


# columns per row: short rows, and rows of G = n // TOP_K_GROUP groups (16G
# exactly, 16G +- 1, a few hundred), which k in 1..40 falls below and above
N_COLUMNS = st.one_of(
    st.integers(1, 50),
    st.sampled_from([31, 32, 33, 47, 48, 49, 159, 160, 161, 300, 511, 512, 513]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2, 7, DENSE_BLOCK + 1]),
    N_COLUMNS,
    st.integers(1, 40),
    st.sampled_from([1, 2, 3, 0]),
    st.integers(0, 4),
    st.booleans(),
)
@example(seed=0, b=DENSE_BLOCK + 1, n=5, k=3, levels=0, n_nan=0, nan_row=False)  # every entry tied
@example(seed=1, b=1, n=5, k=5, levels=1, n_nan=1, nan_row=False)  # k == n
@example(seed=2, b=3, n=4, k=2, levels=1, n_nan=0, nan_row=True)  # an all-NaN row
# two-stage threshold: 16G columns, 16G + 1 and 16G - 1, ties at the threshold,
# NaN inside a group, an all-NaN row, and k equal to the group count
@example(seed=3, b=7, n=320, k=5, levels=1, n_nan=0, nan_row=False)
@example(seed=4, b=7, n=321, k=19, levels=2, n_nan=4, nan_row=False)
@example(seed=5, b=7, n=319, k=3, levels=1, n_nan=4, nan_row=True)
@example(seed=6, b=2, n=48, k=1, levels=0, n_nan=0, nan_row=False)
@example(seed=7, b=2, n=48, k=3, levels=3, n_nan=2, nan_row=False)
def test_block_top_k_equals_full_lexsort_row_by_row(seed, b, n, k, levels, n_nan, nan_row):
    rng = np.random.default_rng(seed)
    # few distinct values force ties at the k-th place; levels=0 makes all scores equal
    scores = np.round(rng.normal(size=(b, n)) * levels) if levels else np.full((b, n), 0.5)
    scores.flat[rng.integers(b * n, size=n_nan)] = np.nan
    if nan_row:
        scores[rng.integers(b)] = np.nan
    assert_block_top_k_is_reference(scores, k)


def assert_block_top_k_is_reference(scores, k):
    """``_block_top_k`` picks, row by row, ``reference_top_k``'s entries in its order."""
    b, n = scores.shape
    picked = _block_top_k(scores, k)
    # every row picks min(k, n) entries
    assert len(picked) == b * min(k, n)
    rows, cols = np.divmod(picked, n)
    assert rows.tolist() == np.repeat(np.arange(b), min(k, n)).tolist()
    for r, got in enumerate(np.split(cols, b)):
        assert got.tolist() == reference_top_k(scores[r], k).tolist()


@pytest.mark.parametrize("k", [10, 20, 311, 312, 400])
def test_block_top_k_on_a_benchmark_sized_block(k):
    # the benchmark's block: 64 queries x 4,995 passages, 312 groups and a
    # 3-column tail; scores rounded to two decimals tie often at the k-th place
    rng = np.random.default_rng(k)
    scores = np.round(rng.normal(size=(DENSE_BLOCK, 4995)), 2)
    scores[1, rng.integers(4995, size=30)] = np.nan
    scores[2] = np.nan
    scores[3, : 16 * 312 : 312] = scores[3].max()  # all 16 columns of the first group tie for first
    assert 4995 // TOP_K_GROUP == 312
    assert_block_top_k_is_reference(scores, k)


def test_block_search_empty_input_and_bad_k(tiny_corpus):
    params = toy_params(tiny_corpus)
    index = build_dense_index(params)
    positions, scores = search_dense(index, [], 3)
    assert positions.shape == scores.shape == (0, 3) and positions.dtype == np.int64
    with pytest.raises(ValueError):
        search_dense(index, [["apple"]], 0)


def test_search_all_oov_ranks_by_id(tiny_corpus):
    params = toy_params(tiny_corpus)
    index = build_dense_index(params)
    got = ranked_lists(tiny_corpus, search_dense(index, [tokenize("zzz")], k=4))[0]
    assert [pid for pid, _ in got] == sorted(tiny_corpus.ids)
    assert all(s == 0.0 for _, s in got)


def test_search_prefix_property(tiny_corpus):
    params = toy_params(tiny_corpus)
    index = build_dense_index(params)
    q = tokenize("apple cherry")
    five, two = (ranked_lists(tiny_corpus, search_dense(index, [q], k))[0] for k in (5, 2))
    assert five[:2] == two


def test_search_stale_index(tiny_corpus, rng):
    params = toy_params(tiny_corpus)
    index = build_dense_index(params)
    opt = init_optimizer(params, lr=0.1)
    pos = tiny_corpus.position
    sample = TrainingSample(query=Query(id="q", text="apple"), positive=pos("p1"), hard_negatives=(pos("p2"),))
    train_step(params, opt, [sample])
    with pytest.raises(StaleIndexError):
        search_dense(index, [tokenize("apple")], 2)
    fresh = build_dense_index(params)
    assert fresh.params_version == params.version
    # a trained token's passage vector must have moved
    assert any(
        not np.allclose(fresh.vectors[i], index.vectors[i]) for i in range(len(tiny_corpus))
    )


# ---------------------------------------------------------------------------
# InfoNCE loss and gradients
# ---------------------------------------------------------------------------


def test_loss_uniform_case_ln4(tiny_corpus):
    # Identical texts => identical similarities; softmax over 4 entries.
    corpus = Corpus([Passage(id=f"p{i}", text="same text") for i in range(4)])
    params = toy_params(corpus)
    sample = TrainingSample(
        query=Query(id="q", text="same"),
        positive=corpus.position("p0"),
        hard_negatives=tuple(map(corpus.position, ("p1", "p2", "p3"))),
    )
    loss, _ = infonce_batch(params, [sample])
    assert loss == pytest.approx(math.log(4.0), rel=1e-12)


def test_loss_frozen_oracle_value():
    # "other", in no sample, makes "q" a corpus token
    corpus = Corpus(
        [
            Passage(id="pos", text="a"),
            Passage(id="n1", text="b"),
            Passage(id="n2", text="c"),
            Passage(id="other", text="q"),
        ]
    )
    params = bind_encoder(init_params(["a", "b", "c", "q"], dim=1, seed=0), corpus)
    v = params.vocab
    params.embedding[v["q"], 0] = 1.0
    params.embedding[v["a"], 0] = 2.0
    params.embedding[v["b"], 0] = 1.0
    params.embedding[v["c"], 0] = 0.5
    pos = corpus.position
    sample = TrainingSample(query=Query(id="q", text="q"), positive=pos("pos"), hard_negatives=(pos("n1"), pos("n2")))
    loss, _ = infonce_batch(params, [sample])
    assert loss == pytest.approx(INFONCE_2_1_05, rel=1e-12)


@shared_case_id
def test_batch_loss_is_mean_of_per_sample_losses():
    # oracle: each sample scored on its own from encode(), with the other
    # samples' positives (minus its own) appended as negatives
    params, batch, corpus = random_case(3)
    positives = [s.positive for s in batch]
    want = []
    for i, s in enumerate(batch):
        in_batch = [p for j, p in enumerate(positives) if j != i and p != s.positive]
        qv = encode(params, tokenize(s.query.text))
        scores = [
            float(np.dot(qv, encode(params, tokenize(corpus[corpus.ids[p]].text))))
            for p in (s.positive, *s.hard_negatives, *s.random_negatives, *in_batch)
        ]
        want.append(infonce_from_scores(scores[0], scores[1:]))
    loss, _ = infonce_batch(params, batch)
    assert loss == pytest.approx(float(np.mean(want)), rel=1e-12)


def test_loss_positive_and_monotonic():
    # strictly decreasing in the positive score, increasing in any negative
    negs = [0.3, -0.2, 1.1]
    base = infonce_from_scores(0.5, negs)
    assert base > 0
    assert infonce_from_scores(0.9, negs) < base
    assert infonce_from_scores(0.5, [0.6, -0.2, 1.1]) > base


@settings(max_examples=100, deadline=None)
@given(
    st.floats(-30, 30),
    st.lists(st.floats(-30, 30), min_size=1, max_size=6),
    st.floats(-50, 50),
)
def test_loss_shift_invariance(pos, negs, c):
    a = infonce_from_scores(pos, negs)
    b = infonce_from_scores(pos + c, [s + c for s in negs])
    assert a == pytest.approx(b, abs=1e-9)


@pytest.mark.parametrize("seed", [0, 1])
@shared_case_id
def test_gradient_matches_finite_differences(seed):
    params, batch, corpus = random_case(seed)
    _, analytic = infonce_batch(params, batch)
    numeric = numeric_gradient(params, batch, params.embedding)
    for row in range(params.embedding.shape[0]):
        denom = max(np.max(np.abs(numeric[row])), 1e-8)
        assert np.max(np.abs(analytic[row] - numeric[row])) / denom < 1e-4


def test_gradient_covers_all_touched_rows():
    # the gradient is nonzero on exactly the rows the batch's texts touch
    def nonzero_rows(g):
        return set(np.flatnonzero(np.any(g != 0.0, axis=1)).tolist())

    params, batch, corpus = random_case(7)
    _, g_emb = infonce_batch(params, batch)

    def rows_of(texts):
        return {params.vocab[t] for text in texts for t in tokenize(text) if t in params.vocab}

    p_touched = rows_of(
        corpus[corpus.ids[p]].text for s in batch for p in (s.positive, *s.hard_negatives, *s.random_negatives)
    )
    q_touched = rows_of(s.query.text for s in batch)
    assert nonzero_rows(g_emb) == p_touched | q_touched


def test_infonce_batch_leaves_inputs_unchanged():
    params, batch, corpus = random_case(5)
    emb = params.embedding.copy()
    tc = corpus_token_rows(params)
    ids, offsets = tc.ids.copy(), tc.offsets.copy()
    infonce_batch(params, batch)
    assert np.array_equal(params.embedding, emb)
    assert params.version == 0
    # the tokenized corpus the batch pooled is the same object, unchanged
    assert corpus_token_rows(params) is tc
    assert np.array_equal(tc.ids, ids) and np.array_equal(tc.offsets, offsets)


# ---------------------------------------------------------------------------
# reference pooling, scatter and Adam: the per-row mean, the per-entry
# np.add.at loop and the allocating whole-table update that the grouped,
# blocked kernels replace
# ---------------------------------------------------------------------------


def flat(rows_list):
    """``rows_list`` as the kernels take it: the rows concatenated, and each entry's size."""
    sizes = np.array([rows.size for rows in rows_list], dtype=np.int64)
    return (np.concatenate(rows_list) if rows_list else np.zeros(0, dtype=np.int64)), sizes


def entries(rows, sizes):
    """The inverse of ``flat``: one array of rows per entry."""
    return np.split(rows, np.cumsum(sizes)[:-1]) if len(sizes) else []


def reference_mean_pool(table, rows, sizes):
    """The per-row ``.mean`` loop that ``_mean_pool`` replaces."""
    rows_list = entries(rows, sizes)
    pooled = np.zeros((len(rows_list), table.shape[1]))
    for i, entry in enumerate(rows_list):
        if entry.size:
            pooled[i] = table[entry].mean(axis=0)
    return pooled


@settings(max_examples=200, deadline=None)
@given(
    # one column is left out: there numpy's mean sums pairwise, not row by row
    table=st.tuples(st.integers(1, 12), st.integers(2, 6)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=st.floats(-1e6, 1e6))
    ),
    picks=st.lists(st.lists(st.floats(0, 1, exclude_max=True), max_size=20), max_size=8),
)
# a single row, an all-empty input and no input at all
@example(table=np.array([[-0.0, 1.5], [2.0, -3.0]]), picks=[[0.0]])
@example(table=np.array([[-0.0, 1.5], [2.0, -3.0]]), picks=[[], [], []])
@example(table=np.array([[-0.0, 1.5], [2.0, -3.0]]), picks=[])
# repeated tokens and an empty row between others
@example(table=np.array([[0.1, 0.2], [0.3, 1e6]]), picks=[[0.9, 0.9, 0.0, 0.9], [], [0.0, 0.0, 0.0]])
def test_mean_pool_bit_equal_to_per_row_mean(table, picks):
    rows_list = [np.array([int(p * table.shape[0]) for p in pick], dtype=np.int64) for pick in picks]
    got = _mean_pool(table, *flat(rows_list))
    want = reference_mean_pool(table, *flat(rows_list))
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def reference_infonce_batch(params, batch, corpus, tok=DEFAULT_TOKENIZER):
    uniq = {}
    for s in batch:
        for pid in (s.positive, *s.hard_negatives, *s.random_negatives):
            uniq.setdefault(pid, len(uniq))
    p_rows, p_sizes = _token_rows(params.vocab, [tokenize(corpus[corpus.ids[p]].text, tok) for p in uniq])
    q_rows, q_sizes = _token_rows(params.vocab, [tokenize(s.query.text, tok) for s in batch])
    P = reference_mean_pool(params.embedding, p_rows, p_sizes)
    Q = reference_mean_pool(params.embedding, q_rows, q_sizes)
    n = len(batch)
    P_grad = np.zeros_like(P)
    Q_grad = np.zeros_like(Q)
    total_loss = 0.0
    positives = [s.positive for s in batch]
    for i, s in enumerate(batch):
        in_batch = [p for j, p in enumerate(positives) if j != i and p != s.positive]
        pids = [s.positive, *s.hard_negatives, *s.random_negatives, *in_batch]
        idx = np.array([uniq[pid] for pid in pids], dtype=np.int64)
        scores = P[idx] @ Q[i]
        e = np.exp(scores - scores.max())
        coeff = e / e.sum()
        total_loss += infonce_from_scores(scores[0], scores[1:])
        coeff[0] -= 1.0
        coeff *= 1.0 / n
        np.add.at(P_grad, idx, coeff[:, None] * Q[i][None, :])
        Q_grad[i] = coeff @ P[idx]

    rows, sizes = np.concatenate([p_rows, q_rows]), np.concatenate([p_sizes, q_sizes])
    g_emb = reference_scatter_pooled(rows, sizes, np.vstack([P_grad, Q_grad]), params.embedding.shape[0])
    return total_loss / n, g_emb


def reference_scatter_pooled(rows, sizes, g_pooled, n_rows):
    """The per-entry ``np.add.at`` scatter onto a zero table that
    ``_scatter_pooled`` replaces."""
    g_table = np.zeros((n_rows, g_pooled.shape[1]))
    for entry, g in zip(entries(rows, sizes), g_pooled):
        if entry.size:
            np.add.at(g_table, entry, np.broadcast_to(g / entry.size, (entry.size, g.size)))
    return g_table


def reference_adam_update(table, g, opt):
    m, v = opt.m, opt.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1**opt.step)
    v_hat = v / (1.0 - ADAM_BETA2**opt.step)
    table -= opt.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


ORACLE_VOCAB = [f"t{i}" for i in range(5)]
OOV = len(ORACLE_VOCAB)  # token index of "zz", outside the vocabulary


@st.composite
def oracle_cases(draw):
    """(passages, samples): passages as token-index lists, samples as
    (query tokens, positive, hard negatives, random negatives) over them."""
    token = st.integers(0, OOV)
    passages = draw(st.lists(st.lists(token, min_size=1, max_size=6), min_size=1, max_size=8))
    samples = []
    for _ in range(draw(st.integers(1, 5))):
        pids = draw(st.lists(st.integers(0, len(passages) - 1), min_size=1, max_size=5, unique=True))
        cut = draw(st.integers(1, len(pids)))
        query = draw(st.lists(token, max_size=4))
        samples.append((query, pids[0], pids[1:cut], pids[cut:]))
    return passages, samples


def oracle_inputs(case, seed):
    """The case's batch over its passages and a passage of every vocabulary
    token, which no sample names. A query's OOV token is "zz"; a passage's is
    ".", no token at all, since the encoder knows every corpus token."""

    def text(tokens, oov):
        return " ".join(oov if t == OOV else ORACLE_VOCAB[t] for t in tokens)

    passages, samples = case
    corpus = Corpus(
        [Passage(id=f"p{i}", text=text(toks, ".")) for i, toks in enumerate(passages)]
        + [Passage(id="all", text=" ".join(ORACLE_VOCAB))]
    )
    params = bind_encoder(init_params(ORACLE_VOCAB, dim=3, seed=seed), corpus)
    rng = np.random.default_rng(seed)
    params.embedding[:] = rng.normal(0, 0.8, size=params.embedding.shape)
    batch = [
        TrainingSample(
            query=Query(id=f"q{i}", text=text(query, "zz")),
            positive=corpus.position(f"p{pos}"),
            hard_negatives=tuple(corpus.position(f"p{j}") for j in hard),
            random_negatives=tuple(corpus.position(f"p{j}") for j in rand),
        )
        for i, (query, pos, hard, rand) in enumerate(samples)
    ]
    return params, batch, corpus


@settings(max_examples=150, deadline=None)
@given(case=oracle_cases(), seed=st.integers(0, 2**16))
# repeated tokens in a passage
@example(case=([[0, 0, 1], [1, 2, 2, 2], [3]], [([0, 0], 0, [1], [2])]), seed=1)
# a hard negative that is another sample's positive (and so also its in-batch negative)
@example(case=([[0], [1, 2], [2]], [([0], 0, [1], []), ([1], 1, [2], []), ([2], 2, [], [])]), seed=2)
# a query and a passage with no in-vocabulary token
@example(case=([[OOV, OOV], [1], [2, 0]], [([OOV], 0, [1], [2]), ([], 2, [0], [])]), seed=3)
# a batch of size 1 with a single candidate
@example(case=([[4]], [([4], 0, [], [])]), seed=4)
# two samples with the same positive: each counts it once
@example(case=([[0], [1], [2]], [([0], 0, [1], []), ([1], 0, [2], [])]), seed=5)
# two other samples sharing a positive: the third sample counts it twice
@example(case=([[0], [1], [2]], [([0], 0, [], []), ([1], 0, [], []), ([2], 1, [2], [])]), seed=6)
# a hard negative that is another sample's positive and a random negative of a third
@example(case=([[0], [1], [2], [3]], [([0], 0, [1], []), ([1], 1, [], [3]), ([2], 2, [], [1])]), seed=7)
# two passages with the same vector: the exact gradient is zero, and what
# either path returns is rounding noise
@example(case=([[1], [1]], [([], 0, [], []), ([], 0, [], []), ([0], 1, [], [])]), seed=0)
def test_infonce_batch_matches_per_sample_reference(case, seed):
    # The score matrix sums in another order than the per-sample loop, so
    # agreement is to the last bits, not bit for bit. Each sample's score
    # gradients sum to at most 2/n in absolute value and every pooled vector is
    # within max|embedding|, so each table-gradient cell sums terms of at most
    # 4 * max|embedding| in all; the rounding of that sum bounds the difference.
    params, batch, corpus = oracle_inputs(case, seed)
    loss, g_emb = infonce_batch(params, batch)
    want_loss, want_emb = reference_infonce_batch(params, batch, corpus)
    assert loss == pytest.approx(want_loss, rel=1e-12)
    np.testing.assert_allclose(g_emb, want_emb, rtol=0, atol=1e-12 * np.abs(params.embedding).max())


SCATTER_ROWS = 5


@st.composite
def pooled_gradients(draw):
    """(rows_list, g_pooled): rows of a ``SCATTER_ROWS``-row table for each
    pooled entry, and one gradient row per entry."""
    picks = draw(st.lists(st.lists(st.integers(0, SCATTER_ROWS - 1), max_size=12), min_size=1, max_size=8))
    g_pooled = draw(arrays(np.float64, (len(picks), draw(st.integers(1, 4))), elements=st.floats(-1e6, 1e6)))
    return [np.array(pick, dtype=np.int64) for pick in picks], g_pooled


@settings(max_examples=200, deadline=None)
@given(case=pooled_gradients())
# repeated tokens and an entry without tokens between others
@example(
    case=(
        [np.array([2, 2, 0, 2]), np.array([], dtype=np.int64), np.array([0, 0, 1])],
        np.array([[0.1, -0.2], [3.0, 4.0], [1e6, -1e-6]]),
    )
)
# every entry without tokens: nothing is touched
@example(case=([np.array([], dtype=np.int64)] * 3, np.array([[1.0, -2.0], [3.0, 4.0], [-0.0, 5.0]])))
def test_scatter_pooled_bit_equal_to_add_at(case):
    rows_list, g_pooled = case
    got = _scatter_pooled(*flat(rows_list), g_pooled, SCATTER_ROWS)
    want = reference_scatter_pooled(*flat(rows_list), g_pooled, SCATTER_ROWS)
    assert got.tobytes() == want.tobytes()


def test_adam_update_bit_equal_to_reference_over_200_steps():
    rng = np.random.default_rng(11)
    shape = (40, 6)
    table = rng.normal(0, 0.5, size=shape)
    want_table = table.copy()
    opt = OptimizerState(m=np.zeros(shape), v=np.zeros(shape), lr=3e-3)
    want_opt = OptimizerState(m=np.zeros(shape), v=np.zeros(shape), lr=3e-3)
    for step in range(1, 201):
        # sparse rows as in training, magnitudes across many binades
        g = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 3, size=shape)
        g[rng.random(shape[0]) < 0.5] = 0.0
        opt.step = want_opt.step = step
        g_before = g.copy()
        _adam_update(table, g, opt)
        reference_adam_update(want_table, g, want_opt)
        assert np.array_equal(g, g_before)
        assert np.array_equal(opt.m, want_opt.m) and np.array_equal(opt.v, want_opt.v)
        assert np.array_equal(table, want_table), step


# The kernels walk their rows in blocks of _block_rows(d); the oracle tests
# above use tables far smaller than one block, so these cross block edges.
BLOCK_DIM = 32


def entry_rows(rng, sizes, n_rows):
    return [rng.integers(0, n_rows, size=size) for size in sizes]


def test_mean_pool_bit_equal_across_blocks():
    rng = np.random.default_rng(5)
    block = _block_rows(BLOCK_DIM)
    table = rng.normal(size=(300, BLOCK_DIM))
    # more than two blocks of non-empty entries, equal sizes across each edge,
    # then more than a block of empty entries, shuffled together
    sizes = np.concatenate([rng.integers(1, 40, size=2 * block + 5), np.full(block + 7, 20), np.zeros(block + 3, int)])
    rows_list = entry_rows(rng, rng.permutation(sizes), len(table))
    got = _mean_pool(table, *flat(rows_list))
    assert got.tobytes() == reference_mean_pool(table, *flat(rows_list)).tobytes()


def test_adam_update_bit_equal_across_blocks():
    rng = np.random.default_rng(6)
    shape = (2 * _block_rows(BLOCK_DIM) + 37, BLOCK_DIM)
    table = rng.normal(0, 0.5, size=shape)
    want_table = table.copy()
    opt = OptimizerState(m=np.zeros(shape), v=np.zeros(shape), lr=3e-3)
    want_opt = OptimizerState(m=np.zeros(shape), v=np.zeros(shape), lr=3e-3)
    for step in range(1, 6):
        g = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 3, size=shape)
        g[rng.random(shape[0]) < 0.5] = 0.0
        opt.step = want_opt.step = step
        _adam_update(table, g, opt)
        reference_adam_update(want_table, g, want_opt)
        assert opt.m.tobytes() == want_opt.m.tobytes() and opt.v.tobytes() == want_opt.v.tobytes()
        assert table.tobytes() == want_table.tobytes(), step


@pytest.mark.parametrize(
    "n_rows, sizes, hot",
    [
        (50, [0, 0, 0], False),  # no entry has a token
        (50, [4, 0, 7, 0, 0, 1], False),  # empty entries between others
        (3_000, [30] * 150, True),  # one row far more often than any other, over 2 blocks of touched rows
        (70_000, [40] * 100, False),  # rows past 65,535: a 32-bit sort key
    ],
    ids=["all_empty", "some_empty", "hot_row", "wide_rows"],
)
def test_scatter_pooled_bit_equal_across_blocks(n_rows, sizes, hot):
    rng = np.random.default_rng(7)
    rows_list = entry_rows(rng, sizes, n_rows)
    if hot:
        for rows in rows_list:
            rows[rng.random(rows.size) < 0.2] = 17
    g_pooled = rng.normal(size=(len(sizes), BLOCK_DIM)) * 10.0 ** rng.integers(-6, 6, size=(len(sizes), 1))
    got = _scatter_pooled(*flat(rows_list), g_pooled, n_rows)
    assert got.tobytes() == reference_scatter_pooled(*flat(rows_list), g_pooled, n_rows).tobytes()


# A tiny full pipeline (warm-up and two iterations of mine, generate, train):
# its checkpoints are the end product of every training step.
GOLDEN_CHECKPOINTS = Path(__file__).parent / "data" / "pipeline_checkpoints_golden.json"
TINY_SPEC = SynthSpec(
    languages=("src", "tgta"),
    topics_per_lang=10,
    passages_per_topic=5,
    vocab_size=220,
    query_len=3,
    labeled_frac=0.5,
    queries_per_lang=60,
    passage_len=30,
    terms_per_topic=8,
    core_terms_per_topic=2,
    topic_token_frac=0.5,
    query_topic_frac=0.6,
)


def tiny_pipeline_cfg():
    return PipelineConfig(
        iterations=2,
        minibatches_per_iter=40,
        batch_size=16,
        warmup_epochs=3,
        mining=MiningConfig(S=5, L=10),
        n_generate=30,
        embedding_dim=24,
        warmup_lr=1e-2,
        train_lr=3e-3,
        seed=9,
    )


def checkpoint_digests(workdir):
    """sha256 of every array in every checkpoint of a run directory."""
    digests = {}
    for path in sorted(workdir.rglob("*checkpoint.npz")):
        with np.load(path) as npz:
            digests[path.relative_to(workdir).as_posix()] = {
                name: hashlib.sha256(np.ascontiguousarray(npz[name]).tobytes()).hexdigest() for name in sorted(npz)
            }
    return digests


def float_platform():
    """What the last bits of numpy float results depend on: the numpy
    version, its BLAS build and the SIMD extensions it dispatches to."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": [blas.get(key) for key in ("name", "version", "openblas configuration")],
        "simd": config["SIMD Extensions"]["found"],
    }


@pytest.fixture(scope="module")
def tiny_pipeline_data():
    return pipeline_data_from_benchmark(synth_benchmark(TINY_SPEC, seed=5))


@shared_case_id
def test_pipeline_checkpoints_equal_reference_training(tiny_pipeline_data, tmp_path, monkeypatch):
    # The score matrix sums in another order than the per-sample loop, so the
    # trained arrays and the mean losses agree to the last bits; everything
    # else the run writes is the same.
    cfg = tiny_pipeline_cfg()
    new, ref = tmp_path / "new", tmp_path / "reference"
    run_pipeline(cfg, tiny_pipeline_data, workdir=new)
    corpus = tiny_pipeline_data.corpus
    monkeypatch.setattr(dense_mod, "infonce_batch", lambda params, batch: reference_infonce_batch(params, batch, corpus))
    monkeypatch.setattr(dense_mod, "_adam_update", reference_adam_update)
    run_pipeline(cfg, tiny_pipeline_data, workdir=ref)
    files = sorted(p.relative_to(ref) for p in ref.rglob("*") if p.is_file())
    assert sorted(p.relative_to(new) for p in new.rglob("*") if p.is_file()) == files
    assert any(rel.suffix == ".npz" for rel in files)
    for rel in files:
        if rel.suffix == ".npz":
            with np.load(new / rel) as got, np.load(ref / rel) as want:
                assert got.files == want.files, rel
                assert got["meta"].tobytes() == want["meta"].tobytes(), rel
                for key in got.files:
                    np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-12, err_msg=f"{rel}:{key}")
        elif rel.name == "report.json":
            got, want = (json.loads((run / rel).read_text()) for run in (new, ref))
            for report in (got, want):
                report.pop("wall_clock_sec")
            assert abs(got.pop("mean_loss") - want.pop("mean_loss")) <= 1e-12, rel
            assert got == want, rel
        else:
            assert (new / rel).read_bytes() == (ref / rel).read_bytes(), rel


def test_pipeline_outputs_equal_with_reference_kernels(tiny_pipeline_data, tmp_path, monkeypatch):
    # The pooling, scatter and Adam kernels are bit-equal to their references
    # on any platform, so a run through the references writes the same files:
    # the check of training's float order that runs where the golden digests skip.
    cfg = tiny_pipeline_cfg()
    new, ref = tmp_path / "new", tmp_path / "reference"
    run_pipeline(cfg, tiny_pipeline_data, workdir=new)
    monkeypatch.setattr(dense_mod, "_mean_pool", reference_mean_pool)
    monkeypatch.setattr(dense_mod, "_scatter_pooled", reference_scatter_pooled)
    monkeypatch.setattr(dense_mod, "_adam_update", reference_adam_update)
    run_pipeline(cfg, tiny_pipeline_data, workdir=ref)
    files = sorted(p.relative_to(ref) for p in ref.rglob("*") if p.is_file())
    assert sorted(p.relative_to(new) for p in new.rglob("*") if p.is_file()) == files
    assert any(rel.suffix == ".npz" for rel in files)
    for rel in files:
        if rel.suffix == ".npz":
            # the zip members carry their write time, so compare the arrays
            with np.load(new / rel) as got, np.load(ref / rel) as want:
                assert got.files == want.files, rel
                for key in got.files:
                    assert got[key].dtype == want[key].dtype and got[key].shape == want[key].shape, (rel, key)
                    assert got[key].tobytes() == want[key].tobytes(), (rel, key)
        elif rel.name == "report.json":
            got, want = (json.loads((run / rel).read_text()) for run in (new, ref))
            for report in (got, want):
                report.pop("wall_clock_sec")
            assert got == want, rel
        else:
            assert (new / rel).read_bytes() == (ref / rel).read_bytes(), rel


@shared_case_id
def test_pipeline_checkpoints_match_golden_digests(tiny_pipeline_data, tmp_path):
    # Written by the batch score matrix, the row-grouped scatter and the blocked
    # Adam update; any change to the float order of training shows here. Float
    # results can differ in the last bit on another numpy, BLAS or CPU, where
    # test_pipeline_outputs_equal_with_reference_kernels still runs.
    golden = json.loads(GOLDEN_CHECKPOINTS.read_text())
    if golden["platform"] != float_platform():
        pytest.skip(f"golden digests were recorded on {golden['platform']}")
    run_pipeline(tiny_pipeline_cfg(), tiny_pipeline_data, workdir=tmp_path)
    assert checkpoint_digests(tmp_path) == golden["shared"]


GOLDEN_ARTIFACTS = Path(__file__).parent / "data" / "pipeline_artifacts_golden.json"
# every mining path the pipeline has: agreement, fusion, the auxiliary encoder
# and the two negative modes other than mined
MINING_VARIANTS = {
    "agreement": {},
    "fuse_sum": {"mining_mode": "fuse_sum"},
    "fuse_product": {"mining_mode": "fuse_product"},
    "double_dense": {"mining_mode": "double_dense"},
    "negative_mode=none": {"negative_mode": "none"},
    "negative_mode=sparse_top": {"negative_mode": "sparse_top"},
}


def artifact_digests(workdir):
    """sha256 of every text artifact of a run directory: samples, run files,
    generators and reports without their wall-clock field. The manifest
    records the config and the package version, not an output."""
    digests = {}
    for path in sorted(workdir.rglob("*")):
        if not path.is_file() or path.suffix == ".npz" or path.name == "manifest.json":
            continue
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            report.pop("wall_clock_sec")
            data = json.dumps(report, sort_keys=True).encode()
        digests[path.relative_to(workdir).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.mark.parametrize("variant", MINING_VARIANTS)
def test_pipeline_artifacts_match_golden_digests(tiny_pipeline_data, tmp_path, variant):
    # The mined and generated samples, the run file, the generator and the
    # reports of each mining variant, as recorded before the searches returned
    # corpus positions: a change to any mining, generation or evaluation path
    # shows here. Gated like the checkpoint digests, since the files carry
    # the trained encoder's float results.
    golden = json.loads(GOLDEN_ARTIFACTS.read_text())
    if golden["platform"] != float_platform():
        pytest.skip(f"golden digests were recorded on {golden['platform']}")
    run_pipeline(replace(tiny_pipeline_cfg(), **MINING_VARIANTS[variant]), tiny_pipeline_data, workdir=tmp_path)
    assert artifact_digests(tmp_path) == golden["variants"][variant]


def test_training_sample_invariants():
    q = Query(id="q", text="x")
    with pytest.raises(ValueError):
        TrainingSample(query=q, positive=1, hard_negatives=(1,))
    with pytest.raises(ValueError):
        TrainingSample(query=q, positive=1, hard_negatives=(2,), random_negatives=(2,))


# ---------------------------------------------------------------------------
# train_step
# ---------------------------------------------------------------------------


def batch_for(corpus):
    pos = corpus.position
    return [
        TrainingSample(query=Query(id="q1", text="apple"), positive=pos("p1"), hard_negatives=(pos("p3"),)),
        TrainingSample(query=Query(id="q2", text="cherry"), positive=pos("p3"), random_negatives=(pos("p4"),)),
        TrainingSample(query=Query(id="q3", text="banana"), positive=pos("p2")),
    ]


def test_train_step_zero_lr_keeps_params(tiny_corpus):
    params = toy_params(tiny_corpus)
    before = params.embedding.copy()
    opt = init_optimizer(params, lr=0.0)
    loss = train_step(params, opt, batch_for(tiny_corpus))
    assert np.array_equal(params.embedding, before)
    assert type(loss) is float and loss > 0
    assert params.version == 1
    assert opt.step == 1


def test_train_step_deterministic(tiny_corpus):
    results = []
    for _ in range(2):
        params = toy_params(tiny_corpus, seed=3)
        opt = init_optimizer(params, lr=0.05)
        for _ in range(5):
            train_step(params, opt, batch_for(tiny_corpus))
        results.append(params.embedding.copy())
    assert np.array_equal(results[0], results[1])


def test_train_step_descends_on_fixed_batch(tiny_corpus):
    params = toy_params(tiny_corpus, seed=1)
    opt = init_optimizer(params, lr=0.02)
    batch = batch_for(tiny_corpus)
    losses = []
    for _ in range(50):
        loss = train_step(params, opt, batch)
        losses.append(loss)
    window = 10
    means = [np.mean(losses[i : i + window]) for i in range(0, len(losses) - window + 1)]
    assert means[-1] <= means[0]
    assert losses[-1] < losses[0]


@shared_case_id
def test_train_step_is_adam_on_infonce_batch(tiny_corpus):
    params = toy_params(tiny_corpus, seed=2)
    batch = batch_for(tiny_corpus)
    want_loss, g_emb = infonce_batch(params, batch)

    def first_adam_step(table, g, opt):
        m_hat = (1 - ADAM_BETA1) * g / (1 - ADAM_BETA1)
        v_hat = (1 - ADAM_BETA2) * g * g / (1 - ADAM_BETA2)
        return table - opt.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    opt = init_optimizer(params, lr=0.01)
    want_emb = first_adam_step(params.embedding, g_emb, opt)
    loss = train_step(params, opt, batch)
    assert loss == want_loss
    np.testing.assert_allclose(params.embedding, want_emb, rtol=1e-12, atol=1e-15)
    assert opt.step == 1 and params.version == 1


def test_train_step_empty_batch_rejected(tiny_corpus):
    params = toy_params(tiny_corpus)
    opt = init_optimizer(params)
    with pytest.raises(ValueError):
        train_step(params, opt, [])
    assert opt.step == 0 and params.version == 0


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@shared_case_id
def test_checkpoint_round_trip(tmp_path, tiny_corpus):
    params = toy_params(tiny_corpus)
    train_step(params, init_optimizer(params, lr=0.07), batch_for(tiny_corpus))
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params)
    loaded, _ = load_checkpoint(path)
    # the encoder alone: its table and metadata, no optimizer state
    with np.load(path) as npz:
        assert npz.files == ["meta", "embedding"]
        meta = json.loads(bytes(npz["meta"]))
    assert meta == {"format": 1, "tokens": list(vocab_from_corpus(tiny_corpus)), "shared": True, "version": 1, "dim": 4}
    assert loaded.vocab == params.vocab
    assert loaded.version == params.version
    assert np.array_equal(loaded.embedding, params.embedding)


def test_encoder_params_reject_two_tokens_on_one_row():
    with pytest.raises(ValueError, match="one row"):
        EncoderParams(vocab={"a": 0, "b": 0}, embedding=np.zeros((2, 2)))
    # a permutation of the rows is accepted
    assert EncoderParams(vocab={"a": 1, "b": 0}, embedding=np.zeros((2, 2))).vocab == {"a": 1, "b": 0}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"dim": 9}, "dim 9 disagrees with the 8-column table"),
        ({"dim": 7}, "dim 7 disagrees with the 8-column table"),
        ({"dim": 8.0}, "dim 8.0 disagrees with the 8-column table"),
        ({"embedding": np.nan}, "non-finite"),
        ({"embedding": -np.inf}, "non-finite"),
    ],
    ids=["dim-wider", "dim-narrower", "dim-float", "all-nan", "one-inf"],
)
def test_load_checkpoint_rejects_values_that_disagree(tmp_path, tiny_corpus, change, message):
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, toy_params(tiny_corpus, dim=8))
    with np.load(path) as npz:
        meta, embedding = json.loads(bytes(npz["meta"])), npz["embedding"]
    if "dim" in change:
        meta["dim"] = change["dim"]
    elif np.isnan(change["embedding"]):
        embedding = np.full_like(embedding, np.nan)
    else:
        embedding[2, 5] = change["embedding"]
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), embedding=embedding)
    with pytest.raises(DataFormatError, match=f"{path}: not a lexmine checkpoint.*{message}"):
        load_checkpoint(path)


def test_checkpoint_without_optimizer(tmp_path, tiny_corpus):
    params = toy_params(tiny_corpus)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params)
    loaded, lopt = load_checkpoint(path)
    assert lopt is None
    assert np.array_equal(loaded.embedding, params.embedding)
