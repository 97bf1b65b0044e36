import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lexmine.dense as dense_mod
from lexmine.corpus import (
    DEFAULT_TOKENIZER,
    Corpus,
    Passage,
    Query,
    SynthSpec,
    TokenizerConfig,
    synth_benchmark,
    tokenize,
)
from lexmine.dense import (
    DENSE_BLOCK,
    OptimizerState,
    StaleIndexError,
    TrainingSample,
    _adam_update,
    _mean_pool,
    _scatter_pooled,
    _token_rows,
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

# Frozen with an arbitrary-precision oracle (mpmath, 40 digits):
# ln(1 + e^-1 + e^-1.5) for positive score 2.0 against negatives {1.0, 0.5}.
INFONCE_2_1_05 = 0.46436878410794484


# One table encodes queries and passages. These tests keep the "[True]" id
# under which earlier versions recorded their shared-table case, so results
# stay comparable across versions.
shared_case_id = pytest.mark.parametrize((), [pytest.param(id="True")])


def toy_params(corpus, dim=4, seed=0):
    return init_params(vocab_from_corpus(corpus), dim=dim, seed=seed)


def encode(params, tokens):
    """Oracle: the mean of the embedding rows of the in-vocabulary tokens
    (duplicates counted), or the zero vector when there are none."""
    rows = [params.vocab[t] for t in tokens if t in params.vocab]
    return params.embedding[rows].mean(axis=0) if rows else np.zeros(params.dim)


def brute_force_dense(index, qv):
    """Oracle: same score vector, independent python sort/tie-break/truncation."""
    scores = index.vectors @ qv
    scored = [(pid, float(scores[i])) for i, pid in enumerate(index.ids)]
    scored.sort(key=lambda kv: (-kv[1], kv[0]))
    return scored


def infonce_from_scores(positive_score, negative_scores):
    """Oracle: the InfoNCE loss of one sample from its raw similarity scores,
    with max-shifted exponentials."""
    z = np.concatenate(([positive_score], np.asarray(negative_scores, dtype=float)))
    m = z.max()
    return float(m + np.log(np.exp(z - m).sum()) - positive_score)


def numeric_gradient(params, batch, corpus, table, h=1e-5):
    """Central finite differences of the batch mean loss wrt every entry of ``table``."""
    grad = np.zeros_like(table)
    for idx in np.ndindex(*table.shape):
        orig = table[idx]
        table[idx] = orig + h
        lo_plus = infonce_batch(params, batch, corpus)[0]
        table[idx] = orig - h
        lo_minus = infonce_batch(params, batch, corpus)[0]
        table[idx] = orig
        grad[idx] = (lo_plus - lo_minus) / (2 * h)
    return grad


def random_case(seed):
    """A random 3-sample batch over 7 passages; two samples share a positive,
    so one in-batch negative is skipped, and one query has an OOV token."""
    rng = np.random.default_rng(seed)
    vocab = [f"t{i}" for i in range(12)]
    passages = []
    for i in range(7):
        toks = [vocab[int(rng.integers(len(vocab)))] for _ in range(int(rng.integers(2, 7)))]
        passages.append(Passage(id=f"p{i}", text=" ".join(toks)))
    corpus = Corpus(passages)
    params = init_params(vocab, dim=5, seed=seed)
    params.embedding[:] = rng.normal(0, 0.6, size=params.embedding.shape)

    def query(i):
        return Query(id=f"q{i}", text=" ".join(vocab[int(rng.integers(len(vocab)))] for _ in range(3)))

    batch = [
        TrainingSample(query=query(0), positive="p0", hard_negatives=("p1", "p2"), random_negatives=("p3",)),
        TrainingSample(query=query(1), positive="p4", hard_negatives=("p0",)),
        TrainingSample(query=Query(id="q2", text=query(2).text + " zzz"), positive="p0", random_negatives=("p5", "p6")),
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
    index = build_dense_index(params, tiny_corpus)
    assert index.ids == tiny_corpus.ids
    for i, pid in enumerate(index.ids):
        want = encode(params, tokenize(tiny_corpus[pid].text))
        assert np.allclose(index.vectors[i], want)


def test_index_empty_corpus_rejected(tiny_corpus):
    params = toy_params(tiny_corpus)
    with pytest.raises(ValueError):
        build_dense_index(params, Corpus([]))


# ---------------------------------------------------------------------------
# the per-passage rows memoized on the encoder
# ---------------------------------------------------------------------------


def fresh_rows(params, corpus, tok=DEFAULT_TOKENIZER):
    """Oracle: each passage's in-vocabulary token rows, from its own tokens."""
    return {p.id: [params.vocab[t] for t in tokenize(p.text, tok) if t in params.vocab] for p in corpus}


def assert_rows_fresh(params, corpus, tok=DEFAULT_TOKENIZER):
    rows = corpus_token_rows(params, corpus, tok)
    assert {pid: r.tolist() for pid, r in rows.items()} == fresh_rows(params, corpus, tok)


def test_corpus_token_rows_memo_returns_the_same_rows(tiny_corpus):
    params = init_params(["apple", "cherry", "fig"], dim=2)
    rows = corpus_token_rows(params, tiny_corpus)
    assert corpus_token_rows(params, tiny_corpus) is rows
    assert corpus_token_rows(params, tiny_corpus, TokenizerConfig()) is rows
    # training moves the table, never the vocabulary: a step keeps the memo
    train_step(params, init_optimizer(params), batch_for(tiny_corpus), tiny_corpus)
    assert corpus_token_rows(params, tiny_corpus) is rows
    assert "_passage_rows" not in repr(params)


def test_corpus_token_rows_memo_is_never_stale(tmp_path, tiny_corpus):
    params = init_params(["apple", "cherry", "fig", "ab"], dim=2)
    assert_rows_fresh(params, tiny_corpus)
    # another corpus object, with equal ids but other texts
    other = Corpus([Passage(id=p.id, text=p.text.replace("apple", "ab cherry")) for p in tiny_corpus])
    assert_rows_fresh(params, other)
    assert corpus_token_rows(params, other)["p1"].size == 4
    # an equal corpus is another object: it gets rows of its own, equal ones
    copy = Corpus(list(tiny_corpus))
    assert corpus_token_rows(params, copy) is not corpus_token_rows(params, tiny_corpus)
    assert_rows_fresh(params, copy)
    # another tokenizer config, then the first one again
    short = TokenizerConfig(min_token_len=4)
    assert_rows_fresh(params, tiny_corpus, short)
    assert corpus_token_rows(params, tiny_corpus, short)["p4"].size == 1
    assert_rows_fresh(params, tiny_corpus)
    # a checkpoint loaded again, after its file was replaced by another vocabulary
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params)
    loaded, _ = load_checkpoint(path)
    assert_rows_fresh(loaded, tiny_corpus)
    save_checkpoint(path, init_params(["banana", "date"], dim=2))
    reloaded, _ = load_checkpoint(path)
    assert_rows_fresh(reloaded, tiny_corpus)
    assert_rows_fresh(params, tiny_corpus)


def test_search_matches_brute_force():
    rng = np.random.default_rng(3)
    passages = [
        Passage(id=f"p{i:02d}", text=" ".join(f"t{int(rng.integers(9))}" for _ in range(4)))
        for i in range(60)
    ]
    corpus = Corpus(passages)
    params = toy_params(corpus, dim=8, seed=1)
    index = build_dense_index(params, corpus)
    for trial in range(10):
        q = Query(id="q", text=f"t{trial % 9} t{(trial + 3) % 9}")
        got = search_dense(index, [tokenize(q.text)], k=len(corpus))[0]
        qv = encode(params, tokenize(q.text))
        assert got == brute_force_dense(index, qv)
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
    index = build_dense_index(params, corpus)
    for trial in range(5):
        q = Query(id="q", text=f"t{trial} t{(trial * 7) % 40} t{(trial * 13) % 40}")
        got = search_dense(index, [tokenize(q.text)], k=500)[0]
        qv = encode(params, tokenize(q.text))
        assert got == brute_force_dense(index, qv)


@pytest.mark.parametrize("k", [1, 2, 7, 29, 30, 31, 100])
def test_search_top_k_with_ties_matches_brute_force(k):
    # vectors on a coarse grid tie many scores, also at the k-th position
    rng = np.random.default_rng(11)
    passages = [Passage(id=f"p{int(i):02d}", text=f"t{int(i) % 5}") for i in rng.permutation(30)]
    corpus = Corpus(passages)
    params = toy_params(corpus, dim=3, seed=4)
    index = build_dense_index(params, corpus)
    index.vectors[:] = np.round(rng.normal(size=index.vectors.shape))
    # one-token queries whose vectors are the table rows set here; no token gives the zero vector
    qvs = [np.array([1.0, 0.0, 0.0]), np.array([1.0, -1.0, 2.0]), np.zeros(3)]
    params.embedding[params.vocab["t0"]] = qvs[0]
    params.embedding[params.vocab["t1"]] = qvs[1]
    got = search_dense(index, [["t0"], ["t1"], []], k)
    assert got == [brute_force_dense(index, qv)[:k] for qv in qvs]


def test_search_nan_scores_rank_last():
    corpus = Corpus([Passage(id=f"p{i}", text=f"t{i}") for i in range(6)])
    params = toy_params(corpus, dim=2)
    index = build_dense_index(params, corpus)
    index.vectors[:] = [[1.0, 0.0], [np.nan, 0.0], [3.0, 0.0], [np.nan, 0.0], [2.0, 0.0], [2.0, 0.0]]
    params.embedding[params.vocab["t0"]] = [1.0, 0.0]
    got = search_dense(index, [["t0"]], 5)[0]
    assert [pid for pid, _ in got] == ["p2", "p4", "p5", "p0", "p1"]


def integer_case(seed, n_passages=40, dim=3):
    """An index of small-integer passage vectors and a query table of small
    integers, so that every score of a query of 1, 2 or 4 tokens is exact."""
    rng = np.random.default_rng(seed)
    # ids out of corpus order, so that ties must break on id, not on position
    corpus = Corpus([Passage(id=f"p{int(i):02d}", text=f"t{i % 9}") for i in rng.permutation(n_passages)])
    params = init_params([f"t{i}" for i in range(9)], dim=dim, seed=seed)
    params.embedding[:] = rng.integers(-2, 3, size=params.embedding.shape)
    index = build_dense_index(params, corpus)
    index.vectors[:] = rng.integers(-2, 3, size=index.vectors.shape)
    sizes = rng.choice([0, 1, 1, 2, 4], size=3 * DENSE_BLOCK + 5)
    token_lists = [[f"t{int(t)}" for t in rng.integers(0, 10, size=n)] for n in sizes]  # t9 is OOV
    return params, index, token_lists


def assert_same_ranking(got, want):
    """Equal ids and scores, a NaN score equal to a NaN."""
    assert [pid for pid, _ in got] == [pid for pid, _ in want]
    np.testing.assert_array_equal([s for _, s in got], [s for _, s in want])


@pytest.mark.parametrize("k", [1, 3, 39, 40, 55])
def test_block_search_equals_per_query_search_on_integer_vectors(k):
    # exact arithmetic: block rows equal the per-query products bit for bit,
    # so whole rankings are equal, ties at the k-th place included
    params, index, token_lists = integer_case(seed=k)
    params.embedding[params.vocab["t8"], 1] = np.nan  # queries holding t8 score NaN
    got = search_dense(index, token_lists, k)
    assert len(got) == len(token_lists)
    tie_at_k = False
    for tokens, ranked in zip(token_lists, got):
        assert_same_ranking(ranked, search_dense(index, [tokens], k)[0])
        if "t8" not in tokens:
            full = brute_force_dense(index, encode(params, tokens))
            assert ranked == full[:k]
            tie_at_k |= k < len(full) and full[k - 1][1] == full[k][1]
    assert any("t8" in tokens for tokens in token_lists)
    assert tie_at_k or k >= len(index.ids)


def test_block_search_nan_row_ranks_by_id():
    params, index, _ = integer_case(seed=0)
    params.embedding[params.vocab["t8"]] = np.nan
    got = search_dense(index, [["t1"], ["t8"], ["t2", "t3"]], 5)
    # every score of the NaN query is NaN: it ranks by id, as top_k sorts NaN last
    assert [pid for pid, _ in got[1]] == sorted(index.ids)[:5]
    assert all(math.isnan(s) for _, s in got[1])
    assert_same_ranking(got[1], search_dense(index, [["t8"]], 5)[0])
    assert got[0] == search_dense(index, [["t1"]], 5)[0]
    assert got[2] == search_dense(index, [["t2", "t3"]], 5)[0]


def test_block_search_matches_per_query_search_on_random_floats():
    rng = np.random.default_rng(17)
    passages = [
        Passage(id=f"p{i:03d}", text=" ".join(f"t{int(rng.integers(60))}" for _ in range(8)))
        for i in range(300)
    ]
    corpus = Corpus(passages)
    params = toy_params(corpus, dim=24, seed=5)
    index = build_dense_index(params, corpus)
    token_lists = [[f"t{int(t)}" for t in rng.integers(0, 60, size=int(rng.integers(1, 6)))] for _ in range(200)]
    got = search_dense(index, token_lists, 20)
    for tokens, ranked in zip(token_lists, got):
        want = search_dense(index, [tokens], 20)[0]
        assert [pid for pid, _ in ranked] == [pid for pid, _ in want]
        np.testing.assert_allclose([s for _, s in ranked], [s for _, s in want], rtol=0, atol=1e-12)


def test_block_search_empty_input_and_bad_k(tiny_corpus):
    params = toy_params(tiny_corpus)
    index = build_dense_index(params, tiny_corpus)
    assert search_dense(index, [], 3) == []
    with pytest.raises(ValueError):
        search_dense(index, [["apple"]], 0)


def test_search_all_oov_ranks_by_id(tiny_corpus):
    params = toy_params(tiny_corpus)
    index = build_dense_index(params, tiny_corpus)
    got = search_dense(index, [tokenize("zzz")], k=4)[0]
    assert [pid for pid, _ in got] == sorted(tiny_corpus.ids)
    assert all(s == 0.0 for _, s in got)


def test_search_prefix_property(tiny_corpus):
    params = toy_params(tiny_corpus)
    index = build_dense_index(params, tiny_corpus)
    q = tokenize("apple cherry")
    assert search_dense(index, [q], 5)[0][:2] == search_dense(index, [q], 2)[0]


def test_search_stale_index(tiny_corpus, rng):
    params = toy_params(tiny_corpus)
    index = build_dense_index(params, tiny_corpus)
    opt = init_optimizer(params, lr=0.1)
    sample = TrainingSample(
        query=Query(id="q", text="apple"), positive="p1", hard_negatives=("p2",)
    )
    train_step(params, opt, [sample], tiny_corpus)
    with pytest.raises(StaleIndexError):
        search_dense(index, [tokenize("apple")], 2)
    fresh = build_dense_index(params, tiny_corpus)
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
        positive="p0",
        hard_negatives=("p1", "p2", "p3"),
    )
    loss, _ = infonce_batch(params, [sample], corpus)
    assert loss == pytest.approx(math.log(4.0), rel=1e-12)


def test_loss_frozen_oracle_value():
    corpus = Corpus(
        [Passage(id="pos", text="a"), Passage(id="n1", text="b"), Passage(id="n2", text="c")]
    )
    params = init_params(["a", "b", "c", "q"], dim=1, seed=0)
    v = params.vocab
    params.embedding[v["q"], 0] = 1.0
    params.embedding[v["a"], 0] = 2.0
    params.embedding[v["b"], 0] = 1.0
    params.embedding[v["c"], 0] = 0.5
    sample = TrainingSample(
        query=Query(id="q", text="q"), positive="pos", hard_negatives=("n1", "n2")
    )
    loss, _ = infonce_batch(params, [sample], corpus)
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
            float(np.dot(qv, encode(params, tokenize(corpus[pid].text))))
            for pid in (s.positive, *s.hard_negatives, *s.random_negatives, *in_batch)
        ]
        want.append(infonce_from_scores(scores[0], scores[1:]))
    loss, _ = infonce_batch(params, batch, corpus)
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
    _, analytic = infonce_batch(params, batch, corpus)
    numeric = numeric_gradient(params, batch, corpus, params.embedding)
    for row in range(params.embedding.shape[0]):
        denom = max(np.max(np.abs(numeric[row])), 1e-8)
        assert np.max(np.abs(analytic[row] - numeric[row])) / denom < 1e-4


def test_gradient_covers_all_touched_rows():
    # the gradient is nonzero on exactly the rows the batch's texts touch
    def nonzero_rows(g):
        return set(np.flatnonzero(np.any(g != 0.0, axis=1)).tolist())

    params, batch, corpus = random_case(7)
    _, g_emb = infonce_batch(params, batch, corpus)

    def rows_of(texts):
        return {params.vocab[t] for text in texts for t in tokenize(text) if t in params.vocab}

    p_touched = rows_of(
        corpus[pid].text for s in batch for pid in (s.positive, *s.hard_negatives, *s.random_negatives)
    )
    q_touched = rows_of(s.query.text for s in batch)
    assert nonzero_rows(g_emb) == p_touched | q_touched


def test_infonce_batch_leaves_inputs_unchanged():
    params, batch, corpus = random_case(5)
    emb = params.embedding.copy()
    rows = corpus_token_rows(params, corpus)
    saved = {pid: r.copy() for pid, r in rows.items()}
    infonce_batch(params, batch, corpus)
    assert np.array_equal(params.embedding, emb)
    assert params.version == 0
    # the memoized rows the batch pooled are the same object, unchanged
    assert corpus_token_rows(params, corpus) is rows
    assert rows.keys() == saved.keys()
    assert all(np.array_equal(rows[pid], saved[pid]) for pid in saved)


# ---------------------------------------------------------------------------
# reference scatter and Adam: the per-sample np.add.at loop and the
# allocating update that the bincount scatter and in-place update replace
# ---------------------------------------------------------------------------


def reference_mean_pool(table, rows_list):
    """The per-row ``.mean`` loop that ``_mean_pool`` replaces."""
    pooled = np.zeros((len(rows_list), table.shape[1]))
    for i, rows in enumerate(rows_list):
        if rows.size:
            pooled[i] = table[rows].mean(axis=0)
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
    got = _mean_pool(table, rows_list)
    want = reference_mean_pool(table, rows_list)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def reference_infonce_batch(params, batch, corpus, tok=DEFAULT_TOKENIZER):
    uniq = {}
    for s in batch:
        for pid in (s.positive, *s.hard_negatives, *s.random_negatives):
            uniq.setdefault(pid, len(uniq))
    rows = corpus_token_rows(params, corpus, tok)
    p_rows = [rows[pid] for pid in uniq]
    q_rows = [_token_rows(params.vocab, tokenize(s.query.text, tok)) for s in batch]
    P = reference_mean_pool(params.embedding, p_rows)
    Q = reference_mean_pool(params.embedding, q_rows)
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

    g_emb = reference_scatter_pooled(p_rows + q_rows, np.vstack([P_grad, Q_grad]), params.embedding.shape[0])
    return total_loss / n, g_emb


def reference_scatter_pooled(rows_list, g_pooled, n_rows):
    """The per-entry ``np.add.at`` scatter onto a zero table that
    ``_scatter_pooled`` replaces."""
    g_table = np.zeros((n_rows, g_pooled.shape[1]))
    for rows, g in zip(rows_list, g_pooled):
        if rows.size:
            np.add.at(g_table, rows, np.broadcast_to(g / rows.size, (rows.size, g.size)))
    return g_table


def reference_adam_update(table, g, m, v, opt):
    m *= opt.beta1
    m += (1.0 - opt.beta1) * g
    v *= opt.beta2
    v += (1.0 - opt.beta2) * g * g
    m_hat = m / (1.0 - opt.beta1**opt.step)
    v_hat = v / (1.0 - opt.beta2**opt.step)
    table -= opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)


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
    def text(tokens):
        return " ".join("zz" if t == OOV else ORACLE_VOCAB[t] for t in tokens)

    passages, samples = case
    corpus = Corpus([Passage(id=f"p{i}", text=text(toks)) for i, toks in enumerate(passages)])
    params = init_params(ORACLE_VOCAB, dim=3, seed=seed)
    rng = np.random.default_rng(seed)
    params.embedding[:] = rng.normal(0, 0.8, size=params.embedding.shape)
    batch = [
        TrainingSample(
            query=Query(id=f"q{i}", text=text(query)),
            positive=f"p{pos}",
            hard_negatives=tuple(f"p{j}" for j in hard),
            random_negatives=tuple(f"p{j}" for j in rand),
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
    loss, g_emb = infonce_batch(params, batch, corpus)
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
def test_scatter_pooled_bit_equal_to_add_at(case):
    rows_list, g_pooled = case
    got = _scatter_pooled(rows_list, g_pooled, SCATTER_ROWS)
    want = reference_scatter_pooled(rows_list, g_pooled, SCATTER_ROWS)
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
        _adam_update(table, g, opt.m, opt.v, opt)
        reference_adam_update(want_table, g, want_opt.m, want_opt.v, want_opt)
        assert np.array_equal(g, g_before)
        assert np.array_equal(opt.m, want_opt.m) and np.array_equal(opt.v, want_opt.v)
        assert np.array_equal(table, want_table), step


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
    monkeypatch.setattr(dense_mod, "infonce_batch", reference_infonce_batch)
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


@shared_case_id
def test_pipeline_checkpoints_match_golden_digests(tiny_pipeline_data, tmp_path):
    # Written by the batch score matrix, the bincount scatter and the in-place
    # Adam update; any change to the float order of training shows here. Float
    # results can differ in the last bit on another numpy, BLAS or CPU.
    golden = json.loads(GOLDEN_CHECKPOINTS.read_text())
    if golden["platform"] != float_platform():
        pytest.skip(f"golden digests were recorded on {golden['platform']}")
    run_pipeline(tiny_pipeline_cfg(), tiny_pipeline_data, workdir=tmp_path)
    assert checkpoint_digests(tmp_path) == golden["shared"]


def test_training_sample_invariants():
    q = Query(id="q", text="x")
    with pytest.raises(ValueError):
        TrainingSample(query=q, positive="p1", hard_negatives=("p1",))
    with pytest.raises(ValueError):
        TrainingSample(query=q, positive="p1", hard_negatives=("p2",), random_negatives=("p2",))


# ---------------------------------------------------------------------------
# train_step
# ---------------------------------------------------------------------------


def batch_for(corpus):
    return [
        TrainingSample(query=Query(id="q1", text="apple"), positive="p1", hard_negatives=("p3",)),
        TrainingSample(query=Query(id="q2", text="cherry"), positive="p3", random_negatives=("p4",)),
        TrainingSample(query=Query(id="q3", text="banana"), positive="p2"),
    ]


def test_train_step_zero_lr_keeps_params(tiny_corpus):
    params = toy_params(tiny_corpus)
    before = params.embedding.copy()
    opt = init_optimizer(params, lr=0.0)
    loss = train_step(params, opt, batch_for(tiny_corpus), tiny_corpus)
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
            train_step(params, opt, batch_for(tiny_corpus), tiny_corpus)
        results.append(params.embedding.copy())
    assert np.array_equal(results[0], results[1])


def test_train_step_descends_on_fixed_batch(tiny_corpus):
    params = toy_params(tiny_corpus, seed=1)
    opt = init_optimizer(params, lr=0.02)
    batch = batch_for(tiny_corpus)
    losses = []
    for _ in range(50):
        loss = train_step(params, opt, batch, tiny_corpus)
        losses.append(loss)
    window = 10
    means = [np.mean(losses[i : i + window]) for i in range(0, len(losses) - window + 1)]
    assert means[-1] <= means[0]
    assert losses[-1] < losses[0]


@shared_case_id
def test_train_step_is_adam_on_infonce_batch(tiny_corpus):
    params = toy_params(tiny_corpus, seed=2)
    batch = batch_for(tiny_corpus)
    want_loss, g_emb = infonce_batch(params, batch, tiny_corpus)

    def first_adam_step(table, g, opt):
        m_hat = (1 - opt.beta1) * g / (1 - opt.beta1)
        v_hat = (1 - opt.beta2) * g * g / (1 - opt.beta2)
        return table - opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)

    opt = init_optimizer(params, lr=0.01)
    want_emb = first_adam_step(params.embedding, g_emb, opt)
    loss = train_step(params, opt, batch, tiny_corpus)
    assert loss == want_loss
    np.testing.assert_allclose(params.embedding, want_emb, rtol=1e-12, atol=1e-15)
    assert opt.step == 1 and params.version == 1


def test_train_step_empty_batch_rejected(tiny_corpus):
    params = toy_params(tiny_corpus)
    opt = init_optimizer(params)
    with pytest.raises(ValueError):
        train_step(params, opt, [], tiny_corpus)
    assert opt.step == 0 and params.version == 0


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@shared_case_id
def test_checkpoint_round_trip(tmp_path, tiny_corpus):
    params = toy_params(tiny_corpus)
    train_step(params, init_optimizer(params, lr=0.07), batch_for(tiny_corpus), tiny_corpus)
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


def test_checkpoint_without_optimizer(tmp_path, tiny_corpus):
    params = toy_params(tiny_corpus)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, params)
    loaded, lopt = load_checkpoint(path)
    assert lopt is None
    assert np.array_equal(loaded.embedding, params.embedding)
