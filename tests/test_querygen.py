import numpy as np
import pytest

from lexmine.corpus import Corpus, Passage, Query, tokenize
from lexmine.dense import build_dense_index, init_params
from lexmine.mining import MiningConfig
from lexmine.querygen import (
    SALIENCE_PSEUDO_COUNT,
    UNSEEN_SALIENCE,
    GeneratedPair,
    GeneratorModel,
    assemble_generated_sample,
    filter_generated,
    generate_query,
    load_generator,
    save_generator,
    train_generator,
)
from lexmine.sparse import build_index, search_sparse


def train(pairs, model=None):
    """train_generator on ``pairs``, with a corpus of their distinct passages."""
    corpus = Corpus(dict.fromkeys(p for _, p in pairs))
    return train_generator(model or GeneratorModel(), pairs, corpus)


def generate(model, passage, rng, **kwargs):
    return generate_query(model, passage, tokenize(passage.text), rng, **kwargs)


def salience_value(ratio):
    f = SALIENCE_PSEUDO_COUNT
    return (1.0 + f * ratio) / (2.0 + f)


# ---------------------------------------------------------------------------
# train_generator
# ---------------------------------------------------------------------------


def test_train_single_pair_salience_above_floor():
    pairs = [(Query(id="q", text="cat sat"), Passage(id="p", text="the cat sat down"))]
    model = train(pairs)
    assert model.version == 1
    for tok in ("cat", "sat"):
        assert model.salience("en", tok) > UNSEEN_SALIENCE
    # tokens only in the passage score below the unseen floor
    assert model.salience("en", "down") < UNSEEN_SALIENCE
    assert model.salience("en", "never-seen") == UNSEEN_SALIENCE


def test_train_empty_pairs_rejected():
    with pytest.raises(ValueError):
        train_generator(GeneratorModel(), [], Corpus([]))


def test_train_two_pair_ratios_by_hand():
    # "shared" occurs in both passages, in one query: ratio 1/2.
    # "onlyq1" occurs in passage 1 and query 1: ratio 1/1.
    # "filler" occurs in both passages, never in queries: ratio 0/2.
    pairs = [
        (Query(id="q1", text="shared onlyq1"), Passage(id="p1", text="shared onlyq1 filler")),
        (Query(id="q2", text="other"), Passage(id="p2", text="shared filler other")),
    ]
    model = train(pairs)
    assert model.salience("en", "shared") == pytest.approx(salience_value(0.5))
    assert model.salience("en", "onlyq1") == pytest.approx(salience_value(1.0))
    assert model.salience("en", "filler") == pytest.approx(salience_value(0.0))
    assert model.salience("en", "other") == pytest.approx(salience_value(1.0))


def test_train_duplicated_pairs_identical_model():
    pairs = [
        (Query(id="q1", text="a b"), Passage(id="p1", text="a b c")),
        (Query(id="q2", text="c"), Passage(id="p2", text="c d")),
    ]
    once = train(pairs)
    twice = train(pairs + pairs)
    # tokens are read from the corpus, not re-tokenized from the passage text
    shadowed = Corpus([Passage(id="p1", text="a b c"), Passage(id="p2", text="c d")])
    stale = [(q, Passage(id=p.id, text="stale text")) for q, p in pairs]
    assert train_generator(GeneratorModel(), stale, shadowed).term_salience == once.term_salience
    assert once.term_salience == twice.term_salience
    assert once.query_len_dist == twice.query_len_dist
    assert once.version == twice.version


def test_train_updates_only_present_languages():
    model = train([(Query(id="q", text="aa", lang="xx"), Passage(id="p", text="aa bb", lang="xx"))])
    xx_salience = dict(model.term_salience)
    train([(Query(id="q2", text="cc", lang="yy"), Passage(id="p2", text="cc dd", lang="yy"))], model)
    for key, val in xx_salience.items():
        assert model.term_salience[key] == val
    assert ("yy", "cc") in model.term_salience
    assert model.version == 2


def test_train_length_distribution():
    pairs = [
        (Query(id="q1", text="a b"), Passage(id="p1", text="a b")),
        (Query(id="q2", text="c d e"), Passage(id="p2", text="c d e")),
        (Query(id="q3", text="f g"), Passage(id="p3", text="f g")),
    ]
    model = train(pairs)
    assert model.query_len_dist == {2: pytest.approx(2 / 3), 3: pytest.approx(1 / 3)}


# ---------------------------------------------------------------------------
# generate_query
# ---------------------------------------------------------------------------


def trained_model():
    return train([(Query(id="q", text="topic"), Passage(id="p", text="topic word"))])


def test_generate_untrained_rejected():
    with pytest.raises(ValueError):
        generate(GeneratorModel(), Passage(id="p", text="x"), np.random.default_rng(0))


def test_generate_single_token_passage():
    model = trained_model()  # length dist is {1: 1.0}
    q = generate(model, Passage(id="p2", text="solo"), np.random.default_rng(0))
    assert q.text == "solo"
    assert q.lang == "en"


def test_generate_deterministic_under_seed():
    model = trained_model()
    passage = Passage(id="p", text="alpha beta gamma delta")
    a = generate(model, passage, np.random.default_rng(42))
    b = generate(model, passage, np.random.default_rng(42))
    assert a == b
    # the memoized token ids give the same candidates, in first-occurrence order
    corpus = Corpus([Passage(id="x", text="a b"), passage])
    tokens = corpus.tokenized().tokens(corpus.position("p"))
    assert tokens == tokenize(passage.text)
    assert generate_query(model, passage, tokens, np.random.default_rng(42)) == a


def test_generate_tokens_subset_of_passage():
    model = trained_model()
    rng = np.random.default_rng(7)
    for i in range(50):
        passage = Passage(id=f"p{i}", text="alpha beta gamma delta epsilon")
        q = generate(model, passage, rng)
        toks = tokenize(q.text)
        assert set(toks) <= set(tokenize(passage.text))
        assert len(set(toks)) == len(toks)  # distinct draws


def test_generate_empty_passage_rejected():
    model = trained_model()
    with pytest.raises(ValueError):
        generate(model, Passage(id="p", text="..!!.."), np.random.default_rng(0))


def test_generate_respects_salience_ratio():
    # Monte Carlo against the sampling law: salience 3:1 within +-5%.
    model = GeneratorModel(
        term_salience={("en", "hot"): 0.75, ("en", "cold"): 0.25},
        query_len_dist={1: 1.0},
        version=1,
    )
    passage = Passage(id="p", text="hot cold")
    rng = np.random.default_rng(123)
    picks = {"hot": 0, "cold": 0}
    n = 10_000
    for _ in range(n):
        picks[generate(model, passage, rng).text] += 1
    assert picks["hot"] / n == pytest.approx(0.75, abs=0.05 * 0.75)


def test_generate_query_id_override():
    model = trained_model()
    q = generate(model, Passage(id="p", text="x y"), np.random.default_rng(0), query_id="gen7")
    assert q.id == "gen7"


# ---------------------------------------------------------------------------
# filter_generated
# ---------------------------------------------------------------------------


def build_retrievers(corpus, dim=4, seed=0):
    params = init_params(sorted({t for p in corpus for t in tokenize(p.text)}), dim=dim, seed=seed)
    return build_index(corpus), build_dense_index(params, corpus), params


def test_filter_single_passage_corpus_accepts():
    corpus = Corpus([Passage(id="only", text="alpha beta gamma")])
    sparse, dense, params = build_retrievers(corpus)
    pair = GeneratedPair(query=Query(id="g", text="alpha"), passage_id="only")
    assert filter_generated(pair, sparse, dense, params)


def test_filter_rejects_when_bm25_prefers_shorter_passage():
    # The generated query's token appears in a much shorter distractor, which
    # BM25 ranks first (verified against the sparse search itself).
    corpus = Corpus(
        [
            Passage(id="src", text="alpha " + " ".join(f"pad{i}" for i in range(30))),
            Passage(id="short", text="alpha"),
        ]
    )
    sparse, dense, params = build_retrievers(corpus)
    pair = GeneratedPair(query=Query(id="g", text="alpha"), passage_id="src")
    top = search_sparse(sparse, pair.query, 1)
    assert top[0][0] == "short"
    assert filter_generated(pair, sparse, dense, params) is False


def test_filter_conjunction_requires_dense_too():
    # sparse top-1 = source (only the source contains the term), but the dense
    # side is rigged so another passage scores higher.
    corpus = Corpus([Passage(id="src", text="alpha"), Passage(id="other", text="beta")])
    sparse = build_index(corpus)
    params = init_params(["alpha", "beta"], dim=1, seed=0)
    params.embedding[params.vocab["alpha"], 0] = 1.0
    params.embedding[params.vocab["beta"], 0] = 5.0
    dense = build_dense_index(params, corpus)
    pair = GeneratedPair(query=Query(id="g", text="alpha"), passage_id="src")
    assert search_sparse(sparse, pair.query, 1)[0][0] == "src"
    assert filter_generated(pair, sparse, dense, params) is False


def test_filter_deterministic_on_unchanged_indexes():
    corpus = Corpus(
        [Passage(id=f"p{i}", text=f"tok{i} tok{(i + 1) % 5} shared") for i in range(5)]
    )
    sparse, dense, params = build_retrievers(corpus, seed=3)
    model = train([(Query(id="q", text="tok1"), Passage(id="p", text="tok1 shared"))])
    rng = np.random.default_rng(0)
    for p in corpus:
        pair = GeneratedPair(query=generate(model, p, rng), passage_id=p.id)
        first = filter_generated(pair, sparse, dense, params)
        assert filter_generated(pair, sparse, dense, params) == first


def test_filter_nested_corpora_monotone():
    # If a pair survives filtering on a corpus, it also survives on any
    # sub-corpus containing its passage: distractors only steal top-1.
    passages = [Passage(id=f"p{i}", text=f"t{i} t{(i + 2) % 7} t{(i + 4) % 7}") for i in range(7)]
    small = Corpus(passages[:4])
    big = Corpus(passages)
    model = train([(Query(id="q", text="t0 t1"), Passage(id="p", text="t0 t1 t2"))])
    sp_small, de_small, params_small = build_retrievers(small, seed=1)
    sp_big, de_big, params_big = build_retrievers(big, seed=1)
    rng = np.random.default_rng(2)
    for p in small:
        pair = GeneratedPair(query=generate(model, p, rng), passage_id=p.id)
        acc_big = filter_generated(pair, sp_big, de_big, params_big)
        acc_small = filter_generated(pair, sp_small, de_small, params_small)
        if acc_big:
            assert acc_small


# ---------------------------------------------------------------------------
# assemble_generated_sample
# ---------------------------------------------------------------------------


def test_assemble_single_passage_corpus(rng):
    corpus = Corpus([Passage(id="only", text="alpha beta")])
    sparse, dense, params = build_retrievers(corpus)
    pair = GeneratedPair(query=Query(id="g", text="alpha"), passage_id="only")
    sample = assemble_generated_sample(pair, sparse, dense, params, corpus, rng, MiningConfig())
    assert sample.positive == "only"
    assert sample.hard_negatives == ()
    assert sample.random_negatives == ()
    assert sample.source == "generated"


def test_assemble_dense_first_then_sparse_dedup(rng):
    # dense top-3 [pos, a, b]; sparse top-3 [pos, c, a]; cap 3 -> [a, b, c]
    corpus = Corpus(
        [
            Passage(id="pos", text="q q q"),
            Passage(id="a", text="q a1"),
            Passage(id="b", text="b1 b1"),
            Passage(id="c", text="q q c1"),
        ]
    )
    sparse = build_index(corpus)
    params = init_params(["q", "a1", "b1", "c1"], dim=1, seed=0)
    for tok, val in (("q", 10.0), ("a1", 5.0), ("b1", 6.0), ("c1", -6.0)):
        params.embedding[params.vocab[tok], 0] = val
    dense = build_dense_index(params, corpus)
    query = Query(id="g", text="q")

    sparse_ids = [pid for pid, _ in search_sparse(sparse, query, 3)]
    assert sparse_ids == ["pos", "c", "a"]
    from lexmine.dense import search_dense

    dense_ids = [pid for pid, _ in search_dense(dense, params, query, 3)]
    assert dense_ids == ["pos", "a", "b"]

    pair = GeneratedPair(query=query, passage_id="pos")
    cfg = MiningConfig(S=1, L=3, n_random_negatives=0, max_hard_negatives=3)
    sample = assemble_generated_sample(pair, sparse, dense, params, corpus, rng, cfg)
    assert sample.hard_negatives == ("a", "b", "c")


def test_assemble_satisfies_sample_invariants(rng):
    corpus = Corpus(
        [Passage(id=f"p{i}", text=f"t{i} t{(i + 1) % 6} t{(i + 3) % 6}") for i in range(6)]
    )
    sparse, dense, params = build_retrievers(corpus, seed=4)
    model = train([(Query(id="q", text="t0 t3"), Passage(id="p", text="t0 t3 t5"))])
    cfg = MiningConfig(S=1, L=3, n_random_negatives=2, max_hard_negatives=3)
    for p in corpus:
        pair = GeneratedPair(query=generate(model, p, rng), passage_id=p.id)
        if filter_generated(pair, sparse, dense, params):
            sample = assemble_generated_sample(pair, sparse, dense, params, corpus, rng, cfg)
            union = (sample.positive, *sample.hard_negatives, *sample.random_negatives)
            assert len(set(union)) == len(union)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_generator_round_trip(tmp_path):
    model = train(
        [
            (Query(id="q1", text="a b", lang="xx"), Passage(id="p1", text="a b c", lang="xx")),
            (Query(id="q2", text="東 京", lang="ja"), Passage(id="p2", text="東京タワー", lang="ja")),
        ]
    )
    path = tmp_path / "gen.json"
    save_generator(model, path)
    loaded = load_generator(path)
    assert loaded.term_salience == model.term_salience
    assert loaded.query_len_dist == model.query_len_dist
    assert loaded.version == model.version
