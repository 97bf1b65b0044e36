import itertools
import math
import warnings

import numpy as np
import pytest

from lexmine.corpus import Corpus, Passage, Query, tokenize
from lexmine.dense import DENSE_BLOCK, bind_encoder, build_dense_index, init_params, search_dense, vocab_from_corpus
from lexmine.mining import MiningConfig, sample_random_negatives
from lexmine.querygen import (
    DENSE_MISS,
    SALIENCE_PSEUDO_COUNT,
    SPARSE_MISS,
    UNSEEN_SALIENCE,
    GeneratedPair,
    GeneratorModel,
    assemble_generated_sample,
    filter_generated,
    generate_query,
    load_generator,
    query_length_cdf,
    save_generator,
    train_generator,
)
from lexmine.sparse import build_index, search_sparse


def train(pairs, model=None):
    """train_generator on (query, passage) ``pairs``, as (query, position)
    pairs of a corpus of their distinct passages."""
    corpus = Corpus(dict.fromkeys(p for _, p in pairs))
    return train_generator(model or GeneratorModel(), [(q, corpus.position(p.id)) for q, p in pairs], corpus)


def salience_weights(model, lang, vocab):
    """Each token id's salience in ``lang``, as ``pipeline.generate`` weighs the corpus tokens."""
    return np.array([model.term_salience.get((lang, t), UNSEEN_SALIENCE) for t in vocab])


def generate(model, passage, rng):
    """``generate_query`` as a pipeline calls it, on the passage's token ids
    in a corpus of that passage alone."""
    tc = Corpus([passage]).tokenized()
    weights = salience_weights(model, passage.lang, tc.vocab)
    return generate_query(query_length_cdf(model), passage.lang, tc.ids, weights, tc.vocab, rng, f"g-{passage.id}")


def reference_generate_query(model, passage, tokens, rng, query_id):
    """The string form that the token-id ``generate_query`` replaced: the
    candidates are the distinct token strings, each weighed by a lookup of
    (language, token) in the salience table."""
    if model.version < 1:
        raise ValueError("generator must be trained before generating")
    candidates = list(dict.fromkeys(tokens))
    if not candidates:
        raise ValueError(f"passage {passage.id!r} has no tokens to sample from")
    lens = list(model.query_len_dist.keys())
    probs = np.array([model.query_len_dist[n] for n in lens])
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    length = lens[int(cdf.searchsorted(rng.random(), side="right"))]
    sal, lang = model.term_salience, passage.lang
    weights = np.array([sal.get((lang, t), UNSEEN_SALIENCE) for t in candidates], dtype=float)
    noise = rng.gumbel(size=len(candidates))
    with np.errstate(divide="ignore"):
        keys = np.log(weights) + noise
    picked = np.lexsort((-noise, -keys))[:length]
    return Query(id=query_id, text=" ".join(candidates[i] for i in picked), lang=passage.lang)


def verdict(v):
    """A ``filter_generated`` verdict as plain data: the reason of a
    rejection, or the accepted rankings' positions as lists."""
    return v if isinstance(v, str) else tuple(ranking.tolist() for ranking in v)


def salience(model, token):
    """The token's English salience as ``generate_query`` weighs it."""
    return model.term_salience.get(("en", token), UNSEEN_SALIENCE)


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
        assert salience(model, tok) > UNSEEN_SALIENCE
    # tokens only in the passage score below the unseen floor
    assert salience(model, "down") < UNSEEN_SALIENCE
    assert salience(model, "never-seen") == UNSEEN_SALIENCE


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
    assert salience(model, "shared") == pytest.approx(salience_value(0.5))
    assert salience(model, "onlyq1") == pytest.approx(salience_value(1.0))
    assert salience(model, "filler") == pytest.approx(salience_value(0.0))
    assert salience(model, "other") == pytest.approx(salience_value(1.0))


def test_train_duplicated_pairs_identical_model():
    pairs = [
        (Query(id="q1", text="a b"), Passage(id="p1", text="a b c")),
        (Query(id="q2", text="c"), Passage(id="p2", text="c d")),
    ]
    once = train(pairs)
    twice = train(pairs + pairs)
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
    assert q.id == "g-p2"


def test_generate_deterministic_under_seed():
    model = trained_model()
    passage = Passage(id="p", text="alpha beta gamma delta")
    a = generate(model, passage, np.random.default_rng(42))
    b = generate(model, passage, np.random.default_rng(42))
    assert a == b
    # the passage's span of a larger corpus's token ids gives the same candidates, in first-occurrence order
    corpus = Corpus([Passage(id="x", text="a b"), passage])
    tc, p = corpus.tokenized(), corpus.position("p")
    span = tc.ids[tc.offsets[p] : tc.offsets[p + 1]]
    assert [tc.vocab[i] for i in span.tolist()] == tokenize(passage.text)
    weights = salience_weights(model, "en", tc.vocab)
    lengths = query_length_cdf(model)
    assert generate_query(lengths, "en", span, weights, tc.vocab, np.random.default_rng(42), "g-p") == a


@pytest.mark.parametrize("seed", range(5))
def test_token_id_generate_query_equals_the_string_form(seed):
    # random passages over a small vocabulary, salience tables of two
    # languages that hold zero weights and leave tokens unseen, random lengths
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(12)]
    passages = [
        Passage(
            id=f"p{i:02d}",
            text=" ".join(vocab[int(t)] for t in rng.integers(len(vocab), size=int(rng.integers(1, 9)))),
            lang=("xx", "yy")[i % 2],
        )
        for i in range(30)
    ]
    corpus = Corpus(passages)
    table = {
        (lang, t): float(rng.choice([0.0, rng.random()]))
        for lang in ("xx", "yy") for t in vocab if rng.random() < 0.7
    }
    assert 0.0 in table.values() and len(table) < 2 * len(vocab)
    lengths = rng.random(4) * (rng.random(4) < 0.8)
    lengths[0] += 0.1
    model = GeneratorModel(table, {n: float(w) for n, w in enumerate(lengths, 1)}, version=1)
    tc = corpus.tokenized()
    weights = {lang: salience_weights(model, lang, tc.vocab) for lang in ("xx", "yy")}
    lengths = query_length_cdf(model)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for round_ in range(3):
        for p, passage in enumerate(corpus):
            span = tc.ids[tc.offsets[p] : tc.offsets[p + 1]]
            qid = f"g{round_}-{passage.id}"
            got = generate_query(lengths, passage.lang, span, weights[passage.lang], tc.vocab, ours, qid)
            assert got == reference_generate_query(model, passage, tokenize(passage.text), theirs, qid)
    assert ours.bit_generator.state == theirs.bit_generator.state


class _NoChoice:
    """A generator whose ``choice`` may not be called; everything else is ``rng``'s."""

    def __init__(self, rng):
        self.rng = rng

    def choice(self, *args, **kwargs):
        raise AssertionError("generate_query called Generator.choice")

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_generate_length_draw_is_choice_without_its_call():
    # lengths 1..5 with uneven mass, a zero inside and at the end
    model = trained_model()
    model.query_len_dist = {1: 0.1, 2: 0.0, 3: 0.45, 4: 0.3, 5: 0.15, 6: 0.0}
    passage = Passage(id="p", text="alpha beta gamma delta epsilon zeta")
    tc = Corpus([passage]).tokenized()
    weights = salience_weights(model, "en", tc.vocab)
    lens = list(model.query_len_dist)
    probs = np.array(list(model.query_len_dist.values()))
    lengths = query_length_cdf(model)
    ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
    drawn = []
    for i in range(1000):
        q = generate_query(lengths, "en", tc.ids, weights, tc.vocab, _NoChoice(ours), f"g{i}")
        want = int(theirs.choice(lens, p=probs / probs.sum()))
        theirs.gumbel(size=len(tc.vocab))
        assert len(tokenize(q.text)) == want
        drawn.append(want)
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert set(drawn) == {1, 3, 4, 5}


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
    with pytest.raises(ValueError, match="query 'g-p'"):
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


def successive_draws_law(weights, length):
    """Every ordered outcome of ``length`` successive draws without
    replacement, proportional to weight, and uniform once only zero weights
    remain, with its exact probability."""
    law = {}
    for outcome in itertools.permutations(range(len(weights)), length):
        p, left = 1.0, list(range(len(weights)))
        for i in outcome:
            total = sum(weights[j] for j in left)
            p *= weights[i] / total if total > 0 else 1.0 / len(left)
            left.remove(i)
        if p > 0:
            law[outcome] = p
    return law


def test_generate_draws_follow_successive_draws_law():
    # zero-weight tokens come only after every positive one, in uniform order
    weights = [0.5, 0.2, 0.2, 0.1, 0.0, 0.0]
    tokens = ["a", "b", "c", "d", "e", "f"]
    model = GeneratorModel(
        term_salience={("en", t): w for t, w in zip(tokens, weights)}, query_len_dist={5: 1.0}, version=1
    )
    passage = Passage(id="p", text=" ".join(tokens))
    law = successive_draws_law(weights, 5)
    assert len(law) == 48 and math.isclose(sum(law.values()), 1.0)
    rng = np.random.default_rng(2019)
    n = 40_000
    counts = dict.fromkeys(law, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(n):
            counts[tuple(tokens.index(t) for t in generate(model, passage, rng).text.split())] += 1
    assert sum(counts.values()) == n  # no outcome outside the law's support
    # 48 outcomes at |z| < 4.5 each: a correct sampler fails with chance below 1e-3
    worst = max(abs(counts[o] - n * p) / math.sqrt(n * p * (1 - p)) for o, p in law.items())
    assert worst < 4.5


# ---------------------------------------------------------------------------
# filter_generated
# ---------------------------------------------------------------------------


def build_retrievers(corpus, dim=4, seed=0):
    params = init_params(sorted({t for p in corpus for t in tokenize(p.text)}), dim=dim, seed=seed)
    return build_index(corpus), build_dense_index(bind_encoder(params, corpus))


def test_filter_single_passage_corpus_accepts():
    corpus = Corpus([Passage(id="only", text="alpha beta gamma")])
    sparse, dense = build_retrievers(corpus)
    pair = GeneratedPair(query=Query(id="g", text="alpha"), position=0)
    assert verdict(filter_generated([pair], sparse, dense, MiningConfig())[0]) == ([0], [0])


def test_filter_rejects_when_bm25_prefers_shorter_passage():
    # The generated query's token appears in a much shorter distractor, which
    # BM25 ranks first (verified against the sparse search itself).
    corpus = Corpus(
        [
            Passage(id="src", text="alpha " + " ".join(f"pad{i}" for i in range(30))),
            Passage(id="short", text="alpha"),
        ]
    )
    sparse, dense = build_retrievers(corpus)
    pair = GeneratedPair(query=Query(id="g", text="alpha"), position=corpus.position("src"))
    top, _ = search_sparse(sparse, ["alpha"], 1)
    assert corpus.ids[top[0]] == "short"
    assert filter_generated([pair], sparse, dense, MiningConfig()) == [SPARSE_MISS]


def test_filter_conjunction_requires_dense_too():
    # sparse top-1 = source (only the source contains the term), but the dense
    # side is rigged so another passage scores higher.
    corpus = Corpus([Passage(id="src", text="alpha"), Passage(id="other", text="beta")])
    sparse = build_index(corpus)
    params = bind_encoder(init_params(["alpha", "beta"], dim=1, seed=0), corpus)
    params.embedding[params.vocab["alpha"], 0] = 1.0
    params.embedding[params.vocab["beta"], 0] = 5.0
    dense = build_dense_index(params)
    pair = GeneratedPair(query=Query(id="g", text="alpha"), position=corpus.position("src"))
    assert corpus.ids[search_sparse(sparse, ["alpha"], 1)[0][0]] == "src"
    assert filter_generated([pair], sparse, dense, MiningConfig()) == [DENSE_MISS]


def test_filter_deterministic_on_unchanged_indexes():
    corpus = Corpus(
        [Passage(id=f"p{i}", text=f"tok{i} tok{(i + 1) % 5} shared") for i in range(5)]
    )
    sparse, dense = build_retrievers(corpus, seed=3)
    model = train([(Query(id="q", text="tok1"), Passage(id="p", text="tok1 shared"))])
    rng = np.random.default_rng(0)
    pairs = [GeneratedPair(query=generate(model, p, rng), position=corpus.position(p.id)) for p in corpus]
    first = list(map(verdict, filter_generated(pairs, sparse, dense, MiningConfig())))
    assert list(map(verdict, filter_generated(pairs, sparse, dense, MiningConfig()))) == first


def test_filter_nested_corpora_monotone():
    # If a pair survives filtering on a corpus, it also survives on any
    # sub-corpus containing its passage: distractors only steal top-1.
    passages = [Passage(id=f"p{i}", text=f"t{i} t{(i + 2) % 7} t{(i + 4) % 7}") for i in range(7)]
    small = Corpus(passages[:4])
    big = Corpus(passages)
    model = train([(Query(id="q", text="t0 t1"), Passage(id="p", text="t0 t1 t2"))])
    sp_small, de_small = build_retrievers(small, seed=1)
    sp_big, de_big = build_retrievers(big, seed=1)
    rng = np.random.default_rng(2)
    queries = [(generate(model, p, rng), p.id) for p in small]

    def accepted(corpus, sparse, dense):
        pairs = [GeneratedPair(query=q, position=corpus.position(pid)) for q, pid in queries]
        return [not isinstance(v, str) for v in filter_generated(pairs, sparse, dense, MiningConfig())]

    for big_verdict, small_verdict in zip(accepted(big, sp_big, de_big), accepted(small, sp_small, de_small)):
        if big_verdict:
            assert small_verdict


def reference_filter(pair, sparse_index, dense_index, cfg):
    """The per-pair filter: BM25 first, then a dense search of the pair's
    query alone for a BM25 hit; ``verdict``'s form of the result."""
    tokens = pair.query.tokens(sparse_index.tokenizer)
    k = cfg.max_hard_negatives + 1
    sparse_top = search_sparse(sparse_index, tokens, k)[0].tolist()
    if sparse_top[:1] != [pair.position]:
        return SPARSE_MISS
    dense_top = search_dense(dense_index, [tokens], k)[0][0].tolist()
    return (sparse_top, dense_top) if dense_top[0] == pair.position else DENSE_MISS


def test_block_filter_equals_per_pair_filter():
    rng = np.random.default_rng(11)
    corpus = Corpus(
        [Passage(id=f"p{i:03d}", text=" ".join(f"t{int(t)}" for t in rng.integers(0, 60, size=6))) for i in range(150)]
    )
    sparse, dense = build_retrievers(corpus, dim=8, seed=2)
    model = train([(Query(id="q", text="t1 t2"), Passage(id="p", text="t1 t2 t3"))])
    pairs = [GeneratedPair(query=generate(model, p, rng), position=corpus.position(p.id)) for p in corpus]
    pairs.append(GeneratedPair(query=Query(id="oov", text="zzz"), position=0))  # no BM25 hit at all
    cfg = MiningConfig(max_hard_negatives=3)
    want = [reference_filter(pair, sparse, dense, cfg) for pair in pairs]
    # a block is one matrix product, a single query a matrix-vector product:
    # the scores' last bits may differ, the rankings do not
    assert [verdict(g) for g in filter_generated(pairs, sparse, dense, cfg)] == want
    assert filter_generated([], sparse, dense, cfg) == []
    # the case covers more than two dense blocks, acceptances, and both kinds of rejection
    assert len(pairs) > 2 * DENSE_BLOCK and want[-1] == SPARSE_MISS
    assert any(not isinstance(w, str) for w in want)
    assert DENSE_MISS in want and SPARSE_MISS in want[:-1]


def test_filter_top1_first_equals_full_ranking_filter(monkeypatch):
    import lexmine.querygen as querygen_mod

    # pb and pa hold one text, so both retrievers tie them; corpus order is not id order
    corpus = Corpus(
        [Passage(id="pb", text="alpha beta"), Passage(id="pa", text="alpha beta"), Passage(id="pc", text="gamma")]
    )
    sparse, dense = build_retrievers(corpus, dim=8, seed=1)
    pa, pb, pc = map(corpus.position, ("pa", "pb", "pc"))
    pairs = [
        GeneratedPair(query=Query(id="g1", text="alpha"), position=pa),  # BM25 tie at the top: pa has the lower id
        GeneratedPair(query=Query(id="g2", text="alpha"), position=pb),  # the same tie, lost to pa
        GeneratedPair(query=Query(id="g3", text="zzz"), position=pa),  # no positive BM25 score at all
        GeneratedPair(query=Query(id="g4", text="gamma"), position=pc),
    ]
    cfg = MiningConfig(max_hard_negatives=1)
    want = [reference_filter(pair, sparse, dense, cfg) for pair in pairs]
    assert [not isinstance(w, str) for w in want] == [True, False, False, True]
    assert want[0][0] == [pa, pb]
    tied = search_sparse(sparse, ["alpha"], 2)[1]
    assert tied[0] == tied[1]
    searched = []
    real = querygen_mod.search_sparse
    monkeypatch.setattr(querygen_mod, "search_sparse", lambda index, tokens, k: searched.append(tokens) or real(index, tokens, k))
    # a block of two is a matrix product, a single query a matrix-vector
    # product: the scores' last bits may differ, the rankings do not
    assert [verdict(g) for g in filter_generated(pairs, sparse, dense, cfg)] == want
    # only the accepted pairs get a full BM25 ranking
    assert searched == [["alpha"], ["gamma"]]


# ---------------------------------------------------------------------------
# assemble_generated_sample
# ---------------------------------------------------------------------------


def test_assemble_single_passage_corpus(rng):
    corpus = Corpus([Passage(id="only", text="alpha beta")])
    sparse, dense = build_retrievers(corpus)
    pair = GeneratedPair(query=Query(id="g", text="alpha"), position=0)
    [rankings] = filter_generated([pair], sparse, dense, MiningConfig())
    sample = assemble_generated_sample(pair, rankings, corpus, rng, MiningConfig())
    assert sample.positive == 0
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
    params = bind_encoder(init_params(vocab_from_corpus(corpus), dim=1, seed=0), corpus)
    for tok, val in (("q", 10.0), ("a1", 5.0), ("b1", 6.0), ("c1", -6.0)):
        params.embedding[params.vocab[tok], 0] = val
    dense = build_dense_index(params)
    query = Query(id="g", text="q")

    sparse_top = search_sparse(sparse, ["q"], 3)[0]
    assert [corpus.ids[p] for p in sparse_top] == ["pos", "c", "a"]
    dense_top = search_dense(dense, [["q"]], 3)[0][0]
    assert [corpus.ids[p] for p in dense_top] == ["pos", "a", "b"]

    pair = GeneratedPair(query=query, position=corpus.position("pos"))
    cfg = MiningConfig(S=1, L=3, n_random_negatives=0, max_hard_negatives=3)
    sample = assemble_generated_sample(pair, (sparse_top, dense_top), corpus, rng, cfg)
    assert [corpus.ids[p] for p in sample.hard_negatives] == ["a", "b", "c"]


def test_assemble_draws_random_negatives_as_mining_does():
    # random negatives come from the given stream, excluding the positive and
    # the capped hard negatives, and the sample keeps the source "generated"
    # passage p{i} is at position i
    corpus = Corpus([Passage(id=f"p{i}", text=f"t{i} t{(i + 1) % 9}") for i in range(9)])
    pair = GeneratedPair(query=Query(id="g", text="t0"), position=0)
    rankings = (np.array([0, 3, 1]), np.array([0, 1, 5, 7]))
    cfg = MiningConfig(S=1, L=4, n_random_negatives=3, max_hard_negatives=2)
    sample = assemble_generated_sample(pair, rankings, corpus, np.random.default_rng(8), cfg)
    want = sample_random_negatives(corpus, {0, 1, 5}, 3, np.random.default_rng(8))
    assert (sample.positive, sample.hard_negatives, sample.source) == (0, (1, 5), "generated")
    assert sample.random_negatives == want


def test_assemble_satisfies_sample_invariants(rng):
    corpus = Corpus(
        [Passage(id=f"p{i}", text=f"t{i} t{(i + 1) % 6} t{(i + 3) % 6}") for i in range(6)]
    )
    sparse, dense = build_retrievers(corpus, seed=4)
    model = train([(Query(id="q", text="t0 t3"), Passage(id="p", text="t0 t3 t5"))])
    cfg = MiningConfig(S=1, L=3, n_random_negatives=2, max_hard_negatives=3)
    pairs = [GeneratedPair(query=generate(model, p, rng), position=corpus.position(p.id)) for p in corpus]
    for pair, rankings in zip(pairs, filter_generated(pairs, sparse, dense, cfg)):
        if not isinstance(rankings, str):
            sample = assemble_generated_sample(pair, rankings, corpus, rng, cfg)
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
