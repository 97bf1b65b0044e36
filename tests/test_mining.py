import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexmine.corpus import Corpus, Passage, Query
from lexmine.dense import TrainingSample
from lexmine.mining import (
    MinedSets,
    MiningConfig,
    assemble_mined_sample,
    hybrid_fuse,
    load_samples,
    mine_pairs,
    sample_random_negatives,
    save_samples,
)


def rows(*rankings, width=None):
    """Rankings of corpus positions as one 2-D block, each row padded with -1."""
    width = max(map(len, rankings), default=0) if width is None else width
    return np.array([list(r) + [-1] * (width - len(r)) for r in rankings], dtype=np.int64).reshape(len(rankings), width)


def mine_one(sparse_ids, dense_ids, cfg):
    """``mine_pairs`` on one query whose rankings are given as passage names:
    a name's position is its rank among the sorted names, as a corpus's is,
    and the sets come back as names. The sparse row is padded to L."""
    names = sorted({*sparse_ids, *dense_ids})
    at = names.index
    width = max(cfg.L, len(sparse_ids))
    (sets,) = mine_pairs(rows(list(map(at, sparse_ids)), width=width), rows(list(map(at, dense_ids))), cfg)
    return MinedSets(tuple(names[p] for p in sets.positives), tuple(names[p] for p in sets.negatives))


def oracle_mine(sparse_ids, dense_ids, s):
    """Set-comprehension oracle for the mining rule."""
    ss, sd = set(sparse_ids[:s]), set(dense_ids[:s])
    ls, ld = set(sparse_ids), set(dense_ids)
    positives = {p for p in ls | ld if p in ss and p in sd}
    negatives = {p for p in ls | ld if (p in ss and p not in ld) or (p in sd and p not in ls)}
    return positives, negatives


def oracle_order(sets, sparse_ids, dense_ids, s):
    """A set of ``oracle_mine`` in ``mine_pairs``'s order: best rank in either
    top-s prefix, then position (id)."""
    best = {}
    for ranked in (sparse_ids[:s], dense_ids[:s]):
        for rank, p in enumerate(ranked, 1):
            best[p] = min(best.get(p, rank), rank)
    return tuple(sorted(sets, key=lambda p: (best[p], p)))


# ---------------------------------------------------------------------------
# mine_pairs
# ---------------------------------------------------------------------------


def test_mine_identical_rankings_all_positive():
    ids = ["p1", "p2", "p3", "p4"]
    sets = mine_one(ids, ids, MiningConfig(S=2, L=4))
    assert sets.positives == ("p1", "p2")
    assert sets.negatives == ()


def test_mine_hand_traced_example():
    sets = mine_one(["p1", "p2", "p3", "p4"], ["p2", "p5", "p1", "p6"], MiningConfig(S=2, L=4))
    assert sets.positives == ("p2",)
    assert sets.negatives == ("p5",)


def test_mine_disjoint_lists_s1():
    sets = mine_one(["a1", "a2"], ["b1", "b2"], MiningConfig(S=1, L=2))
    assert sets.positives == ()
    assert sets.negatives == ("a1", "b1")


def test_mine_config_validation():
    with pytest.raises(ValueError):
        MiningConfig(S=5, L=3)
    with pytest.raises(ValueError):
        MiningConfig(S=0)
    with pytest.raises(ValueError):
        MiningConfig(n_random_negatives=-1)


def test_mined_sets_disjointness_enforced():
    with pytest.raises(ValueError):
        MinedSets(positives=(1,), negatives=(2, 1))


def test_mine_shorter_lists_than_s():
    sets = mine_one(["p1"], ["p1", "p2"], MiningConfig(S=3, L=5))
    assert sets.positives == ("p1",)
    assert sets.negatives == ("p2",)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mine_matches_oracle(data):
    rng_ids = [f"p{i:02d}" for i in range(60)]
    n1 = data.draw(st.integers(0, 50))
    n2 = data.draw(st.integers(0, 50))
    sparse_ids = data.draw(st.permutations(rng_ids)).copy()[:n1]
    dense_ids = data.draw(st.permutations(rng_ids)).copy()[:n2]
    L = data.draw(st.integers(1, 50))
    S = data.draw(st.integers(1, L))
    sets = mine_one(sparse_ids, dense_ids, MiningConfig(S=S, L=L))
    want_pos, want_neg = oracle_mine(sparse_ids, dense_ids, S)
    assert set(sets.positives) == want_pos and len(sets.positives) == len(want_pos)
    assert set(sets.negatives) == want_neg and len(sets.negatives) == len(want_neg)
    assert not (set(sets.positives) & set(sets.negatives))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_block_mine_pairs_equals_the_set_definition_row_by_row(data):
    # a block of queries at once: sparse rows padded to L with -1, some shorter
    # than S or empty; dense rows min(L, n) wide, narrower than L when n < L
    n = data.draw(st.integers(1, 30))
    L = data.draw(st.integers(1, 25))
    S = data.draw(st.sampled_from([1, L, data.draw(st.integers(1, L))]))
    q = data.draw(st.integers(0, 6))
    sparse, dense = [], []
    for _ in range(q):
        sparse.append(data.draw(st.permutations(range(n)))[: data.draw(st.integers(0, min(L, n)))])
        dense.append(data.draw(st.permutations(range(n)))[: min(L, n)])
    cfg = MiningConfig(S=S, L=L)
    got = mine_pairs(rows(*sparse, width=L), rows(*dense, width=min(L, n)), cfg)
    assert len(got) == q
    for sets, sparse_ids, dense_ids in zip(got, sparse, dense):
        want_pos, want_neg = oracle_mine(sparse_ids, dense_ids, S)
        assert sets.positives == oracle_order(want_pos, sparse_ids, dense_ids, S)
        assert sets.negatives == oracle_order(want_neg, sparse_ids, dense_ids, S)
        assert all(type(p) is int for p in (*sets.positives, *sets.negatives))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mine_shrinking_s_never_adds_positives(data):
    ids = [f"p{i:02d}" for i in range(30)]
    sparse_ids = data.draw(st.permutations(ids)).copy()[:20]
    dense_ids = data.draw(st.permutations(ids)).copy()[:20]
    L = 20
    S = data.draw(st.integers(2, L))
    S_small = data.draw(st.integers(1, S))
    big = mine_one(sparse_ids, dense_ids, MiningConfig(S=S, L=L))
    small = mine_one(sparse_ids, dense_ids, MiningConfig(S=S_small, L=L))
    assert set(small.positives) <= set(big.positives)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mine_symmetric_in_inputs(data):
    ids = [f"p{i:02d}" for i in range(25)]
    a = data.draw(st.permutations(ids)).copy()[:15]
    b = data.draw(st.permutations(ids)).copy()[:15]
    cfg = MiningConfig(S=data.draw(st.integers(1, 10)), L=15)
    ab = mine_one(a, b, cfg)
    ba = mine_one(b, a, cfg)
    assert ab.positives == ba.positives
    assert ab.negatives == ba.negatives


# ---------------------------------------------------------------------------
# sample_random_negatives
# ---------------------------------------------------------------------------


def reference_random_negatives(corpus, exclude, n, rng):
    """Oracle: draw from the explicit list of remaining positions, in corpus order."""
    if n <= 0:
        return ()
    candidates = [p for p in range(len(corpus)) if p not in exclude]
    if not candidates:
        return ()
    picked = rng.choice(len(candidates), size=min(n, len(candidates)), replace=False)
    return tuple(candidates[int(i)] for i in picked)


def shuffled_corpus(rng, n):
    # ids not in sorted order, so corpus order and id order differ
    return Corpus([Passage(id=f"d{int(i):03d}", text="x") for i in rng.permutation(n)])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 30),
    st.integers(-1, 35),
    st.lists(st.integers(0, 40), max_size=40),
)
def test_random_negatives_match_candidate_list_oracle(seed, n_docs, n, exclude_idx):
    corpus = shuffled_corpus(np.random.default_rng(seed), n_docs)
    exclude = {corpus.position(f"d{i:03d}") for i in exclude_idx if i < n_docs}
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_random_negatives(corpus, exclude, n, got_rng)
    assert got == reference_random_negatives(corpus, exclude, n, want_rng)
    # the same draws were made: both streams continue identically
    assert got_rng.random() == want_rng.random()
    assert not set(got) & exclude
    assert len(set(got)) == len(got)
    assert all(type(p) is int and 0 <= p < n_docs for p in got)


@pytest.mark.parametrize("n", [1, 4, 5, 50])
def test_random_negatives_n_at_or_above_candidate_count(n):
    corpus = shuffled_corpus(np.random.default_rng(0), 9)
    exclude = {corpus.position(pid) for pid in ("d001", "d004", "d008")}
    got = sample_random_negatives(corpus, exclude, n, np.random.default_rng(5))
    assert got == reference_random_negatives(corpus, exclude, n, np.random.default_rng(5))
    assert len(got) == min(n, 6)


def test_random_negatives_all_excluded():
    corpus = shuffled_corpus(np.random.default_rng(1), 4)
    rng = np.random.default_rng(2)
    assert sample_random_negatives(corpus, set(range(len(corpus))), 3, rng) == ()
    assert sample_random_negatives(corpus, set(), 0, rng) == ()
    # nothing was drawn
    assert rng.random() == np.random.default_rng(2).random()


# ---------------------------------------------------------------------------
# assemble_mined_sample
# ---------------------------------------------------------------------------


def test_assemble_single_positive(tiny_corpus, rng):
    sets = mine_one(["p2", "p1"], ["p2", "p5"], MiningConfig(S=1, L=2, n_random_negatives=1))
    # p2 positive; p5 in dense top-1? S=1: s_s={p2}, s_d={p2} -> positives {p2}; negatives empty
    assert sets.positives == ("p2",)
    # positions 1 and 3 of tiny_corpus: p2 and p4
    sets = MinedSets(positives=(1,), negatives=(3,))
    samples = assemble_mined_sample(
        Query(id="q", text="banana"), sets, tiny_corpus, rng, MiningConfig(S=1, L=2, n_random_negatives=1)
    )
    assert len(samples) == 1
    s = samples[0]
    assert s.positive == 1
    assert s.hard_negatives == (3,)
    assert len(s.random_negatives) == 1
    assert s.random_negatives[0] not in {1, 3}


def test_assemble_empty_positives(tiny_corpus, rng):
    sets = MinedSets(positives=(), negatives=(0,))
    assert assemble_mined_sample(Query(id="q", text="x"), sets, tiny_corpus, rng, MiningConfig()) == []


def test_assemble_three_positives_share_hard_list(tiny_corpus, rng):
    # Hand trace: S_s={p1..p4}, S_d={p2,p1,p3,x9}; positives = intersection;
    # p4 is in S_s but nowhere in the dense list, x9 in S_d but not sparse.
    sparse = ["p1", "p2", "p3", "p4", "p5"]
    dense = ["p2", "p1", "p3", "x9", "p6"]
    cfg = MiningConfig(S=4, L=5, n_random_negatives=0, max_hard_negatives=8)
    sets = mine_one(sparse, dense, cfg)
    assert sets.positives == ("p1", "p2", "p3")
    assert sets.negatives == ("p4", "x9")
    # the same sets as positions of a seven-passage corpus: p1..p6 are 0..5 and x9 is 6
    corpus = Corpus([Passage(id=pid, text="x") for pid in ["p1", "p2", "p3", "p4", "p5", "p6", "x9"]])
    sets = MinedSets((0, 1, 2), (3, 6))
    samples = assemble_mined_sample(Query(id="q", text="apple"), sets, corpus, rng, cfg)
    assert len(samples) == 3
    assert len({s.hard_negatives for s in samples}) == 1
    assert samples[0].hard_negatives == (3, 6)
    # deterministic order: by best rank then id
    assert [s.positive for s in samples] == [0, 1, 2]


def test_assemble_hard_negative_order_and_cap(tiny_corpus, rng):
    # negatives in mined order: 3 of best rank 1 (dense), then 1 of rank 2 (sparse)
    sets = MinedSets(positives=(0,), negatives=(3, 1, 2))
    cfg = MiningConfig(S=1, L=5, n_random_negatives=0, max_hard_negatives=2)
    samples = assemble_mined_sample(Query(id="q", text="apple"), sets, tiny_corpus, rng, cfg)
    assert samples[0].hard_negatives == (3, 1)


def test_assemble_deterministic_with_seeded_rng(tiny_corpus):
    sets = MinedSets(positives=(0,), negatives=())
    cfg = MiningConfig(S=1, L=1, n_random_negatives=2)
    a = assemble_mined_sample(Query(id="q", text="x"), sets, tiny_corpus, np.random.default_rng(5), cfg)
    b = assemble_mined_sample(Query(id="q", text="x"), sets, tiny_corpus, np.random.default_rng(5), cfg)
    assert a == b


def test_mine_pairs_orders_ids_by_best_rank_then_id():
    sets = mine_one(["p3", "p1", "p2"], ["p3", "p9", "p8"], MiningConfig(S=2, L=3))
    assert sets.positives == ("p3",)
    # p9 best rank 2 (dense), p1 best rank 2 (sparse): tie broken by id
    assert sets.negatives == ("p1", "p9")


@pytest.mark.parametrize("source", [None, "labeled", "generated"])
def test_assemble_samples_carry_their_source(tiny_corpus, rng, source):
    sets = MinedSets(positives=(1, 0), negatives=(2,))
    kwargs = {} if source is None else {"source": source}
    samples = assemble_mined_sample(Query(id="q", text="x"), sets, tiny_corpus, rng, MiningConfig(), **kwargs)
    assert [s.source for s in samples] == [source or "mined"] * 2


def test_assemble_builds_one_sample_per_positive_in_their_order(tiny_corpus, rng):
    sets = MinedSets(positives=(1, 0), negatives=())
    samples = assemble_mined_sample(Query(id="q", text="x"), sets, tiny_corpus, rng, MiningConfig())
    assert [s.positive for s in samples] == [1, 0]


# ---------------------------------------------------------------------------
# hybrid_fuse
# ---------------------------------------------------------------------------


def fuse(sparse, dense, mode, k):
    """``hybrid_fuse`` on rankings given as (position, score) pairs, the sparse
    one padded with -1 as a pipeline's BM25 rows are."""

    def ranking(pairs, pad):
        pairs = [*pairs, *[(-1, 0.0)] * pad]
        return np.array([p for p, _ in pairs], dtype=np.int64), np.array([s for _, s in pairs])

    fused = hybrid_fuse(ranking(sparse, 2), ranking(dense, 0), mode, k)
    assert all(type(p) is int and type(s) is float for p, s in fused)
    return fused


def test_fuse_identical_rankings_identical():
    lists = [(0, 3.0), (1, 2.0), (2, 1.0)]
    for mode in ("sum", "product"):
        fused = fuse(lists, lists, mode, 3)
        assert [p for p, _ in fused] == [0, 1, 2]


def test_fuse_sum_tie_broken_by_id():
    sparse = [(0, 1.0), (1, 0.0)]
    dense = [(1, 1.0), (0, 0.0)]
    fused = fuse(sparse, dense, "sum", 2)
    assert fused == [(0, 1.0), (1, 1.0)]


def test_fuse_product_missing_is_zero():
    sparse = [(0, 1.0), (1, 0.5)]
    dense = [(1, 2.0), (2, 1.0)]
    fused = dict(fuse(sparse, dense, "product", 3))
    assert fused[0] == 0.0


def test_fuse_degenerate_normalization_all_ones():
    sparse = [(0, 2.0), (1, 2.0)]
    dense = [(0, 1.0)]
    fused = dict(fuse(sparse, dense, "sum", 3))
    assert fused[0] == 2.0
    assert fused[1] == 1.0


def test_fuse_validation():
    with pytest.raises(ValueError):
        fuse([], [], "avg", 3)
    with pytest.raises(ValueError):
        fuse([], [], "sum", 0)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_samples_round_trip(tmp_path, tiny_corpus):
    pos = tiny_corpus.position
    samples = [
        TrainingSample(
            query=Query(id="q1", text="apple pie", lang="en"),
            positive=pos("p1"),
            hard_negatives=(pos("p2"), pos("p3")),
            random_negatives=(pos("p4"),),
            source="mined",
        ),
        TrainingSample(
            query=Query(id="g1", text="fig", lang="sw"),
            positive=pos("p4"),
            source="generated",
        ),
    ]
    path = tmp_path / "samples.jsonl"
    save_samples(samples, path, tiny_corpus)
    # the file names passages by id
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert [(r["positive"], r["hard_negatives"], r["random_negatives"]) for r in records] == [
        ("p1", ["p2", "p3"], ["p4"]),
        ("p4", [], []),
    ]
    loaded = load_samples(path, corpus=tiny_corpus)
    assert loaded == samples


def test_load_samples_validates_ids(tmp_path, tiny_corpus):
    # written against a corpus that holds "nope", read against one that does not
    other = Corpus([Passage(id="nope", text="x")])
    samples = [TrainingSample(query=Query(id="q1", text="x"), positive=other.position("nope"))]
    path = tmp_path / "samples.jsonl"
    save_samples(samples, path, other)
    with pytest.raises(Exception, match="nope"):
        load_samples(path, corpus=tiny_corpus)
