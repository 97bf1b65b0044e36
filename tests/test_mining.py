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


def ranked(ids):
    """Descending dummy scores for an ordered id list."""
    return [(pid, float(len(ids) - i)) for i, pid in enumerate(ids)]


def oracle_mine(sparse_ids, dense_ids, s):
    """Set-comprehension oracle for the mining rule."""
    ss, sd = set(sparse_ids[:s]), set(dense_ids[:s])
    ls, ld = set(sparse_ids), set(dense_ids)
    positives = {p for p in ls | ld if p in ss and p in sd}
    negatives = {p for p in ls | ld if (p in ss and p not in ld) or (p in sd and p not in ls)}
    return positives, negatives


# ---------------------------------------------------------------------------
# mine_pairs
# ---------------------------------------------------------------------------


def test_mine_identical_rankings_all_positive():
    lists = ranked(["p1", "p2", "p3", "p4"])
    sets = mine_pairs(lists, lists, MiningConfig(S=2, L=4))
    assert sets.positives == ("p1", "p2")
    assert sets.negatives == ()


def test_mine_hand_traced_example():
    sparse = ranked(["p1", "p2", "p3", "p4"])
    dense = ranked(["p2", "p5", "p1", "p6"])
    sets = mine_pairs(sparse, dense, MiningConfig(S=2, L=4))
    assert sets.positives == ("p2",)
    assert sets.negatives == ("p5",)


def test_mine_disjoint_lists_s1():
    sparse = ranked(["a1", "a2"])
    dense = ranked(["b1", "b2"])
    sets = mine_pairs(sparse, dense, MiningConfig(S=1, L=2))
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
        MinedSets(positives=("a",), negatives=("b", "a"))


def test_mine_shorter_lists_than_s():
    sparse = ranked(["p1"])
    dense = ranked(["p1", "p2"])
    sets = mine_pairs(sparse, dense, MiningConfig(S=3, L=5))
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
    sets = mine_pairs(ranked(sparse_ids), ranked(dense_ids), MiningConfig(S=S, L=L))
    want_pos, want_neg = oracle_mine(sparse_ids, dense_ids, S)
    assert set(sets.positives) == want_pos and len(sets.positives) == len(want_pos)
    assert set(sets.negatives) == want_neg and len(sets.negatives) == len(want_neg)
    assert not (set(sets.positives) & set(sets.negatives))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mine_shrinking_s_never_adds_positives(data):
    ids = [f"p{i:02d}" for i in range(30)]
    sparse_ids = data.draw(st.permutations(ids)).copy()[:20]
    dense_ids = data.draw(st.permutations(ids)).copy()[:20]
    L = 20
    S = data.draw(st.integers(2, L))
    S_small = data.draw(st.integers(1, S))
    big = mine_pairs(ranked(sparse_ids), ranked(dense_ids), MiningConfig(S=S, L=L))
    small = mine_pairs(ranked(sparse_ids), ranked(dense_ids), MiningConfig(S=S_small, L=L))
    assert set(small.positives) <= set(big.positives)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mine_symmetric_in_inputs(data):
    ids = [f"p{i:02d}" for i in range(25)]
    a = ranked(data.draw(st.permutations(ids)).copy()[:15])
    b = ranked(data.draw(st.permutations(ids)).copy()[:15])
    cfg = MiningConfig(S=data.draw(st.integers(1, 10)), L=15)
    ab = mine_pairs(a, b, cfg)
    ba = mine_pairs(b, a, cfg)
    assert ab.positives == ba.positives
    assert ab.negatives == ba.negatives


# ---------------------------------------------------------------------------
# sample_random_negatives
# ---------------------------------------------------------------------------


def reference_random_negatives(corpus, exclude, n, rng):
    """Oracle: draw from the explicit list of remaining ids, in corpus order."""
    if n <= 0:
        return ()
    candidates = [pid for pid in corpus.ids if pid not in exclude]
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
    # indices >= n_docs name ids the corpus does not hold
    exclude = {f"d{i:03d}" for i in exclude_idx} | {"unknown"}
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_random_negatives(corpus, exclude, n, got_rng)
    assert got == reference_random_negatives(corpus, exclude, n, want_rng)
    # the same draws were made: both streams continue identically
    assert got_rng.random() == want_rng.random()
    assert not set(got) & exclude
    assert len(set(got)) == len(got)


@pytest.mark.parametrize("n", [1, 4, 5, 50])
def test_random_negatives_n_at_or_above_candidate_count(n):
    corpus = shuffled_corpus(np.random.default_rng(0), 9)
    exclude = {"d001", "d004", "d008", "d100"}
    got = sample_random_negatives(corpus, exclude, n, np.random.default_rng(5))
    assert got == reference_random_negatives(corpus, exclude, n, np.random.default_rng(5))
    assert len(got) == min(n, 6)


def test_random_negatives_all_excluded():
    corpus = shuffled_corpus(np.random.default_rng(1), 4)
    rng = np.random.default_rng(2)
    assert sample_random_negatives(corpus, set(corpus.ids) | {"zz"}, 3, rng) == ()
    assert sample_random_negatives(corpus, set(), 0, rng) == ()
    # nothing was drawn
    assert rng.random() == np.random.default_rng(2).random()


# ---------------------------------------------------------------------------
# assemble_mined_sample
# ---------------------------------------------------------------------------


def test_assemble_single_positive(tiny_corpus, rng):
    sets = mine_pairs(
        ranked(["p2", "p1"]), ranked(["p2", "p5"]), MiningConfig(S=1, L=2, n_random_negatives=1)
    )
    # p2 positive; p5 in dense top-1? S=1: s_s={p2}, s_d={p2} -> positives {p2}; negatives empty
    assert sets.positives == ("p2",)
    sets = MinedSets(positives=("p2",), negatives=("p5",))
    samples = assemble_mined_sample(
        Query(id="q", text="banana"), sets, tiny_corpus, rng, MiningConfig(S=1, L=2, n_random_negatives=1)
    )
    assert len(samples) == 1
    s = samples[0]
    assert s.positive == "p2"
    assert s.hard_negatives == ("p5",)
    assert len(s.random_negatives) == 1
    assert s.random_negatives[0] not in {"p2", "p5"}


def test_assemble_empty_positives(tiny_corpus, rng):
    sets = MinedSets(positives=(), negatives=("p1",))
    assert assemble_mined_sample(Query(id="q", text="x"), sets, tiny_corpus, rng, MiningConfig()) == []


def test_assemble_three_positives_share_hard_list(tiny_corpus, rng):
    # Hand trace: S_s={p1..p4}, S_d={p2,p1,p3,x9}; positives = intersection;
    # p4 is in S_s but nowhere in the dense list, x9 in S_d but not sparse.
    sparse = ranked(["p1", "p2", "p3", "p4", "p5"])
    dense = ranked(["p2", "p1", "p3", "x9", "p6"])
    cfg = MiningConfig(S=4, L=5, n_random_negatives=0, max_hard_negatives=8)
    sets = mine_pairs(sparse, dense, cfg)
    assert sets.positives == ("p1", "p2", "p3")
    assert sets.negatives == ("p4", "x9")
    samples = assemble_mined_sample(Query(id="q", text="apple"), sets, tiny_corpus, rng, cfg)
    assert len(samples) == 3
    assert len({s.hard_negatives for s in samples}) == 1
    assert samples[0].hard_negatives == ("p4", "x9")
    # deterministic order: by best rank then id
    assert [s.positive for s in samples] == ["p1", "p2", "p3"]


def test_assemble_hard_negative_order_and_cap(tiny_corpus, rng):
    # negatives with known best ranks: n_a best rank 1 (dense), n_b rank 2 (sparse)
    sets = MinedSets(positives=("p1",), negatives=("n_a", "n_b", "n_c"))
    cfg = MiningConfig(S=1, L=5, n_random_negatives=0, max_hard_negatives=2)
    samples = assemble_mined_sample(Query(id="q", text="apple"), sets, tiny_corpus, rng, cfg)
    assert samples[0].hard_negatives == ("n_a", "n_b")


def test_assemble_deterministic_with_seeded_rng(tiny_corpus):
    sets = MinedSets(positives=("p1",), negatives=())
    cfg = MiningConfig(S=1, L=1, n_random_negatives=2)
    a = assemble_mined_sample(Query(id="q", text="x"), sets, tiny_corpus, np.random.default_rng(5), cfg)
    b = assemble_mined_sample(Query(id="q", text="x"), sets, tiny_corpus, np.random.default_rng(5), cfg)
    assert a == b


def test_mine_pairs_orders_ids_by_best_rank_then_id():
    sparse = ranked(["p3", "p1", "p2"])
    dense = ranked(["p3", "p9", "p8"])
    sets = mine_pairs(sparse, dense, MiningConfig(S=2, L=3))
    assert sets.positives == ("p3",)
    # p9 best rank 2 (dense), p1 best rank 2 (sparse): tie broken by id
    assert sets.negatives == ("p1", "p9")


@pytest.mark.parametrize("source", [None, "labeled", "generated"])
def test_assemble_samples_carry_their_source(tiny_corpus, rng, source):
    sets = MinedSets(positives=("p2", "p1"), negatives=("p3",))
    kwargs = {} if source is None else {"source": source}
    samples = assemble_mined_sample(Query(id="q", text="x"), sets, tiny_corpus, rng, MiningConfig(), **kwargs)
    assert [s.source for s in samples] == [source or "mined"] * 2


def test_assemble_builds_one_sample_per_positive_in_their_order(tiny_corpus, rng):
    sets = MinedSets(positives=("p2", "p1"), negatives=())
    samples = assemble_mined_sample(Query(id="q", text="x"), sets, tiny_corpus, rng, MiningConfig())
    assert [s.positive for s in samples] == ["p2", "p1"]


# ---------------------------------------------------------------------------
# hybrid_fuse
# ---------------------------------------------------------------------------


def test_fuse_identical_rankings_identical():
    lists = [("a", 3.0), ("b", 2.0), ("c", 1.0)]
    for mode in ("sum", "product"):
        fused = hybrid_fuse(lists, lists, mode, 3)
        assert [pid for pid, _ in fused] == ["a", "b", "c"]


def test_fuse_sum_tie_broken_by_id():
    sparse = [("a", 1.0), ("b", 0.0)]
    dense = [("b", 1.0), ("a", 0.0)]
    fused = hybrid_fuse(sparse, dense, "sum", 2)
    assert fused == [("a", 1.0), ("b", 1.0)]


def test_fuse_product_missing_is_zero():
    sparse = [("a", 1.0), ("b", 0.5)]
    dense = [("b", 2.0), ("c", 1.0)]
    fused = dict(hybrid_fuse(sparse, dense, "product", 3))
    assert fused["a"] == 0.0


def test_fuse_degenerate_normalization_all_ones():
    sparse = [("a", 2.0), ("b", 2.0)]
    dense = [("a", 1.0)]
    fused = dict(hybrid_fuse(sparse, dense, "sum", 3))
    assert fused["a"] == 2.0
    assert fused["b"] == 1.0


def test_fuse_validation():
    with pytest.raises(ValueError):
        hybrid_fuse([], [], "avg", 3)
    with pytest.raises(ValueError):
        hybrid_fuse([], [], "sum", 0)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_samples_round_trip(tmp_path, tiny_corpus):
    samples = [
        TrainingSample(
            query=Query(id="q1", text="apple pie", lang="en"),
            positive="p1",
            hard_negatives=("p2", "p3"),
            random_negatives=("p4",),
            source="mined",
        ),
        TrainingSample(
            query=Query(id="g1", text="fig", lang="sw"),
            positive="p4",
            source="generated",
        ),
    ]
    path = tmp_path / "samples.jsonl"
    save_samples(samples, path)
    loaded = load_samples(path, corpus=tiny_corpus)
    assert loaded == samples


def test_load_samples_validates_ids(tmp_path, tiny_corpus):
    samples = [TrainingSample(query=Query(id="q1", text="x"), positive="nope")]
    path = tmp_path / "samples.jsonl"
    save_samples(samples, path)
    with pytest.raises(Exception, match="nope"):
        load_samples(path, corpus=tiny_corpus)
