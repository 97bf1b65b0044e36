import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexmine.corpus import Corpus, Passage, SynthSpec, TokenizerConfig, synth_benchmark, tokenize
from lexmine.sparse import (
    BM25Params,
    InvertedIndex,
    bm25_score,
    build_index,
    search_sparse,
    top_k,
)

GOLDEN_INDEX = Path(__file__).parent / "data" / "sparse_index_golden.json"

MIXED_PASSAGES = [
    Passage(id="m3", text="東京タワー is tall, 東京 is big 東京", lang="ja"),
    Passage(id="m1", text="กรุงเทพมหานคร เมืองหลวง 123 bangkok bangkok", lang="th"),
    Passage(id="m10", text="서울 특별시 Seoul_city Seoul 서울", lang="ko"),
    Passage(id="m2", text="Ünïcode wörds, a b cc ddd! 東 tall", lang="de"),
    Passage(id="m0", text="!!! ...", lang="xx"),
]


def named(corpus, result):
    """A search's (positions, scores) arrays as (passage id, score) pairs,
    each position named through ``corpus.ids``."""
    positions, scores = result
    assert positions.dtype == np.int64 and scores.dtype == np.float64
    return [(corpus.ids[p], s) for p, s in zip(positions.tolist(), scores.tolist())]


def brute_force_search(index, corpus, query_text, k):
    """Oracle: score every passage, drop zeros, sort by (score desc, id asc)."""
    tokens = tokenize(query_text, index.tokenizer)
    scored = []
    for pid in corpus.ids:
        s = bm25_score(index, tokens, pid)
        if s > 0.0:
            scored.append((pid, s))
    scored.sort(key=lambda kv: (-kv[1], kv[0]))
    return scored[:k]


def reference_weight(index, term, tf, dl):
    """Oracle: one posting's BM25 weight, as Python float arithmetic."""
    k1, b = index.params.k1, index.params.b
    norm = tf + k1 * (1.0 - b + b * dl / index.avgdl)
    return index.idf(term) * tf * (k1 + 1.0) / norm


def listed_index(corpus, tok=TokenizerConfig(), params=BM25Params()):
    """An index from plain posting lists counted here, as perfbench/checks.py builds one."""
    postings: dict[str, dict[str, int]] = {}
    doc_len: dict[str, int] = {}
    for p in corpus:
        toks = tokenize(p.text, tok)
        doc_len[p.id] = len(toks)
        for t in toks:
            tfs = postings.setdefault(t, {})
            tfs[p.id] = tfs.get(p.id, 0) + 1
    return InvertedIndex(
        postings={t: sorted(tfs.items()) for t, tfs in postings.items()},
        doc_len=doc_len,
        N=len(corpus),
        avgdl=sum(doc_len.values()) / len(corpus),
        params=params,
        tokenizer=tok,
    )


def posting_lists(index):
    """The index's postings as plain lists, term -> [(passage id, tf), ...], in row order."""
    p = index.postings
    lists = {}
    for term in sorted(p.row, key=p.row.__getitem__):
        lo, hi = p.span(term)
        lists[term] = [(p.ids[r], tf) for r, tf in zip(p.rank[lo:hi].tolist(), p.tf[lo:hi].tolist())]
    return lists


def impacts_by_term(index):
    out, lo = {}, 0
    for term, plist in posting_lists(index).items():
        out[term] = index.impact[lo : lo + len(plist)].tolist()
        lo += len(plist)
    return out


def golden_corpus():
    return Corpus([*random_corpus(np.random.default_rng(2024), n_docs=30), *MIXED_PASSAGES])


def random_corpus(rng, n_docs, vocab=40, max_len=12):
    passages = []
    for i in range(n_docs):
        length = int(rng.integers(1, max_len + 1))
        toks = [f"w{int(rng.integers(vocab))}" for _ in range(length)]
        passages.append(Passage(id=f"d{i:03d}", text=" ".join(toks)))
    return Corpus(passages)


# ---------------------------------------------------------------------------
# build_index
# ---------------------------------------------------------------------------


def test_build_single_doc():
    corpus = Corpus([Passage(id="d", text="a b a")])
    index = build_index(corpus)
    assert posting_lists(index) == {"a": [("d", 2)], "b": [("d", 1)]}
    assert index.doc_len == {"d": 3}
    assert index.avgdl == 3.0
    assert index.N == 1


def test_build_two_docs_stats():
    corpus = Corpus([Passage(id="d1", text="x"), Passage(id="d2", text="x y")])
    index = build_index(corpus)
    assert index.N == 2
    assert index.avgdl == 1.5
    assert index.df("x") == 2
    assert index.df("y") == 1


def test_build_deterministic(tiny_corpus):
    a = build_index(tiny_corpus)
    b = build_index(tiny_corpus)
    assert posting_lists(a) == posting_lists(b)
    assert a.doc_len == b.doc_len
    assert a.avgdl == b.avgdl


def test_build_empty_corpus_rejected():
    with pytest.raises(ValueError):
        build_index(Corpus([]))


def test_index_invariants(tiny_corpus):
    index = build_index(tiny_corpus)
    assert math.isclose(sum(index.doc_len.values()) / index.N, index.avgdl)
    for term, plist in posting_lists(index).items():
        pids = [pid for pid, _ in plist]
        assert pids == sorted(pids)
        assert all(pid in index.doc_len for pid in pids)


# ---------------------------------------------------------------------------
# bm25_score
# ---------------------------------------------------------------------------


def test_score_no_overlap_is_zero(tiny_corpus):
    index = build_index(tiny_corpus)
    assert bm25_score(index, ["zebra"], "p1") == 0.0


def test_score_hand_computed_ln2():
    # N=2, df(x)=1, doc "x" with dl=1=avgdl, k1=0.9, b=0.4:
    # idf = ln(1 + 1.5/1.5) = ln 2 and the tf factor cancels to 1.
    corpus = Corpus([Passage(id="d1", text="x"), Passage(id="d2", text="y")])
    index = build_index(corpus, params=BM25Params(k1=0.9, b=0.4))
    assert bm25_score(index, ["x"], "d1") == pytest.approx(math.log(2.0), abs=1e-9)


def test_score_duplicate_query_terms_deduped(tiny_corpus):
    index = build_index(tiny_corpus)
    assert bm25_score(index, ["apple", "apple"], "p1") == bm25_score(index, ["apple"], "p1")


def test_score_unknown_passage(tiny_corpus):
    index = build_index(tiny_corpus)
    with pytest.raises(KeyError):
        bm25_score(index, ["apple"], "nope")


def test_score_non_negative(tiny_corpus):
    index = build_index(tiny_corpus)
    for pid in tiny_corpus.ids:
        assert bm25_score(index, ["apple", "banana", "cherry"], pid) >= 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_score_tf_monotonicity(seed):
    # Replacing a filler token with one more copy of the query term keeps dl
    # and df fixed and must not decrease the score.
    rng = np.random.default_rng(seed)
    filler = ["f1", "f2", "f3", "f4"]
    base_tf = int(rng.integers(1, 4))
    dl = base_tf + 4
    doc_lo = ["x"] * base_tf + filler
    doc_hi = ["x"] * (base_tf + 1) + filler[:-1]
    other = " ".join(f"o{int(rng.integers(10))}" for _ in range(int(rng.integers(1, 8))))
    corpus_lo = Corpus([Passage(id="d", text=" ".join(doc_lo)), Passage(id="e", text=other or "o0")])
    corpus_hi = Corpus([Passage(id="d", text=" ".join(doc_hi)), Passage(id="e", text=other or "o0")])
    lo = bm25_score(build_index(corpus_lo), ["x"], "d")
    hi = bm25_score(build_index(corpus_hi), ["x"], "d")
    assert len(doc_lo) == len(doc_hi) == dl
    assert hi >= lo


# ---------------------------------------------------------------------------
# search_sparse
# ---------------------------------------------------------------------------


def test_search_equals_brute_force_small():
    rng = np.random.default_rng(42)
    for trial in range(20):
        corpus = random_corpus(rng, n_docs=int(rng.integers(2, 40)))
        index = build_index(corpus)
        q_text = " ".join(f"w{int(rng.integers(50))}" for _ in range(int(rng.integers(1, 5))))
        got = named(corpus, search_sparse(index, tokenize(q_text), k=len(corpus)))
        want = brute_force_search(index, corpus, q_text, k=len(corpus))
        assert got == want


def test_search_unseen_terms_empty(tiny_corpus):
    index = build_index(tiny_corpus)
    assert named(tiny_corpus, search_sparse(index, tokenize("zebra yak"), 10)) == []


def test_search_tie_broken_by_id():
    corpus = Corpus([Passage(id="b", text="x"), Passage(id="a", text="x")])
    index = build_index(corpus)
    result = named(corpus, search_sparse(index, tokenize("x"), 2))
    assert [pid for pid, _ in result] == ["a", "b"]
    assert result[0][1] == result[1][1]


def test_search_k_is_prefix_of_larger_k(tiny_corpus):
    index = build_index(tiny_corpus)
    q = tokenize("apple banana cherry fig")
    small = named(tiny_corpus, search_sparse(index, q, 2))
    large = named(tiny_corpus, search_sparse(index, q, 4))
    assert large[: len(small)] == small


def test_search_k_validated(tiny_corpus):
    index = build_index(tiny_corpus)
    with pytest.raises(ValueError):
        search_sparse(index, tokenize("apple"), 0)


def test_search_excludes_zero_scores(tiny_corpus):
    index = build_index(tiny_corpus)
    result = named(tiny_corpus, search_sparse(index, tokenize("apple"), 10))
    assert {pid for pid, _ in result} == {"p1", "p4"}
    assert all(score > 0 for _, score in result)


def test_bm25_params_validation():
    with pytest.raises(ValueError):
        BM25Params(k1=-0.1)
    with pytest.raises(ValueError):
        BM25Params(b=1.5)


# ---------------------------------------------------------------------------
# precomputed impacts and the posting-list view
# ---------------------------------------------------------------------------


SYNTH_CORPUS = synth_benchmark(SynthSpec(topics_per_lang=10), seed=3).corpus


@pytest.mark.parametrize("params", [BM25Params(), BM25Params(k1=1.2, b=0.75), BM25Params(k1=0.0, b=1.0)])
@pytest.mark.parametrize("which", ["synthetic", "mixed_script"])
def test_impacts_equal_reference_weight_exactly(which, params):
    corpus = SYNTH_CORPUS if which == "synthetic" else golden_corpus()
    index = build_index(corpus, params=params)
    lo = 0
    for term, plist in posting_lists(index).items():
        for j, (pid, tf) in enumerate(plist, lo):
            assert index.impact[j] == reference_weight(index, term, tf, index.doc_len[pid])
        lo += len(plist)
    assert lo == len(index.impact)


@pytest.mark.parametrize("which", ["synthetic", "mixed_script"])
def test_impacts_equal_per_term_idf_construction(which):
    # the idf column from the postings' sizes is the per-term index.idf lookup, bit for bit
    index = build_index(SYNTH_CORPUS if which == "synthetic" else golden_corpus())
    k1, b, p = index.params.k1, index.params.b, index.postings
    norm = np.array([index.doc_len[pid] for pid in p.ids], dtype=np.float64)[p.rank]
    norm *= b
    norm /= index.avgdl
    norm += 1.0 - b
    norm *= k1
    norm += p.tf
    want = np.repeat([index.idf(t) for t in posting_lists(index)], np.diff(p.indptr))
    want *= p.tf
    want *= k1 + 1.0
    want /= norm
    assert np.array_equal(index.impact, want)


def test_impacts_built_on_first_search_only(tiny_corpus):
    index = build_index(tiny_corpus)
    assert bm25_score(index, ["apple"], "p1") > 0.0
    assert "impact" not in vars(index)
    first = named(tiny_corpus, search_sparse(index, ["apple"], 3))
    impact = vars(index)["impact"]
    assert named(tiny_corpus, search_sparse(index, ["apple"], 3)) == first
    assert vars(index)["impact"] is impact


@pytest.mark.parametrize("which", ["synthetic", "mixed_script"])
def test_listed_index_equals_build_index(which):
    corpus = SYNTH_CORPUS if which == "synthetic" else golden_corpus()
    tok = TokenizerConfig(min_token_len=2) if which == "synthetic" else TokenizerConfig()
    params = BM25Params(k1=1.1, b=0.6)
    built, listed = build_index(corpus, tok, params), listed_index(corpus, tok, params)
    assert sorted(posting_lists(built).items()) == sorted(posting_lists(listed).items())
    assert impacts_by_term(listed) == impacts_by_term(built)
    rng = np.random.default_rng(8)
    terms = list(posting_lists(built))
    for _ in range(25):
        text = " ".join(terms[int(i)] for i in rng.integers(len(terms), size=int(rng.integers(1, 5))))
        text += " never-seen-term"
        qtok = tokenize(text, tok)
        assert named(corpus, search_sparse(listed, qtok, 20)) == named(corpus, search_sparse(built, qtok, 20))
        for pid in corpus.ids[:40]:
            assert bm25_score(listed, qtok, pid) == bm25_score(built, qtok, pid)
    for term in [*terms, "never-seen-term"]:
        assert listed.df(term) == built.df(term)
        assert listed.idf(term) == built.idf(term)


@pytest.mark.parametrize("built", [True, False])
def test_postings_read_the_term_rows_and_find_tf_by_id(tiny_corpus, built):
    index = build_index(tiny_corpus) if built else listed_index(tiny_corpus)
    if built:
        # the corpus's own token map, not a copy
        assert index.postings.row is tiny_corpus.tokenized(index.tokenizer).index
    assert list(index.postings.row) == ["apple", "banana", "cherry", "date", "fig"]
    assert posting_lists(index)["apple"] == [("p1", 2), ("p4", 1)]
    assert index.postings.span("zebra") == (0, 0) and index.df("zebra") == 0
    tfs = {(t, pid): tf for t, plist in posting_lists(index).items() for pid, tf in plist}
    for term in ["zebra", *index.postings.row]:
        for pid in tiny_corpus.ids:
            assert index.postings.tf_of(term, pid) == tfs.get((term, pid), 0)
    for pid in ("p0", "p10", "p5", "", "zz"):
        with pytest.raises(KeyError):
            index.postings.tf_of("apple", pid)


def test_build_index_matches_golden_index():
    # the golden file was written by the index code that kept postings as lists
    golden = json.loads(GOLDEN_INDEX.read_text(encoding="utf-8"))
    index = build_index(golden_corpus(), TokenizerConfig(min_token_len=1), BM25Params(k1=1.2, b=0.75))
    # terms in sorted order, each with its (passage id, tf) pairs in ascending id order
    assert [(t, [[pid, tf] for pid, tf in plist]) for t, plist in posting_lists(index).items()] == list(
        golden["postings"].items()
    )
    assert list(index.doc_len.items()) == sorted(golden["doc_len"].items())
    assert index.N == golden["N"]
    assert index.avgdl == golden["avgdl"]
    assert index.params == BM25Params(**golden["params"])
    assert index.tokenizer == TokenizerConfig(**golden["tokenizer"])


# ---------------------------------------------------------------------------
# top_k
# ---------------------------------------------------------------------------


def reference_top_k(scores, k, candidates=None):
    """Oracle: a full lexsort of the candidates by (score desc, index asc);
    ``top_k``'s, and ``dense._block_top_k``'s per row."""
    idx = np.arange(len(scores)) if candidates is None else np.asarray(candidates)
    order = np.lexsort((idx, -scores[idx]))
    return idx[order][:k]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 60),
    st.integers(1, 70),
    st.sampled_from([1, 2, 3, 0]),
    st.booleans(),
    st.integers(0, 3),
)
def test_top_k_equals_full_lexsort(seed, n, k, levels, subset, n_nan):
    rng = np.random.default_rng(seed)
    # few distinct values force ties at the k-th position; levels=0 makes all scores equal
    scores = np.round(rng.normal(size=n) * levels) if levels else np.full(n, 0.5)
    scores[rng.integers(n, size=min(n_nan, n))] = np.nan
    candidates = np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)) if subset else np.arange(n)
    got = top_k(scores, k, candidates)
    assert got.tolist() == reference_top_k(scores, k, candidates).tolist()


@pytest.mark.parametrize("k", [1, 3, 4, 5, 100])
def test_top_k_ties_at_the_boundary_go_to_lower_index(k):
    scores = np.array([3.0, 2.0, 1.0, 2.0, 2.0])
    want = [0, 1, 3, 4, 2][:k]
    assert top_k(scores, k, np.arange(5)).tolist() == want
    assert reference_top_k(scores, k).tolist() == want


def test_top_k_nan_sorts_last():
    scores = np.array([np.nan, 1.0, np.nan, 2.0, 1.0])
    assert top_k(scores, 2, np.arange(5)).tolist() == [3, 1]
    assert top_k(scores, 4, np.arange(5)).tolist() == [3, 1, 4, 0]
    assert top_k(scores, 1, np.array([0, 2])).tolist() == [0]
