import json
import sys
import unicodedata
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexmine.corpus import (
    Corpus,
    DataFormatError,
    Judgment,
    JudgmentSet,
    Passage,
    Query,
    QuerySet,
    SynthSpec,
    TokenizerConfig,
    load_passages,
    load_qrels,
    load_queries,
    save_passages,
    save_qrels,
    save_queries,
    synth_benchmark,
    tokenize,
)
from lexmine.corpus import _CHAR_SPLIT_RANGES
from lexmine.dense import bind_encoder, corpus_token_rows, init_params, vocab_from_corpus
from lexmine.sparse import build_index
from test_sparse import posting_lists

# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------


def test_tokenize_lowercase_split():
    assert tokenize("The Cat sat") == ["the", "cat", "sat"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_cjk_per_codepoint():
    # Oracle: per-codepoint CJK-range check applied by hand. 東/京 are CJK
    # unified ideographs, タ/ワ/ー sit in the katakana block.
    assert tokenize("東京タワー is tall") == ["東", "京", "タ", "ワ", "ー", "is", "tall"]


def test_tokenize_cjk_split_off_keeps_runs():
    cfg = TokenizerConfig(cjk_char_split=False)
    assert tokenize("東京タワー is tall", cfg) == ["東京タワー", "is", "tall"]


def test_tokenize_min_token_len():
    cfg = TokenizerConfig(min_token_len=3)
    assert tokenize("a an the cat", cfg) == ["the", "cat"]


def test_tokenize_punctuation_and_digits():
    assert tokenize("foo-bar v2.0, baz!") == ["foo", "bar", "v2", "0", "baz"]


@pytest.mark.parametrize(
    "cfg", [TokenizerConfig(), TokenizerConfig(min_token_len=2), TokenizerConfig(cjk_char_split=False)]
)
def test_tokenize_occurrences_share_one_string(cfg):
    first = tokenize("Tall towers, 東京 towers", cfg)
    again = tokenize("the towers are TALL. 東京", cfg)
    by_text = {}
    for t in first + again:
        assert by_text.setdefault(t, t) is t, t
    assert first[1] is first[-1] is again[1]


def test_tokenizer_config_rejects_bad_min_len():
    with pytest.raises(ValueError):
        TokenizerConfig(min_token_len=0)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.characters(max_codepoint=0x2FF), max_size=80))
def test_tokenize_idempotent_on_non_cjk(text):
    once = tokenize(text)
    again = tokenize(" ".join(once))
    assert once == again


def _is_char_split(cp: int) -> bool:
    for lo, hi in _CHAR_SPLIT_RANGES:
        if lo <= cp <= hi:
            return True
    return False


def _reference_tokenize(text: str, cfg: TokenizerConfig = TokenizerConfig()) -> list[str]:
    """The tokenizer's definition, one codepoint at a time: the oracle for the regex."""
    if cfg.lowercase:
        text = text.lower()
    category, split = unicodedata.category, cfg.cjk_char_split
    tokens: list[str] = []
    buf: list[str] = []
    for ch in text:
        if split and _is_char_split(ord(ch)):
            if buf:
                tokens.append("".join(buf))
                buf.clear()
            tokens.append(ch)
        elif category(ch)[0] in ("L", "N"):
            buf.append(ch)
        else:
            if buf:
                tokens.append("".join(buf))
                buf.clear()
    if buf:
        tokens.append("".join(buf))
    if cfg.min_token_len > 1:
        tokens = [t for t in tokens if len(t) >= cfg.min_token_len]
    return tokens


ALL_TOKENIZER_CONFIGS = [
    TokenizerConfig(lowercase=lc, cjk_char_split=split, min_token_len=n)
    for lc in (True, False)
    for split in (True, False)
    for n in (1, 2)
]


def test_tokenize_matches_reference_on_every_codepoint():
    # Each codepoint appears doubled between two letters, so the test sees
    # whether it joins a run, splits one, or stands alone.
    text = "".join(
        f"a{chr(cp)}{chr(cp)}b " for cp in range(sys.maxunicode + 1) if not 0xD800 <= cp <= 0xDFFF
    )
    for cfg in (TokenizerConfig(), TokenizerConfig(cjk_char_split=False), TokenizerConfig(lowercase=False)):
        assert tokenize(text, cfg) == _reference_tokenize(text, cfg), cfg


@settings(max_examples=300, deadline=None)
@given(
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80),
    st.sampled_from(ALL_TOKENIZER_CONFIGS),
)
def test_tokenize_matches_reference(text, cfg):
    assert tokenize(text, cfg) == _reference_tokenize(text, cfg)


def test_tokenize_matches_reference_on_every_ascii_pair():
    # ASCII text takes the str.translate branch: every ordered pair of ASCII
    # characters between two letters, each pair its own text, so no non-ASCII
    # character sends it to the regex.
    texts = [f"a{chr(c)}{chr(d)}b" for c in range(128) for d in range(128)]
    for cfg in ALL_TOKENIZER_CONFIGS:
        for text in texts:
            assert tokenize(text, cfg) == _reference_tokenize(text, cfg), (text, cfg)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.characters(max_codepoint=0x7F), max_size=80), st.sampled_from(ALL_TOKENIZER_CONFIGS))
def test_tokenize_matches_reference_on_ascii_text(text, cfg):
    assert tokenize(text, cfg) == _reference_tokenize(text, cfg)


MIXED_SCRIPT_CORPUS = Corpus(
    [
        Passage(id="p3", text="東京タワー is tall, 東京 is big", lang="ja"),
        Passage(id="p1", text="กรุงเทพมหานคร เมืองหลวง 123 bangkok", lang="th"),
        Passage(id="p10", text="서울 특별시 Seoul_city Seoul", lang="ko"),
        Passage(id="p2", text="Ünïcode wörds, a b cc ddd!", lang="de"),
        Passage(id="p0", text="!!! ...", lang="xx"),
    ]
)


def _reference_postings(corpus: Corpus, cfg: TokenizerConfig):
    postings: dict[str, dict[str, int]] = {}
    doc_len: dict[str, int] = {}
    for p in corpus:
        tokens = _reference_tokenize(p.text, cfg)
        doc_len[p.id] = len(tokens)
        for t in tokens:
            tf = postings.setdefault(t, {})
            tf[p.id] = tf.get(p.id, 0) + 1
    return {t: sorted(tfs.items()) for t, tfs in sorted(postings.items())}, doc_len


# ASCII passages take the tokenizer's str.translate branch, the others its
# regex; the two share tokens, so their ids must meet in one vocabulary.
ASCII_AND_CJK_CORPUS = Corpus(
    [
        Passage(id="a1", text="Tokyo tower", lang="en"),
        Passage(id="a0", text="東京 tokyo", lang="ja"),
        Passage(id="a2", text="東京タワー: TOKYO_TOWER 333m", lang="ja"),
        Passage(id="a3", text="tower 333M, tokyo!", lang="en"),
    ]
)


@pytest.mark.parametrize("cfg", ALL_TOKENIZER_CONFIGS)
@pytest.mark.parametrize("which", ["synthetic", "mixed_script", "ascii_and_cjk"])
def test_tokenized_corpus_derivations_match_per_passage_construction(which, cfg):
    corpus = {
        "synthetic": synth_benchmark(SMALL_SPEC, seed=4).corpus,
        "mixed_script": MIXED_SCRIPT_CORPUS,
        "ascii_and_cjk": ASCII_AND_CJK_CORPUS,
    }[which]
    postings, doc_len = _reference_postings(corpus, cfg)
    index = build_index(corpus, cfg)
    assert list(posting_lists(index).items()) == list(postings.items())
    assert list(index.doc_len.items()) == list(doc_len.items())
    vocab = sorted({t for p in corpus for t in _reference_tokenize(p.text, cfg)})
    assert vocab_from_corpus(corpus, cfg) == tuple(vocab)
    # an encoder of the corpus's tokens in reverse row order, bound to the corpus
    params = bind_encoder(init_params(vocab[::-1], dim=2), corpus, cfg)
    tc = corpus_token_rows(params, corpus, cfg)
    for i, p in enumerate(corpus):
        want = [params.vocab[t] for t in _reference_tokenize(p.text, cfg)]
        assert tc.ids[tc.offsets[i] : tc.offsets[i + 1]].tolist() == want
    # one that misses every other corpus token and knows one extra pools no passage
    other = init_params(["zz-not-in-corpus", *vocab[::-2]], dim=2)
    with pytest.raises(DataFormatError):
        bind_encoder(other, corpus, cfg)
    with pytest.raises(ValueError):
        corpus_token_rows(other, corpus, cfg)


def test_corpus_tokenized_memo_follows_config():
    corpus = Corpus([Passage(id="p1", text="東京 Tower")])
    split = corpus.tokenized()
    assert corpus.tokenized() is split
    assert split.vocab == ("tower", "京", "東")
    assert split.ids.dtype == np.int32 and split.offsets.tolist() == [0, 3]
    joined = corpus.tokenized(TokenizerConfig(cjk_char_split=False))
    assert joined.vocab == ("tower", "東京")
    assert corpus.tokenized() is not split and corpus.tokenized().vocab == split.vocab


def test_query_tokens_memo_follows_config():
    query, empty = Query(id="q1", text="東京 Tower"), Query(id="q2", text="")
    split = query.tokens()
    assert split == ["東", "京", "tower"] and empty.tokens() == []
    assert query.tokens() is split
    joined = query.tokens(TokenizerConfig(cjk_char_split=False))
    assert joined == ["東京", "tower"] and empty.tokens(TokenizerConfig(cjk_char_split=False)) == []
    assert query.tokens() is not split and query.tokens() == split


def test_query_memo_leaves_equality_and_hash_alone():
    query, fresh = Query(id="q1", text="a b"), Query(id="q1", text="a b")
    query.tokens()
    assert query == fresh and hash(query) == hash(fresh) and {query: 1}[fresh] == 1
    assert "_tokens" not in repr(query)


# ---------------------------------------------------------------------------
# containers and loading
# ---------------------------------------------------------------------------


def test_passage_invariants():
    with pytest.raises(ValueError):
        Passage(id="", text="x")
    with pytest.raises(ValueError):
        Passage(id="p", text="   ")


_WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]


@pytest.mark.parametrize("loader", [load_passages, load_queries])
@pytest.mark.parametrize(
    "bad_id",
    ["p 1", "p\t1", "p1\n", "p\u00a01", "p\u30001"]
    + [f"p{c}1" for c in _WHITESPACE if c not in " \t\u00a0\u3000"],
)
def test_loaders_reject_ids_with_whitespace(tmp_path, loader, bad_id):
    # run files and qrels split lines on whitespace, so such an id could not be read back
    path = tmp_path / "records.jsonl"
    path.write_text(
        json.dumps({"id": "ok", "text": "fine"}) + "\n" + json.dumps({"id": bad_id, "text": "fine"}) + "\n"
    )
    with pytest.raises(DataFormatError, match="whitespace") as exc:
        loader(path)
    assert exc.value.line == 2


@pytest.mark.parametrize("loader", [load_passages, load_queries])
@pytest.mark.parametrize("lang", [None, 5, ["en"]])
def test_loaders_reject_non_string_lang(tmp_path, loader, lang):
    # str(lang) used to accept these as the languages 'None', '5' and "['en']"
    path = tmp_path / "records.jsonl"
    path.write_text(
        json.dumps({"id": "ok", "text": "fine"}) + "\n" + json.dumps({"id": "x", "text": "fine", "lang": lang}) + "\n"
    )
    with pytest.raises(DataFormatError, match="field 'lang' must be a string") as exc:
        loader(path)
    assert exc.value.line == 2


@pytest.mark.parametrize("record", [Passage, Query])
def test_ids_starting_with_a_byte_order_mark_are_rejected(record):
    # first in a run file or qrels, such an id reads back as a byte order mark
    with pytest.raises(ValueError, match="U\\+FEFF"):
        record(id="\ufeffq1", text="x")
    assert record(id="q\ufeff1", text="x").id == "q\ufeff1"


@pytest.mark.parametrize("qid, pid", [("\ufeffq", "p"), ("q", "\ufeffp"), ("q 1", "p"), ("q", "")])
def test_judgment_ids_follow_the_record_id_rules(qid, pid):
    # save_qrels would write such an id into a file that load_qrels refuses
    with pytest.raises(ValueError, match="id"):
        Judgment(qid, pid, 1)


@pytest.mark.parametrize("collection, record", [(Corpus, Passage), (QuerySet, Query)])
@pytest.mark.parametrize("ids", [[], ["b"], ["p10", "p1", "p2", "p", "p1a", "東京", "東", "é", "e", "Z", "z", "_"]])
def test_collections_hold_ascending_id_order_whatever_the_input_order(collection, record, ids):
    for given in (ids, ids[::-1]):
        held = collection([record(id=rid, text="x") for rid in given])
        assert held.ids == sorted(ids)
        assert [r.id for r in held] == sorted(ids)
    if collection is Corpus:
        # a passage's position is its rank in ascending id order
        assert [held.position(pid) for pid in ids] == [sorted(ids).index(pid) for pid in ids]
        assert [held.id_at(i) for i in range(len(ids))] == sorted(ids)


def test_corpus_rejects_duplicate_ids():
    with pytest.raises(DataFormatError, match="p1"):
        Corpus([Passage(id="p1", text="a"), Passage(id="p1", text="b")])


@pytest.mark.parametrize("collection, record", [(Corpus, Passage), (QuerySet, Query)])
def test_duplicate_id_error_names_the_first_duplicate_in_input_order(collection, record):
    # 'z' repeats before 'b' does, although 'b' sorts first
    with pytest.raises(DataFormatError, match="id 'z'$"):
        collection([record(id=rid, text="x") for rid in ("b", "z", "a", "z", "b")])


def test_load_passages_two_lines(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text(
        json.dumps({"id": "p1", "text": "hello world", "lang": "en"})
        + "\n"
        + json.dumps({"id": "p2", "text": "bonjour", "lang": "fr"})
        + "\n"
    )
    corpus = load_passages(path)
    assert len(corpus) == 2
    assert corpus["p2"].lang == "fr"


def test_load_passages_duplicate_id(tmp_path):
    path = tmp_path / "p.jsonl"
    line = json.dumps({"id": "p1", "text": "hello"})
    path.write_text(line + "\n" + line + "\n")
    with pytest.raises(DataFormatError, match="p1"):
        load_passages(path)


def test_load_passages_malformed_line_number(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text(json.dumps({"id": "p1", "text": "ok"}) + "\nnot json\n")
    with pytest.raises(DataFormatError) as exc:
        load_passages(path)
    assert exc.value.line == 2


def test_load_qrels_trec_convention(tmp_path):
    # Oracle: field positions of the TREC qrels convention.
    path = tmp_path / "q.tsv"
    path.write_text("q1 0 p9 1\n")
    js = load_qrels(path)
    assert list(js) == [Judgment(query_id="q1", passage_id="p9", grade=1)]


def test_load_qrels_bad_grade(tmp_path):
    path = tmp_path / "q.tsv"
    path.write_text("q1 0 p9 x\n")
    with pytest.raises(DataFormatError) as exc:
        load_qrels(path)
    assert exc.value.line == 1


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("q2 0 p1", "expected 4 whitespace-separated fields, got 3"),
        ("q2 0 p1 1 x", "expected 4 whitespace-separated fields, got 5"),
        ("q2 0 p1 x", "grade must be an integer, got 'x'"),
        ("q2 0 p1 -1", "grade must be >= 0, got -1"),
        # int() reads each of these: a digit separator, Arabic-Indic and
        # fullwidth digits, and an explicit plus sign
        ("q2 0 p1 1_0", "grade must be an integer, got '1_0'"),
        ("q2 0 p1 \u0663", "grade must be an integer, got '\u0663'"),
        ("q2 0 p1 \uff11", "grade must be an integer, got '\uff11'"),
        ("q2 0 p1 +1", "grade must be an integer, got '+1'"),
        ("q2 0 p1 -", "grade must be an integer, got '-'"),
        ("q1 0 p1 0", "duplicate judgment for query 'q1' passage 'p1'"),
    ],
)
def test_load_qrels_errors_name_the_line(tmp_path, bad_line, message):
    path = tmp_path / "q.tsv"
    path.write_text(f"q1 0 p1 1\n\nq1 0 p2 0\n{bad_line}\n")
    with pytest.raises(DataFormatError) as exc:
        load_qrels(path)
    assert str(exc.value) == f"{path}:4: {message}"


def test_load_qrels_rejects_byte_order_mark(tmp_path):
    # read as text, the mark became part of the first query id, so 'q1' lost its judgment
    path = tmp_path / "q.tsv"
    path.write_bytes(b"\xef\xbb\xbfq1 0 p1 1\n")
    with pytest.raises(DataFormatError, match="BOM") as exc:
        load_qrels(path)
    assert exc.value.line == 1


def test_round_trip(tmp_path):
    corpus = Corpus(
        [Passage(id="p1", text="héllo wörld", lang="de"), Passage(id="p2", text="x", lang="sw")]
    )
    queries = QuerySet([Query(id="q1", text="東京", lang="ja")])
    judgments = JudgmentSet([Judgment("q1", "p1", 2), Judgment("q2", "p1", 1), Judgment("q1", "p2", 0)])
    save_passages(corpus, tmp_path / "p.jsonl")
    save_queries(queries, tmp_path / "q.jsonl")
    save_qrels(judgments, tmp_path / "j.tsv")
    assert load_passages(tmp_path / "p.jsonl") == corpus
    assert load_queries(tmp_path / "q.jsonl") == queries
    assert load_qrels(tmp_path / "j.tsv") == judgments
    assert list(load_qrels(tmp_path / "j.tsv")) == list(judgments)  # grouped by query, in first-given order


def test_judgment_set_validtrain():
    js = JudgmentSet([Judgment("q1", "p1", 1)])
    js.validate(Corpus([Passage(id="p1", text="x")]))
    with pytest.raises(DataFormatError):
        js.validate(Corpus([Passage(id="p2", text="x")]))


def test_judgment_set_relevant_is_a_memoized_frozenset():
    js = JudgmentSet([Judgment("q1", "p1", 1), Judgment("q1", "p2", 0), Judgment("q1", "p3", 2)])
    relevant = js.relevant("q1")
    assert relevant == frozenset({"p1", "p3"}) and isinstance(relevant, frozenset)
    assert js.relevant("q1") is relevant
    assert js.relevant("unjudged") == frozenset()


def test_judgment_set_duplicate_pair():
    with pytest.raises(DataFormatError):
        JudgmentSet([Judgment("q1", "p1", 1), Judgment("q1", "p1", 0)])


# ---------------------------------------------------------------------------
# synthetic benchmark
# ---------------------------------------------------------------------------

SMALL_SPEC = SynthSpec(
    languages=("aa", "bb"),
    topics_per_lang=4,
    passages_per_topic=3,
    vocab_size=60,
    query_len=3,
    labeled_frac=0.5,
    queries_per_lang=20,
    passage_len=20,
)


def test_synth_deterministic(tmp_path):
    a = synth_benchmark(SMALL_SPEC, seed=7)
    b = synth_benchmark(SMALL_SPEC, seed=7)
    for name, bench in (("a", a), ("b", b)):
        save_passages(bench.corpus, tmp_path / f"{name}_p.jsonl")
        save_queries(bench.queries, tmp_path / f"{name}_q.jsonl")
        save_qrels(bench.judgments, tmp_path / f"{name}_j.tsv")
        save_queries(bench.unlabeled, tmp_path / f"{name}_u.jsonl")
    for suffix in ("p.jsonl", "q.jsonl", "j.tsv", "u.jsonl"):
        assert (tmp_path / f"a_{suffix}").read_bytes() == (tmp_path / f"b_{suffix}").read_bytes()


def test_synth_seeds_differ():
    a = synth_benchmark(SMALL_SPEC, seed=7)
    b = synth_benchmark(SMALL_SPEC, seed=8)
    assert [p.text for p in a.corpus] != [p.text for p in b.corpus]


def test_synth_vocabularies_disjoint():
    bench = synth_benchmark(SMALL_SPEC, seed=3)
    tokens_by_lang = {}
    for p in bench.corpus:
        tokens_by_lang.setdefault(p.lang, set()).update(tokenize(p.text))
    langs = list(tokens_by_lang)
    assert len(langs) == 2
    assert not (tokens_by_lang[langs[0]] & tokens_by_lang[langs[1]])


def test_synth_overlap_guard(monkeypatch):
    import lexmine.corpus as corpus_mod

    monkeypatch.setattr(corpus_mod, "_lang_vocab", lambda lang, size: [f"w{i}" for i in range(size)])
    with pytest.raises(ValueError, match="overlap"):
        synth_benchmark(SMALL_SPEC, seed=1)


def test_synth_judged_queries_topic_consistent():
    # Oracle: regenerate the topic assignment from the benchmark's ground-truth
    # maps and cross-check every judgment against it.
    bench = synth_benchmark(SMALL_SPEC, seed=11)
    for q in bench.queries:
        relevant = bench.judgments.relevant(q.id)
        assert relevant, f"judged query {q.id} has empty relevant set"
        lang, topic = bench.query_topics[q.id]
        for pid in relevant:
            assert bench.passage_topics[pid] == (lang, topic)


@pytest.mark.parametrize("seed", [0, 5, 9])
def test_synth_relevant_passages_share_topic_term(seed):
    bench = synth_benchmark(SMALL_SPEC, seed=seed)
    for q in bench.queries:
        q_tokens = set(tokenize(q.text))
        topic_terms = set(bench.topic_terms[bench.query_topics[q.id]])
        for pid in bench.judgments.relevant(q.id):
            p_tokens = set(tokenize(bench.corpus[pid].text))
            assert q_tokens & p_tokens & topic_terms


def test_synth_source_labels_targets_unlabeled_split():
    bench = synth_benchmark(SMALL_SPEC, seed=2)
    assert bench.source_lang == "aa"
    assert bench.target_langs == ("bb",)
    judged_langs = {q.lang for q in bench.queries}
    assert judged_langs == {"aa", "bb"}
    for q in bench.unlabeled:
        assert q.id not in bench.judgments.by_query


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(languages=())
    with pytest.raises(ValueError):
        SynthSpec(passages_per_topic=1)
    with pytest.raises(ValueError):
        SynthSpec(vocab_size=10, topics_per_lang=5, terms_per_topic=6)
    with pytest.raises(ValueError):
        SynthSpec(languages=("EN",))


def test_synth_spec_from_mapping():
    spec = SynthSpec.from_mapping({"languages": "xx,yy", "topics_per_lang": "3", "vocab_size": "80"})
    assert spec.languages == ("xx", "yy")
    assert spec.topics_per_lang == 3
    with pytest.raises(ValueError, match="bogus"):
        SynthSpec.from_mapping({"bogus": "1"})


# two valid values of each field type, as written and as parsed
_SPEC_VALUES = {
    int: [("3", 3), ("4", 4)],
    float: [("0.25", 0.25), ("0.5", 0.5)],
    tuple: [(" xx, yy,", ("xx", "yy")), ("zz", ("zz",))],
}


@pytest.mark.parametrize("key", [f.name for f in fields(SynthSpec)])
def test_every_synth_spec_field_is_set_by_exactly_its_own_key(key):
    # the twin of the pipeline config's test: the fields the two values leave unequal are the ones the key sets
    default = getattr(SynthSpec(), key)
    pairs = [("500", 500), ("600", 600)] if key == "vocab_size" else _SPEC_VALUES[type(default)]
    a, b = (asdict(SynthSpec.from_mapping({key: raw})) for raw, _ in pairs)
    assert [name for name in a if a[name] != b[name]] == [key]
    for got, (_, want) in zip((a[key], b[key]), pairs):
        assert got == want and type(got) is type(want)


@pytest.mark.parametrize("key", ["topics_per_lang", "topic_token_frac"])
def test_synth_spec_number_with_a_non_ascii_digit_raises(key):
    # int("٣") and float("٣") both read the Arabic-Indic digit as 3
    with pytest.raises(ValueError, match=f"{key} must be an"):
        SynthSpec.from_mapping({key: "\u0663"})
