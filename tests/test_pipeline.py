import json
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexmine.corpus import (
    Corpus, DataFormatError, JudgmentSet, Passage, Query, QuerySet, SynthSpec, TokenizerConfig, synth_benchmark,
    tokenize,
)
from lexmine.dense import EncoderParams, init_params, load_checkpoint, search_dense, vocab_from_corpus
from lexmine.evaluation import mrr_at_k
from lexmine.mining import MiningConfig, hybrid_fuse, load_samples, mine_pairs, sample_random_negatives
from lexmine.pipeline import (
    MINING_MODES,
    _mined_sets,
    IterationReport,
    PipelineConfig,
    PipelineError,
    assemble_warmup_samples,
    config_hash,
    dense_run,
    pipeline_data_from_benchmark,
    run_iteration,
    run_pipeline,
    mine,
    start_state,
    target_mean,
    warmup,
)
from lexmine.querygen import GeneratedPair, GeneratorModel, filter_generated, load_generator
from lexmine.sparse import build_index
from test_dense import encode

SPEC = SynthSpec(
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


@pytest.fixture(scope="module")
def bench():
    return synth_benchmark(SPEC, seed=5)


@pytest.fixture(scope="module")
def data(bench):
    return pipeline_data_from_benchmark(bench)


def small_cfg(**kwargs):
    defaults = dict(
        iterations=2,
        minibatches_per_iter=40,
        batch_size=16,
        warmup_epochs=3,
        mining=MiningConfig(S=2, L=10),
        n_generate=30,
        embedding_dim=24,
        warmup_lr=1e-2,
        train_lr=3e-3,
        seed=9,
    )
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


def tgt_mrr(report, k=10):
    return report.metrics["tgta"][f"mrr@{k}"]


def comparable(reports):
    """Report dicts without wall-clock timing."""
    out = []
    for r in reports:
        d = asdict(r)
        d.pop("wall_clock_sec")
        out.append(d)
    return out


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_invariants():
    with pytest.raises(ValueError):
        PipelineConfig(iterations=0)
    with pytest.raises(ValueError):
        PipelineConfig(mining_mode="triple")
    with pytest.raises(ValueError):
        PipelineConfig(negative_mode="bogus")
    with pytest.raises(ValueError):
        PipelineConfig(mining=MiningConfig(S=5, L=3))


def test_config_hash_stable_and_sensitive():
    a, b = PipelineConfig(seed=1), PipelineConfig(seed=1)
    assert config_hash(asdict(a)) == config_hash(asdict(b))
    assert config_hash(asdict(a)) != config_hash(asdict(PipelineConfig(seed=2)))


REPORT_COUNTS = (
    "iteration",
    "mined_samples",
    "mined_queries_with_positives",
    "generator_training_pairs",
    "generated_candidates",
    "generated_accepted",
    "generated_rejected",
    "dataset_size",
)


@pytest.mark.parametrize("name", REPORT_COUNTS)
def test_report_validation(name):
    with pytest.raises(ValueError, match="report counts must be >= 0"):
        IterationReport(**{"iteration": 1, name: -1})
    with pytest.raises(ValueError):
        IterationReport(iteration=1, metrics={"xx": {"mrr@10": 1.5}})


@pytest.mark.parametrize("metrics", [[], [["overall", {"mrr@10": 0.5}]], {"overall": 0.5}, {"xx": [0.5]}])
def test_report_from_dict_rejects_malformed_metrics(metrics):
    with pytest.raises(ValueError, match="metrics"):
        IterationReport(**{"iteration": 1, "metrics": metrics})


# ---------------------------------------------------------------------------
# warm-up
# ---------------------------------------------------------------------------


def test_warmup_samples_are_labeled_consistent(bench, data):
    cfg = small_cfg()
    sparse = build_index(data.corpus, cfg.tokenizer, cfg.bm25)
    samples = assemble_warmup_samples(data.train_queries, data.train_qrels, sparse, cfg)
    assert samples
    for s in samples:
        relevant = data.train_qrels.relevant(s.query.id)
        assert s.positive in relevant
        assert not (set(s.hard_negatives) & relevant)
        assert len(s.hard_negatives) <= cfg.mining.max_hard_negatives


def test_warmup_beats_untrained_baseline_on_source(bench, data):
    cfg = small_cfg()
    sparse = build_index(data.corpus, cfg.tokenizer, cfg.bm25)
    samples = assemble_warmup_samples(data.train_queries, data.train_qrels, sparse, cfg)
    params, generator = warmup(samples, data.corpus, cfg)
    assert generator.version == 1

    fresh = init_params(
        vocab_from_corpus(data.corpus), dim=cfg.embedding_dim, seed=[cfg.seed, 0, 0]
    )
    src_queries = QuerySet(q for q in bench.queries if q.lang == "src")
    langs = {q.id: q.lang for q in src_queries}

    def src_mrr(p):
        state = start_state(p, generator, sparse, data.corpus, cfg)
        run = dense_run(state, src_queries, 10)
        return mrr_at_k(run, bench.judgments, 10, query_langs=langs).mean

    assert src_mrr(params) > src_mrr(fresh)


def test_warmup_zero_epochs_keeps_params_trains_generator(data):
    cfg = small_cfg(warmup_epochs=0)
    sparse = build_index(data.corpus, cfg.tokenizer, cfg.bm25)
    samples = assemble_warmup_samples(data.train_queries, data.train_qrels, sparse, cfg)
    params, generator = warmup(samples, data.corpus, cfg)
    fresh = init_params(vocab_from_corpus(data.corpus, cfg.tokenizer), dim=cfg.embedding_dim, seed=[cfg.seed, 0, 0])
    assert params.version == 0
    assert np.array_equal(params.embedding, fresh.embedding)
    assert generator.version == 1


def test_warmup_encoder_is_bound_to_the_corpus(data):
    # bound before any training step, so no later read rebinds it
    cfg = small_cfg(warmup_epochs=0)
    sparse = build_index(data.corpus, cfg.tokenizer, cfg.bm25)
    samples = assemble_warmup_samples(data.train_queries, data.train_qrels, sparse, cfg)
    params, _ = warmup(samples, data.corpus, cfg)
    assert params.vocab is data.corpus.tokenized(cfg.tokenizer).index


def test_warmup_samples_keep_their_source_and_draw_random_negatives(data, monkeypatch):
    import lexmine.pipeline as pipeline_mod

    cfg = small_cfg()
    sparse = build_index(data.corpus, cfg.tokenizer, cfg.bm25)
    samples = assemble_warmup_samples(data.train_queries, data.train_qrels, sparse, cfg)
    samples[1] = replace(samples[1], source="generated")
    trained = []
    monkeypatch.setattr(pipeline_mod, "_minibatch_steps", lambda params, dataset, *args: trained.append(dataset))
    warmup(samples, data.corpus, cfg)

    # oracle: each sample's random negatives drawn in order from the warm-up data
    # stream, excluding its positive and hard negatives
    rng = np.random.default_rng([cfg.seed, pipeline_mod._WARMUP_DATA, 0])
    want = []
    for s in samples:
        exclude = {s.positive, *s.hard_negatives}
        randoms = sample_random_negatives(data.corpus, exclude, cfg.mining.n_random_negatives, rng)
        want.append(replace(s, random_negatives=randoms))
    assert trained == [want]
    assert [s.source for s in trained[0]][:3] == ["labeled", "generated", "labeled"]
    assert all(len(s.random_negatives) == cfg.mining.n_random_negatives for s in trained[0])


def test_warmup_deterministic(data):
    cfg = small_cfg()
    sparse = build_index(data.corpus, cfg.tokenizer, cfg.bm25)
    samples = assemble_warmup_samples(data.train_queries, data.train_qrels, sparse, cfg)
    p1, g1 = warmup(samples, data.corpus, cfg)
    p2, g2 = warmup(samples, data.corpus, cfg)
    assert np.array_equal(p1.embedding, p2.embedding)
    assert g1.term_salience == g2.term_salience


@pytest.mark.parametrize("epochs, batch_size", [(3, 16), (2, 10), (0, 16)])
def test_warmup_batches_match_per_epoch_permutations(data, monkeypatch, epochs, batch_size):
    import lexmine.pipeline as pipeline_mod

    cfg = small_cfg(warmup_epochs=epochs, batch_size=batch_size)
    sparse = build_index(data.corpus, cfg.tokenizer, cfg.bm25)
    samples = assemble_warmup_samples(data.train_queries, data.train_qrels, sparse, cfg)
    assert len(samples) % 16 != 0 and len(samples) % 10 == 0
    seen = []

    def record(params, opt, batch, *args, **kwargs):
        seen.append([s.query.id for s in batch])
        return 0.0

    monkeypatch.setattr(pipeline_mod, "train_step", record)
    warmup(samples, data.corpus, cfg)

    # oracle: the per-epoch loop, one permutation of the samples per epoch
    # from the warm-up shuffle stream, cut into batches with a short last one
    rng = np.random.default_rng([cfg.seed, pipeline_mod._WARMUP_SHUFFLE, 0])
    want = []
    for _ in range(epochs):
        order = rng.permutation(len(samples))
        for start in range(0, len(samples), batch_size):
            want.append([samples[i].query.id for i in order[start : start + batch_size]])
    assert seen == want


def test_warmup_empty_rejected(data):
    with pytest.raises(ValueError):
        warmup([], data.corpus, small_cfg())


# ---------------------------------------------------------------------------
# run_iteration
# ---------------------------------------------------------------------------


def make_state(data, cfg):
    sparse = build_index(data.corpus, cfg.tokenizer, cfg.bm25)
    samples = assemble_warmup_samples(data.train_queries, data.train_qrels, sparse, cfg)
    params, generator = warmup(samples, data.corpus, cfg)
    return start_state(params, generator, sparse, data.corpus, cfg)


def test_iteration_one_skips_generation(data):
    cfg = small_cfg()
    state = make_state(data, cfg)
    report, artifacts = run_iteration(state, data, cfg)
    assert report.iteration == 1
    assert report.generated_candidates == 0
    assert report.generated_accepted == 0
    assert artifacts["generated"] == []
    assert report.mined_samples == len(artifacts["mined"]) > 0


def test_iteration_two_generates(data):
    cfg = small_cfg()
    state = make_state(data, cfg)
    run_iteration(state, data, cfg)
    gen_version_before = state.generator.version
    report, artifacts = run_iteration(state, data, cfg)
    assert report.iteration == 2
    assert report.generated_candidates > 0
    assert state.generator.version == gen_version_before + 1
    assert report.generated_accepted == len(artifacts["generated"])
    assert report.generated_accepted + report.generated_rejected == report.generated_candidates


def test_generation_draws_do_not_depend_on_verdicts(data, monkeypatch):
    import lexmine.pipeline as pipeline_mod

    cfg = small_cfg()
    state = make_state(data, cfg)
    accepted, rejected = pipeline_mod.generate(state, ["src", "tgta"], cfg, iteration=2)
    assert accepted and rejected
    drawn = {s.query.id: s.query for s in accepted} | {pair.query.id: pair.query for pair in rejected}
    # with every pair rejected, assembly draws nothing: the queries must not change
    monkeypatch.setattr(pipeline_mod, "filter_generated", lambda pairs, *args: [None] * len(pairs))
    none_accepted, all_rejected = pipeline_mod.generate(state, ["src", "tgta"], cfg, iteration=2)
    assert none_accepted == []
    assert {pair.query.id: pair.query for pair in all_rejected} == drawn
    assert len(all_rejected) == len(drawn)


def test_iteration_refreshes_index(data):
    cfg = small_cfg()
    state = make_state(data, cfg)
    run_iteration(state, data, cfg)
    assert state.dense_index.params_version == state.dense_index.params.version
    index = state.dense_index
    for i in range(0, len(index.ids), 37):
        want = encode(state.dense_index.params, tokenize(data.corpus[index.ids[i]].text, cfg.tokenizer))
        assert np.allclose(index.vectors[i], want)


def test_iteration_stale_index_rejected(data):
    cfg = small_cfg()
    state = make_state(data, cfg)
    state.dense_index.params.version += 1  # simulate params changed without refresh
    with pytest.raises(PipelineError, match="stale"):
        run_iteration(state, data, cfg)


def test_iteration_zero_mined_errors(data):
    cfg = small_cfg()
    state = make_state(data, cfg)
    with pytest.raises(PipelineError, match="zero samples"):
        run_iteration(state, replace(data, unlabeled=QuerySet([])), cfg)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_loss_raises(data, monkeypatch, bad):
    import lexmine.pipeline as pipeline_mod

    cfg = small_cfg()
    state = make_state(data, cfg)
    monkeypatch.setattr(pipeline_mod, "train_step", lambda *a, **k: bad)
    with pytest.raises(PipelineError, match="iteration 1 step 1: training loss is"):
        run_iteration(state, data, cfg)
    with pytest.raises(PipelineError, match="warm-up step 1: training loss is"):
        make_state(data, cfg)


def test_iteration_without_eval_queries_reports_no_metrics(data):
    cfg = small_cfg()
    state = make_state(data, cfg)
    report, artifacts = run_iteration(state, replace(data, eval_queries=None, eval_qrels=None), cfg)
    assert report.mined_samples > 0
    assert report.metrics == {}
    assert artifacts["run"] == {}


def test_overall_metrics_score_only_the_eval_queries(data):
    # a qrels file shared with training also judges the source queries, which
    # the run never ranks: "overall" must not count them as misses
    from lexmine.pipeline import _evaluate

    cfg = small_cfg()
    state = make_state(data, cfg)
    target = QuerySet(q for q in data.eval_queries if q.lang == "tgta")
    own = JudgmentSet(j for j in data.eval_qrels if j.query_id in target)
    assert 0 < len(own) < len(data.eval_qrels)
    run, shared = _evaluate(state, replace(data, eval_queries=target), cfg)
    assert (run, shared) == _evaluate(state, replace(data, eval_queries=target, eval_qrels=own), cfg)
    assert shared["overall"] == shared["tgta"]


def test_dense_search_uses_the_index_tokenizer():
    # "Apple b" is ["Apple"] under this tokenizer and ["apple", "b"] under the
    # default one, whose dense top-1 would be p2
    tok = TokenizerConfig(lowercase=False, min_token_len=2)
    corpus = Corpus([Passage("p1", "Apple pie"), Passage("p2", "apple tart"), Passage("p3", "cherry b")])
    tokens = vocab_from_corpus(corpus, tok)
    params = EncoderParams(vocab={t: i for i, t in enumerate(tokens)}, embedding=np.eye(len(tokens)))
    cfg = small_cfg(tokenizer=tok)
    state = start_state(params, GeneratorModel(), build_index(corpus, tok), corpus, cfg)
    query = Query(id="q", text="Apple b")
    assert state.dense_index.tokenizer == tok
    assert search_dense(state.dense_index, [tokenize(query.text, state.dense_index.tokenizer)], 1)[0][0][0] == "p1"
    assert filter_generated([GeneratedPair(query, "p1")], state.sparse_index, state.dense_index, cfg.mining)[0]
    assert dense_run(state, QuerySet([query]), 1) == {"q": [("p1", 0.5)]}


def test_iteration_sample_count_matches_recount(data, tmp_path):
    from lexmine.mining import mine_pairs, save_samples
    from lexmine.sparse import search_sparse

    cfg = small_cfg()
    state = make_state(data, cfg)
    version_before = state.dense_index.params.version
    report, artifacts = run_iteration(state, data, cfg)

    # recount positives per unlabeled query against pre-iteration retrievers
    fresh_state = make_state(data, cfg)
    assert fresh_state.dense_index.params.version == version_before
    want = 0
    for q in data.unlabeled:
        a = search_sparse(fresh_state.sparse_index, q.tokens(cfg.tokenizer), cfg.mining.L)
        b = search_dense(fresh_state.dense_index, [q.tokens(cfg.tokenizer)], cfg.mining.L)[0]
        want += len(mine_pairs(a, b, cfg.mining).positives)
    assert report.mined_samples == want

    # and the persisted mined.jsonl round-trips to the same count
    save_samples(artifacts["mined"], tmp_path / "mined.jsonl")
    assert len(load_samples(tmp_path / "mined.jsonl", corpus=data.corpus)) == want


def test_negative_mode_none_and_sparse_top(data):
    for mode, check in (
        ("none", lambda s: s.hard_negatives == () and s.random_negatives == ()),
        ("sparse_top", lambda s: s.random_negatives == ()),
    ):
        cfg = small_cfg(negative_mode=mode)
        state = make_state(data, cfg)
        report, artifacts = run_iteration(state, data, cfg)
        assert artifacts["mined"]
        assert all(check(s) for s in artifacts["mined"])
    assert any(s.hard_negatives for s in artifacts["mined"])  # sparse_top provides hards


def test_double_dense_mode_runs(data):
    cfg = small_cfg(mining_mode="double_dense", n_generate=0)
    reports = run_pipeline(cfg, data)
    assert len(reports) == cfg.iterations + 1
    assert reports[-1].mined_samples > 0


@pytest.mark.parametrize("mode", MINING_MODES)
def test_mine_skips_queries_without_vocabulary_tokens(mode):
    # a fully-OOV query encodes to the zero vector, which ranks passages by id;
    # fused with any sparse list that used to mine p00, p01 as its positives
    corpus = Corpus(
        [Passage(id=f"p{i:02d}", text=f"w{i % 7} w{i % 5} v{i % 3}", lang="en") for i in range(30)]
    )
    cfg = small_cfg(mining=MiningConfig(S=2, L=10), mining_mode=mode)
    vocab = vocab_from_corpus(corpus)
    state = start_state(
        init_params(vocab, dim=8, seed=0), GeneratorModel(), build_index(corpus), corpus, cfg,
        aux_params=init_params(vocab, dim=8, seed=1),
    )
    oov = Query(id="oov", text="zzz unknownword", lang="en")
    known = Query(id="known", text="w1 v2", lang="en")
    samples, gen_pairs, with_positives = mine(state, QuerySet([oov, known]), cfg, iteration=1)
    assert all(s.query.id == "known" for s in samples)
    assert all(q.id == "known" for q, _ in gen_pairs)
    assert (samples, gen_pairs, with_positives) == mine(state, QuerySet([known]), cfg, iteration=1)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(MINING_MODES))
def test_mined_sets_top1_is_the_s1_positive(data, mode):
    """The generator's S=1 positive, read off the rankings mined at S, is what a
    second mining pass at S=1 (or the fused ranking's top-1) gives."""
    ids = [f"p{i}" for i in range(12)]

    def ranking():
        chosen = data.draw(st.permutations(ids))[: data.draw(st.integers(0, len(ids)))]
        scores = sorted(data.draw(st.lists(st.floats(-5, 5), min_size=len(chosen), max_size=len(chosen))), reverse=True)
        return list(zip(chosen, scores))

    a, b = ranking(), ranking()
    L = data.draw(st.integers(1, len(ids)))
    cfg = PipelineConfig(mining=MiningConfig(S=data.draw(st.integers(1, L)), L=L), mining_mode=mode)
    sets, top1 = _mined_sets(a, b, cfg)
    if mode.startswith("fuse_"):
        fused = [pid for pid, _ in hybrid_fuse(a, b, mode.removeprefix("fuse_"), L)]
        assert top1 == tuple(fused[:1])
        assert sets.positives == tuple(fused[: cfg.mining.S])
    else:
        assert top1 == mine_pairs(a, b, replace(cfg.mining, S=1)).positives
        assert sets == mine_pairs(a, b, cfg.mining)


# ---------------------------------------------------------------------------
# run_pipeline
# ---------------------------------------------------------------------------


def test_warmup_report_metrics_are_range_checked(data, monkeypatch):
    # the zero-shot report's metrics pass the range check that every iteration's pass
    import lexmine.pipeline as pipeline_mod

    real_evaluate = pipeline_mod._evaluate
    calls = []

    def evaluate(state, data, cfg):
        run, metrics = real_evaluate(state, data, cfg)
        calls.append(state.iteration)
        if len(calls) == 1:
            metrics["overall"][f"mrr@{cfg.eval_k}"] = 1.5
        return run, metrics

    monkeypatch.setattr(pipeline_mod, "_evaluate", evaluate)
    with pytest.raises(ValueError, match=r"metric mrr@10 for overall out of \[0, 1\]: 1.5"):
        run_pipeline(small_cfg(iterations=1, minibatches_per_iter=5), data)
    assert calls == [0]


def test_pipeline_deterministic_and_provenance(data, tmp_path):
    cfg = small_cfg()
    r1 = run_pipeline(cfg, data, workdir=tmp_path / "a")
    r2 = run_pipeline(cfg, data, workdir=tmp_path / "b")
    assert comparable(r1) == comparable(r2)

    # provenance: persisted samples reference real corpus ids and hold invariants
    for it in (1, 2):
        mined = load_samples(tmp_path / "a" / f"iter_{it}" / "mined.jsonl", corpus=data.corpus)
        for s in mined:
            union = (s.positive, *s.hard_negatives, *s.random_negatives)
            assert len(set(union)) == len(union)


def test_pipeline_artifacts_layout(data, tmp_path):
    cfg = small_cfg()
    run_pipeline(cfg, data, workdir=tmp_path)
    assert (tmp_path / "manifest.json").exists()
    assert (tmp_path / "warmup" / "checkpoint.npz").exists()
    for it in (1, 2):
        base = tmp_path / f"iter_{it}"
        for name in ("mined.jsonl", "generated.jsonl", "checkpoint.npz", "generator.json", "report.json", "run.trec"):
            assert (base / name).exists(), f"missing iter_{it}/{name}"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config_hash"] == config_hash(asdict(cfg))
    assert manifest["seed"] == cfg.seed


def test_eval_only_token_does_not_change_the_run(data, tmp_path):
    # a held-out query must not shape the model: an eval-only token that sorts
    # before every corpus token would take embedding row 0 and shift every other row
    from test_cli import _assert_same_run

    target = next(q for q in data.eval_queries if q.lang == "tgta")
    assert "aaaa" < min(data.corpus.tokenized().vocab)
    eval_queries = QuerySet(
        Query(id=q.id, text=q.text + " aaaa", lang=q.lang) if q is target else q for q in data.eval_queries
    )
    cfg = small_cfg()
    run_pipeline(cfg, data, workdir=tmp_path / "plain")
    run_pipeline(cfg, replace(data, eval_queries=eval_queries), workdir=tmp_path / "extra_token")
    # every checkpoint array, sample file, run file and report metric
    _assert_same_run(tmp_path / "extra_token", tmp_path / "plain")


def test_pipeline_resume_matches_uninterrupted(data, tmp_path):
    cfg = small_cfg()
    full = run_pipeline(cfg, data, workdir=tmp_path / "full")

    import shutil

    partial_dir = tmp_path / "partial"
    run_pipeline(cfg, data, workdir=partial_dir)
    shutil.rmtree(partial_dir / "iter_2")
    resumed = run_pipeline(cfg, data, workdir=partial_dir, resume=True)
    assert comparable(resumed) == comparable(full)


def test_pipeline_resume_past_warmup_skips_warmup_setup(data, tmp_path, monkeypatch):
    import shutil

    import lexmine.pipeline as pipeline_mod

    calls = []

    def counted(name):
        real = getattr(pipeline_mod, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("vocab_from_corpus", "assemble_warmup_samples"):
        monkeypatch.setattr(pipeline_mod, name, counted(name))
    cfg = small_cfg()
    full = run_pipeline(cfg, data, workdir=tmp_path)
    assert sorted(calls) == ["assemble_warmup_samples", "vocab_from_corpus"]
    calls.clear()
    shutil.rmtree(tmp_path / "iter_2")
    resumed = run_pipeline(cfg, data, workdir=tmp_path, resume=True)
    assert calls == []
    assert comparable(resumed) == comparable(full)


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _list_metrics(path):
    path.write_text(json.dumps({**json.loads(path.read_text()), "metrics": []}))


def _string_version(path):
    with np.load(path) as f:
        arrays = dict(f)
    meta = json.loads(bytes(arrays["meta"]))
    arrays["meta"] = np.frombuffer(json.dumps({**meta, "version": str(meta["version"])}).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _int_tokens_and_no_next_iteration(path):
    """The checkpoint's tokens as ints, and the next iteration gone, so a resumed run would build on it."""
    import shutil

    with np.load(path) as f:
        arrays = dict(f)
    meta = json.loads(bytes(arrays["meta"]))
    arrays["meta"] = np.frombuffer(json.dumps({**meta, "tokens": list(range(len(meta["tokens"])))}).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    shutil.rmtree(path.parent.with_name("iter_2"))


def _untrained_version(path):
    path.write_text(json.dumps({**json.loads(path.read_text()), "version": 0}))


def _bool_version(path):
    path.write_text(json.dumps({**json.loads(path.read_text()), "version": True}))


def _int_langs_and_no_next_iteration(path):
    """The generator's languages as ints, and the next iteration gone, so a resumed run would build on it."""
    import shutil

    payload = json.loads(path.read_text())
    payload["term_salience"] = [{**e, "lang": 5} for e in payload["term_salience"]]
    path.write_text(json.dumps(payload))
    shutil.rmtree(path.parent.with_name("iter_2"))


def _rewrite_checkpoint(path, meta_changes=None, embedding=None):
    with np.load(path) as f:
        arrays = dict(f)
    meta = {**json.loads(bytes(arrays["meta"])), **(meta_changes or {})}
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    if embedding is not None:
        arrays["embedding"] = embedding(arrays["embedding"])
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _nan_table(path):
    _rewrite_checkpoint(path, embedding=lambda table: np.full_like(table, np.nan))


def _dim_one_too_many(path):
    with np.load(path) as f:
        dim = json.loads(bytes(f["meta"]))["dim"]
    _rewrite_checkpoint(path, {"dim": dim + 1})


def _format_true(path):
    _rewrite_checkpoint(path, {"format": True})


def _format_float(path):
    _rewrite_checkpoint(path, {"format": 1.0})


def _padded_length_keys(path):
    payload = json.loads(path.read_text())
    payload["query_len_dist"] = {"0" + k: v for k, v in payload["query_len_dist"].items()}
    path.write_text(json.dumps(payload))


def _one_token_renamed(path):
    """The checkpoint with one token no passage holds in place of one the corpus has: it still loads."""
    with np.load(path) as f:
        tokens = json.loads(bytes(f["meta"]))["tokens"]
    _rewrite_checkpoint(path, {"tokens": ["zz-not-in-corpus", *tokens[1:]]})


@pytest.mark.parametrize(
    "broken,corrupt,mode",
    [
        pytest.param(p, _truncate, "sparse_dense", id=p)
        for p in ("iter_2/report.json", "iter_2/checkpoint.npz", "iter_2/generator.json", "warmup/report.json")
    ]
    + [
        pytest.param("iter_2/report.json", _list_metrics, "sparse_dense", id="iter_2/report.json-list-metrics"),
        pytest.param("iter_2/checkpoint.npz", _string_version, "sparse_dense", id="iter_2/checkpoint.npz-string-version"),
        pytest.param(
            "iter_1/checkpoint.npz", _int_tokens_and_no_next_iteration, "sparse_dense", id="iter_1/checkpoint.npz-int-tokens"
        ),
        pytest.param("iter_2/generator.json", _untrained_version, "sparse_dense", id="iter_2/generator.json-version-0"),
        pytest.param("iter_2/generator.json", _bool_version, "sparse_dense", id="iter_2/generator.json-version-bool"),
        pytest.param(
            "iter_1/generator.json", _int_langs_and_no_next_iteration, "sparse_dense", id="iter_1/generator.json-lang-int"
        ),
        pytest.param("iter_2/checkpoint.npz", _nan_table, "sparse_dense", id="iter_2/checkpoint.npz-nan-table"),
        pytest.param("iter_2/checkpoint.npz", _dim_one_too_many, "sparse_dense", id="iter_2/checkpoint.npz-dim-one-too-many"),
        pytest.param("warmup/aux_checkpoint.npz", _truncate, "double_dense", id="double_dense-warmup/aux_checkpoint.npz"),
    ],
)
def test_pipeline_resume_reruns_from_broken_iteration(data, tmp_path, broken, corrupt, mode):
    cfg = small_cfg(mining_mode=mode)
    full = run_pipeline(cfg, data, workdir=tmp_path)
    assert not list(tmp_path.rglob("*.tmp"))

    def versions():
        last = tmp_path / "iter_2"
        return load_checkpoint(last / "checkpoint.npz")[0].version, load_generator(last / "generator.json").version

    want = versions()
    corrupt(tmp_path / broken)
    resumed = run_pipeline(cfg, data, workdir=tmp_path, resume=True)
    assert comparable(resumed) == comparable(full)
    assert versions() == want


@pytest.mark.parametrize(
    "broken,corrupt",
    [
        ("iter_2/checkpoint.npz", _format_true),
        ("iter_2/checkpoint.npz", _format_float),
        ("iter_2/generator.json", _padded_length_keys),
    ],
)
def test_pipeline_resume_reruns_a_stage_whose_model_file_no_writer_writes(data, tmp_path, broken, corrupt):
    # each file loads as the one it was made from, so only a rewrite shows
    # that the stage ran again
    cfg = small_cfg()
    full = run_pipeline(cfg, data, workdir=tmp_path)
    corrupt(tmp_path / broken)
    corrupted = (tmp_path / broken).read_bytes()
    resumed = run_pipeline(cfg, data, workdir=tmp_path, resume=True)
    assert comparable(resumed) == comparable(full)
    assert (tmp_path / broken).read_bytes() != corrupted


@pytest.mark.parametrize(
    "broken,mode",
    [
        ("warmup/checkpoint.npz", "sparse_dense"),
        ("iter_1/checkpoint.npz", "sparse_dense"),
        ("warmup/aux_checkpoint.npz", "double_dense"),
    ],
)
def test_pipeline_resume_rejects_checkpoint_of_other_tokens(data, tmp_path, broken, mode):
    # a checkpoint that loads but is not the corpus's is not a stage to run
    # again: the stages after it built on it
    cfg = small_cfg(mining_mode=mode)
    run_pipeline(cfg, data, workdir=tmp_path)
    (tmp_path / "iter_2" / "report.json").unlink()
    _one_token_renamed(tmp_path / broken)
    n_tokens = len(data.corpus.tokenized(cfg.tokenizer).vocab)
    want = (
        f"{tmp_path / broken}: vocabulary is not the corpus's tokens under the config's tokenizer "
        f"(1 of {n_tokens} missing, 1 extra)"
    )
    with pytest.raises(DataFormatError) as exc:
        run_pipeline(cfg, data, workdir=tmp_path, resume=True)
    assert str(exc.value).startswith(want)
    assert not (tmp_path / "iter_2" / "report.json").exists()


def test_pipeline_resume_binds_row_permuted_checkpoints(data, tmp_path):
    # a checkpoint in another row order is the same encoder: resume reads it
    # in corpus order and continues as from the sorted file
    from test_cli import _assert_same_run

    cfg = small_cfg()
    full = run_pipeline(cfg, data, workdir=tmp_path / "full")
    run_pipeline(cfg, data, workdir=tmp_path / "partial")
    (tmp_path / "partial" / "iter_2" / "report.json").unlink()
    path = tmp_path / "partial" / "iter_1" / "checkpoint.npz"
    with np.load(path) as f:
        tokens = json.loads(bytes(f["meta"]))["tokens"]
    order = np.random.default_rng(0).permutation(len(tokens))
    _rewrite_checkpoint(path, {"tokens": [tokens[i] for i in order]}, embedding=lambda table: table[order])
    resumed = run_pipeline(cfg, data, workdir=tmp_path / "partial", resume=True)
    assert comparable(resumed) == comparable(full)
    _assert_same_run(tmp_path / "partial" / "iter_2", tmp_path / "full" / "iter_2")


@pytest.mark.parametrize("mode", ["sparse_dense", "double_dense"])
def test_pipeline_resume_from_warmup_alone_skips_warmup(data, tmp_path, monkeypatch, mode):
    import shutil

    import lexmine.pipeline as pipeline_mod

    cfg = small_cfg(mining_mode=mode)
    full = run_pipeline(cfg, data, workdir=tmp_path / "full")
    run_pipeline(cfg, data, workdir=tmp_path / "partial")
    for d in (tmp_path / "partial").glob("iter_*"):
        shutil.rmtree(d)
    calls = []
    real = pipeline_mod.warmup
    monkeypatch.setattr(pipeline_mod, "warmup", lambda *a, **k: calls.append(1) or real(*a, **k))
    resumed = run_pipeline(cfg, data, workdir=tmp_path / "partial", resume=True)
    assert calls == []
    assert comparable(resumed) == comparable(full)
    for it in (1, 2):
        for name in ("mined.jsonl", "generated.jsonl", "generator.json", "run.trec"):
            rel = f"iter_{it}/{name}"
            assert (tmp_path / "partial" / rel).read_bytes() == (tmp_path / "full" / rel).read_bytes(), rel


def test_pipeline_resume_after_plateau_stop_runs_nothing(data, tmp_path):
    cfg = small_cfg(iterations=3, plateau_eps=10.0)  # always triggers after iteration 1
    full = run_pipeline(cfg, data, workdir=tmp_path)
    resumed = run_pipeline(cfg, data, workdir=tmp_path, resume=True)
    assert comparable(resumed) == comparable(full)
    assert not (tmp_path / "iter_2").exists()


def test_pipeline_resume_config_mismatch(data, tmp_path):
    cfg = small_cfg()
    run_pipeline(cfg, data, workdir=tmp_path)
    other = small_cfg(train_lr=1e-4)
    with pytest.raises(PipelineError, match="hash mismatch"):
        run_pipeline(other, data, workdir=tmp_path, resume=True)


def test_pipeline_resume_rejects_other_inputs(data, tmp_path):
    cfg = small_cfg(iterations=1)
    inputs = {key: {"sha256": key[0] * 64, "bytes": len(key)} for key in ("passages", "train_queries")}
    full = run_pipeline(cfg, data, workdir=tmp_path, inputs=inputs)
    assert json.loads((tmp_path / "manifest.json").read_text())["inputs"] == inputs
    assert comparable(run_pipeline(cfg, data, workdir=tmp_path, resume=True, inputs=inputs)) == comparable(full)
    # the first key whose record differs, that the manifest does not record, or that is not given
    for changed, key in (
        ({**inputs, "train_queries": {"sha256": "t" * 64, "bytes": 14}}, "train_queries"),
        ({"eval_qrels": {"sha256": "e" * 64, "bytes": 10}, **inputs}, "eval_qrels"),
        ({"passages": inputs["passages"]}, "train_queries"),
    ):
        with pytest.raises(DataFormatError, match=f"data key '{key}' is not the file the run started from"):
            run_pipeline(cfg, data, workdir=tmp_path, resume=True, inputs=changed)
    # a recorded run cannot be resumed unchecked
    with pytest.raises(DataFormatError, match="manifest records input digests, but no inputs were given"):
        run_pipeline(cfg, data, workdir=tmp_path, resume=True)


def test_pipeline_resume_rejects_a_manifest_without_inputs(data, tmp_path):
    # a run directory written before the manifest recorded its inputs
    cfg = small_cfg(iterations=1)
    full = run_pipeline(cfg, data, workdir=tmp_path)
    assert "inputs" not in json.loads((tmp_path / "manifest.json").read_text())
    inputs = {"passages": {"sha256": "p" * 64, "bytes": 8}}
    with pytest.raises(DataFormatError, match=r"manifest records no input digests \(written before they were recorded\)"):
        run_pipeline(cfg, data, workdir=tmp_path, resume=True, inputs=inputs)
    # nothing to check on either side: the run resumes as before
    assert comparable(run_pipeline(cfg, data, workdir=tmp_path, resume=True)) == comparable(full)


class _Killed(BaseException):
    """A run stopped from outside: nothing in the program catches it."""


@pytest.mark.parametrize("kill_at", ["warmup", "iter_1/generator.json"])
def test_resume_of_a_fresh_run_trusts_no_stage_of_the_run_it_replaced(data, tmp_path, monkeypatch, kill_at):
    # run B starts over a finished run A (as --overwrite does) and is killed
    # before it has rewritten every stage; resuming B must not load A's stages
    import lexmine.pipeline as pipeline_mod
    from test_cli import _assert_same_run

    cfg = small_cfg(minibatches_per_iter=3)
    want = run_pipeline(cfg, data, workdir=tmp_path / "fresh")
    out = tmp_path / "out"
    run_pipeline(small_cfg(), data, workdir=out)

    def killed(*args, **kwargs):
        raise _Killed

    real_save = pipeline_mod.save_generator

    def save_generator(model, path):
        if path == out / kill_at:
            raise _Killed
        real_save(model, path)

    with monkeypatch.context() as m:
        if kill_at == "warmup":
            m.setattr(pipeline_mod, "warmup", killed)
        else:
            m.setattr(pipeline_mod, "save_generator", save_generator)
        with pytest.raises(_Killed):
            run_pipeline(cfg, data, workdir=out)
    assert comparable(run_pipeline(cfg, data, workdir=out, resume=True)) == comparable(want)
    _assert_same_run(out, tmp_path / "fresh")


def test_pipeline_plateau_stop(data, tmp_path):
    cfg = small_cfg(iterations=3, plateau_eps=10.0)  # always triggers
    reports = run_pipeline(cfg, data)
    assert len(reports) == 2  # warmup + first iteration


def fake_evaluate(metrics_at):
    """An ``_evaluate`` whose metrics at iteration i are ``metrics_at(i)``."""
    return lambda state, data, cfg: ({}, metrics_at(state.iteration))


def test_pipeline_plateau_follows_target_mrr_not_overall(data, monkeypatch):
    import lexmine.pipeline as pipeline_mod

    # the iterations trade the labeled source language away: overall MRR
    # falls while target-language MRR rises, and the run must go on
    def metrics_at(i):
        return {
            "overall": {"mrr@10": 0.6 - 0.05 * i, "recall@10": 0.5},
            "src": {"mrr@10": 0.9 - 0.2 * i, "recall@10": 0.5},
            "tgta": {"mrr@10": 0.3 + 0.1 * i, "recall@10": 0.5},
        }

    monkeypatch.setattr(pipeline_mod, "_evaluate", fake_evaluate(metrics_at))
    cfg = small_cfg(iterations=3, plateau_eps=0.001, n_generate=0, minibatches_per_iter=2)
    assert [r.iteration for r in run_pipeline(cfg, data)] == [0, 1, 2, 3]

    # and it stops once target MRR gains less than plateau_eps, whatever overall does
    def flat_after_one(i):
        return {"overall": {"mrr@10": 0.1 * i}, "tgta": {"mrr@10": 0.3 + 0.1 * min(i, 1)}}

    monkeypatch.setattr(pipeline_mod, "_evaluate", fake_evaluate(flat_after_one))
    assert [r.iteration for r in run_pipeline(cfg, data)] == [0, 1, 2]


def test_target_mean_sums_the_evaluated_target_languages_in_sorted_order():
    metrics = {
        "overall": {"mrr@10": 0.9},
        "src": {"mrr@10": 0.8},
        "a": {"mrr@10": 0.1},
        "b": {"mrr@10": 0.2, "recall@10": 0.5},
        "c": {"mrr@10": 0.3},
        "d": {"recall@10": 0.7},
    }
    # "d" lacks the key and "e" is not evaluated: both are left out
    got = target_mean(metrics, ["c", "e", "b", "d", "a"], "mrr@10")
    assert got == ((0.1 + 0.2) + 0.3) / 3
    assert got != ((0.3 + 0.2) + 0.1) / 3  # the order is visible in the last bit
    assert target_mean(metrics, {"b", "d"}, "recall@10") == (0.5 + 0.7) / 2
    assert target_mean(metrics, {"e"}, "mrr@10") is None
    assert target_mean(metrics, {"a", "c"}, "ndcg@10") is None
    assert target_mean({}, {"a"}, "mrr@10") is None


def test_pipeline_never_plateaus_without_target_metrics(data, monkeypatch):
    import lexmine.pipeline as pipeline_mod

    # only the source language is evaluated: no target MRR to plateau on
    metrics = {"overall": {"mrr@10": 0.5}, "src": {"mrr@10": 0.5}}
    monkeypatch.setattr(pipeline_mod, "_evaluate", fake_evaluate(lambda i: metrics))
    cfg = small_cfg(iterations=3, plateau_eps=10.0, n_generate=0, minibatches_per_iter=2)
    assert len(run_pipeline(cfg, data)) == 4


def test_three_iterations_rank_each_unlabeled_query_with_bm25_once(data, monkeypatch):
    import lexmine.pipeline as pipeline_mod

    calls = []
    real = pipeline_mod.search_sparse
    monkeypatch.setattr(
        pipeline_mod, "search_sparse", lambda index, tokens, k: calls.append(id(tokens)) or real(index, tokens, k)
    )
    cfg = small_cfg(iterations=3)
    assert len(run_pipeline(cfg, data)) == 4
    # the unlabeled queries' memoized token lists, which mining searches with
    unlabeled = [id(q.tokens(cfg.tokenizer)) for q in data.unlabeled]
    assert Counter(c for c in calls if c in unlabeled) == Counter(unlabeled)


def fresh_queries(queries):
    """New ``Query`` objects for ``queries``, so none has tokens memoized yet."""
    return QuerySet(Query(id=q.id, text=q.text, lang=q.lang) for q in queries)


def test_two_evaluations_tokenize_each_eval_query_once(data, monkeypatch):
    import lexmine.corpus as corpus_mod
    from lexmine.pipeline import _evaluate

    cfg = small_cfg()
    state = make_state(data, cfg)
    fresh = replace(data, eval_queries=fresh_queries(data.eval_queries))
    texts = []
    real = corpus_mod.tokenize
    monkeypatch.setattr(corpus_mod, "tokenize", lambda text, *a, **k: texts.append(text) or real(text, *a, **k))
    first = _evaluate(state, fresh, cfg)
    assert _evaluate(state, fresh, cfg) == first
    assert sorted(texts) == sorted(q.text for q in fresh.eval_queries)


def test_pipeline_tokenizes_each_target_eval_query_once(data, monkeypatch):
    import sys

    import lexmine.corpus as corpus_mod
    import lexmine.pipeline as pipeline_mod

    real = corpus_mod.tokenize
    # every tokenization goes through the corpus module's binding, so patching it counts them all
    bound = [name for name, m in sys.modules.items() if name.startswith("lexmine.") and vars(m).get("tokenize") is real]
    assert bound == ["lexmine.corpus"]
    # a new corpus and new queries, so nothing is memoized yet
    fresh = replace(
        data,
        corpus=Corpus(data.corpus),
        train_queries=fresh_queries(data.train_queries),
        unlabeled=fresh_queries(data.unlabeled),
        eval_queries=fresh_queries(data.eval_queries),
    )
    texts = Counter()
    monkeypatch.setattr(corpus_mod, "tokenize", lambda text, *a, **k: texts.update([text]) or real(text, *a, **k))
    candidates = []
    real_generate = pipeline_mod.generate_query
    monkeypatch.setattr(
        pipeline_mod, "generate_query", lambda *a, **k: candidates.append(real_generate(*a, **k)) or candidates[-1]
    )
    reports = run_pipeline(small_cfg(iterations=2), fresh)
    assert reports[2].generated_candidates == len(candidates) > 0 and reports[2].dataset_size > 0
    # each passage, train, unlabeled and eval query, and generated candidate exactly once
    queries = (*fresh.train_queries, *fresh.unlabeled, *fresh.eval_queries, *candidates)
    assert texts == Counter(p.text for p in fresh.corpus) + Counter(q.text for q in queries)


def test_pipeline_rejects_eval_queries_in_language_overall(data):
    relabelled = QuerySet(replace(q, lang="overall") if q.lang == "tgta" else q for q in data.eval_queries)
    with pytest.raises(ValueError, match="reserved language 'overall'"):
        run_pipeline(small_cfg(iterations=1), replace(data, eval_queries=relabelled))


def test_pipeline_data_rejects_unlabeled_queries_in_language_overall(data):
    # the unlabeled queries' languages are the target languages the reports are read by
    relabelled = QuerySet(replace(q, lang="overall") if q.lang == "tgta" else q for q in data.unlabeled)
    with pytest.raises(ValueError, match=r"unlabeled query '.+' has the reserved language 'overall'"):
        replace(data, unlabeled=relabelled)


def test_pipeline_reports_start_with_warmup_zero_shot(data):
    cfg = small_cfg(iterations=1)
    reports = run_pipeline(cfg, data)
    assert reports[0].iteration == 0
    assert reports[0].mined_samples == 0
    assert "tgta" in reports[0].metrics
    assert reports[1].iteration == 1
