"""Every function the benchmark's tracer wraps still exists under its name,
and the benchmark's output oracle encodes and ranks BM25 as the program does.

``perfbench/tracing.py`` looks each traced function up by (module, name) on
the installed package; a renamed or deleted one would only fail the traced
benchmark run. ``perfbench/checks.py`` re-derives mining and evaluation from
checkpoints through ``EncoderParams`` attributes, and BM25 from its own posting
lists through ``InvertedIndex`` and ``bm25_score``; a changed one would only
fail the benchmark's output checks. Both files are read and executed here,
never imported as package modules, so these checks write nothing under
``perfbench/``.
"""

import importlib
import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from lexmine.corpus import (
    Corpus, Judgment, JudgmentSet, Passage, Query, QuerySet, save_passages, save_qrels, save_queries, synth_benchmark,
    tokenize,
)
from lexmine.dense import (
    _mean_pool, _token_rows, bind_encoder, build_dense_index, init_params, load_checkpoint, save_checkpoint, train_step,
    vocab_from_corpus,
)
from lexmine.pipeline import PipelineConfig, pipeline_data_from_benchmark
from lexmine.sparse import build_index, search_sparse

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _exec(name: str) -> dict:
    path = PERFBENCH / name
    namespace = {"__name__": f"perfbench_{path.stem}"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return namespace


def _traced_targets() -> set[tuple[str, str]]:
    targets = {t for group in _exec("tracing.py")["GROUPS"].values() for t in group}
    # the benchmark's child process times set-up up to this function's entry
    return targets | {("pipeline", "warmup")}


def test_traced_functions_resolve_on_lexmine():
    missing = [
        f"lexmine.{module}.{name}"
        for module, name in sorted(_traced_targets())
        if not callable(getattr(importlib.import_module(f"lexmine.{module}"), name, None))
    ]
    assert not missing


def test_counted_arguments_keep_their_positions():
    # the tracer's counters read train_step's batch as args[2] and tokenize's text as args[0]
    assert list(inspect.signature(train_step).parameters)[2] == "batch"
    assert list(inspect.signature(tokenize).parameters)[0] == "text"


@contextmanager
def _installed_tracer():
    """A tracer installed on every lexmine namespace, which is restored after."""
    import lexmine.cli  # noqa: F401  (the tracer wraps its namespace too)

    tracing = _exec("tracing.py")
    modules = [sys.modules[f"lexmine.{m}"] for m in tracing["MODULES"]]
    saved = [dict(vars(m)) for m in modules]
    try:
        tracer = tracing["Tracer"]()
        assert tracer.install() > 0
        yield tracer
    finally:
        for m, d in zip(modules, saved):
            vars(m).update(d)


def test_tracer_counts_every_tokenization_in_the_corpus_group():
    # the tracer wraps each namespace's binding; passages and queries alike tokenize through corpus's
    texts = ["Apple banana", "日本語 fig", "apple cherry", "日本"]
    with _installed_tracer() as tracer:
        Corpus([Passage(id="p1", text=texts[0]), Passage(id="p2", text=texts[1])]).tokenized()
        for i, text in enumerate(texts[2:]):
            Query(id=f"q{i}", text=text).tokens()
        summary = tracer.summary()
    assert summary["groups"]["corpus.tokenize"]["calls"] == len(texts)
    assert summary["counters"]["tokenize.chars"] == sum(map(len, texts))


def test_tracer_sees_every_dense_search():
    # mining, the generation filter and evaluation each search the dense index
    from test_pipeline import SPEC, small_cfg

    data = pipeline_data_from_benchmark(synth_benchmark(SPEC, seed=5))
    with _installed_tracer() as tracer:
        sys.modules["lexmine.pipeline"].run_pipeline(small_cfg(iterations=2, minibatches_per_iter=5), data)
    parents = Counter(
        tracer.names[p] for name, p in zip(tracer.names, tracer.parents) if name == "dense.search"
    )
    # warm-up and two iterations evaluate; both iterations mine; iteration 2 filters each target language
    assert parents == {"pipeline.run_iteration": 2, "querygen.filter": 1, "pipeline.dense_run": 3}


def _oracle(tmp_path):
    """The benchmark's oracle over a small mixed-script corpus: passages with
    repeated, CJK and no tokens; queries with out-of-vocabulary tokens."""
    corpus = Corpus(
        [
            Passage(id="p1", text="Apple banana apple"),
            Passage(id="p2", text="cherry 日本語 fig", lang="ja"),
            Passage(id="p3", text="!!"),
            Passage(id="p4", text="banana fig fig date"),
        ]
    )
    queries = QuerySet(
        [
            Query(id="q1", text="apple cherry"),
            Query(id="q2", text="zzz"),
            Query(id="q3", text="日本 fig zzz", lang="ja"),
        ]
    )
    data = {name: str(tmp_path / name) for name in ("passages", "unlabeled_queries", "eval_queries", "eval_qrels")}
    save_passages(corpus, data["passages"])
    save_queries(queries, data["unlabeled_queries"])
    save_queries(queries, data["eval_queries"])
    save_qrels(JudgmentSet([Judgment(query_id="q1", passage_id="p1", grade=1)]), data["eval_qrels"])
    cfg = PipelineConfig()
    return _exec("checks.py")["Oracle"](data, asdict(cfg)), corpus, queries, cfg


def test_benchmark_oracle_encodes_as_the_encoder_does(tmp_path):
    oracle, corpus, queries, cfg = _oracle(tmp_path)
    # read back as checks.py reads each run's checkpoints
    save_checkpoint(tmp_path / "checkpoint.npz", init_params(vocab_from_corpus(corpus, cfg.tokenizer), dim=4, seed=3))
    params, _ = load_checkpoint(tmp_path / "checkpoint.npz")

    want = build_dense_index(bind_encoder(params, corpus, cfg.tokenizer)).vectors
    np.testing.assert_allclose(oracle.passage_matrix(params), want, rtol=0, atol=1e-12)
    for q in queries:
        pooled = _mean_pool(params.embedding, *_token_rows(params.vocab, [tokenize(q.text, cfg.tokenizer)]))[0]
        np.testing.assert_allclose(oracle.query_vector(params, q.text), pooled, rtol=0, atol=1e-12)


def test_benchmark_oracle_ranks_bm25_as_search_sparse_does(tmp_path):
    # the oracle scores an index built from its own posting lists with bm25_score
    oracle, corpus, queries, cfg = _oracle(tmp_path)
    index = build_index(corpus, cfg.tokenizer, cfg.bm25)
    texts = [q.text for q in queries] + ["fig", "apple banana fig 日本語", "date 日 zzz"]
    for text in texts:
        for k in (1, 2, cfg.mining.L):
            want = [corpus.ids[p] for p in search_sparse(index, tokenize(text, cfg.tokenizer), k)[0].tolist()]
            assert oracle.sparse_top(text, k) == want, (text, k)
    assert any(oracle.sparse_top(text, 2) for text in texts)
