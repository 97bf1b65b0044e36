"""Acceptance suite: each criterion at its stated tolerance.

Every test prints one `[PASS]`/`[FAIL]` line (run with `pytest -s` to see them
live). The directional criteria share three seeded full-pipeline runs on the
shipped synthetic benchmark, so the whole module takes a few minutes.
"""

import math
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from lexmine.cli import parse_kv_config, pipeline_config_from_mapping
from lexmine.corpus import Corpus, Judgment, JudgmentSet, Passage, Query, SynthSpec, synth_benchmark, tokenize
from lexmine.dense import TrainingSample, infonce_batch, init_params, vocab_from_corpus
from lexmine.evaluation import mrr_at_k, paired_t_test, recall_at_k
from lexmine.mining import MiningConfig, mine_pairs
from lexmine.pipeline import (
    assemble_warmup_samples,
    generate,
    pipeline_data_from_benchmark,
    run_iteration,
    run_pipeline,
    start_state,
    warmup,
)
from lexmine.sparse import BM25Params, bm25_score, build_index, search_sparse

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SYNTH_SEED = 11
PIPELINE_SEEDS = (7, 21, 1377)
EVAL_KEY = "mrr@10"


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared fixtures (three seeded runs on the shipped benchmark)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bench():
    spec = SynthSpec.from_mapping(parse_kv_config(CONFIGS / "synth_benchmark.cfg"))
    return synth_benchmark(spec, seed=SYNTH_SEED)


@pytest.fixture(scope="module")
def data(bench):
    return pipeline_data_from_benchmark(bench)


@pytest.fixture(scope="module")
def cfg_mapping():
    return parse_kv_config(CONFIGS / "pipeline_benchmark.cfg")


def _target_mean(report, bench):
    return sum(report.metrics[lang][EVAL_KEY] for lang in bench.target_langs) / len(
        bench.target_langs
    )


@pytest.fixture(scope="module")
def seeded_runs(bench, data, cfg_mapping):
    runs = {}
    for seed in PIPELINE_SEEDS:
        cfg = pipeline_config_from_mapping(cfg_mapping, seed=seed)
        t0 = time.perf_counter()
        reports = run_pipeline(cfg, data)
        runs[seed] = (reports, time.perf_counter() - t0)
    return runs


# ---------------------------------------------------------------------------
# 1. mining oracle equivalence
# ---------------------------------------------------------------------------


def test_acceptance_1_mining_oracle():
    rng = np.random.default_rng(20240901)
    ids = [f"p{i:03d}" for i in range(120)]
    t0 = time.perf_counter()
    checked = 0
    for _ in range(1000):
        n1, n2 = int(rng.integers(0, 51)), int(rng.integers(0, 51))
        sparse_ids = list(rng.choice(ids, size=n1, replace=False))
        dense_ids = list(rng.choice(ids, size=n2, replace=False))
        L = int(rng.integers(1, 51))
        S = int(rng.integers(1, L + 1))
        sparse = [(pid, float(n1 - i)) for i, pid in enumerate(sparse_ids)]
        dense = [(pid, float(n2 - i)) for i, pid in enumerate(dense_ids)]
        sets = mine_pairs(sparse, dense, MiningConfig(S=S, L=L))
        ss, sd = set(sparse_ids[:S]), set(dense_ids[:S])
        ls, ld = set(sparse_ids), set(dense_ids)
        want_pos = {p for p in ls | ld if p in ss and p in sd}
        want_neg = {
            p for p in ls | ld if (p in ss and p not in ld) or (p in sd and p not in ls)
        }
        assert set(sets.positives) == want_pos and set(sets.negatives) == want_neg
        assert not (set(sets.positives) & set(sets.negatives))
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1 (mining oracle)",
        checked == 1000 and elapsed < 5.0,
        f"{checked} fixtures exact in {elapsed:.2f}s (< 5s)",
    )


# ---------------------------------------------------------------------------
# 2. InfoNCE gradient check
# ---------------------------------------------------------------------------


def _gradient_case(seed):
    """A 3-sample batch: each sample's in-batch negatives are the other samples'
    positives, and the last sample shares the first one's positive."""
    rng = np.random.default_rng(seed)
    vocab = [f"t{i}" for i in range(12)]
    passages = [
        Passage(id=f"p{i}", text=" ".join(vocab[int(rng.integers(12))] for _ in range(int(rng.integers(2, 7)))))
        for i in range(7)
    ]
    # a passage in no sample holds every token, so the encoder's vocabulary is the corpus's
    corpus = Corpus([*passages, Passage(id="all", text=" ".join(vocab))])
    params = init_params(vocab_from_corpus(corpus), dim=5, seed=seed)
    params.embedding[:] = rng.normal(0, 0.6, size=params.embedding.shape)
    queries = [
        Query(id=f"q{i}", text=" ".join(vocab[int(rng.integers(12))] for _ in range(3))) for i in range(3)
    ]
    batch = [
        TrainingSample(query=queries[0], positive="p0", hard_negatives=("p1", "p2"), random_negatives=("p3",)),
        TrainingSample(query=queries[1], positive="p4", hard_negatives=("p5",)),
        TrainingSample(query=queries[2], positive="p0", random_negatives=("p6",)),
    ]
    return params, batch, corpus


def test_acceptance_2_gradient_check():
    # the production gradient (train_step's) against central differences of the
    # batch mean loss, over the one table that encodes queries and passages
    t0 = time.perf_counter()
    h = 1e-5
    worst = 0.0
    for seed in range(20):
        params, batch, corpus = _gradient_case(seed)
        _, analytic = infonce_batch(params, batch, corpus)
        table = params.embedding
        for row in range(table.shape[0]):
            numeric = np.zeros(params.dim)
            for j in range(params.dim):
                orig = table[row, j]
                table[row, j] = orig + h
                up = infonce_batch(params, batch, corpus)[0]
                table[row, j] = orig - h
                down = infonce_batch(params, batch, corpus)[0]
                table[row, j] = orig
                numeric[j] = (up - down) / (2 * h)
            denom = max(float(np.max(np.abs(numeric))), 1e-8)
            worst = max(worst, float(np.max(np.abs(analytic[row] - numeric))) / denom)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 2 (gradient check)",
        worst < 1e-4 and elapsed < 10.0,
        f"20 draws, max relative error {worst:.2e} (< 1e-4) in {elapsed:.2f}s (< 10s)",
    )


# ---------------------------------------------------------------------------
# 3. BM25 oracle
# ---------------------------------------------------------------------------


def test_acceptance_3_bm25_oracle():
    rng = np.random.default_rng(77)
    failures = 0
    for _ in range(50):
        n_docs = int(rng.integers(2, 201))
        passages = [
            Passage(
                id=f"d{i:03d}",
                text=" ".join(f"w{int(rng.integers(60))}" for _ in range(int(rng.integers(1, 15)))),
            )
            for i in range(n_docs)
        ]
        corpus = Corpus(passages)
        index = build_index(corpus)
        q_text = " ".join(f"w{int(rng.integers(70))}" for _ in range(int(rng.integers(1, 5))))
        tokens = tokenize(q_text)
        got = search_sparse(index, tokens, k=n_docs)
        want = [
            (pid, s)
            for pid, s in ((pid, bm25_score(index, tokens, pid)) for pid in corpus.ids)
            if s > 0.0
        ]
        want.sort(key=lambda kv: (-kv[1], kv[0]))
        if got != want[:n_docs]:
            failures += 1

    # hand-computed case: idf = ln 2 and the tf normalization cancels
    hand = Corpus([Passage(id="d1", text="x"), Passage(id="d2", text="y")])
    hand_index = build_index(hand, params=BM25Params(k1=0.9, b=0.4))
    hand_err = abs(bm25_score(hand_index, ["x"], "d1") - math.log(2.0))
    _report(
        "criterion 3 (BM25 oracle)",
        failures == 0 and hand_err < 1e-9,
        f"50 corpora exact ({failures} mismatches); ln2 case error {hand_err:.1e} (< 1e-9)",
    )


# ---------------------------------------------------------------------------
# 4. metric oracles
# ---------------------------------------------------------------------------


def test_acceptance_4_metric_oracles():
    rng = np.random.default_rng(990)
    pids = [f"p{i}" for i in range(15)]
    mismatches = 0
    violations = 0
    for _ in range(1000):
        run = {}
        judgments = []
        seen_pairs = set()
        for qi in range(int(rng.integers(1, 7))):
            qid = f"q{qi}"
            if rng.random() < 0.85:
                n_ret = int(rng.integers(0, 15))
                order = rng.permutation(15)[:n_ret]
                run[qid] = [(pids[i], float(100 - r)) for r, i in enumerate(order)]
            for pid in rng.choice(pids, size=int(rng.integers(0, 4)), replace=False):
                if (qid, str(pid)) not in seen_pairs:
                    seen_pairs.add((qid, str(pid)))
                    judgments.append(Judgment(qid, str(pid), int(rng.integers(0, 3))))
        qrels = JudgmentSet(judgments)
        k = int(rng.integers(1, 16))
        mrr = mrr_at_k(run, qrels, k)
        rec = recall_at_k(run, qrels, k)
        for qid in qrels.by_query:
            relevant = qrels.relevant(qid)
            if not relevant:
                assert qid not in mrr.per_query
                continue
            rr = hit = 0.0
            for rank, (pid, _) in enumerate(run.get(qid, [])[:k], 1):
                if pid in relevant:
                    rr, hit = 1.0 / rank, 1.0
                    break
            if mrr.per_query[qid] != rr or rec.per_query[qid] != hit:
                mismatches += 1
            if rec.per_query[qid] < mrr.per_query[qid]:
                violations += 1
    _report(
        "criterion 4 (metric oracles)",
        mismatches == 0 and violations == 0,
        f"1000 fixtures exact ({mismatches} mismatches); recall >= mrr held ({violations} violations)",
    )


# ---------------------------------------------------------------------------
# 5. directional Table-1 analogue
# ---------------------------------------------------------------------------


def test_acceptance_5_directional_improvement(bench, seeded_runs):
    reports, elapsed = seeded_runs[PIPELINE_SEEDS[0]]
    zero_shot = _target_mean(reports[0], bench)
    final = _target_mean(reports[-1], bench)
    rel = (final - zero_shot) / zero_shot if zero_shot > 0 else float("inf")
    ok = rel >= 0.20 and elapsed < 600.0
    _report(
        "criterion 5 (directional improvement)",
        ok,
        f"target MRR@10 {zero_shot:.4f} -> {final:.4f} ({100 * rel:+.1f}% relative, >= +20%) "
        f"in {elapsed:.0f}s (< 600s)",
    )


# ---------------------------------------------------------------------------
# 6. directional Figure-4 analogue
# ---------------------------------------------------------------------------


def test_acceptance_6_iteration_trend(bench, seeded_runs):
    detail = []
    ok = True
    for seed in PIPELINE_SEEDS:
        reports, _ = seeded_runs[seed]
        first = _target_mean(reports[1], bench)
        final = _target_mean(reports[-1], bench)
        ok = ok and final >= first
        detail.append(f"seed {seed}: iter1 {first:.4f} -> final {final:.4f}")
    _report("criterion 6 (iteration trend)", ok, "; ".join(detail))


# ---------------------------------------------------------------------------
# 7. directional Table-5 analogue (agreement mining vs double dense)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ablation_runs(bench, data, cfg_mapping):
    results = {"standard": [], "double_dense": []}
    for seed in PIPELINE_SEEDS:
        for name, mode in (("standard", "sparse_dense"), ("double_dense", "double_dense")):
            cfg = pipeline_config_from_mapping(
                {**cfg_mapping, "mining_mode": mode, "n_generate": "0"},
                seed=seed,
            )
            reports = run_pipeline(cfg, data)
            results[name].append(_target_mean(reports[-1], bench))
    return results


def test_acceptance_7_double_dense(ablation_runs):
    std = statistics.median(ablation_runs["standard"])
    dd = statistics.median(ablation_runs["double_dense"])
    _report(
        "criterion 7 (vs double dense)",
        std > dd,
        f"median target MRR@10: agreement mining {std:.4f} > double dense {dd:.4f} "
        f"(per-seed: {['%.3f' % v for v in ablation_runs['standard']]} vs "
        f"{['%.3f' % v for v in ablation_runs['double_dense']]})",
    )


# ---------------------------------------------------------------------------
# 8. filter efficacy
# ---------------------------------------------------------------------------


def test_acceptance_8_filter_precision(bench, data, cfg_mapping):
    cfg = pipeline_config_from_mapping(cfg_mapping, seed=PIPELINE_SEEDS[0])
    sparse = build_index(data.corpus, cfg.tokenizer, cfg.bm25)
    labeled = assemble_warmup_samples(data.train_queries, data.train_qrels, sparse, cfg)
    params, generator = warmup(labeled, data.corpus, cfg)
    state = start_state(params, generator, sparse, data.corpus, cfg)
    # two iterations so the generator has been retrained on mined target pairs
    run_iteration(state, replace(data, eval_queries=None, eval_qrels=None), cfg)
    run_iteration(state, replace(data, eval_queries=None, eval_qrels=None), cfg)

    def topical(query, pid):
        terms = set(bench.topic_terms[bench.passage_topics[pid]])
        return bool(set(tokenize(query.text, cfg.tokenizer)) & terms)

    # the pipeline's own generate stage, as a third iteration would run it
    accepted, rejected = generate(state, bench.target_langs, cfg, iteration=3)
    accepted_flags = [topical(s.query, s.positive) for s in accepted]
    all_flags = accepted_flags + [topical(pair.query, pair.passage_id) for pair in rejected]
    prec_all = float(np.mean(all_flags))
    prec_acc = float(np.mean(accepted_flags)) if accepted_flags else 0.0
    _report(
        "criterion 8 (filter efficacy)",
        len(accepted_flags) > 0 and prec_acc > prec_all,
        f"precision accepted {prec_acc:.4f} (n={len(accepted_flags)}) > "
        f"all generated {prec_all:.4f} (n={len(all_flags)})",
    )


# ---------------------------------------------------------------------------
# 9. paired t-test oracle
# ---------------------------------------------------------------------------


def test_acceptance_9_ttest_oracle():
    rng = np.random.default_rng(314)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 60))
        a = rng.normal(0.5, 0.25, size=n)
        b = a + rng.normal(0.0, 0.15, size=n)
        res = paired_t_test(list(a), list(b))
        t_ref, p_ref = stats.ttest_rel(a, b)
        worst = max(worst, abs(res.t - float(t_ref)), abs(res.p_two_sided - float(p_ref)))
    _report(
        "criterion 9 (t-test oracle)",
        worst < 1e-6,
        f"20 fixtures, max |delta| vs reference {worst:.2e} (< 1e-6)",
    )
