"""Tests of the benchmark itself, on a tiny synthetic corpus.

Run with: python3 -m pytest perfbench/tests
"""

import json
import shutil

import pytest

from conftest import BENCH_DIR, ROOT
from lexmine.corpus import synth_benchmark, SynthSpec, tokenize

import run as bench
from layers import PER_LAYER_UNITS
from workloads import WORKLOADS, cjk_mapping, to_cjk

TINY_SYNTH = {
    "languages": "src,tgta,tgtb",
    "topics_per_lang": "6",
    "passages_per_topic": "4",
    "vocab_size": "120",
    "query_len": "3",
    "labeled_frac": "0.5",
    "queries_per_lang": "40",
    "passage_len": "20",
    "terms_per_topic": "6",
    "core_terms_per_topic": "2",
    "topic_token_frac": "0.5",
    "query_topic_frac": "0.8",
}
TINY_SETS = (
    "iterations=2",
    "minibatches_per_iter=5",
    "batch_size=8",
    "warmup_epochs=1",
    "n_generate=20",
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload, trace):
    return bench.run_benchmark(ROOT, WORKLOADS[workload], seed=0, seconds=0, trace=trace,
                               synth_cfg=TINY_SYNTH, extra_sets=TINY_SETS)


def test_benchmark_json_matches_the_code():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_each_workload_emits_every_metric_with_its_unit(workload, trace):
    result = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    units = PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    assert result["attempted"] >= 1
    assert result["failed"] == 0, result
    if trace:
        m = {name: v["value"] for name, v in result["metrics"].items()}
        assert m["corpus.tokenize.calls"] > 0 and m["dense.train_step.calls"] > 0
        self_sum = sum(v for name, v in m.items() if name.endswith(".self_s"))
        assert self_sum == pytest.approx(m["trace.run_s"], rel=1e-9)
        stages = sum(m[f"pipeline.stage.{s}_s"] for s in ("setup", "warmup", "mine", "generate",
                                                          "train", "refresh", "eval", "write"))
        assert stages + m["pipeline.self_s"] + m["cli.self_s"] == pytest.approx(m["trace.run_s"], rel=1e-9)


def test_cjk_mapping_is_an_order_preserving_bijection():
    bench_data = synth_benchmark(SynthSpec.from_mapping(TINY_SYNTH), seed=11)
    tokens = {t for p in bench_data.corpus for t in p.text.split()}
    tokens |= {t for q in [*bench_data.queries, *bench_data.unlabeled] for t in q.text.split()}
    cmap = cjk_mapping(tokens)
    assert set(cmap) == tokens
    assert len(set(cmap.values())) == len(tokens)
    ordered = sorted(tokens)
    assert [cmap[t] for t in ordered] == sorted(cmap.values())
    for p in bench_data.corpus:
        mapped = to_cjk(p.text, cmap)
        assert " " not in mapped
        assert tokenize(mapped) == [cmap[t] for t in p.text.split()]


def test_tracer_wraps_every_importing_namespace():
    import sys

    import lexmine.cli  # noqa: F401
    from tracing import MODULES, Tracer

    modules = [sys.modules[f"lexmine.{m}"] for m in MODULES]
    saved = [dict(vars(m)) for m in modules]
    try:
        assert Tracer().install() > 0
        for m, n in (("pipeline", "search_dense"), ("querygen", "search_sparse"), ("cli", "train_step"),
                     ("mining", "sample_random_negatives"), ("sparse", "tokenize"), ("dense", "tokenize")):
            assert getattr(getattr(sys.modules[f"lexmine.{m}"], n), "__wrapped_by_perfbench__", False), (m, n)
        assert not hasattr(sys.modules["lexmine.mining"].TrainingSample, "__wrapped_by_perfbench__")
    finally:
        for m, d in zip(modules, saved):
            vars(m).update(d)


def _corrupt_mined(out):
    """Drop one hard negative of a sampled query that has positives."""
    from checks import mining_sample
    from lexmine.corpus import load_queries

    unlabeled = list(load_queries(out.parent / "data" / "unlabeled_tgt.jsonl"))
    sampled = {unlabeled[i].id for i in mining_sample(len(unlabeled), 1, 0)}
    path = out / "iter_1" / "mined.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    i = next(i for i, line in enumerate(lines)
             if json.loads(line)["query_id"] in sampled and json.loads(line)["hard_negatives"])
    rec = json.loads(lines[i])
    rec["hard_negatives"] = rec["hard_negatives"][1:]
    lines[i] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _corrupt_run(out):
    path = out / "iter_2" / "run.trec"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[0], lines[1] = lines[1], lines[0]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _corrupt_report(out):
    path = out / "iter_2" / "report.json"
    rep = json.loads(path.read_text(encoding="utf-8"))
    rep["generated_rejected"] += 1
    path.write_text(json.dumps(rep), encoding="utf-8")


@pytest.mark.parametrize("corrupt", [_corrupt_mined, _corrupt_run, _corrupt_report])
def test_corrupted_artifact_fails_a_check(tmp_path, corrupt):
    work = ROOT / bench.WORK_DIR / f"test-corrupt-{corrupt.__name__}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = bench.Runner(ROOT, WORKLOADS["mine_heavy"], 0, work, TINY_SYNTH, TINY_SETS)
        out = work / "run_1"
        run = runner.spawn(runner.argv(out))
        clean, _ = runner.check(out, run, None)
        assert all(ok for _, ok, _ in clean), clean
        corrupt(out)
        checks, _ = runner.check(out, run, None)
        failed = [name for name, ok, _ in checks if not ok]
        assert failed, checks
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_refuses_a_directory_without_the_program(tmp_path):
    import subprocess
    import sys

    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mine_heavy", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
