"""Per-layer metrics from a traced run's span summary."""

from __future__ import annotations

from tracing import GROUPS, ORCHESTRATION, STAGES

# metric name -> unit; the order is the order printed
PER_LAYER_UNITS = {
    "corpus.tokenize.calls": "count",
    "corpus.tokenize.self_s": "s",
    "corpus.tokenize.chars_per_s": "chars/s",
    "corpus.load.self_s": "s",
    "sparse.build_index.self_s": "s",
    "sparse.search.calls": "count",
    "sparse.search.self_s": "s",
    "sparse.search.qps": "1/s",
    "dense.vocab_from_corpus.self_s": "s",
    "dense.corpus_token_rows.self_s": "s",
    "dense.init.self_s": "s",
    "dense.train_step.calls": "count",
    "dense.train_step.self_s": "s",
    "dense.train_step.samples_per_s": "1/s",
    "dense.search.calls": "count",
    "dense.search.self_s": "s",
    "dense.search.qps": "1/s",
    "dense.build_index.calls": "count",
    "dense.build_index.self_s": "s",
    "dense.checkpoint.self_s": "s",
    "mining.mine_pairs.self_s": "s",
    "mining.assemble.self_s": "s",
    "mining.random_negatives.self_s": "s",
    "mining.save_samples.self_s": "s",
    "mining.yield": "ratio",
    "querygen.train.self_s": "s",
    "querygen.generate.calls": "count",
    "querygen.generate.self_s": "s",
    "querygen.filter.calls": "count",
    "querygen.filter.self_s": "s",
    "querygen.assemble.self_s": "s",
    "querygen.io.self_s": "s",
    "querygen.accept_ratio": "ratio",
    "evaluation.metrics.self_s": "s",
    "evaluation.save_run.self_s": "s",
    "pipeline.dense_run.self_s": "s",
    "pipeline.warmup_s": "s",
    "pipeline.iteration_s": "s",
    **{f"pipeline.stage.{s}_s": "s" for s in STAGES},
    "pipeline.self_s": "s",
    "cli.self_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "quality.target_mrr10_zeroshot": "mrr",
}

# groups whose self time is a metric of its own; the rest is pipeline.self_s or cli.self_s
_LAYER_GROUPS = tuple(g for g in GROUPS if g not in ORCHESTRATION and g != "cli.dispatch")


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def per_layer(traced: dict, untraced_run_s: float, reports: list[dict], n_unlabeled: int,
              zeroshot_mrr: float) -> dict:
    """Metric name -> {"value", "unit"} for one traced run.

    Every span's self time lands in exactly one of the ``*.self_s`` groups,
    ``pipeline.self_s`` (orchestration) or ``cli.self_s``, which is the rest of
    the traced run: interpreter start, imports, argument parsing and exit. So
    the self times add up to ``trace.run_s``. ``mining.yield`` and
    ``querygen.accept_ratio`` are summed over the iterations' reports.
    """
    summary = traced.get("trace") or {"groups": {}, "stages": {}, "counters": {}, "spans": 0}
    groups = summary["groups"]
    g = lambda name, key: groups.get(name, {}).get(key, 0.0)  # noqa: E731
    counters = summary["counters"]
    run_s = traced["run_s"]
    values: dict[str, float] = {f"{name}.self_s": g(name, "self_s") for name in _LAYER_GROUPS}
    for name in ("corpus.tokenize", "sparse.search", "dense.train_step", "dense.search",
                 "dense.build_index", "querygen.generate", "querygen.filter"):
        values[f"{name}.calls"] = g(name, "calls")
    values["corpus.tokenize.chars_per_s"] = _rate(counters.get("tokenize.chars", 0), g("corpus.tokenize", "self_s"))
    values["sparse.search.qps"] = _rate(g("sparse.search", "calls"), g("sparse.search", "self_s"))
    values["dense.search.qps"] = _rate(g("dense.search", "calls"), g("dense.search", "self_s"))
    values["dense.train_step.samples_per_s"] = _rate(
        counters.get("train_step.samples", 0), g("dense.train_step", "self_s"))
    iters = reports[1:]
    values["mining.yield"] = _rate(
        sum(r["mined_queries_with_positives"] for r in iters), n_unlabeled * len(iters))
    values["querygen.accept_ratio"] = _rate(
        sum(r["generated_accepted"] for r in iters), sum(r["generated_candidates"] for r in iters))
    values["pipeline.warmup_s"] = g("pipeline.warmup", "dur_s")
    values["pipeline.iteration_s"] = g("pipeline.run_iteration", "dur_s")
    for stage in STAGES:
        values[f"pipeline.stage.{stage}_s"] = summary["stages"].get(stage, 0.0)
    values["pipeline.self_s"] = sum(g(name, "self_s") for name in ORCHESTRATION)
    covered = sum(values[f"{name}.self_s"] for name in _LAYER_GROUPS) + values["pipeline.self_s"]
    values["cli.self_s"] = run_s - covered
    values["trace.run_s"] = run_s
    values["trace.overhead_s"] = run_s - untraced_run_s
    values["trace.spans"] = summary["spans"]
    values["quality.target_mrr10_zeroshot"] = zeroshot_mrr
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
