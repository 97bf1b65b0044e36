"""Workload definitions and input generation for the lexmine benchmark.

Inputs are made here, from the workload seed, before anything is timed. The
program under test only ever sees the files written by ``write_inputs``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# The default workload seed reproduces the shipped pair (synth seed 11,
# pipeline seed 7); seed n shifts both by n.
SYNTH_SEED_BASE = 11
PIPELINE_SEED_BASE = 7

CJK_BASE = 0x4E00  # first CJK unified ideograph
CJK_LAST = 0x9FFF


@dataclass(frozen=True)
class Workload:
    name: str
    # None keeps the shipped configs/pipeline_benchmark.cfg value.
    minibatches_per_iter: int | None
    cjk: bool = False
    # every process of one invocation is stopped by then
    timeout_s: float = 170.0


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("full_loop", minibatches_per_iter=None, timeout_s=600.0),
        Workload("mine_heavy", minibatches_per_iter=20),
        Workload("cjk_mine_heavy", minibatches_per_iter=20, cjk=True),
    )
}


def seeds_for(seed: int) -> tuple[int, int]:
    """(synth seed, pipeline seed) selected by a workload seed."""
    return SYNTH_SEED_BASE + seed, PIPELINE_SEED_BASE + seed


def cjk_mapping(tokens) -> dict[str, str]:
    """Order-preserving map: the i-th smallest token becomes U+4E00+i."""
    ordered = sorted(set(tokens))
    if CJK_BASE + len(ordered) - 1 > CJK_LAST:
        raise ValueError(f"{len(ordered)} tokens do not fit the CJK unified block")
    return {t: chr(CJK_BASE + i) for i, t in enumerate(ordered)}


def to_cjk(text: str, mapping: dict[str, str]) -> str:
    """Map each whitespace-separated token and join without spaces, as CJK text is written."""
    return "".join(mapping[t] for t in text.split())


def _write_jsonl(records, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps({"id": r.id, "text": r.text, "lang": r.lang}, ensure_ascii=False))
            fh.write("\n")


def write_inputs(root: Path, workload: Workload, seed: int, out: Path, synth_cfg: dict | None = None) -> dict:
    """Generate the synthetic corpus for ``seed`` and write the pipeline inputs.

    ``root`` is the checkout whose ``src`` and ``configs`` are benchmarked;
    ``synth_cfg`` overrides the shipped synth config (the tests use a tiny one).
    Returns the ``--set`` data keys for ``lexmine pipeline``.
    """
    from lexmine.cli import parse_kv_config
    from lexmine.corpus import Passage, Query, SynthSpec, save_qrels, synth_benchmark

    mapping = synth_cfg if synth_cfg is not None else parse_kv_config(root / "configs" / "synth_benchmark.cfg")
    synth_seed, _ = seeds_for(seed)
    bench = synth_benchmark(SynthSpec.from_mapping(mapping), seed=synth_seed)
    passages = list(bench.corpus)
    judged = list(bench.queries)
    unlabeled = [q for q in bench.unlabeled if q.lang != bench.source_lang]
    if workload.cjk:
        cmap = cjk_mapping(
            t for r in (*passages, *judged, *bench.unlabeled) for t in r.text.split()
        )
        passages = [Passage(p.id, to_cjk(p.text, cmap), p.lang) for p in passages]
        judged = [Query(q.id, to_cjk(q.text, cmap), q.lang) for q in judged]
        unlabeled = [Query(q.id, to_cjk(q.text, cmap), q.lang) for q in unlabeled]
    out.mkdir(parents=True, exist_ok=True)
    files = {
        "passages": out / "passages.jsonl",
        "train_queries": out / "train_queries.jsonl",
        "train_qrels": out / "qrels.tsv",
        "unlabeled_queries": out / "unlabeled_tgt.jsonl",
        "eval_queries": out / "queries.jsonl",
        "eval_qrels": out / "qrels.tsv",
    }
    _write_jsonl(passages, files["passages"])
    _write_jsonl([q for q in judged if q.lang == bench.source_lang], files["train_queries"])
    _write_jsonl(unlabeled, files["unlabeled_queries"])
    _write_jsonl(judged, files["eval_queries"])
    save_qrels(bench.judgments, files["train_qrels"])
    return {k: str(v) for k, v in files.items()}


def pipeline_argv(root: Path, workload: Workload, seed: int, data: dict, out: Path) -> list[str]:
    """The ``lexmine pipeline`` command line for one run, as the README gives it."""
    _, pipeline_seed = seeds_for(seed)
    argv = [
        "pipeline",
        "--config", str(root / "configs" / "pipeline_benchmark.cfg"),
        "--seed", str(pipeline_seed),
        "--out", str(out),
    ]
    for key, path in data.items():
        argv += ["--set", f"{key}={path}"]
    if workload.minibatches_per_iter is not None:
        argv += ["--set", f"minibatches_per_iter={workload.minibatches_per_iter}"]
    return argv
