"""Span tracing for the traced benchmark run, installed from outside the program.

Every traced function is wrapped in each ``lexmine`` module namespace that
binds it: ``pipeline``, ``querygen``, ``mining`` and ``cli`` import
``search_dense``, ``search_sparse``, ``tokenize`` and ``train_step`` with
``from .x import f``, so patching only the defining module would miss most
calls. Spans (name, start, end, parent) are kept in memory; a span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time

# metric group -> (module, function) pairs wrapped for it
GROUPS: dict[str, tuple[tuple[str, str], ...]] = {
    "corpus.tokenize": (("corpus", "tokenize"),),
    "corpus.load": (("corpus", "load_passages"), ("corpus", "load_queries"), ("corpus", "load_qrels")),
    "sparse.build_index": (("sparse", "build_index"),),
    "sparse.search": (("sparse", "search_sparse"),),
    "dense.vocab_from_corpus": (("dense", "vocab_from_corpus"),),
    "dense.corpus_token_rows": (("dense", "corpus_token_rows"),),
    "dense.init": (("dense", "init_params"), ("dense", "init_optimizer")),
    "dense.train_step": (("dense", "train_step"),),
    "dense.search": (("dense", "search_dense"),),
    "dense.build_index": (("dense", "build_dense_index"),),
    "dense.checkpoint": (("dense", "save_checkpoint"), ("dense", "load_checkpoint")),
    "mining.mine_pairs": (("mining", "mine_pairs"), ("mining", "hybrid_fuse")),
    "mining.assemble": (("mining", "assemble_mined_sample"),),
    "mining.random_negatives": (("mining", "sample_random_negatives"),),
    "mining.save_samples": (("mining", "save_samples"),),
    "querygen.train": (("querygen", "train_generator"),),
    "querygen.generate": (("querygen", "generate_query"),),
    "querygen.filter": (("querygen", "filter_generated"),),
    "querygen.assemble": (("querygen", "assemble_generated_sample"),),
    "querygen.io": (("querygen", "save_generator"), ("querygen", "load_generator")),
    "evaluation.metrics": (("evaluation", "mrr_at_k"), ("evaluation", "recall_at_k")),
    "evaluation.save_run": (("evaluation", "save_run"),),
    "pipeline.dense_run": (("pipeline", "dense_run"),),
    # orchestration: their self time is pipeline.self_s
    "pipeline.run_pipeline": (("pipeline", "run_pipeline"),),
    "pipeline.warmup": (("pipeline", "warmup"),),
    "pipeline.run_iteration": (("pipeline", "run_iteration"),),
    "pipeline.assemble_warmup_samples": (("pipeline", "assemble_warmup_samples"),),
    "cli.dispatch": (("cli", "dispatch"),),
}
ORCHESTRATION = (
    "pipeline.run_pipeline",
    "pipeline.warmup",
    "pipeline.run_iteration",
    "pipeline.assemble_warmup_samples",
)
MODULES = ("corpus", "sparse", "dense", "evaluation", "mining", "querygen", "pipeline", "cli")

STAGES = ("setup", "warmup", "mine", "generate", "train", "refresh", "eval", "write")
# A span's stage is set by the direct child of run_iteration (or of
# run_pipeline) on its path: a search under filter_generated counts as generate.
_ITERATION_CHILD_STAGE = {
    "querygen.train": "generate",
    "querygen.generate": "generate",
    "querygen.filter": "generate",
    "querygen.assemble": "generate",
    "dense.init": "train",
    "dense.train_step": "train",
    "dense.build_index": "refresh",
    "pipeline.dense_run": "eval",
    "evaluation.metrics": "eval",
}  # everything else directly under run_iteration is mining
_PIPELINE_CHILD_STAGE = {
    "pipeline.warmup": "warmup",
    "dense.corpus_token_rows": "refresh",
    "dense.build_index": "refresh",
    "pipeline.dense_run": "eval",
    "evaluation.metrics": "eval",
    "dense.checkpoint": "write",
    "querygen.io": "write",
    "mining.save_samples": "write",
    "evaluation.save_run": "write",
}  # everything else directly under run_pipeline is set-up


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}

    def wrap(self, group: str, fn):
        names, parents, starts, ends, stack = self.names, self.parents, self.starts, self.ends, self._stack
        clock = time.perf_counter
        count = _COUNTERS.get(group)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(group)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                key, amount = count(args, kwargs, result)
                counters[key] = counters.get(key, 0) + amount
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def install(self) -> int:
        """Wrap every traced function in every lexmine module binding it.

        Returns the number of module attributes replaced.
        """
        modules = {m: sys.modules[f"lexmine.{m}"] for m in MODULES}
        wrappers = {}
        for group, targets in GROUPS.items():
            for mod, fname in targets:
                fn = getattr(modules[mod], fname)
                wrappers[id(fn)] = (fn, self.wrap(group, fn))
        replaced = 0
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    replaced += 1
        return replaced

    def summary(self) -> dict:
        """Per-group calls, duration and self time, and per-stage self time."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        groups: dict[str, dict] = {g: {"calls": 0, "dur_s": 0.0, "self_s": 0.0} for g in GROUPS}
        stages = dict.fromkeys(STAGES, 0.0)
        stage_of: list[str | None] = [None] * n
        for i in range(n):
            name, p = self.names[i], self.parents[i]
            dur = self.ends[i] - self.starts[i]
            self_s = dur - child[i]
            g = groups[name]
            g["calls"] += 1
            g["dur_s"] += dur
            g["self_s"] += self_s
            if p < 0:
                stage = None
            elif self.names[p] == "pipeline.run_iteration":
                stage = _ITERATION_CHILD_STAGE.get(name, "mine")
            elif self.names[p] == "pipeline.run_pipeline":
                stage = _PIPELINE_CHILD_STAGE.get(name, "setup")
            elif self.names[p] == "cli.dispatch":
                stage = "setup"
            else:
                stage = stage_of[p]
            stage_of[i] = stage
            if stage is not None and name not in ORCHESTRATION:
                stages[stage] += self_s
        return {"groups": groups, "stages": stages, "counters": dict(self.counters), "spans": n}


def _count_chars(args, kwargs, result):
    return "tokenize.chars", len(args[0])


def _count_samples(args, kwargs, result):
    return "train_step.samples", len(args[2])


def _count_accepted(args, kwargs, result):
    return "filter.accepted", int(bool(result))


_COUNTERS = {
    "corpus.tokenize": _count_chars,
    "dense.train_step": _count_samples,
    "querygen.filter": _count_accepted,
}
