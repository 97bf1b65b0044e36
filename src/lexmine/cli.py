"""Command-line surface: reproducible, seeded runs with on-disk artifacts.

Every command reads a flat key=value config file (``#`` starts a comment),
accepts ``--set key=value`` overrides, rejects unknown keys, and writes a
manifest (``pipeline.write_manifest``) recording the command, the resolved
config and its hash, the seed and the package version next to its artifacts.
Relative input-data paths resolve against $LEXMINE_DATA_DIR when it is set.
Exit codes: 0 success, 2 config violation, 3 data error (a path that cannot be
opened included).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (
    Corpus,
    DataFormatError,
    JudgmentSet,
    QuerySet,
    SynthSpec,
    TokenizerConfig,
    _ascii_float,
    _ascii_int,
    _save_jsonl_records,
    _text_lines,
    atomic_write,
    load_passages,
    load_qrels,
    load_queries,
    save_passages,
    save_qrels,
    save_queries,
    synth_benchmark,
)
from .dense import EncoderParams, bind_encoder, load_checkpoint, save_checkpoint
from .evaluation import format_lang_table, load_run, mrr_at_k, per_lang_metrics, recall_at_k
from .mining import MiningConfig, load_samples, save_samples
from .pipeline import (
    PipelineConfig,
    PipelineData,
    PipelineError,
    PipelineState,
    assemble_warmup_samples,
    file_digest,
    generate,
    mine,
    run_pipeline,
    start_state,
    target_mean,
    train,
    warmup,
    write_manifest,
)
from .querygen import GeneratorModel, load_generator, save_generator
from .sparse import BM25Params, build_index

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def data_path(p: str | Path) -> Path:
    """Resolve a data file path, honoring $LEXMINE_DATA_DIR for relative paths."""
    p = Path(p)
    base = os.environ.get("LEXMINE_DATA_DIR")
    if base and not p.is_absolute() and not p.exists():
        return Path(base) / p
    return p


def parse_kv_config(path: str | Path) -> dict[str, str]:
    """Flat key=value UTF-8 file; blank lines and '#' comments ignored."""
    mapping: dict[str, str] = {}
    for lineno, raw in _text_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key in mapping:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        mapping[key] = value
    return mapping


def apply_overrides(mapping: dict[str, str], sets: list[str]) -> dict[str, str]:
    out = dict(mapping)
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _parse_bool(value: str, key: str) -> bool:
    low = value.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"{key} must be a boolean, got {value!r}")


# config key -> (its type, the part of PipelineConfig it sets, that part's
# field); part None is PipelineConfig itself
_PIPELINE_KEYS: dict[str, tuple[type, str | None, str]] = {
    "iterations": (int, None, "iterations"),
    "minibatches_per_iter": (int, None, "minibatches_per_iter"),
    "batch_size": (int, None, "batch_size"),
    "warmup_epochs": (int, None, "warmup_epochs"),
    "mining_s": (int, "mining", "S"),
    "mining_l": (int, "mining", "L"),
    "n_random_negatives": (int, "mining", "n_random_negatives"),
    "max_hard_negatives": (int, "mining", "max_hard_negatives"),
    "n_generate": (int, None, "n_generate"),
    "embedding_dim": (int, None, "embedding_dim"),
    "warmup_lr": (float, None, "warmup_lr"),
    "train_lr": (float, None, "train_lr"),
    "eval_k": (int, None, "eval_k"),
    "mining_mode": (str, None, "mining_mode"),
    "negative_mode": (str, None, "negative_mode"),
    "plateau_eps": (float, None, "plateau_eps"),
    "bm25_k1": (float, "bm25", "k1"),
    "bm25_b": (float, "bm25", "b"),
    "lowercase": (bool, "tokenizer", "lowercase"),
    "cjk_char_split": (bool, "tokenizer", "cjk_char_split"),
    "min_token_len": (int, "tokenizer", "min_token_len"),
}

# ints and floats are read as ASCII: int() and float() also take ``3_2`` and non-ASCII digits
_PARSERS = {int: _ascii_int, float: _ascii_float, str: lambda raw, key: raw, bool: _parse_bool}

_DATA_KEYS = (
    "passages",
    "train_queries",
    "train_qrels",
    "unlabeled_queries",
    "eval_queries",
    "eval_qrels",
)


def pipeline_config_from_mapping(mapping: dict[str, str], seed: int) -> PipelineConfig:
    parts: dict[str | None, dict] = {None: {}, "mining": {}, "bm25": {}, "tokenizer": {}}
    for key, raw in mapping.items():
        if key in _DATA_KEYS:
            continue
        if key not in _PIPELINE_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        kind, part, name = _PIPELINE_KEYS[key]
        try:
            parts[part][name] = _PARSERS[kind](raw, key)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from exc
    try:
        return PipelineConfig(
            mining=MiningConfig(**parts["mining"]),
            bm25=BM25Params(**parts["bm25"]),
            tokenizer=TokenizerConfig(**parts["tokenizer"]),
            seed=seed,
            **parts[None],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_judged_qrels(name: str, corpus: Corpus) -> JudgmentSet:
    """Qrels whose every judged passage is in ``corpus``; queries go unchecked,
    since the training qrels also judge queries held out for evaluation."""
    path = data_path(name)
    qrels = load_qrels(path)
    try:
        qrels.validate(corpus)
    except DataFormatError as exc:
        raise DataFormatError(exc.message, path) from exc
    return qrels


def _load_labeled(
    passages: str, queries: str, qrels: str, tok: TokenizerConfig
) -> tuple[Corpus, QuerySet, JudgmentSet]:
    """The corpus, queries and judged qrels a warm-up trains on: at least one
    query needs a relevant judgment, and one of those a token under ``tok``
    for the generator the warm-up trains."""
    corpus = load_passages(data_path(passages))
    query_set = load_queries(data_path(queries))
    judgments = _load_judged_qrels(qrels, corpus)
    labeled = [q for q in query_set if judgments.relevant(q.id)]
    if not labeled:
        raise DataFormatError("no labeled queries with relevant judgments", data_path(qrels))
    if not any(q.tokens(tok) for q in labeled):
        raise DataFormatError(
            f"no labeled query has a token under the config's tokenizer {tok}", data_path(queries)
        )
    return corpus, query_set, judgments


def _guard_overwrite(marker: Path, overwrite: bool, what: str) -> None:
    if marker.exists() and not overwrite:
        raise ConfigError(f"{what} already exists at {marker}; pass --overwrite to replace it")


def _load_config(args: argparse.Namespace) -> dict[str, str]:
    return apply_overrides(parse_kv_config(args.config) if args.config else {}, args.set or [])


def _stage_config(args: argparse.Namespace) -> PipelineConfig:
    return pipeline_config_from_mapping(_load_config(args), seed=args.seed)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_synth(args: argparse.Namespace) -> int:
    mapping = _load_config(args)
    try:
        spec = SynthSpec.from_mapping(mapping)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    out = Path(args.out)
    _guard_overwrite(out / "manifest.json", args.overwrite, "synth output")
    bench = synth_benchmark(spec, seed=args.seed)
    save_passages(bench.corpus, out / "passages.jsonl")
    save_queries(bench.queries, out / "queries.jsonl")
    save_qrels(bench.judgments, out / "qrels.tsv")
    save_queries(bench.unlabeled, out / "unlabeled.jsonl")
    with atomic_write(out / "topics.json") as fh:
        json.dump(
            {
                "source_lang": bench.source_lang,
                "target_langs": list(bench.target_langs),
                "passage_topics": {pid: list(t) for pid, t in bench.passage_topics.items()},
                "query_topics": {qid: list(t) for qid, t in bench.query_topics.items()},
                "topic_terms": {
                    f"{lang}:{t}": list(terms) for (lang, t), terms in bench.topic_terms.items()
                },
            },
            fh,
            ensure_ascii=False,
        )
    write_manifest(out / "manifest.json", "synth", mapping, args.seed)
    print(
        f"wrote {len(bench.corpus)} passages, {len(bench.queries)} judged queries, "
        f"{len(bench.judgments)} judgments, {len(bench.unlabeled)} unlabeled queries to {out}"
    )
    return EXIT_OK


def _cmd_warmup(args: argparse.Namespace) -> int:
    cfg = _stage_config(args)
    corpus, queries, qrels = _load_labeled(args.passages, args.queries, args.qrels, cfg.tokenizer)
    out = Path(args.out)
    _guard_overwrite(out / "manifest.json", args.overwrite, "warmup output")
    sparse_index = build_index(corpus, cfg.tokenizer, cfg.bm25)
    labeled = assemble_warmup_samples(queries, qrels, sparse_index, cfg)
    params, generator = warmup(labeled, corpus, cfg)
    save_checkpoint(out / "checkpoint.npz", params)
    save_generator(generator, out / "generator.json")
    write_manifest(out / "manifest.json", "warmup", asdict(cfg), args.seed)
    print(f"warmed up on {len(labeled)} labeled samples -> {out}")
    return EXIT_OK


def _load_encoder(args: argparse.Namespace, corpus: Corpus, cfg: PipelineConfig) -> EncoderParams:
    """The ``--checkpoint`` encoder bound to the corpus under the config's
    tokenizer; one of other tokens raises ``DataFormatError`` (``bind_encoder``)."""
    path = data_path(args.checkpoint)
    return bind_encoder(load_checkpoint(path)[0], corpus, cfg.tokenizer, path)


def _checkpoint_state(
    args: argparse.Namespace, corpus: Corpus, cfg: PipelineConfig, generator: GeneratorModel
) -> PipelineState:
    params = _load_encoder(args, corpus, cfg)
    return start_state(params, generator, build_index(corpus, cfg.tokenizer, cfg.bm25), corpus, cfg)


def _cmd_mine(args: argparse.Namespace) -> int:
    cfg = _stage_config(args)
    if cfg.mining_mode == "double_dense":
        raise ConfigError(
            "mining_mode 'double_dense' mines against the auxiliary retriever that only "
            "`lexmine pipeline` trains"
        )
    corpus = load_passages(data_path(args.passages))
    queries = load_queries(data_path(args.queries))
    state = _checkpoint_state(args, corpus, cfg, GeneratorModel())
    out = Path(args.out)
    _guard_overwrite(out, args.overwrite, "mined dataset")
    # the stage command is the pipeline's first iteration, mining stream included
    samples, _, queries_with = mine(state, queries, cfg, iteration=1)
    save_samples(samples, out)
    write_manifest(Path(str(out) + ".manifest.json"), "mine", asdict(cfg), args.seed)
    print(f"mined {len(samples)} samples from {len(queries)} queries ({queries_with} with positives)")
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    cfg = _stage_config(args)
    corpus = load_passages(data_path(args.passages))
    state = _checkpoint_state(args, corpus, cfg, load_generator(data_path(args.generator)))
    out = Path(args.out)
    _guard_overwrite(out, args.overwrite, "generated dataset")
    # the pipeline's first-iteration generate stage, over every corpus language
    accepted, rejected = generate(state, sorted({p.lang for p in corpus}), cfg, iteration=1)
    # the log first: a --rejected path that cannot be made leaves no samples file
    if args.rejected:
        records = (
            dict(query_id=p.query.id, query_text=p.query.text, passage_id=p.passage_id, reason="top1-mismatch")
            for p in rejected
        )
        _save_jsonl_records(args.rejected, records)
    save_samples(accepted, out)
    write_manifest(Path(str(out) + ".manifest.json"), "generate", asdict(cfg), args.seed)
    print(
        f"generated {len(accepted) + len(rejected)} candidates, accepted {len(accepted)}, "
        f"rejected {len(rejected)}"
    )
    return EXIT_OK


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _stage_config(args)
    corpus = load_passages(data_path(args.passages))
    params = _load_encoder(args, corpus, cfg)
    paths = [data_path(path) for path in args.samples]
    dataset = [sample for path in paths for sample in load_samples(path, corpus)]
    if not dataset:
        raise DataFormatError("no training samples", paths[0])
    out = Path(args.out)
    _guard_overwrite(out / "manifest.json", args.overwrite, "train output")
    # the pipeline's first-iteration train stage, training stream included
    losses = train(params, dataset, corpus, cfg, iteration=1)
    save_checkpoint(out / "checkpoint.npz", params)
    write_manifest(out / "manifest.json", "train", asdict(cfg), args.seed)
    print(
        f"trained {len(losses)} minibatches on {len(dataset)} samples; "
        f"mean loss {float(np.mean(losses)):.4f} -> {out}"
    )
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    run = load_run(data_path(args.run))
    qrels = load_qrels(data_path(args.qrels))
    query_langs = None
    if args.queries:
        query_langs = {q.id: q.lang for q in load_queries(data_path(args.queries))}
    mrr = mrr_at_k(run, qrels, args.k, query_langs=query_langs)
    rec = recall_at_k(run, qrels, args.k, query_langs=query_langs)
    report = {
        f"mrr@{args.k}": mrr.mean,
        f"recall@{args.k}": rec.mean,
        "per_lang": per_lang_metrics(mrr, rec),
        "n_queries": len(mrr.per_query),
        "unjudged_in_run": mrr.unjudged_in_run,
        "no_relevant": mrr.no_relevant,
    }
    if args.out:
        with atomic_write(args.out) as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    print(json.dumps(report, indent=2))
    if query_langs:
        print(format_lang_table({"mrr": mrr, "recall": rec}))
    return EXIT_OK


def _cmd_pipeline(args: argparse.Namespace) -> int:
    mapping = _load_config(args)
    cfg = pipeline_config_from_mapping(mapping, seed=args.seed)
    missing = [k for k in ("passages", "train_queries", "train_qrels", "unlabeled_queries") if k not in mapping]
    if missing:
        raise ConfigError(f"pipeline config missing data keys: {', '.join(missing)}")
    for given, absent in (("eval_queries", "eval_qrels"), ("eval_qrels", "eval_queries")):
        if given in mapping and absent not in mapping:
            raise ConfigError(f"pipeline config sets {given} without {absent}")
    corpus, train_queries, train_qrels = _load_labeled(
        mapping["passages"], mapping["train_queries"], mapping["train_qrels"], cfg.tokenizer
    )
    eval_qrels = None
    if "eval_qrels" in mapping:
        shared = data_path(mapping["eval_qrels"]) == data_path(mapping["train_qrels"])
        eval_qrels = train_qrels if shared else _load_judged_qrels(mapping["eval_qrels"], corpus)
    unlabeled = load_queries(data_path(mapping["unlabeled_queries"]))
    # the corpus's tokens are the encoder's vocabulary: a query with none of them is never mined
    vocab = corpus.tokenized(cfg.tokenizer).index
    if not any(t in vocab for q in unlabeled for t in q.tokens(cfg.tokenizer)):
        raise DataFormatError(
            f"no unlabeled query has a token of the corpus under the config's tokenizer {cfg.tokenizer}",
            data_path(mapping["unlabeled_queries"]),
        )
    eval_queries = load_queries(data_path(mapping["eval_queries"])) if "eval_queries" in mapping else None
    try:
        data = PipelineData(corpus, train_queries, train_qrels, unlabeled, eval_queries, eval_qrels)
    except ValueError as exc:
        # PipelineData checks only the unlabeled and the eval queries' languages
        key = "unlabeled_queries" if str(exc).startswith("unlabeled") else "eval_queries"
        raise DataFormatError(str(exc), data_path(mapping[key])) from exc
    out = Path(args.out)
    if not args.resume:
        _guard_overwrite(out / "manifest.json", args.overwrite, "pipeline output")
    # recorded in the manifest, so that a resume refuses changed inputs
    inputs = {key: file_digest(data_path(mapping[key])) for key in _DATA_KEYS if key in mapping}
    reports = run_pipeline(cfg, data, workdir=out, resume=args.resume, inputs=inputs)
    key = f"mrr@{cfg.eval_k}"
    target_langs = {q.lang for q in unlabeled}
    for rep in reports:
        overall = rep.metrics.get("overall", {}).get(key)
        target = target_mean(rep.metrics, target_langs, key)
        shown, target_shown = (f"{v:.4f}" if v is not None else "n/a" for v in (overall, target))
        print(
            f"iteration {rep.iteration}: mined={rep.mined_samples} generated={rep.generated_accepted} "
            f"{key}={shown} target {key}={target_shown}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexmine",
        description="Self-supervised dense-retrieval training via sparse/dense mining",
    )
    parser.add_argument("--version", action="version", version=f"lexmine {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--config", help="flat key=value config file")
    seeded.add_argument("--set", action="append", metavar="KEY=VALUE", help="config override")
    seeded.add_argument("--seed", type=int, required=True, help="rng seed (mandatory)")
    seeded.add_argument("--out", required=True)
    seeded.add_argument("--overwrite", action="store_true")

    p = sub.add_parser("synth", parents=[seeded], help="generate a synthetic multilingual benchmark")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("warmup", parents=[seeded], help="train retriever+generator on labeled data")
    p.add_argument("--passages", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--qrels", required=True)
    p.set_defaults(func=_cmd_warmup)

    p = sub.add_parser("mine", parents=[seeded], help="mine training samples from unlabeled queries")
    p.add_argument("--passages", required=True)
    p.add_argument("--queries", required=True, help="unlabeled queries JSONL")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("generate", parents=[seeded], help="generate, filter, and assemble queries")
    p.add_argument("--passages", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--generator", required=True)
    p.add_argument("--rejected", help="optional JSONL log of rejected pairs")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", parents=[seeded], help="fine-tune a checkpoint on sample files")
    p.add_argument("--passages", required=True)
    p.add_argument("--samples", required=True, nargs="+")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a TREC run file against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--queries", help="queries JSONL for per-language breakdown")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("pipeline", parents=[seeded], help="full warm-up + iterative training run")
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=_cmd_pipeline)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except PipelineError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # a path that cannot be opened or made: missing, a directory, a file
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
