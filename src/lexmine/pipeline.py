"""Training orchestrator: warm up on labeled source data, then iterate.

Each iteration mines training pairs for every unlabeled target-language query
from sparse/dense agreement; from iteration 2 on (unless ``n_generate`` is 0)
it retrains the query generator on pairs mined with S=1 and adds filtered
generated samples. It fine-tunes the dense retriever on the union and rebuilds
the dense index. The sparse retriever is never retrained. Everything is a pure
function of (config, data, seed).
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, fields, asdict, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .corpus import (
    Corpus,
    DataFormatError,
    JudgmentSet,
    Passage,
    Query,
    QuerySet,
    SynthBenchmark,
    TokenizerConfig,
    atomic_write,
)
from .dense import (
    DenseIndex,
    EncoderParams,
    TrainingSample,
    bind_encoder,
    build_dense_index,
    init_optimizer,
    init_params,
    load_checkpoint,
    save_checkpoint,
    search_dense,
    train_step,
    vocab_from_corpus,
)
from .evaluation import RunFile, mrr_at_k, per_lang_metrics, recall_at_k, save_run
from .mining import (
    MinedSets,
    MiningConfig,
    assemble_mined_sample,
    hybrid_fuse,
    mine_pairs,
    save_samples,
)
from .querygen import (
    GeneratedPair,
    GeneratorModel,
    assemble_generated_sample,
    filter_generated,
    generate_query,
    load_generator,
    save_generator,
    train_generator,
)
from .sparse import BM25Params, InvertedIndex, RankedList, build_index, search_sparse

__all__ = [
    "PipelineConfig",
    "PipelineData",
    "PipelineError",
    "PipelineState",
    "IterationReport",
    "warmup",
    "assemble_warmup_samples",
    "start_state",
    "mine",
    "generate",
    "train",
    "run_iteration",
    "run_pipeline",
    "pipeline_data_from_benchmark",
    "config_hash",
    "file_digest",
    "write_manifest",
    "target_mean",
]

# rng stream tags so every stage draws from its own seeded stream
_INIT, _WARMUP_DATA, _WARMUP_SHUFFLE, _MINE, _GEN_SELECT, _GEN_SAMPLE, _TRAIN_SHUFFLE, _GEN_ASSEMBLE = range(8)

MINING_MODES = ("sparse_dense", "double_dense", "fuse_sum", "fuse_product")
NEGATIVE_MODES = ("mined", "none", "sparse_top")


class PipelineError(RuntimeError):
    pass


@dataclass
class PipelineConfig:
    iterations: int = 3
    minibatches_per_iter: int = 500
    batch_size: int = 128
    warmup_epochs: int = 3
    mining: MiningConfig = field(default_factory=MiningConfig)
    n_generate: int = 5000
    embedding_dim: int = 64
    warmup_lr: float = 1e-2
    train_lr: float = 1e-2
    eval_k: int = 10
    seed: int = 0
    mining_mode: str = "sparse_dense"
    negative_mode: str = "mined"
    plateau_eps: float | None = None
    bm25: BM25Params = field(default_factory=BM25Params)
    tokenizer: TokenizerConfig = field(default_factory=TokenizerConfig)

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.minibatches_per_iter < 1 or self.batch_size < 1:
            raise ValueError("minibatches_per_iter and batch_size must be >= 1")
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be >= 0")
        if self.n_generate < 0:
            raise ValueError("n_generate must be >= 0")
        if self.embedding_dim < 1 or self.eval_k < 1:
            raise ValueError("embedding_dim and eval_k must be >= 1")
        if not (0.0 <= self.warmup_lr < math.inf and 0.0 <= self.train_lr < math.inf):
            raise ValueError("warmup_lr and train_lr must be finite and >= 0")
        if self.plateau_eps is not None and not math.isfinite(self.plateau_eps):
            raise ValueError("plateau_eps must be finite")
        if self.mining_mode not in MINING_MODES:
            raise ValueError(f"mining_mode must be one of {MINING_MODES}")
        if self.negative_mode not in NEGATIVE_MODES:
            raise ValueError(f"negative_mode must be one of {NEGATIVE_MODES}")


@dataclass
class PipelineData:
    """Input bundle: corpus, labeled source queries, unlabeled target queries,
    and optional held-out judged queries for per-iteration evaluation. No
    unlabeled or eval query may have the language "overall", the reports'
    all-language key: the unlabeled queries' languages are the target languages."""

    corpus: Corpus
    train_queries: QuerySet
    train_qrels: JudgmentSet
    unlabeled: QuerySet
    eval_queries: QuerySet | None = None
    eval_qrels: JudgmentSet | None = None

    def __post_init__(self) -> None:
        for kind, queries in (("unlabeled", self.unlabeled), ("eval", self.eval_queries or ())):
            for q in queries:
                if q.lang == "overall":
                    raise ValueError(f"{kind} query {q.id!r} has the reserved language 'overall'")


def pipeline_data_from_benchmark(bench: SynthBenchmark) -> PipelineData:
    """Source-language judged queries train; target-language judged queries are
    held out for evaluation; unlabeled target queries feed the mining loop."""
    train = QuerySet(q for q in bench.queries if q.lang == bench.source_lang)
    unlabeled = QuerySet(q for q in bench.unlabeled if q.lang != bench.source_lang)
    return PipelineData(
        corpus=bench.corpus,
        train_queries=train,
        train_qrels=bench.judgments,
        unlabeled=unlabeled,
        eval_queries=bench.queries,
        eval_qrels=bench.judgments,
    )


@dataclass
class IterationReport:
    iteration: int
    mined_samples: int = 0
    mined_queries_with_positives: int = 0
    generator_training_pairs: int = 0
    generated_candidates: int = 0
    generated_accepted: int = 0
    generated_rejected: int = 0
    dataset_size: int = 0
    mean_loss: float = 0.0
    metrics: dict[str, dict[str, float]] = field(default_factory=dict)
    wall_clock_sec: float = 0.0

    def __post_init__(self) -> None:
        if any(getattr(self, f.name) < 0 for f in fields(self) if f.type == "int"):  # string annotations
            raise ValueError("report counts must be >= 0")
        if not isinstance(self.metrics, dict) or not all(isinstance(v, dict) for v in self.metrics.values()):
            raise ValueError("report metrics must map each language to a dict of values")
        for lang, vals in self.metrics.items():
            for name, v in vals.items():
                if not 0.0 <= v <= 1.0:
                    raise ValueError(f"metric {name} for {lang} out of [0, 1]: {v}")


@dataclass
class PipelineState:
    """Everything the stages read: the corpus, the generator, and the indexes
    built from that corpus; ``dense_index.params`` is the encoder that trains.

    ``fixed_rankings`` holds the top-L ranking of each query mined so far by
    the retriever mining compares against, BM25 or under ``double_dense`` the
    auxiliary encoder's ``aux_index``. Neither ever trains, so a query is
    ranked once per run. All three indexes share one tokenizer.
    """

    generator: GeneratorModel
    corpus: Corpus
    sparse_index: InvertedIndex
    dense_index: DenseIndex
    iteration: int = 0
    aux_index: DenseIndex | None = None
    fixed_rankings: dict[Query, RankedList] = field(default_factory=dict)


def start_state(
    params: EncoderParams,
    generator: GeneratorModel,
    sparse_index: InvertedIndex,
    corpus: Corpus,
    cfg: PipelineConfig,
    iteration: int = 0,
    aux_params: EncoderParams | None = None,
) -> PipelineState:
    """The state that continues from ``params``, with its dense indexes built."""
    aux_index = None if aux_params is None else build_dense_index(aux_params, corpus, cfg.tokenizer)
    return PipelineState(
        generator=generator,
        corpus=corpus,
        sparse_index=sparse_index,
        dense_index=build_dense_index(params, corpus, cfg.tokenizer),
        iteration=iteration,
        aux_index=aux_index,
    )


# ---------------------------------------------------------------------------
# warm-up
# ---------------------------------------------------------------------------


def assemble_warmup_samples(
    queries: QuerySet,
    qrels: JudgmentSet,
    sparse_index: InvertedIndex,
    cfg: PipelineConfig,
) -> list[TrainingSample]:
    """DPR-style labeled samples: the best sparse-ranked relevant passage is the
    positive, top sparse-ranked non-relevant passages are hard negatives."""
    samples = []
    depth = cfg.mining.L + cfg.mining.max_hard_negatives
    for q in queries:
        relevant = qrels.relevant(q.id)
        if not relevant:
            continue
        ranked = search_sparse(sparse_index, q.tokens(sparse_index.tokenizer), depth)
        positive = next((pid for pid, _ in ranked if pid in relevant), min(relevant))
        hard = tuple(
            pid for pid, _ in ranked if pid not in relevant
        )[: cfg.mining.max_hard_negatives]
        samples.append(
            TrainingSample(query=q, positive=positive, hard_negatives=hard, source="labeled")
        )
    return samples


def warmup(
    source_labeled: list[TrainingSample],
    corpus: Corpus,
    cfg: PipelineConfig,
    seed_offset: int = 0,
) -> tuple[EncoderParams, GeneratorModel]:
    """Train the retriever and the generator on labeled source-language data.

    The encoder's vocabulary is the corpus's, bound to it (``bind_encoder``).
    Each sample is rebuilt by ``assemble_mined_sample``, with random negatives;
    in-batch negatives come from the other samples of each minibatch. Training
    runs ``warmup_epochs`` epochs at ``warmup_lr`` on the warm-up's own shuffle
    stream. The generator is trained on (positive passage -> query) pairs even
    when warmup_epochs is 0.
    """
    if not source_labeled:
        raise ValueError("labeled warm-up data must be non-empty")
    vocab = vocab_from_corpus(corpus, cfg.tokenizer)
    params = init_params(vocab, dim=cfg.embedding_dim, seed=[cfg.seed, _INIT, seed_offset])
    params = bind_encoder(params, corpus, cfg.tokenizer)
    rng_negs = np.random.default_rng([cfg.seed, _WARMUP_DATA, seed_offset])
    filled = []
    for s in source_labeled:
        sets = MinedSets((s.positive,), s.hard_negatives)
        filled += assemble_mined_sample(s.query, sets, corpus, rng_negs, cfg.mining, source=s.source)

    rng_shuffle = np.random.default_rng([cfg.seed, _WARMUP_SHUFFLE, seed_offset])
    steps = cfg.warmup_epochs * math.ceil(len(filled) / cfg.batch_size)
    _minibatch_steps(params, filled, corpus, cfg, cfg.warmup_lr, rng_shuffle, steps, "warm-up")

    generator = train_generator(
        GeneratorModel(),
        [(s.query, corpus[s.positive]) for s in source_labeled],
        corpus,
        cfg.tokenizer,
    )
    return params, generator


# ---------------------------------------------------------------------------
# evaluation helpers
# ---------------------------------------------------------------------------


def dense_run(state: PipelineState, queries: QuerySet, k: int) -> RunFile:
    """Dense retrieval run over a query set (order-deterministic)."""
    index = state.dense_index
    return dict(zip(queries.ids, search_dense(index, [q.tokens(index.tokenizer) for q in queries], k)))


def _evaluate(
    state: PipelineState, data: PipelineData, cfg: PipelineConfig
) -> tuple[RunFile, dict[str, dict[str, float]]]:
    """The eval queries' dense run and its MRR@k and Recall@k, overall and per
    language, against their judgments alone: qrels shared with training judge more."""
    if data.eval_queries is None or data.eval_qrels is None:
        return {}, {}
    run = dense_run(state, data.eval_queries, cfg.eval_k)
    langs = {q.id: q.lang for q in data.eval_queries}
    qrels = data.eval_qrels
    if not qrels.by_query.keys() <= run.keys():
        qrels = JudgmentSet(j for j in qrels if j.query_id in run)
    mrr = mrr_at_k(run, qrels, cfg.eval_k, query_langs=langs)
    rec = recall_at_k(run, qrels, cfg.eval_k, query_langs=langs)
    overall = {f"mrr@{cfg.eval_k}": mrr.mean, f"recall@{cfg.eval_k}": rec.mean}
    return run, {"overall": overall, **per_lang_metrics(mrr, rec)}


# ---------------------------------------------------------------------------
# one iteration
# ---------------------------------------------------------------------------


def _fixed_rankings(state: PipelineState, qs: list[Query], cfg: PipelineConfig) -> list[RankedList]:
    """Each query's top-L by the retriever that never trains, from
    ``state.fixed_rankings``; queries not ranked yet are ranked from their
    tokens and kept."""
    known = state.fixed_rankings
    todo = [q for q in qs if q not in known]
    if cfg.mining_mode == "double_dense":
        aux = state.aux_index
        assert aux is not None
        ranked = search_dense(aux, [q.tokens(aux.tokenizer) for q in todo], cfg.mining.L)
    else:
        sparse = state.sparse_index
        ranked = [search_sparse(sparse, q.tokens(sparse.tokenizer), cfg.mining.L) for q in todo]
    known.update(zip(todo, ranked))
    return [known[q] for q in qs]


def _mined_sets(list_a, list_b, cfg: PipelineConfig) -> tuple[MinedSets, tuple[str, ...]]:
    """The sets mined at S and the generator's S=1 positive: agreement mining
    and the two rankings' shared top-1, or a prefix split of the fused ranking
    and its top-1 in fuse modes."""
    if cfg.mining_mode in ("fuse_sum", "fuse_product"):
        fused = hybrid_fuse(list_a, list_b, cfg.mining_mode.removeprefix("fuse_"), cfg.mining.L)
        ids = [pid for pid, _ in fused]
        s = cfg.mining.S
        return MinedSets(positives=tuple(ids[:s]), negatives=tuple(ids[s:])), tuple(ids[:1])
    top1 = tuple(a for (a, _), (b, _) in zip(list_a[:1], list_b[:1]) if a == b)
    return mine_pairs(list_a, list_b, cfg.mining), top1


def mine(
    state: PipelineState,
    queries: QuerySet,
    cfg: PipelineConfig,
    iteration: int,
) -> tuple[list[TrainingSample], list[tuple[Query, Passage]], int]:
    """Mine training samples for unlabeled queries from retriever agreement.

    Queries are mined one at a time in ascending id order from the iteration's
    mining stream, after all of them are ranked: by the trained encoder in
    blocks, and by the fixed retriever from ``_fixed_rankings``. A query with
    no token in the encoder's vocabulary is skipped: its zero vector ranks
    passages by id, which the fuse modes would mine as agreement. Hard
    negatives follow ``cfg.negative_mode``. Returns the samples, the S=1
    (query, passage) pairs the generator trains on, and the number of queries
    with at least one positive.
    """
    rng = np.random.default_rng([cfg.seed, _MINE, iteration])
    vocab = state.dense_index.params.vocab
    tok = state.dense_index.tokenizer
    qs = [q for q in queries if any(t in vocab for t in q.tokens(tok))]
    fixed = _fixed_rankings(state, qs, cfg)
    dense = search_dense(state.dense_index, [q.tokens(tok) for q in qs], cfg.mining.L)
    # the other negative modes draw no random negatives
    no_randoms = replace(cfg.mining, n_random_negatives=0)
    mined: list[TrainingSample] = []
    gen_pairs: list[tuple[Query, Passage]] = []
    queries_with_positives = 0
    for q, fixed_topL, dense_topL in zip(qs, fixed, dense):
        sets, top1 = _mined_sets(fixed_topL, dense_topL, cfg)
        if sets.positives:
            queries_with_positives += 1
        mining_cfg = cfg.mining
        if cfg.negative_mode != "mined":
            hard: tuple[str, ...] = ()
            if cfg.negative_mode == "sparse_top":
                sparse_ranked = search_sparse(
                    state.sparse_index, q.tokens(tok), cfg.mining.max_hard_negatives + cfg.mining.S
                )
                hard = tuple(pid for pid, _ in sparse_ranked if pid not in sets.positives)
            sets, mining_cfg = MinedSets(sets.positives, hard), no_randoms
        mined.extend(assemble_mined_sample(q, sets, state.corpus, rng, mining_cfg))
        gen_pairs.extend((q, state.corpus[pid]) for pid in top1)
    return mined, gen_pairs, queries_with_positives


def generate(
    state: PipelineState,
    langs: Iterable[str],
    cfg: PipelineConfig,
    iteration: int,
) -> tuple[list[TrainingSample], list[GeneratedPair]]:
    """Generate queries for sampled passages and keep those both retrievers confirm.

    Up to ``cfg.n_generate`` passages per language are drawn from the
    iteration's selection stream; each gets one query, sampled from the
    iteration's sampling stream, with id ``gen{iteration}-`` + passage id.
    Each language's pairs are filtered in one ``filter_generated`` call: a
    pair is accepted when the sparse and the dense retriever both return its
    passage as top-1. The accepted pairs' samples are built in order from
    those same rankings, with random negatives from the iteration's assembly
    stream, so no pair's verdict shifts another's draws. Returns the training
    samples of the accepted pairs and the rejected pairs; passages without
    tokens give neither.
    """
    rng_select = np.random.default_rng([cfg.seed, _GEN_SELECT, iteration])
    rng_sample = np.random.default_rng([cfg.seed, _GEN_SAMPLE, iteration])
    rng_assemble = np.random.default_rng([cfg.seed, _GEN_ASSEMBLE, iteration])
    corpus, generator = state.corpus, state.generator
    tokenized = corpus.tokenized(cfg.tokenizer)
    accepted: list[TrainingSample] = []
    rejected: list[GeneratedPair] = []
    for lang in langs:
        lang_passages = corpus.by_lang(lang)
        n = min(cfg.n_generate, len(lang_passages))
        pairs = []
        for idx in rng_select.choice(len(lang_passages), size=n, replace=False):
            passage = lang_passages[int(idx)]
            tokens = tokenized.tokens(corpus.position(passage.id))
            if tokens:
                query = generate_query(generator, passage, tokens, rng_sample, f"gen{iteration}-{passage.id}")
                pairs.append(GeneratedPair(query=query, passage_id=passage.id))
        verdicts = filter_generated(pairs, state.sparse_index, state.dense_index, cfg.mining)
        for pair, rankings in zip(pairs, verdicts):
            if rankings is None:
                rejected.append(pair)
            else:
                accepted.append(assemble_generated_sample(pair, rankings, corpus, rng_assemble, cfg.mining))
    return accepted, rejected


def _minibatch_steps(
    params: EncoderParams, dataset: Sequence[TrainingSample], corpus: Corpus, cfg: PipelineConfig,
    lr: float, rng: np.random.Generator, steps: int, label: str,
) -> list[float]:
    """Run ``steps`` Adam steps at ``lr`` from fresh moments on ``dataset``
    over the passages of ``corpus``; returns the step losses.

    Minibatches walk a shuffled order of ``dataset`` drawn from ``rng`` and
    reshuffle when it runs out, so every ``ceil(len(dataset) / batch_size)``
    steps make one epoch. A non-finite loss raises ``PipelineError`` naming
    ``label`` and the step.
    """
    opt = init_optimizer(params, lr=lr)
    losses = []
    order = rng.permutation(len(dataset))
    pos = 0
    for step in range(1, steps + 1):
        if pos >= len(order):
            order = rng.permutation(len(dataset))
            pos = 0
        batch = [dataset[i] for i in order[pos : pos + cfg.batch_size]]
        pos += cfg.batch_size
        loss = train_step(params, opt, batch, corpus, cfg.tokenizer)
        if not math.isfinite(loss):
            raise PipelineError(f"{label} step {step}: training loss is {loss}")
        losses.append(loss)
    return losses


def train(
    params: EncoderParams, dataset: Sequence[TrainingSample], corpus: Corpus, cfg: PipelineConfig, iteration: int
) -> list[float]:
    """Fine-tune ``params`` in place on ``dataset``: ``minibatches_per_iter``
    steps at ``train_lr`` on the iteration's shuffle stream, from fresh Adam
    moments, as a checkpoint holds the encoder alone. Returns the step losses."""
    rng = np.random.default_rng([cfg.seed, _TRAIN_SHUFFLE, iteration])
    return _minibatch_steps(
        params, dataset, corpus, cfg, cfg.train_lr, rng, cfg.minibatches_per_iter, f"iteration {iteration}"
    )


def run_iteration(
    state: PipelineState, data: PipelineData, cfg: PipelineConfig
) -> tuple[IterationReport, dict]:
    """Mine ``data.unlabeled``, generate from iteration 2 on unless
    ``n_generate`` is 0, fine-tune, refresh the index, and evaluate when
    ``data`` has eval queries; ``state`` advances in place.

    Returns the iteration report and the artifacts produced (mined/generated
    samples and the evaluation run) for persistence.
    """
    t0 = time.perf_counter()
    iteration = state.iteration + 1
    if state.dense_index.params_version != state.dense_index.params.version:
        raise PipelineError("dense index is stale at iteration entry; refresh it first")

    mined, gen_pairs, queries_with_positives = mine(state, data.unlabeled, cfg, iteration)
    if not mined:
        raise PipelineError(
            f"iteration {iteration} mined zero samples from {len(data.unlabeled)} unlabeled queries "
            f"(S={cfg.mining.S}, L={cfg.mining.L}); the agreement thresholds are too "
            "strict for the current retrievers"
        )

    generated: list[TrainingSample] = []
    rejected: list[GeneratedPair] = []
    if cfg.n_generate > 0 and iteration > 1:
        if gen_pairs:
            train_generator(state.generator, gen_pairs, state.corpus, cfg.tokenizer)
        langs = sorted({q.lang for q in data.unlabeled})
        generated, rejected = generate(state, langs, cfg, iteration)

    dataset = mined + generated
    losses = train(state.dense_index.params, dataset, state.corpus, cfg, iteration)

    state.dense_index = build_dense_index(state.dense_index.params, state.corpus, cfg.tokenizer)
    state.iteration = iteration
    run, metrics = _evaluate(state, data, cfg)

    report = IterationReport(
        iteration=iteration,
        mined_samples=len(mined),
        mined_queries_with_positives=queries_with_positives,
        generator_training_pairs=len(gen_pairs),
        generated_candidates=len(generated) + len(rejected),
        generated_accepted=len(generated),
        generated_rejected=len(rejected),
        dataset_size=len(dataset),
        mean_loss=float(np.mean(losses)),
        metrics=metrics,
        wall_clock_sec=time.perf_counter() - t0,
    )
    artifacts = {"mined": mined, "generated": generated, "run": run}
    return report, artifacts


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def _write_json(path: Path, obj: dict) -> None:
    with atomic_write(path) as fh:
        json.dump(obj, fh, indent=2)


def config_hash(config: dict) -> str:
    """The first 16 hex digits of the sha256 of ``config`` as sorted-key JSON."""
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def file_digest(path: str | Path) -> dict:
    """The sha256 and byte size of the file at ``path``: a manifest's record of an input."""
    sha, size = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            sha.update(chunk)
            size += len(chunk)
    return {"sha256": sha.hexdigest(), "bytes": size}


def write_manifest(path: Path, command: str, config: dict, seed: int, inputs: dict | None = None) -> None:
    """Record the command, its resolved config and that config's hash, the seed,
    the package version and, when given, the ``inputs`` (data key -> its
    ``file_digest``) next to a command's artifacts."""
    manifest = {
        "command": command,
        "config": config,
        "config_hash": config_hash(config),
        "seed": seed,
        "version": __version__,
    }
    if inputs is not None:
        manifest["inputs"] = inputs
    _write_json(path, manifest)


def _write_stage(
    outdir: Path, state: PipelineState, report: IterationReport, artifacts: dict | None = None
) -> None:
    """Persist a stage for ``_load_stage``: the warm-up (no ``artifacts``) or an iteration."""
    # report.json goes first and comes back last: a directory without it is never loaded
    (outdir / "report.json").unlink(missing_ok=True)
    if artifacts is not None:
        save_samples(artifacts["mined"], outdir / "mined.jsonl")
        save_samples(artifacts["generated"], outdir / "generated.jsonl")
    save_checkpoint(outdir / "checkpoint.npz", state.dense_index.params)
    save_generator(state.generator, outdir / "generator.json")
    if artifacts is None and state.aux_index is not None:
        save_checkpoint(outdir / "aux_checkpoint.npz", state.aux_index.params)
    if artifacts is not None and artifacts["run"]:
        save_run(artifacts["run"], outdir / "run.trec")
    _write_json(outdir / "report.json", asdict(report))


def _load_stage(
    outdir: Path, with_aux: bool, corpus: Corpus, tok: TokenizerConfig
) -> tuple[IterationReport, EncoderParams, GeneratorModel, EncoderParams | None] | None:
    """The report, encoder, generator and, when ``with_aux``, auxiliary encoder
    that ``_write_stage`` left in ``outdir``, or None unless every one loads;
    the encoders are bound to ``corpus`` under ``tok`` (``bind_encoder``)."""
    try:
        with open(outdir / "report.json", encoding="utf-8") as fh:
            report = IterationReport(**json.load(fh))
        params, _ = load_checkpoint(outdir / "checkpoint.npz")
        generator = load_generator(outdir / "generator.json")
        aux_params = load_checkpoint(outdir / "aux_checkpoint.npz")[0] if with_aux else None
    except (OSError, ValueError, TypeError):
        return None
    params = bind_encoder(params, corpus, tok, outdir / "checkpoint.npz")
    aux_params = None if aux_params is None else bind_encoder(aux_params, corpus, tok, outdir / "aux_checkpoint.npz")
    return report, params, generator, aux_params


def target_mean(metrics: dict[str, dict[str, float]], target_langs: Iterable[str], key: str) -> float | None:
    """The mean of ``metrics[lang][key]`` over the languages of ``target_langs``
    that ``metrics`` evaluates, summed in sorted language order; None when
    there are none.

    The target languages are the unlabeled queries' languages, which the method
    is judged on; overall metrics would count the labeled source language,
    which the iterations trade away by design.
    """
    langs = sorted(lang for lang in set(target_langs) if key in metrics.get(lang, {}))
    if not langs:
        return None
    return sum(metrics[lang][key] for lang in langs) / len(langs)


def _plateaued(reports: list[IterationReport], cfg: PipelineConfig, target_langs: set[str]) -> bool:
    """Whether the last report gains less than ``plateau_eps`` target-language
    MRR@k (``target_mean``) on the one before; never when either report
    evaluates no target language."""
    if cfg.plateau_eps is None or len(reports) < 2:
        return False
    key = f"mrr@{cfg.eval_k}"
    prev, curr = (target_mean(r.metrics, target_langs, key) for r in reports[-2:])
    return prev is not None and curr is not None and curr - prev < cfg.plateau_eps


def run_pipeline(
    cfg: PipelineConfig,
    data: PipelineData,
    workdir: str | Path | None = None,
    resume: bool = False,
    inputs: dict[str, dict] | None = None,
) -> list[IterationReport]:
    """Warm up, then run cfg.iterations mine/generate/train/refresh iterations,
    stopping early once ``_plateaued``.

    The report list starts with the post-warm-up zero-shot evaluation (as
    iteration 0) followed by one report per iteration. With a workdir, a
    manifest binds the config hash and seed, and ``_write_stage`` persists the
    warm-up under warmup/ and every iteration under iter_N/. A start without a
    manifest to resume first removes the report.json of every stage directory
    already there. ``inputs``, each data key's ``file_digest``, is recorded in
    the manifest. ``resume=True`` fails on a manifest that is not a JSON
    object (DataFormatError), a config-hash mismatch, a checkpoint of other
    tokens than the corpus's, or (DataFormatError) ``inputs`` that are not the
    manifest's record: the first data key whose digest differs or that one
    side lacks, a manifest without the record, or a record with no ``inputs``
    given to check it. Otherwise it continues from the last directory that
    ``_load_stage`` loads in the unbroken run warmup/, iter_1/, ...
    Without ``inputs`` on either side nothing binds the run to its data.
    """
    out = Path(workdir) if workdir is not None else None
    # the reports of the stages loaded on resume; the last one's models continue
    reports: list[IterationReport] = []
    aux_params = None
    if out is not None:
        manifest_path = out / "manifest.json"
        if resume and manifest_path.exists():
            try:
                with open(manifest_path, encoding="utf-8") as fh:
                    existing = json.load(fh)
                if not isinstance(existing, dict) or not isinstance(existing.get("inputs", {}), dict):
                    raise ValueError("expected a JSON object whose inputs are an object")
            except ValueError as exc:
                raise DataFormatError(f"not a lexmine manifest: {exc}", manifest_path) from exc
            want = config_hash(asdict(cfg))
            if existing.get("config_hash") != want:
                raise PipelineError(f"resume config hash mismatch: {existing.get('config_hash')} != {want}")
            for name in ["warmup"] + [f"iter_{i}" for i in range(1, cfg.iterations + 1)]:
                with_aux = name == "warmup" and cfg.mining_mode == "double_dense"
                stage = _load_stage(out / name, with_aux, data.corpus, cfg.tokenizer)
                if stage is None:
                    break
                report, params, generator, aux = stage
                reports.append(report)
                aux_params = aux if with_aux else aux_params
            # after the checkpoints, whose token check names the file that disagrees
            recorded = existing.get("inputs")
            if inputs is not None and recorded is None:
                raise DataFormatError(
                    "manifest records no input digests (written before they were recorded); start a new run",
                    manifest_path,
                )
            if inputs is None and recorded is not None:
                raise DataFormatError(
                    "manifest records input digests, but no inputs were given to check them against",
                    manifest_path,
                )
            if inputs != recorded:
                key = next(k for k in [*inputs, *recorded] if inputs.get(k) != recorded.get(k))
                raise DataFormatError(
                    f"data key {key!r} is not the file the run started from: "
                    f"given {inputs.get(key)}, recorded {recorded.get(key)}",
                    manifest_path,
                )
        else:
            # a fresh start trusts no stage an earlier run left here
            for stale in [*out.glob("warmup/report.json"), *out.glob("iter_*/report.json")]:
                stale.unlink()
            write_manifest(manifest_path, "pipeline", asdict(cfg), cfg.seed, inputs)

    sparse_index = build_index(data.corpus, cfg.tokenizer, cfg.bm25)
    if reports:
        state = start_state(
            params, generator, sparse_index, data.corpus, cfg, len(reports) - 1, aux_params=aux_params
        )
    else:
        labeled = assemble_warmup_samples(data.train_queries, data.train_qrels, sparse_index, cfg)
        t0 = time.perf_counter()
        params, generator = warmup(labeled, data.corpus, cfg)
        if cfg.mining_mode == "double_dense":
            # the mining partner: a second retriever warm-started on the other
            # half of the labeled data with a different seed, then frozen
            aux_params, _ = warmup(labeled[1::2] or labeled, data.corpus, cfg, seed_offset=1)
        warm_sec = time.perf_counter() - t0
        state = start_state(params, generator, sparse_index, data.corpus, cfg, aux_params=aux_params)
        _, metrics = _evaluate(state, data, cfg)
        warm_report = IterationReport(iteration=0, metrics=metrics, wall_clock_sec=warm_sec)
        reports.append(warm_report)
        if out is not None:
            _write_stage(out / "warmup", state, warm_report)

    target_langs = {q.lang for q in data.unlabeled}
    while state.iteration < cfg.iterations and not _plateaued(reports, cfg, target_langs):
        report, artifacts = run_iteration(state, data, cfg)
        reports.append(report)
        if out is not None:
            _write_stage(out / f"iter_{state.iteration}", state, report, artifacts)
    return reports
