"""Retrieval metrics, TREC run file IO, and the paired significance test.

Recall@k follows the hit-rate definition: the fraction of queries whose top-k
results contain at least one relevant passage. Unjudged retrieved passages
count as non-relevant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .corpus import DataFormatError, JudgmentSet, _ascii_float, _ascii_int, _read_columns, atomic_write
from .sparse import RankedList

__all__ = [
    "RunFile",
    "MetricsReport",
    "TTestResult",
    "mrr_at_k",
    "recall_at_k",
    "paired_t_test",
    "save_run",
    "load_run",
    "per_lang_metrics",
    "format_lang_table",
]

# query_id -> ranked results
RunFile = dict[str, RankedList]


@dataclass
class MetricsReport:
    k: int
    per_query: dict[str, float]
    mean: float
    per_lang: dict[str, float] = field(default_factory=dict)
    unjudged_in_run: list[str] = field(default_factory=list)
    no_relevant: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        values = list(self.per_query.values()) + [self.mean] + list(self.per_lang.values())
        if any(v < 0.0 or v > 1.0 for v in values):
            raise ValueError("metric values must lie in [0, 1]")


def _report(
    run: RunFile,
    qrels: JudgmentSet,
    k: int,
    query_langs: dict[str, str] | None,
    value: Callable[[list[str], frozenset[str]], float],
) -> MetricsReport:
    """``value(top k passage ids, relevant ids)`` for every query with a
    relevant judgment, in ascending query id order, with their mean and, per
    language of ``query_langs``, their means, summed in that order.

    Judged queries absent from the run rank nothing. Run queries without any
    judgment and judged queries whose judgments are all non-relevant are
    excluded from the means and listed in the report diagnostics.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    per_query: dict[str, float] = {}
    for qid in sorted(qrels.by_query):
        relevant = qrels.relevant(qid)
        if relevant:
            per_query[qid] = value([pid for pid, _ in run.get(qid, [])[:k]], relevant)
    by_lang: dict[str, list[float]] = {}
    for qid, val in per_query.items():
        lang = (query_langs or {}).get(qid)
        if lang is not None:
            by_lang.setdefault(lang, []).append(val)
    return MetricsReport(
        k=k,
        per_query=per_query,
        mean=sum(per_query.values()) / len(per_query) if per_query else 0.0,
        per_lang={lang: sum(vals) / len(vals) for lang, vals in sorted(by_lang.items())},
        unjudged_in_run=sorted(qid for qid in run if qid not in qrels.by_query),
        no_relevant=sorted(qid for qid in qrels.by_query if qid not in per_query),
    )


def _reciprocal_rank(top: list[str], relevant: frozenset[str]) -> float:
    return next((1.0 / rank for rank, pid in enumerate(top, 1) if pid in relevant), 0.0)


def _hit(top: list[str], relevant: frozenset[str]) -> float:
    return 1.0 if relevant.intersection(top) else 0.0


def mrr_at_k(
    run: RunFile,
    qrels: JudgmentSet,
    k: int,
    query_langs: dict[str, str] | None = None,
) -> MetricsReport:
    """Mean reciprocal rank of the first relevant passage within the top k.

    Judged queries absent from the run contribute 0. Run queries without any
    judgment are excluded and listed in the report diagnostics.
    """
    return _report(run, qrels, k, query_langs, _reciprocal_rank)


def recall_at_k(
    run: RunFile,
    qrels: JudgmentSet,
    k: int,
    query_langs: dict[str, str] | None = None,
) -> MetricsReport:
    """Fraction of queries with at least one relevant passage in the top k."""
    return _report(run, qrels, k, query_langs, _hit)


@dataclass(frozen=True)
class TTestResult:
    t: float
    p_two_sided: float
    degenerate_variance: bool = False


def paired_t_test(per_query_a: list[float], per_query_b: list[float]) -> TTestResult:
    """Student's paired t-test on per-query differences (two-sided).

    Conventions: all-zero differences report t=0, p=1; zero variance with a
    nonzero mean reports p=0 (< 1e-12) with the degenerate flag set.
    """
    if len(per_query_a) != len(per_query_b):
        raise ValueError("paired samples must have equal length")
    n = len(per_query_a)
    if n < 2:
        raise ValueError("need at least 2 pairs")
    diffs = np.asarray(per_query_a, dtype=float) - np.asarray(per_query_b, dtype=float)
    if not diffs.any():
        return TTestResult(t=0.0, p_two_sided=1.0)
    sd = float(diffs.std(ddof=1))
    mean = float(diffs.mean())
    if sd == 0.0:
        return TTestResult(
            t=float(np.inf) if mean > 0 else float(-np.inf),
            p_two_sided=0.0,
            degenerate_variance=True,
        )
    # imported here: scipy.stats costs about 70 MB and a second to import, and
    # only this test needs it, never a pipeline run
    from scipy import stats

    t = mean / (sd / np.sqrt(n))
    p = 2.0 * float(stats.t.sf(abs(t), n - 1))
    return TTestResult(t=float(t), p_two_sided=min(p, 1.0))


# ---------------------------------------------------------------------------
# TREC run files
# ---------------------------------------------------------------------------


def save_run(run: RunFile, path: str | Path) -> None:
    """Write `query_id Q0 passage_id rank score lexmine` lines."""
    with atomic_write(path) as fh:
        for qid, ranked in run.items():
            for rank, (pid, score) in enumerate(ranked, 1):
                fh.write(f"{qid} Q0 {pid} {rank} {score:.6f} lexmine\n")


def load_run(path: str | Path) -> RunFile:
    """Read `query_id Q0 passage_id rank score tag` lines; each query's results
    come back ordered by the rank column, whatever the line order.

    A line of other than six fields or with an id that starts with U+FEFF
    (``corpus._read_columns``, which reads qrels too), a passage listed twice
    for one query, a rank used twice, or a rank or score that is not ASCII (or
    holds ``_``) is a data error.
    """
    by_query: dict[str, dict[int, tuple[str, float]]] = {}
    pids_of: dict[str, set[str]] = {}
    for lineno, (qid, _, pid, rank_s, score_s, _) in _read_columns(path, 6):
        try:
            rank, score = _ascii_int(rank_s, "rank"), _ascii_float(score_s, "score")
        except ValueError as exc:
            raise DataFormatError(f"bad rank/score: {exc}", path, lineno) from exc
        ranked = by_query.setdefault(qid, {})
        pids = pids_of.setdefault(qid, set())
        if pid in pids:
            raise DataFormatError(f"passage {pid!r} listed twice for query {qid!r}", path, lineno)
        if rank in ranked:
            raise DataFormatError(f"rank {rank} used twice for query {qid!r}", path, lineno)
        pids.add(pid)
        ranked[rank] = (pid, score)
    return {qid: [ranked[r] for r in sorted(ranked)] for qid, ranked in by_query.items()}


def per_lang_metrics(mrr: MetricsReport, recall: MetricsReport) -> dict[str, dict[str, float]]:
    """``{lang: {"mrr@k": ..., "recall@k": ...}}`` for each language of ``mrr``."""
    return {
        lang: {f"mrr@{mrr.k}": mrr.per_lang[lang], f"recall@{recall.k}": recall.per_lang.get(lang, 0.0)}
        for lang in mrr.per_lang
    }


def format_lang_table(reports: dict[str, MetricsReport]) -> str:
    """Align per-language means of several metrics into a text table."""
    langs: list[str] = []
    for rep in reports.values():
        for lang in rep.per_lang:
            if lang not in langs:
                langs.append(lang)
    header = ["metric", *langs, "avg"]
    rows = [header]
    for name, rep in reports.items():
        row = [f"{name}@{rep.k}"]
        row += [f"{rep.per_lang.get(lang, float('nan')):.4f}" for lang in langs]
        row.append(f"{rep.mean:.4f}")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines)
