"""Output checks run after each timed run, outside the timed region.

Each check returns (name, passed, detail). The oracles are independent of the
code paths they check: mining is re-derived with exhaustive ``bm25_score`` over
statistics counted here and brute-force dense scoring, under the (score desc,
id asc) order, and the final evaluation run is recomputed from the final
checkpoint.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from lexmine.corpus import TokenizerConfig, load_passages, load_qrels, load_queries, tokenize
from lexmine.dense import load_checkpoint
from lexmine.sparse import BM25Params, InvertedIndex, bm25_score

MINING_SAMPLE = 8  # unlabeled queries re-derived per iteration
SCORE_TOL = 1e-6  # run.trec scores are written with six decimals

Check = tuple[str, bool, str]


def read_reports(out: Path) -> list[dict]:
    """Warm-up report, then one per iteration, in order."""
    paths = [out / "warmup" / "report.json"]
    i = 1
    while (out / f"iter_{i}" / "report.json").exists():
        paths.append(out / f"iter_{i}" / "report.json")
        i += 1
    return [json.loads(p.read_text(encoding="utf-8")) for p in paths]


def comparable(reports: list[dict]) -> list[dict]:
    """Reports without their wall-clock field, for equality across runs."""
    return [{k: v for k, v in r.items() if k != "wall_clock_sec"} for r in reports]


def artifact_digest(out: Path) -> str:
    """Hash of every artifact but the reports and manifest; checkpoint arrays
    are hashed by content, since the .npz container records write times."""
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if not path.is_file() or path.name in ("report.json", "manifest.json"):
            continue
        h.update(str(path.relative_to(out)).encode())
        if path.suffix == ".npz":
            with np.load(path) as arrays:
                for key in sorted(arrays.files):
                    h.update(key.encode())
                    h.update(np.ascontiguousarray(arrays[key]).tobytes())
        else:
            h.update(path.read_bytes())
    return h.hexdigest()


def target_mrr(report: dict, target_langs: list[str], k: int) -> float:
    return sum(report["metrics"][lang][f"mrr@{k}"] for lang in target_langs) / len(target_langs)


class Oracle:
    """Inputs of one run, tokenized once, for the exhaustive re-derivations."""

    def __init__(self, data: dict, config: dict):
        self.cfg = config
        self.tok = TokenizerConfig(**config["tokenizer"])
        self.corpus = load_passages(data["passages"])
        self.ids = self.corpus.ids
        self.tokens = [tokenize(p.text, self.tok) for p in self.corpus]
        self.unlabeled = list(load_queries(data["unlabeled_queries"]))
        self.eval_queries = list(load_queries(data["eval_queries"]))
        self.qrels = load_qrels(data["eval_qrels"])
        self._sparse = None

    @property
    def sparse(self) -> InvertedIndex:
        """BM25 statistics counted from the oracle's own tokens, not by build_index."""
        if self._sparse is None:
            postings: dict[str, dict[str, int]] = {}
            doc_len: dict[str, int] = {}
            for pid, toks in zip(self.ids, self.tokens):
                doc_len[pid] = len(toks)
                for t in toks:
                    tfs = postings.setdefault(t, {})
                    tfs[pid] = tfs.get(pid, 0) + 1
            self._sparse = InvertedIndex(
                postings={t: sorted(tfs.items()) for t, tfs in postings.items()},
                doc_len=doc_len,
                N=len(self.ids),
                avgdl=sum(doc_len.values()) / len(self.ids),
                params=BM25Params(**self.cfg["bm25"]),
                tokenizer=self.tok,
            )
        return self._sparse

    def passage_matrix(self, params) -> np.ndarray:
        table = params.embedding
        vectors = np.zeros((len(self.ids), params.dim))
        for i, toks in enumerate(self.tokens):
            rows = [params.vocab[t] for t in toks if t in params.vocab]
            if rows:
                vectors[i] = table[np.array(rows, dtype=np.int64)].mean(axis=0)
        return vectors

    def query_vector(self, params, text: str) -> np.ndarray:
        rows = [params.vocab[t] for t in tokenize(text, self.tok) if t in params.vocab]
        table = params.table(as_query=True)
        if not rows:
            return np.zeros(params.dim)
        return table[np.array(rows, dtype=np.int64)].mean(axis=0)

    def dense_top(self, vectors: np.ndarray, qv: np.ndarray, k: int) -> list[tuple[str, float]]:
        """Top-k by brute-force dot product under (score desc, id asc)."""
        scores = vectors @ qv
        k = min(k, len(scores))
        kth = np.partition(scores, len(scores) - k)[len(scores) - k]
        tied_or_better = np.flatnonzero(scores >= kth)
        order = sorted(tied_or_better, key=lambda i: (-scores[i], self.ids[i]))[:k]
        return [(self.ids[i], float(scores[i])) for i in order]

    def sparse_top(self, text: str, k: int) -> list[str]:
        qtok = tokenize(text, self.tok)
        scored = [(pid, bm25_score(self.sparse, qtok, pid)) for pid in self.ids]
        scored = [(pid, s) for pid, s in scored if s > 0.0]
        scored.sort(key=lambda kv: (-kv[1], kv[0]))
        return [pid for pid, _ in scored[:k]]


def expected_mined(sparse_ids: list[str], dense_ids: list[str], S: int, max_hard: int) -> list[tuple]:
    """(positive, hard negatives) per sample from the set definition."""
    s_s, s_d = set(sparse_ids[:S]), set(dense_ids[:S])
    l_s, l_d = set(sparse_ids), set(dense_ids)
    positives = s_s & s_d
    negatives = (s_s - l_d) | (s_d - l_s)
    best: dict[str, int] = {}
    for ranked in (sparse_ids, dense_ids):
        for rank, pid in enumerate(ranked, 1):
            best[pid] = min(best.get(pid, rank), rank)
    key = lambda pid: (best[pid], pid)
    hard = tuple(sorted(negatives, key=key)[:max_hard])
    return [(pid, hard) for pid in sorted(positives, key=key)]


def mining_sample(n_unlabeled: int, iteration: int, seed: int) -> list[int]:
    """Indices of the unlabeled queries re-derived for one iteration."""
    rng = np.random.default_rng([seed, iteration])
    return sorted(int(i) for i in rng.choice(n_unlabeled, size=min(MINING_SAMPLE, n_unlabeled), replace=False))


def check_mining(oracle: Oracle, out: Path, n_iter: int, seed: int) -> list[Check]:
    cfg = oracle.cfg
    if cfg["mining_mode"] != "sparse_dense" or cfg["negative_mode"] != "mined":
        return [("mining.mode", False, "re-derivation covers sparse_dense/mined only")]
    S, L, max_hard = cfg["mining"]["S"], cfg["mining"]["L"], cfg["mining"]["max_hard_negatives"]
    checks = []
    prev = out / "warmup" / "checkpoint.npz"
    for it in range(1, n_iter + 1):
        params, _ = load_checkpoint(prev)
        vectors = oracle.passage_matrix(params)
        observed: dict[str, list[tuple]] = {}
        with open(out / f"iter_{it}" / "mined.jsonl", encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                observed.setdefault(rec["query_id"], []).append(
                    (rec["positive"], tuple(rec["hard_negatives"]))
                )
        bad = []
        for i in mining_sample(len(oracle.unlabeled), it, seed):
            q = oracle.unlabeled[i]
            dense_ids = [pid for pid, _ in oracle.dense_top(vectors, oracle.query_vector(params, q.text), L)]
            want = expected_mined(oracle.sparse_top(q.text, L), dense_ids, S, max_hard)
            if observed.get(q.id, []) != want:
                bad.append(q.id)
        checks.append((f"mining.iter_{it}", not bad, f"mismatched queries: {bad}" if bad else ""))
        prev = out / f"iter_{it}" / "checkpoint.npz"
    return checks


def check_final_run(oracle: Oracle, out: Path, n_iter: int, reports: list[dict]) -> list[Check]:
    """Recompute run.trec from the final checkpoint; recompute MRR@k from it."""
    k = oracle.cfg["eval_k"]
    params, _ = load_checkpoint(out / f"iter_{n_iter}" / "checkpoint.npz")
    vectors = oracle.passage_matrix(params)
    written: dict[str, list[tuple[str, float]]] = {}
    with open(out / f"iter_{n_iter}" / "run.trec", encoding="utf-8") as fh:
        for line in fh:
            qid, _, pid, rank, score, _ = line.split()
            ranked = written.setdefault(qid, [])
            if int(rank) != len(ranked) + 1:
                return [("run.trec", False, f"{qid}: rank {rank} out of order")]
            ranked.append((pid, float(score)))
    bad = []
    per_lang: dict[str, list[float]] = {}
    for q in oracle.eval_queries:
        want = oracle.dense_top(vectors, oracle.query_vector(params, q.text), k)
        got = written.get(q.id, [])
        if [p for p, _ in got] != [p for p, _ in want] or any(
            abs(a - b) > SCORE_TOL for (_, a), (_, b) in zip(got, want)
        ):
            bad.append(q.id)
        relevant = oracle.qrels.relevant(q.id)
        if relevant:
            rr = next((1.0 / r for r, (p, _) in enumerate(want, 1) if p in relevant), 0.0)
            per_lang.setdefault(q.lang, []).append(rr)
    checks = [("run.trec", not bad and len(written) == len(oracle.eval_queries),
               f"{len(bad)} queries differ" if bad else "")]
    final = reports[-1]["metrics"]
    off = [
        lang for lang, vals in per_lang.items()
        if abs(final[lang][f"mrr@{k}"] - sum(vals) / len(vals)) > 1e-12
    ]
    checks.append(("report.mrr", not off, f"MRR differs for {off}" if off else ""))
    return checks


def check_counts(out: Path, reports: list[dict]) -> list[Check]:
    checks = []
    for r in reports[1:]:
        it = r["iteration"]
        mined = sum(1 for _ in open(out / f"iter_{it}" / "mined.jsonl", encoding="utf-8"))
        generated = sum(1 for _ in open(out / f"iter_{it}" / "generated.jsonl", encoding="utf-8"))
        problems = []
        if r["generated_accepted"] + r["generated_rejected"] != r["generated_candidates"]:
            problems.append("accepted + rejected != candidates")
        if r["dataset_size"] != r["mined_samples"] + r["generated_accepted"]:
            problems.append("dataset_size != mined + accepted")
        if mined != r["mined_samples"] or generated != r["generated_accepted"]:
            problems.append("artifact line counts disagree with the report")
        checks.append((f"counts.iter_{it}", not problems, "; ".join(problems)))
    return checks
