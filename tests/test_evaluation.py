import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from lexmine.corpus import DataFormatError, Judgment, JudgmentSet
from lexmine.evaluation import (
    MetricsReport,
    format_lang_table,
    load_run,
    mrr_at_k,
    paired_t_test,
    recall_at_k,
    save_run,
)

# Frozen from scipy.stats.ttest_rel on diffs [0.2, -0.1, 0.3, 0.1, 0.0].
TTEST_FIXTURE_T = 1.4142135623730951
TTEST_FIXTURE_P = 0.23019964108049873


def qrels(pairs):
    return JudgmentSet([Judgment(q, p, g) for q, p, g in pairs])


def run_of(mapping):
    return {qid: [(pid, float(s)) for pid, s in ranked] for qid, ranked in mapping.items()}


def oracle_metrics(run, judgments, k):
    """Brute-force per-query RR and hit computed directly from definitions."""
    rr, hit = {}, {}
    for qid, grades in judgments.by_query.items():
        relevant = {p for p, g in grades.items() if g > 0}
        if not relevant:
            continue
        ranked = run.get(qid, [])[:k]
        rr[qid] = 0.0
        hit[qid] = 0.0
        for rank, (pid, _) in enumerate(ranked, 1):
            if pid in relevant:
                rr[qid] = 1.0 / rank
                hit[qid] = 1.0
                break
    return rr, hit


# ---------------------------------------------------------------------------
# MRR / Recall
# ---------------------------------------------------------------------------


def test_mrr_first_rank():
    run = run_of({"q1": [("p1", 3.0), ("p2", 2.0)]})
    rep = mrr_at_k(run, qrels([("q1", "p1", 1)]), 10)
    assert rep.per_query["q1"] == 1.0
    assert rep.mean == 1.0


def test_mrr_hand_computed_mean():
    run = run_of(
        {
            "q1": [("p1", 9.0)],
            "q2": [("x1", 9.0), ("x2", 8.0), ("x3", 7.0), ("p2", 6.0)],
        }
    )
    rep = mrr_at_k(run, qrels([("q1", "p1", 1), ("q2", "p2", 1)]), 10)
    assert rep.mean == pytest.approx((1.0 + 0.25) / 2)


def test_mrr_cutoff_zero():
    ranked = [(f"n{i}", 10.0 - i) for i in range(10)] + [("rel", 0.0)]
    rep = mrr_at_k(run_of({"q1": ranked}), qrels([("q1", "rel", 1)]), 10)
    assert rep.per_query["q1"] == 0.0


def test_mrr_absent_query_counts_zero():
    rep = mrr_at_k({}, qrels([("q1", "p1", 1), ("q2", "p2", 2)]), 10)
    assert rep.mean == 0.0
    assert rep.per_query == {"q1": 0.0, "q2": 0.0}


def test_unjudged_run_queries_excluded_and_reported():
    run = run_of({"q1": [("p1", 1.0)], "mystery": [("p9", 1.0)]})
    rep = mrr_at_k(run, qrels([("q1", "p1", 1)]), 10)
    assert rep.unjudged_in_run == ["mystery"]
    assert "mystery" not in rep.per_query


def test_all_zero_grade_queries_excluded():
    rep = mrr_at_k(run_of({"q1": [("p1", 1.0)]}), qrels([("q1", "p1", 0), ("q2", "p2", 1)]), 10)
    assert rep.no_relevant == ["q1"]
    assert set(rep.per_query) == {"q2"}


def test_recall_hit_at_k():
    ranked = [(f"n{i}", 10.0 - i) for i in range(4)] + [("rel", 1.0)]
    rep = recall_at_k(run_of({"q1": ranked}), qrels([("q1", "rel", 1)]), 5)
    assert rep.per_query["q1"] == 1.0
    rep4 = recall_at_k(run_of({"q1": ranked}), qrels([("q1", "rel", 1)]), 4)
    assert rep4.per_query["q1"] == 0.0


def test_recall_is_query_level_hit_not_fraction():
    # Both passages relevant, only one retrieved: still a full hit.
    run = run_of({"q1": [("p1", 2.0)]})
    js = qrels([("q1", "p1", 1), ("q1", "p2", 1)])
    assert recall_at_k(run, js, 10).per_query["q1"] == 1.0


def test_recall_no_relevant_retrieved():
    rep = recall_at_k(run_of({"q1": [("x", 1.0)]}), qrels([("q1", "rel", 1)]), 10)
    assert rep.per_query["q1"] == 0.0


def test_metrics_monotone_in_k():
    rng = np.random.default_rng(0)
    pids = [f"p{i}" for i in range(30)]
    run = {}
    pairs = []
    for qi in range(25):
        order = rng.permutation(30)
        run[f"q{qi}"] = [(pids[i], float(30 - r)) for r, i in enumerate(order)]
        for pid in rng.choice(pids, size=3, replace=False):
            pairs.append((f"q{qi}", str(pid), 1))
    js = qrels(pairs)
    prev_mrr, prev_rec = 0.0, 0.0
    for k in (1, 2, 5, 10, 30):
        m = mrr_at_k(run, js, k).mean
        r = recall_at_k(run, js, k).mean
        assert m >= prev_mrr - 1e-12
        assert r >= prev_rec - 1e-12
        prev_mrr, prev_rec = m, r


def test_recall_at_least_mrr_per_query():
    rng = np.random.default_rng(1)
    pids = [f"p{i}" for i in range(20)]
    for trial in range(20):
        run = {}
        pairs = []
        for qi in range(10):
            order = rng.permutation(20)
            run[f"q{qi}"] = [(pids[i], float(20 - r)) for r, i in enumerate(order)]
            for pid in rng.choice(pids, size=2, replace=False):
                pairs.append((f"q{qi}", str(pid), 1))
        js = qrels(pairs)
        k = int(rng.integers(1, 21))
        mrr = mrr_at_k(run, js, k)
        rec = recall_at_k(run, js, k)
        for qid in mrr.per_query:
            assert rec.per_query[qid] >= mrr.per_query[qid]


def test_metrics_match_oracle_random_fixtures():
    rng = np.random.default_rng(99)
    pids = [f"p{i}" for i in range(15)]
    for trial in range(300):
        run = {}
        pairs = []
        n_q = int(rng.integers(1, 8))
        for qi in range(n_q):
            qid = f"q{qi}"
            if rng.random() < 0.85:  # some judged queries missing from the run
                n_ret = int(rng.integers(0, 15))
                order = rng.permutation(15)[:n_ret]
                run[qid] = [(pids[i], float(100 - r)) for r, i in enumerate(order)]
            n_rel = int(rng.integers(0, 4))
            for pid in rng.choice(pids, size=n_rel, replace=False):
                pairs.append((qid, str(pid), int(rng.integers(1, 3))))
        js = qrels(pairs)
        k = int(rng.integers(1, 16))
        want_rr, want_hit = oracle_metrics(run, js, k)
        assert mrr_at_k(run, js, k).per_query == want_rr
        assert recall_at_k(run, js, k).per_query == want_hit


def test_per_language_means():
    run = run_of({"q1": [("p1", 1.0)], "q2": [("x", 1.0)], "q3": [("p3", 1.0)]})
    js = qrels([("q1", "p1", 1), ("q2", "p2", 1), ("q3", "p3", 1)])
    langs = {"q1": "en", "q2": "en", "q3": "sw"}
    rep = mrr_at_k(run, js, 10, query_langs=langs)
    assert rep.per_lang == {"en": 0.5, "sw": 1.0}


def test_metrics_report_range_guard():
    with pytest.raises(ValueError):
        MetricsReport(metric="mrr", k=10, per_query={"q": 1.5}, mean=1.5)


# ---------------------------------------------------------------------------
# paired t-test
# ---------------------------------------------------------------------------


def test_ttest_identical_lists():
    res = paired_t_test([0.1, 0.4, 0.9], [0.1, 0.4, 0.9])
    assert res.t == 0.0
    assert res.p_two_sided == 1.0
    assert not res.degenerate_variance


def test_ttest_degenerate_variance():
    res = paired_t_test([1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0])
    assert res.degenerate_variance
    assert res.p_two_sided < 1e-12
    assert res.t == np.inf


def test_ttest_frozen_fixture():
    a = [0.2, -0.1, 0.3, 0.1, 0.0]
    b = [0.0] * 5
    res = paired_t_test(a, b)
    assert res.t == pytest.approx(TTEST_FIXTURE_T, abs=1e-9)
    assert res.p_two_sided == pytest.approx(TTEST_FIXTURE_P, abs=1e-9)


def test_ttest_matches_scipy_oracle():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = int(rng.integers(2, 40))
        a = rng.normal(0.5, 0.2, size=n)
        b = rng.normal(0.45, 0.2, size=n)
        res = paired_t_test(list(a), list(b))
        t_ref, p_ref = stats.ttest_rel(a, b)
        assert res.t == pytest.approx(float(t_ref), abs=1e-6)
        assert res.p_two_sided == pytest.approx(float(p_ref), abs=1e-6)


def test_ttest_validation():
    with pytest.raises(ValueError):
        paired_t_test([1.0], [1.0])
    with pytest.raises(ValueError):
        paired_t_test([1.0, 2.0], [1.0])


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about 70 MB and a second per process; only the t-test loads it
    code = "import sys, lexmine.cli, lexmine.pipeline; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# run files
# ---------------------------------------------------------------------------


def test_run_file_round_trip(tmp_path):
    run = run_of({"q1": [("p1", 2.5), ("p2", 1.0)], "q2": [("p3", 0.125)]})
    path = tmp_path / "run.trec"
    save_run(run, path)
    line = path.read_text().splitlines()[0].split()
    assert line == ["q1", "Q0", "p1", "1", "2.500000", "lexmine"]
    loaded = load_run(path)
    assert set(loaded) == {"q1", "q2"}
    assert [pid for pid, _ in loaded["q1"]] == ["p1", "p2"]


def test_load_run_rejects_malformed(tmp_path):
    path = tmp_path / "run.trec"
    path.write_text("q1 Q0 p1 1\n")
    with pytest.raises(Exception):
        load_run(path)


def test_load_run_orders_by_rank_column(tmp_path):
    # the relevant passage has rank 1 but is listed second: MRR@10 is 1, not 1/2
    path = tmp_path / "run.trec"
    path.write_text("q1 Q0 p2 2 1.0 t\nq1 Q0 p1 1 2.0 t\nq2 Q0 p3 1 0.5 t\n")
    run = load_run(path)
    assert run == {"q1": [("p1", 2.0), ("p2", 1.0)], "q2": [("p3", 0.5)]}
    assert mrr_at_k(run, qrels([("q1", "p1", 1)]), 10).mean == 1.0


@pytest.mark.parametrize(
    "lines, match",
    [
        ("q1 Q0 p1 1 2.0 t\nq1 Q0 p1 2 1.0 t\n", "p1"),
        ("q1 Q0 p1 1 2.0 t\nq1 Q0 p2 1 1.0 t\n", "rank 1"),
    ],
    ids=["duplicate_passage", "duplicate_rank"],
)
def test_load_run_rejects_duplicates(tmp_path, lines, match):
    path = tmp_path / "run.trec"
    path.write_text("q0 Q0 p1 1 1.0 t\n" + lines)
    with pytest.raises(DataFormatError, match=match) as exc:
        load_run(path)
    assert exc.value.line == 3


@pytest.mark.parametrize("rank", ["1_0", "\u0663", "\uff11", "+1", "1.0", "-"])
def test_load_run_rank_must_be_ascii_digits(tmp_path, rank):
    # int() reads all but the last two, as 10, 3, 1 and 1
    path = tmp_path / "run.trec"
    path.write_text(f"q0 Q0 p1 1 1.0 t\nq1 Q0 p1 {rank} 1.0 t\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="bad rank/score") as exc:
        load_run(path)
    assert exc.value.line == 2


@pytest.mark.parametrize("score", ["1_0", "\u0663", "\uff11.5"])
def test_load_run_score_must_be_ascii_without_separators(tmp_path, score):
    # float() reads them as 10.0, 3.0 and 1.5
    path = tmp_path / "run.trec"
    path.write_text(f"q0 Q0 p1 1 1.0 t\nq1 Q0 p1 1 {score} t\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="bad rank/score") as exc:
        load_run(path)
    assert exc.value.line == 2


def test_load_run_reads_every_score_save_run_writes(tmp_path):
    scores = [2.5, -0.125, 0.0, -0.0, 1e300, -1e-300, float("inf"), float("-inf"), float("nan")]
    run = {"q1": [(f"p{i}", s) for i, s in enumerate(scores)]}
    path = tmp_path / "run.trec"
    save_run(run, path)
    loaded = load_run(path)["q1"]
    assert [pid for pid, _ in loaded] == [pid for pid, _ in run["q1"]]
    np.testing.assert_array_equal([s for _, s in loaded], [float(f"{s:.6f}") for s in scores])


def test_load_run_reads_signed_ranks(tmp_path):
    path = tmp_path / "run.trec"
    path.write_text("q1 Q0 p1 -1 2.0 t\nq1 Q0 p2 07 1.0 t\n")
    assert load_run(path) == {"q1": [("p1", 2.0), ("p2", 1.0)]}


_RUN_IDS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6).filter(
    lambda s: not any(c.isspace() for c in s)
)
_RUNS = st.dictionaries(
    _RUN_IDS,
    st.lists(
        st.tuples(_RUN_IDS, st.floats(allow_nan=False, allow_infinity=False)),
        min_size=1,
        max_size=5,
        unique_by=lambda entry: entry[0],
    ),
    max_size=4,
)
_RUN_SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@_RUN_SETTINGS
@given(_RUNS, st.data())
def test_run_file_round_trips_shuffled(tmp_path, run, data):
    path = tmp_path / "run.trec"
    save_run(run, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(data.draw(st.permutations(lines))), encoding="utf-8")
    # scores are written with six decimals
    want = {qid: [(pid, float(f"{s:.6f}")) for pid, s in ranked] for qid, ranked in run.items()}
    assert load_run(path) == want


@_RUN_SETTINGS
@given(_RUNS.filter(bool), st.booleans(), st.data())
def test_run_file_injected_duplicate_rejected(tmp_path, run, same_passage, data):
    qid = data.draw(st.sampled_from(sorted(run)))
    ranked = run[qid]
    if same_passage:
        pid, rank = data.draw(st.sampled_from(ranked))[0], len(ranked) + 1
    else:
        pid, rank = "x" * (max(len(p) for p, _ in ranked) + 1), data.draw(st.integers(1, len(ranked)))
    path = tmp_path / "run.trec"
    save_run(run, path)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines.insert(data.draw(st.integers(0, len(lines))), f"{qid} Q0 {pid} {rank} 0.5 t\n")
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(DataFormatError, match="twice"):
        load_run(path)


def test_format_lang_table():
    rep_m = mrr_at_k(
        run_of({"q1": [("p1", 1.0)], "q2": [("x", 1.0)]}),
        qrels([("q1", "p1", 1), ("q2", "p2", 1)]),
        10,
        query_langs={"q1": "en", "q2": "sw"},
    )
    table = format_lang_table({"mrr": rep_m})
    assert "mrr@10" in table
    assert "en" in table and "sw" in table
