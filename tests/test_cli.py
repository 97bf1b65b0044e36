import filecmp
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lexmine.cli import (
    _DATA_KEYS,
    _PIPELINE_KEYS,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    ConfigError,
    dispatch,
    parse_kv_config,
    pipeline_config_from_mapping,
)
from lexmine.corpus import load_passages, load_qrels, load_queries, tokenize
from lexmine.dense import bind_encoder, init_params, load_checkpoint, save_checkpoint, search_dense
from lexmine.evaluation import load_run, mrr_at_k
from lexmine.mining import load_samples, save_samples
from lexmine.pipeline import (
    MINING_MODES,
    NEGATIVE_MODES,
    PipelineConfig,
    PipelineError,
    config_hash,
    generate,
    start_state,
    target_mean,
)
from lexmine.querygen import GeneratorModel, load_generator, save_generator
from lexmine.sparse import build_index, search_sparse

SYNTH_CFG = """
languages = src,tgta
topics_per_lang = 6
passages_per_topic = 4
vocab_size = 140
query_len = 3
labeled_frac = 0.5
queries_per_lang = 40
passage_len = 25
terms_per_topic = 8
core_terms_per_topic = 2
topic_token_frac = 0.5
query_topic_frac = 0.6
"""

PIPELINE_CFG = """
iterations = 2
minibatches_per_iter = 15
batch_size = 8
warmup_epochs = 2
mining_s = 2
mining_l = 8
n_generate = 15
embedding_dim = 16
warmup_lr = 0.01
train_lr = 0.003
eval_k = 10
"""


@pytest.fixture()
def synth_cfg(tmp_path):
    path = tmp_path / "synth.cfg"
    path.write_text(SYNTH_CFG)
    return path


@pytest.fixture()
def synth_dir(tmp_path, synth_cfg):
    out = tmp_path / "data"
    assert dispatch(["synth", "--config", str(synth_cfg), "--seed", "7", "--out", str(out)]) == EXIT_OK
    return out


def pipeline_cfg_file(tmp_path, data_dir, extra=""):
    path = tmp_path / "pipe.cfg"
    path.write_text(
        PIPELINE_CFG
        + f"""
passages = {data_dir}/passages.jsonl
train_queries = {data_dir}/train_queries.jsonl
train_qrels = {data_dir}/qrels.tsv
unlabeled_queries = {data_dir}/unlabeled_tgt.jsonl
eval_queries = {data_dir}/queries.jsonl
eval_qrels = {data_dir}/qrels.tsv
"""
        + extra
    )
    return path


def tiny_data(tmp_path: Path, grade: int = 1) -> Path:
    """Two passages, one judged source query and one unlabeled query, under the
    file names ``pipeline_cfg_file`` expects."""
    out = tmp_path / "tiny"
    out.mkdir()
    (out / "passages.jsonl").write_text(
        "".join(json.dumps({"id": f"p{i}", "text": f"alpha beta{i}"}) + "\n" for i in (1, 2))
    )
    for name in ("train_queries.jsonl", "queries.jsonl"):
        (out / name).write_text(json.dumps({"id": "q1", "text": "alpha beta1"}) + "\n")
    (out / "unlabeled_tgt.jsonl").write_text(json.dumps({"id": "u1", "text": "beta2"}) + "\n")
    (out / "qrels.tsv").write_text(f"q1 0 p1 {grade}\n")
    return out


def split_synth_for_pipeline(synth_dir: Path) -> None:
    """The pipeline wants source-language training queries and target-only
    unlabeled queries; carve those out of the synth output."""
    from lexmine.corpus import QuerySet, save_queries

    queries = load_queries(synth_dir / "queries.jsonl")
    unlabeled = load_queries(synth_dir / "unlabeled.jsonl")
    save_queries(QuerySet(q for q in queries if q.lang == "src"), synth_dir / "train_queries.jsonl")
    save_queries(QuerySet(q for q in unlabeled if q.lang != "src"), synth_dir / "unlabeled_tgt.jsonl")


# ---------------------------------------------------------------------------


def test_parse_kv_config(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("a = 1\n# comment\nb=two # trailing\n\n")
    assert parse_kv_config(path) == {"a": "1", "b": "two"}


def _kv_text(exclude):
    return st.text(st.characters(blacklist_characters=exclude + "#\r\n", blacklist_categories=("Cs",)), max_size=10)


_KV_KEYS = _kv_text("=").map(str.strip).filter(bool)
_KV_VALUES = _kv_text("").map(str.strip)
_KV_NOISE = st.sampled_from(["", "   ", "# a comment", "  #= not a pair"])
_KV_SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _kv_lines(mapping, data):
    lines = []
    for key, value in mapping.items():
        lines.append(data.draw(_KV_NOISE))
        lines.append(f"{key} = {value}" + data.draw(st.sampled_from(["", "  # trailing"])))
    return lines


def _parse_lines(tmp_path, lines):
    path = tmp_path / "c.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return parse_kv_config(path)


@_KV_SETTINGS
@given(st.dictionaries(_KV_KEYS, _KV_VALUES, max_size=6), st.data())
def test_parse_kv_config_round_trips(tmp_path, mapping, data):
    assert _parse_lines(tmp_path, _kv_lines(mapping, data)) == mapping


@_KV_SETTINGS
@given(st.dictionaries(_KV_KEYS, _KV_VALUES, min_size=1, max_size=6), _KV_VALUES, st.data())
def test_parse_kv_config_rejects_duplicate_keys(tmp_path, mapping, value, data):
    lines = _kv_lines(mapping, data)
    key = data.draw(st.sampled_from(sorted(mapping)))
    lines.insert(data.draw(st.integers(0, len(lines))), f"{key}={value}")
    with pytest.raises(ConfigError, match="duplicate key"):
        _parse_lines(tmp_path, lines)


@_KV_SETTINGS
@given(st.dictionaries(_KV_KEYS, _KV_VALUES, max_size=6), _kv_text("=").filter(str.strip), st.data())
def test_parse_kv_config_rejects_lines_without_equals(tmp_path, mapping, junk, data):
    lines = _kv_lines(mapping, data)
    lines.insert(data.draw(st.integers(0, len(lines))), junk)
    with pytest.raises(ConfigError, match="expected key=value"):
        _parse_lines(tmp_path, lines)


def test_synth_deterministic_trees(tmp_path, synth_cfg):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        code = dispatch(["synth", "--config", str(synth_cfg), "--seed", "7", "--out", str(out)])
        assert code == EXIT_OK
    for name in ("passages.jsonl", "queries.jsonl", "qrels.tsv", "unlabeled.jsonl", "topics.json"):
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


def test_synth_unknown_key_exit_2(tmp_path, synth_cfg):
    out = tmp_path / "o"
    code = dispatch(
        ["synth", "--config", str(synth_cfg), "--set", "bogus=1", "--seed", "7", "--out", str(out)]
    )
    assert code == EXIT_CONFIG


def test_synth_overwrite_guard(tmp_path, synth_cfg):
    out = tmp_path / "o"
    assert dispatch(["synth", "--config", str(synth_cfg), "--seed", "7", "--out", str(out)]) == EXIT_OK
    assert dispatch(["synth", "--config", str(synth_cfg), "--seed", "7", "--out", str(out)]) == EXIT_CONFIG
    assert (
        dispatch(
            ["synth", "--config", str(synth_cfg), "--seed", "7", "--out", str(out), "--overwrite"]
        )
        == EXIT_OK
    )


def test_synth_set_override_changes_output(tmp_path, synth_cfg):
    out = tmp_path / "o"
    code = dispatch(
        [
            "synth",
            "--config",
            str(synth_cfg),
            "--set",
            "topics_per_lang=3",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["topics_per_lang"] == "3"
    assert manifest["seed"] == 7


def test_seed_is_mandatory_for_stochastic_commands(tmp_path, synth_cfg, capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["synth", "--config", str(synth_cfg), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_removed_index_command_exit_2(tmp_path, capsys):
    # every stage builds its BM25 index from --passages; nothing read the saved one
    with pytest.raises(SystemExit) as exc:
        dispatch(["index", "--passages", str(tmp_path / "p.jsonl"), "--out", str(tmp_path / "idx.json")])
    assert exc.value.code == EXIT_CONFIG
    assert "invalid choice: 'index'" in capsys.readouterr().err
    assert not (tmp_path / "idx.json").exists()


# what each subcommand accepts: option -> (required, nargs, default)
_SEEDED_OPTIONS = {
    "--config": (False, None, None),
    "--set": (False, None, None),
    "--seed": (True, None, None),
    "--out": (True, None, None),
    "--overwrite": (False, 0, False),
}
_REQUIRED = (True, None, None)
_OPTIONAL = (False, None, None)
CLI_SURFACE = {
    "synth": _SEEDED_OPTIONS,
    "warmup": {**_SEEDED_OPTIONS, "--passages": _REQUIRED, "--queries": _REQUIRED, "--qrels": _REQUIRED},
    "mine": {**_SEEDED_OPTIONS, "--passages": _REQUIRED, "--queries": _REQUIRED, "--checkpoint": _REQUIRED},
    "generate": {
        **_SEEDED_OPTIONS,
        "--passages": _REQUIRED,
        "--checkpoint": _REQUIRED,
        "--generator": _REQUIRED,
        "--rejected": _OPTIONAL,
    },
    "train": {**_SEEDED_OPTIONS, "--passages": _REQUIRED, "--samples": (True, "+", None), "--checkpoint": _REQUIRED},
    "eval": {
        "--run": _REQUIRED,
        "--qrels": _REQUIRED,
        "--k": (False, None, 10),
        "--queries": _OPTIONAL,
        "--out": _OPTIONAL,
    },
    "pipeline": {**_SEEDED_OPTIONS, "--resume": (False, 0, False)},
}


def test_command_line_surface():
    import argparse

    from lexmine.cli import build_parser

    (commands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(commands.choices) == list(CLI_SURFACE)
    for name, parser in commands.choices.items():
        options = {
            a.option_strings[0]: (a.required, a.nargs, a.default)
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        }
        assert options == CLI_SURFACE[name], name


def warmup_cmd(data, out, *extra, seed=3):
    return dispatch(
        [
            "warmup",
            "--passages", str(data / "passages.jsonl"),
            "--queries", str(data / "train_queries.jsonl"),
            "--qrels", str(data / "qrels.tsv"),
            "--seed", str(seed),
            "--out", str(out),
            *extra,
        ]
    )


@pytest.mark.parametrize(
    "setting",
    [
        "bm25_k1=abc",
        "bm25_b=2",
        "min_token_len=0",
        "bm25_k1=nan",
        "bm25_k1=inf",
        "eval_k=0",
        "embedding_dim=0",
        "warmup_lr=-1",
        "train_lr=inf",
        "plateau_eps=nan",
    ],
)
def test_index_bad_value_exit_2(tmp_path, capsys, setting):
    # bad values of the BM25 index, tokenizer, encoder, training and stopping keys
    out = tmp_path / "warm"
    assert warmup_cmd(tiny_data(tmp_path), out, "--set", setting) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "setting",
    [
        "batch_size=3_2",
        "batch_size=\u0663",
        "batch_size=\uff13\uff12",
        "min_token_len=+2",
        "train_lr=1_0e-3",
        "lowercase=maybe",
    ],
    ids=["int_underscore", "arabic_indic_digit", "fullwidth_digits", "int_plus", "float_underscore", "bool"],
)
def test_config_malformed_number_or_bool_exit_2(tmp_path, capsys, setting):
    # int() and float() read the numbers, so runs went ahead with 32, 3, 32, 2
    # and 0.01; the error names the key once
    key = setting.split("=")[0]
    out = tmp_path / "warm"
    assert warmup_cmd(tiny_data(tmp_path), out, "--set", setting) == EXIT_CONFIG
    assert f"config error: key {key!r}: {key} must be " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "setting",
    ["topics_per_lang=1_0", "vocab_size=\uff11\uff14\uff10", "labeled_frac=0.2_5"],
    ids=["int_underscore", "fullwidth_digits", "float_underscore"],
)
def test_synth_number_not_ascii_exit_2(tmp_path, synth_cfg, capsys, setting):
    out = tmp_path / "o"
    code = dispatch(["synth", "--config", str(synth_cfg), "--set", setting, "--seed", "7", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert setting.split("=")[0] in capsys.readouterr().err
    assert not out.exists()


def test_eval_orders_run_by_rank(tmp_path):
    run = tmp_path / "run.trec"
    run.write_text("q1 Q0 p2 2 1.0 t\nq1 Q0 p1 1 2.0 t\n")
    qrels = tmp_path / "qrels.tsv"
    qrels.write_text("q1 0 p1 1\n")
    report = tmp_path / "eval.json"
    assert dispatch(["eval", "--run", str(run), "--qrels", str(qrels), "--out", str(report)]) == EXIT_OK
    assert json.loads(report.read_text())["mrr@10"] == 1.0


@pytest.mark.parametrize(
    "lines",
    ["q1 Q0 p1 1 2.0 t\nq1 Q0 p1 2 1.0 t\n", "q1 Q0 p1 1 2.0 t\nq1 Q0 p2 1 1.0 t\n"],
    ids=["duplicate_passage", "duplicate_rank"],
)
def test_eval_duplicate_run_entry_exit_3(tmp_path, capsys, lines):
    run = tmp_path / "run.trec"
    run.write_text(lines)
    qrels = tmp_path / "qrels.tsv"
    qrels.write_text("q1 0 p1 1\n")
    assert dispatch(["eval", "--run", str(run), "--qrels", str(qrels)]) == EXIT_DATA
    assert "data error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "run_line, qrels_line",
    [("q1 Q0 p1 1_0 1.0 t", "q1 0 p1 1"), ("q1 Q0 p1 1 1.0 t", "q1 0 p1 \u0663"), ("q1 Q0 p1 1 1_0 t", "q1 0 p1 1")],
    ids=["rank", "grade", "score"],
)
def test_eval_non_ascii_or_separated_integer_exit_3(tmp_path, capsys, run_line, qrels_line):
    run = tmp_path / "run.trec"
    run.write_text(run_line + "\n", encoding="utf-8")
    qrels = tmp_path / "qrels.tsv"
    qrels.write_text(qrels_line + "\n", encoding="utf-8")
    assert dispatch(["eval", "--run", str(run), "--qrels", str(qrels)]) == EXIT_DATA
    assert "data error:" in capsys.readouterr().err


def test_eval_run_with_byte_order_mark_exit_3(tmp_path, capsys):
    # the mark would start the first query id, and that query would rank nothing
    run = tmp_path / "run.trec"
    run.write_bytes("\ufeffq1 Q0 p1 1 2.0 t\nq2 Q0 p2 1 1.0 t\n".encode("utf-8"))
    qrels = tmp_path / "qrels.tsv"
    qrels.write_text("q1 0 p1 1\nq2 0 p2 1\n")
    assert dispatch(["eval", "--run", str(run), "--qrels", str(qrels)]) == EXIT_DATA
    assert f"data error: {run}:1: unexpected UTF-8 BOM" in capsys.readouterr().err


@pytest.mark.parametrize("bad_file", ["run", "qrels"])
@pytest.mark.parametrize("bad_id", ["q2", "p2"])
def test_eval_id_starting_with_a_byte_order_mark_on_a_later_line_exit_3(tmp_path, capsys, bad_file, bad_id):
    # only line 1 was checked, so such an id was read, though no id may start with the mark
    lines = {"run": ["q1 Q0 p1 1 2.0 t", "q2 Q0 p2 1 1.0 t"], "qrels": ["q1 0 p1 1", "q2 0 p2 1"]}
    lines[bad_file][1] = lines[bad_file][1].replace(bad_id, "\ufeff" + bad_id)
    paths = {}
    for name, file_lines in lines.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text("\n".join(file_lines) + "\n", encoding="utf-8")
    assert dispatch(["eval", "--run", str(paths["run"]), "--qrels", str(paths["qrels"])]) == EXIT_DATA
    bad = "\ufeff" + bad_id
    assert f"data error: {paths[bad_file]}:2: id {bad!r} starts with U+FEFF" in capsys.readouterr().err


def test_eval_k_below_one_exit_2(tmp_path, capsys):
    run = tmp_path / "run.trec"
    run.write_text("q1 Q0 p1 1 1.0 t\n")
    qrels = tmp_path / "qrels.tsv"
    qrels.write_text("q1 0 p1 1\n")
    assert dispatch(["eval", "--run", str(run), "--qrels", str(qrels), "--k", "0"]) == EXIT_CONFIG
    assert "config error: --k must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["passages.jsonl", "train_queries.jsonl", "qrels.tsv", "pipe.cfg"])
def test_input_that_is_not_utf8_exit_3(tmp_path, capsys, name):
    # a UnicodeDecodeError escaped every line reader as a traceback
    data = tiny_data(tmp_path)
    cfg = pipeline_cfg_file(tmp_path, data)
    path = cfg if name == "pipe.cfg" else data / name
    path.write_bytes(b"\xff" + path.read_bytes())
    out = tmp_path / "warm"
    assert warmup_cmd(data, out, "--config", str(cfg)) == EXIT_DATA
    assert f"data error: {path}: not UTF-8 text (invalid start byte)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["run.trec", "qrels.tsv"])
def test_eval_input_that_is_not_utf8_exit_3(tmp_path, capsys, name):
    files = {"run.trec": b"q1 Q0 p1 1 2.0 t\n", "qrels.tsv": b"q1 0 p1 1\n"}
    for file, text in files.items():
        (tmp_path / file).write_bytes(text + b"q2\xff" + text[2:] if file == name else text)
    argv = ["eval", "--run", str(tmp_path / "run.trec"), "--qrels", str(tmp_path / "qrels.tsv")]
    assert dispatch(argv) == EXIT_DATA
    assert f"data error: {tmp_path / name}: not UTF-8 text (invalid start byte)" in capsys.readouterr().err


def test_data_error_exit_3(tmp_path, capsys):
    data = tiny_data(tmp_path)
    (data / "passages.jsonl").write_text('{"id": "p1", "text": "ok"}\nnot-json\n')
    assert warmup_cmd(data, tmp_path / "warm") == EXIT_DATA
    assert f"data error: {data / 'passages.jsonl'}:2: " in capsys.readouterr().err
    assert not (tmp_path / "warm").exists()


def test_missing_file_exit_3(tmp_path, capsys):
    data = tiny_data(tmp_path)
    (data / "passages.jsonl").unlink()
    assert warmup_cmd(data, tmp_path / "warm") == EXIT_DATA
    assert "data error:" in capsys.readouterr().err
    assert not (tmp_path / "warm").exists()


def test_directory_as_input_file_exit_3(tmp_path, capsys):
    data = tiny_data(tmp_path)
    (data / "passages.jsonl").unlink()
    (data / "passages.jsonl").mkdir()
    assert warmup_cmd(data, tmp_path / "warm") == EXIT_DATA
    assert "data error:" in capsys.readouterr().err
    assert not (tmp_path / "warm").exists()


def test_pipeline_out_is_a_file_exit_3(tmp_path, capsys):
    cfg = pipeline_cfg_file(tmp_path, tiny_data(tmp_path))
    out = tmp_path / "out"
    out.write_text("not a directory\n")
    assert dispatch(["pipeline", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == EXIT_DATA
    assert "data error:" in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"


def test_pipeline_and_eval_cross_check(tmp_path, synth_dir):
    split_synth_for_pipeline(synth_dir)
    cfg = pipeline_cfg_file(tmp_path, synth_dir)
    out = tmp_path / "run"
    assert dispatch(["pipeline", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == EXIT_OK
    for it in (1, 2):
        for name in ("mined.jsonl", "generated.jsonl", "checkpoint.npz", "report.json", "run.trec"):
            assert (out / f"iter_{it}" / name).exists()

    # eval command on the persisted run must equal the eval-module oracle
    report_path = tmp_path / "eval.json"
    code = dispatch(
        [
            "eval",
            "--run",
            str(out / "iter_2" / "run.trec"),
            "--qrels",
            str(synth_dir / "qrels.tsv"),
            "--k",
            "10",
            "--queries",
            str(synth_dir / "queries.jsonl"),
            "--out",
            str(report_path),
        ]
    )
    assert code == EXIT_OK
    got = json.loads(report_path.read_text())
    run = load_run(out / "iter_2" / "run.trec")
    qrels = load_qrels(synth_dir / "qrels.tsv")
    want = mrr_at_k(run, qrels, 10)
    assert got["mrr@10"] == pytest.approx(want.mean, abs=1e-12)
    # and matches the in-run report for iteration 2
    rep = json.loads((out / "iter_2" / "report.json").read_text())
    assert got["mrr@10"] == pytest.approx(rep["metrics"]["overall"]["mrr@10"], abs=1e-12)


def test_pipeline_rerun_same_seed_identical_reports(tmp_path, synth_dir):
    split_synth_for_pipeline(synth_dir)
    cfg = pipeline_cfg_file(tmp_path, synth_dir)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert dispatch(["pipeline", "--config", str(cfg), "--seed", "5", "--out", str(out)]) == EXIT_OK
    for it in (1, 2):
        a = json.loads((out1 / f"iter_{it}" / "report.json").read_text())
        b = json.loads((out2 / f"iter_{it}" / "report.json").read_text())
        a.pop("wall_clock_sec"), b.pop("wall_clock_sec")
        assert a == b
    assert filecmp.cmp(out1 / "iter_2" / "run.trec", out2 / "iter_2" / "run.trec", shallow=False)


def test_pipeline_outputs_do_not_depend_on_input_line_order(tmp_path, synth_dir):
    split_synth_for_pipeline(synth_dir)
    cfg = pipeline_cfg_file(tmp_path, synth_dir)
    outs = tmp_path / "in_order", tmp_path / "shuffled"
    assert dispatch(["pipeline", "--config", str(cfg), "--seed", "5", "--out", str(outs[0])]) == EXIT_OK
    rng = np.random.default_rng(0)
    for name in ("passages.jsonl", "train_queries.jsonl", "qrels.tsv", "unlabeled_tgt.jsonl", "queries.jsonl"):
        lines = (synth_dir / name).read_text(encoding="utf-8").splitlines(keepends=True)
        shuffled = [lines[i] for i in rng.permutation(len(lines))]
        assert shuffled != lines
        (synth_dir / name).write_text("".join(shuffled), encoding="utf-8")
    assert dispatch(["pipeline", "--config", str(cfg), "--seed", "5", "--out", str(outs[1])]) == EXIT_OK

    files = [sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) for out in outs]
    assert files[0] == files[1] and len(files[0]) > 10
    for rel in files[0]:
        a, b = ((out / rel).read_bytes() for out in outs)
        if rel.name == "report.json":
            a, b = (dict(json.loads(x), wall_clock_sec=None) for x in (a, b))
        elif rel.name == "manifest.json":
            # the same records in another order are other bytes
            a, b = json.loads(a), json.loads(b)
            assert a["inputs"] != b["inputs"]
            for key in a["inputs"]:
                a["inputs"][key].pop("sha256"), b["inputs"][key].pop("sha256")
        assert a == b, rel


def test_pipeline_missing_data_keys_exit_2(tmp_path, synth_dir):
    cfg = tmp_path / "p.cfg"
    cfg.write_text(PIPELINE_CFG)
    assert dispatch(["pipeline", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "x")]) == EXIT_CONFIG


@pytest.mark.parametrize("given,absent", [("eval_queries", "eval_qrels"), ("eval_qrels", "eval_queries")])
def test_pipeline_eval_key_without_its_pair_exit_2(tmp_path, capsys, given, absent):
    data = tiny_data(tmp_path)
    cfg = pipeline_cfg_file(tmp_path, data)
    cfg.write_text("".join(line + "\n" for line in cfg.read_text().splitlines() if not line.startswith(absent)))
    out = tmp_path / "x"
    assert dispatch(["pipeline", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == EXIT_CONFIG
    assert f"{given} without {absent}" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_unknown_key_exit_2(tmp_path, synth_dir):
    # shared_encoder is unknown too: one table encodes queries and passages;
    # so is skip_generation_first_iter: generation always starts in iteration 2
    split_synth_for_pipeline(synth_dir)
    for extra in ("mystery_knob = 3\n", "shared_encoder = false\n", "skip_generation_first_iter = false\n"):
        cfg = pipeline_cfg_file(tmp_path, synth_dir, extra=extra)
        out = tmp_path / "x"
        assert dispatch(["pipeline", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()


def _flat_fields(cfg: PipelineConfig) -> dict:
    flat = {}
    for name, value in asdict(cfg).items():
        if isinstance(value, dict):
            flat.update({f"{name}.{sub}": v for sub, v in value.items()})
        else:
            flat[name] = value
    return flat


def test_every_config_field_is_set_by_exactly_one_key():
    # two valid values per key; the fields they leave unequal are the ones the key sets
    values = {int: ("3", "4"), float: ("0.25", "0.5"), bool: ("true", "false")}
    choices = {"mining_mode": MINING_MODES[:2], "negative_mode": NEGATIVE_MODES[:2]}
    set_by: dict[str, list[str]] = {}
    for key, (typ, part, field) in _PIPELINE_KEYS.items():
        a, b = (
            _flat_fields(pipeline_config_from_mapping({key: v}, seed=0))
            for v in choices.get(key) or values[typ]
        )
        changed = [name for name in a if a[name] != b[name]]
        assert changed == [f"{part}.{field}" if part else field], key
        set_by.setdefault(changed[0], []).append(key)
    assert set(set_by) == set(_flat_fields(PipelineConfig())) - {"seed"}
    assert all(len(keys) == 1 for keys in set_by.values()), set_by


@pytest.mark.parametrize("setting", ["workers=2", "use_generation=false", "source_lang=src"])
def test_removed_config_keys_exit_2(tmp_path, capsys, setting):
    out = tmp_path / "run"
    code = dispatch(["pipeline", "--set", setting, "--seed", "1", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert f"unknown config key {setting.split('=')[0]!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["pipeline", "mine"])
def test_workers_flag_is_gone(tmp_path, command):
    out = tmp_path / "out"
    inputs = ["--passages", "p", "--queries", "q", "--checkpoint", "c"] if command == "mine" else []
    with pytest.raises(SystemExit) as exc:
        dispatch([command, "--seed", "1", *inputs, "--out", str(out), "--workers", "2"])
    assert exc.value.code == 2
    assert not out.exists()


def test_readme_config_table_lists_every_key():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Config keys", 1)[1].split("\n## ", 1)[0]
    listed = [
        line.split("|")[1].strip().strip("`")
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    assert sorted(listed) == sorted([*_PIPELINE_KEYS, *_DATA_KEYS])


def _judge_unknown_passage(qrels_path: Path, qid: str) -> None:
    # the query's only judgment names a passage the corpus lacks
    kept = [line for line in qrels_path.read_text().splitlines() if line.split()[0] != qid]
    qrels_path.write_text("\n".join(kept + [f"{qid} 0 nope 1"]) + "\n")


def test_pipeline_qrels_unknown_passage_exit_3(tmp_path, synth_dir, capsys):
    split_synth_for_pipeline(synth_dir)
    qid = next(iter(load_queries(synth_dir / "train_queries.jsonl"))).id
    _judge_unknown_passage(synth_dir / "qrels.tsv", qid)
    cfg = pipeline_cfg_file(tmp_path, synth_dir)
    out = tmp_path / "run"
    assert dispatch(["pipeline", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"data error: {synth_dir / 'qrels.tsv'}: " in err and "'nope'" in err
    assert not out.exists()


def test_warmup_qrels_unknown_passage_exit_3(tmp_path, synth_dir, capsys):
    split_synth_for_pipeline(synth_dir)
    qid = next(iter(load_queries(synth_dir / "train_queries.jsonl"))).id
    _judge_unknown_passage(synth_dir / "qrels.tsv", qid)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(PIPELINE_CFG)
    out = tmp_path / "warm"
    code = dispatch(
        [
            "warmup",
            "--config", str(cfg),
            "--passages", str(synth_dir / "passages.jsonl"),
            "--queries", str(synth_dir / "train_queries.jsonl"),
            "--qrels", str(synth_dir / "qrels.tsv"),
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert f"data error: {synth_dir / 'qrels.tsv'}: " in err and "'nope'" in err
    assert not out.exists()


def test_pipeline_no_labeled_queries_exit_3(tmp_path, capsys):
    data = tiny_data(tmp_path, grade=0)
    out = tmp_path / "run"
    cfg = pipeline_cfg_file(tmp_path, data)
    assert dispatch(["pipeline", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == EXIT_DATA
    assert f"data error: {data / 'qrels.tsv'}: no labeled queries" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_qrels_with_byte_order_mark_exit_3(tmp_path, capsys):
    # the mark used to become part of the first query id, which silently lost its judgment
    data = tiny_data(tmp_path)
    path = data / "qrels.tsv"
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    out = tmp_path / "run"
    cfg = pipeline_cfg_file(tmp_path, data)
    assert dispatch(["pipeline", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == EXIT_DATA
    assert f"data error: {path}:1: unexpected UTF-8 BOM" in capsys.readouterr().err
    assert not out.exists()


def test_warmup_no_labeled_queries_exit_3(tmp_path, capsys):
    data = tiny_data(tmp_path, grade=0)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(PIPELINE_CFG)
    out = tmp_path / "warm"
    code = dispatch(
        [
            "warmup",
            "--config", str(cfg),
            "--passages", str(data / "passages.jsonl"),
            "--queries", str(data / "train_queries.jsonl"),
            "--qrels", str(data / "qrels.tsv"),
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert code == EXIT_DATA
    assert f"data error: {data / 'qrels.tsv'}: no labeled queries" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_labeled_queries_without_tokens_exit_3(tmp_path, synth_dir, capsys):
    # synth tokens have 7 or 8 characters, so no query keeps a token; the
    # generator's training used to end in a ValueError traceback
    split_synth_for_pipeline(synth_dir)
    cfg = pipeline_cfg_file(tmp_path, synth_dir, extra="min_token_len = 9\n")
    out = tmp_path / "run"
    assert dispatch(["pipeline", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"data error: {synth_dir / 'train_queries.jsonl'}: no labeled query has a token" in err
    assert not out.exists()


def test_warmup_labeled_queries_without_tokens_exit_3(tmp_path, synth_dir, capsys):
    split_synth_for_pipeline(synth_dir)
    out = tmp_path / "warm"
    assert warmup_cmd(synth_dir, out, "--set", "min_token_len=9") == EXIT_DATA
    err = capsys.readouterr().err
    assert f"data error: {synth_dir / 'train_queries.jsonl'}: no labeled query has a token" in err
    assert not out.exists()


@pytest.mark.parametrize("text", [None, "zzzz qqqq"], ids=["empty", "no_corpus_token"])
def test_pipeline_unlabeled_queries_without_corpus_tokens_exit_3(tmp_path, capsys, text):
    # nothing can be mined from such a file, so the run stops before its warm-up
    data = tiny_data(tmp_path)
    path = data / "unlabeled_tgt.jsonl"
    path.write_text("" if text is None else json.dumps({"id": "u1", "text": text}) + "\n")
    out = tmp_path / "run"
    cfg = pipeline_cfg_file(tmp_path, data)
    assert dispatch(["pipeline", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == EXIT_DATA
    assert f"data error: {path}: no unlabeled query has a token of the corpus" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("separate, loads", [(False, 1), (True, 2)])
def test_pipeline_loads_shared_qrels_once(tmp_path, monkeypatch, separate, loads):
    import lexmine.cli as cli_mod

    data = tiny_data(tmp_path)
    cfg = pipeline_cfg_file(tmp_path, data)
    if separate:
        (data / "eval_qrels.tsv").write_text((data / "qrels.tsv").read_text())
        text = cfg.read_text().replace(f"eval_qrels = {data}/qrels.tsv", f"eval_qrels = {data}/eval_qrels.tsv")
        cfg.write_text(text)
    loaded, given = [], []
    monkeypatch.setattr(cli_mod, "load_qrels", lambda path: loaded.append(path) or load_qrels(path))
    monkeypatch.setattr(cli_mod, "run_pipeline", lambda cfg, data, **kwargs: given.append(data) or [])
    assert dispatch(["pipeline", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "run")]) == EXIT_OK
    assert len(loaded) == loads
    assert given[0].eval_qrels == given[0].train_qrels


def test_pipeline_leaves_the_callers_frozen_objects_frozen(tmp_path, monkeypatch):
    # an in-process caller's frozen objects stay frozen, whether the run returns or fails
    import gc

    import lexmine.cli as cli_mod

    cfg = pipeline_cfg_file(tmp_path, tiny_data(tmp_path))
    argv = ["pipeline", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "run"), "--overwrite"]
    held = [object()]

    def held_is_frozen():
        # gc.get_objects() lists the three generations, not the frozen objects
        return not any(obj is held for obj in gc.get_objects())

    gc.freeze()
    try:
        assert held_is_frozen()
        assert dispatch(argv) == EXIT_OK
        assert held_is_frozen()

        def fail(cfg, data, **kwargs):
            raise PipelineError("stopped")

        monkeypatch.setattr(cli_mod, "run_pipeline", fail)
        assert dispatch(argv) == 1
        assert held_is_frozen()
    finally:
        gc.unfreeze()


def test_pipeline_query_id_with_whitespace_exit_3(tmp_path, synth_dir, capsys):
    split_synth_for_pipeline(synth_dir)
    path = synth_dir / "unlabeled_tgt.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])
    first["id"] = "u " + first["id"]
    path.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n", encoding="utf-8")
    cfg = pipeline_cfg_file(tmp_path, synth_dir)
    out = tmp_path / "run"
    assert dispatch(["pipeline", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == EXIT_DATA
    assert f"data error: {path}:1: " in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_eval_query_id_starting_with_a_byte_order_mark_exit_3(tmp_path, synth_dir, capsys):
    # the id would start run.trec, which load_run refuses as beginning with a byte order mark
    split_synth_for_pipeline(synth_dir)
    path = synth_dir / "queries.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])
    first["id"] = "\ufeff" + first["id"]
    path.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n", encoding="utf-8")
    cfg = pipeline_cfg_file(tmp_path, synth_dir)
    out = tmp_path / "run"
    assert dispatch(["pipeline", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == EXIT_DATA
    assert f"data error: {path}:1: " in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_eval_query_language_overall_exit_3(tmp_path, capsys):
    # an eval language named "overall" would replace the all-language metrics in each report
    data = tiny_data(tmp_path)
    path = data / "queries.jsonl"
    path.write_text(json.dumps({"id": "q1", "text": "alpha beta1", "lang": "overall"}) + "\n")
    out = tmp_path / "run"
    cfg = pipeline_cfg_file(tmp_path, data)
    assert dispatch(["pipeline", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == EXIT_DATA
    assert f"data error: {path}: eval query 'q1' has the reserved language 'overall'" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_unlabeled_query_language_overall_exit_3(tmp_path, capsys):
    # the unlabeled queries' languages are the target languages: "overall" would
    # make every progress line's target MRR the all-language value
    data = tiny_data(tmp_path)
    path = data / "unlabeled_tgt.jsonl"
    path.write_text(json.dumps({"id": "u1", "text": "beta2", "lang": "overall"}) + "\n")
    out = tmp_path / "run"
    cfg = pipeline_cfg_file(tmp_path, data)
    assert dispatch(["pipeline", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == EXIT_DATA
    assert f"data error: {path}: unlabeled query 'u1' has the reserved language 'overall'" in capsys.readouterr().err
    assert not out.exists()


def test_relative_data_paths_resolve_under_lexmine_data_dir(tmp_path, monkeypatch, capsys):
    data = tiny_data(tmp_path)
    names = {
        "passages": "passages.jsonl",
        "train_queries": "train_queries.jsonl",
        "train_qrels": "qrels.tsv",
        "unlabeled_queries": "unlabeled_tgt.jsonl",
        "eval_queries": "queries.jsonl",
        "eval_qrels": "qrels.tsv",
    }
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(PIPELINE_CFG + "".join(f"{key} = {name}\n" for key, name in names.items()))
    # the names exist only under the variable's directory, not under the working one
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setenv("LEXMINE_DATA_DIR", str(data))
    run = tmp_path / "run"
    assert dispatch(["pipeline", "--config", str(cfg), "--seed", "1", "--out", str(run)]) == EXIT_OK
    inputs = json.loads((run / "manifest.json").read_text())["inputs"]
    for key, name in names.items():
        raw = (data / name).read_bytes()
        assert inputs[key] == {"sha256": hashlib.sha256(raw).hexdigest(), "bytes": len(raw)}

    (data / "ckpt.npz").write_bytes((run / "warmup" / "checkpoint.npz").read_bytes())
    (data / "mined.jsonl").write_bytes((run / "iter_1" / "mined.jsonl").read_bytes())
    (data / "empty.jsonl").write_text("")

    def train(samples, out):
        argv = ["train", "--config", str(cfg), "--passages", "passages.jsonl", "--samples", samples]
        return dispatch([*argv, "--checkpoint", "ckpt.npz", "--seed", "1", "--out", str(out)])

    assert train("mined.jsonl", tmp_path / "trained") == EXIT_OK
    assert (tmp_path / "trained" / "checkpoint.npz").is_file()
    capsys.readouterr()
    assert train("empty.jsonl", tmp_path / "none") == EXIT_DATA
    # the message names the file read, not the name as typed
    assert f"data error: {data / 'empty.jsonl'}: no training samples" in capsys.readouterr().err
    assert not (tmp_path / "none").exists()


@pytest.mark.parametrize("name", ["passages.jsonl", "train_queries.jsonl", "unlabeled_tgt.jsonl"])
@pytest.mark.parametrize("lang", [None, 5])
def test_pipeline_non_string_lang_exit_3(tmp_path, capsys, name, lang):
    data = tiny_data(tmp_path)
    path = data / name
    first, *rest = path.read_text().splitlines()
    path.write_text("\n".join([*rest, json.dumps({**json.loads(first), "lang": lang})]) + "\n")
    line = len(rest) + 1
    out = tmp_path / "run"
    cfg = pipeline_cfg_file(tmp_path, data)
    assert dispatch(["pipeline", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == EXIT_DATA
    assert f"data error: {path}:{line}: field 'lang' must be a string" in capsys.readouterr().err
    assert not out.exists()


def test_warmup_mine_generate_train_chain(tmp_path, synth_dir):
    split_synth_for_pipeline(synth_dir)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(PIPELINE_CFG)
    warm = tmp_path / "warm"
    code = dispatch(
        [
            "warmup",
            "--config",
            str(cfg),
            "--passages",
            str(synth_dir / "passages.jsonl"),
            "--queries",
            str(synth_dir / "train_queries.jsonl"),
            "--qrels",
            str(synth_dir / "qrels.tsv"),
            "--seed",
            "3",
            "--out",
            str(warm),
        ]
    )
    assert code == EXIT_OK
    assert (warm / "checkpoint.npz").exists() and (warm / "generator.json").exists()

    mined = tmp_path / "mined.jsonl"
    code = dispatch(
        [
            "mine",
            "--config",
            str(cfg),
            "--passages",
            str(synth_dir / "passages.jsonl"),
            "--queries",
            str(synth_dir / "unlabeled_tgt.jsonl"),
            "--checkpoint",
            str(warm / "checkpoint.npz"),
            "--seed",
            "3",
            "--out",
            str(mined),
        ]
    )
    assert code == EXIT_OK
    assert mined.exists() and mined.stat().st_size > 0

    generated = tmp_path / "generated.jsonl"
    rejected = tmp_path / "rejected.jsonl"
    code = dispatch(
        [
            "generate",
            "--config",
            str(cfg),
            "--passages",
            str(synth_dir / "passages.jsonl"),
            "--checkpoint",
            str(warm / "checkpoint.npz"),
            "--generator",
            str(warm / "generator.json"),
            "--seed",
            "3",
            "--out",
            str(generated),
            "--rejected",
            str(rejected),
        ]
    )
    assert code == EXIT_OK
    assert generated.exists()

    trained = tmp_path / "trained"
    code = dispatch(
        [
            "train",
            "--config",
            str(cfg),
            "--passages",
            str(synth_dir / "passages.jsonl"),
            "--samples",
            str(mined),
            "--checkpoint",
            str(warm / "checkpoint.npz"),
            "--seed",
            "3",
            "--out",
            str(trained),
        ]
    )
    assert code == EXIT_OK
    assert (trained / "checkpoint.npz").exists()
    manifests = {
        "synth": synth_dir / "manifest.json",
        "warmup": warm / "manifest.json",
        "mine": tmp_path / "mined.jsonl.manifest.json",
        "generate": tmp_path / "generated.jsonl.manifest.json",
        "train": trained / "manifest.json",
    }
    for command, path in manifests.items():
        assert_manifest(path, command, seed=7 if command == "synth" else 3)


def assert_manifest(path: Path, command: str, seed: int) -> None:
    """Every command's manifest has one shape, written by ``pipeline.write_manifest``;
    the pipeline's also records its inputs."""
    manifest = json.loads(path.read_text())
    inputs = ["inputs"] if command == "pipeline" else []
    assert list(manifest) == ["command", "config", "config_hash", "seed", "version", *inputs]
    assert manifest["command"] == command
    assert manifest["config_hash"] == config_hash(manifest["config"])
    assert manifest["seed"] == seed


def test_pipeline_names_its_command_and_prints_target_mrr(tmp_path, synth_cfg, capsys):
    data = tmp_path / "data3"
    argv = ["synth", "--config", str(synth_cfg), "--set", "languages=src,tgta,tgtb", "--seed", "7", "--out", str(data)]
    assert dispatch(argv) == EXIT_OK
    split_synth_for_pipeline(data)
    out = tmp_path / "run"
    capsys.readouterr()
    cfg = pipeline_cfg_file(tmp_path, data)
    assert dispatch(["pipeline", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == EXIT_OK
    assert_manifest(out / "manifest.json", "pipeline", seed=3)
    inputs = json.loads((out / "manifest.json").read_text())["inputs"]
    assert list(inputs) == [
        "passages", "train_queries", "train_qrels", "unlabeled_queries", "eval_queries", "eval_qrels"
    ]
    for key, name in (("passages", "passages.jsonl"), ("eval_qrels", "qrels.tsv")):
        raw = (data / name).read_bytes()
        assert inputs[key] == {"sha256": hashlib.sha256(raw).hexdigest(), "bytes": len(raw)}

    # one line per report, with the mean MRR@10 over the unlabeled queries' languages
    lines = capsys.readouterr().out.splitlines()
    target_langs = {q.lang for q in load_queries(data / "unlabeled_tgt.jsonl")}
    assert target_langs == {"tgta", "tgtb"}
    assert len(lines) == 3
    for line, stage in zip(lines, ["warmup", "iter_1", "iter_2"]):
        report = json.loads((out / stage / "report.json").read_text())
        want = target_mean(report["metrics"], target_langs, "mrr@10")
        overall = report["metrics"]["overall"]["mrr@10"]
        assert line.startswith(f"iteration {report['iteration']}: ")
        assert line.endswith(f" mrr@10={overall:.4f} target mrr@10={want:.4f}")


# ---------------------------------------------------------------------------
# stage commands run the pipeline's stage code
# ---------------------------------------------------------------------------


@pytest.fixture()
def warm_ckpt(tmp_path, synth_dir):
    split_synth_for_pipeline(synth_dir)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(PIPELINE_CFG)
    warm = tmp_path / "warm"
    code = dispatch(
        [
            "warmup",
            "--config", str(cfg),
            "--passages", str(synth_dir / "passages.jsonl"),
            "--queries", str(synth_dir / "train_queries.jsonl"),
            "--qrels", str(synth_dir / "qrels.tsv"),
            "--seed", "3",
            "--out", str(warm),
        ]
    )
    assert code == EXIT_OK
    return warm / "checkpoint.npz"


def mine_cmd(cfg, synth_dir, ckpt, out, seed, *extra):
    return dispatch(
        [
            "mine",
            "--config", str(cfg),
            "--passages", str(synth_dir / "passages.jsonl"),
            "--queries", str(synth_dir / "unlabeled_tgt.jsonl"),
            "--checkpoint", str(ckpt),
            "--seed", str(seed),
            "--out", str(out),
            *extra,
        ]
    )


def train_cmd(cfg, synth_dir, ckpt, samples, out, seed):
    return dispatch(
        [
            "train",
            "--config", str(cfg),
            "--passages", str(synth_dir / "passages.jsonl"),
            "--samples", *map(str, samples),
            "--checkpoint", str(ckpt),
            "--seed", str(seed),
            "--out", str(out),
        ]
    )


@pytest.mark.parametrize("mode", ["none", "sparse_top"])
def test_mine_honours_negative_mode(tmp_path, synth_dir, warm_ckpt, mode):
    cfg = tmp_path / "c.cfg"
    out = tmp_path / "mined.jsonl"
    assert mine_cmd(cfg, synth_dir, warm_ckpt, out, 3, "--set", f"negative_mode={mode}") == EXIT_OK
    samples = load_samples(out, load_passages(synth_dir / "passages.jsonl"))
    assert samples
    assert all(s.random_negatives == () for s in samples)
    if mode == "none":
        assert all(s.hard_negatives == () for s in samples)
    else:
        assert any(s.hard_negatives for s in samples)


def test_mine_honours_fuse_mode(tmp_path, synth_dir, warm_ckpt):
    cfg = tmp_path / "c.cfg"
    default, fused = tmp_path / "default.jsonl", tmp_path / "fused.jsonl"
    assert mine_cmd(cfg, synth_dir, warm_ckpt, default, 3) == EXIT_OK
    assert mine_cmd(cfg, synth_dir, warm_ckpt, fused, 3, "--set", "mining_mode=fuse_sum") == EXIT_OK
    assert fused.stat().st_size > 0
    assert fused.read_bytes() != default.read_bytes()


def test_mine_double_dense_exit_2(tmp_path, synth_dir, warm_ckpt, capsys):
    cfg = tmp_path / "c.cfg"
    out = tmp_path / "mined.jsonl"
    code = mine_cmd(cfg, synth_dir, warm_ckpt, out, 3, "--set", "mining_mode=double_dense")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and "mining_mode" in err
    assert not out.exists()


def generate_cmd(cfg, synth_dir, ckpt, generator, out, seed, *extra):
    return dispatch(
        [
            "generate",
            "--config", str(cfg),
            "--passages", str(synth_dir / "passages.jsonl"),
            "--checkpoint", str(ckpt),
            "--generator", str(generator),
            "--seed", str(seed),
            "--out", str(out),
            *extra,
        ]
    )


def test_generate_writes_pipeline_generate_stage(tmp_path, synth_dir, warm_ckpt):
    cfg_path = tmp_path / "c.cfg"
    out = tmp_path / "generated.jsonl"
    generator = warm_ckpt.parent / "generator.json"
    assert generate_cmd(cfg_path, synth_dir, warm_ckpt, generator, out, 3) == EXIT_OK

    cfg = pipeline_config_from_mapping(parse_kv_config(cfg_path), seed=3)
    corpus = load_passages(synth_dir / "passages.jsonl")
    params = bind_encoder(load_checkpoint(warm_ckpt)[0], corpus, cfg.tokenizer)
    sparse = build_index(corpus, cfg.tokenizer, cfg.bm25)
    state = start_state(params, load_generator(generator), sparse, corpus)
    accepted, _ = generate(state, sorted({p.lang for p in corpus}), cfg, iteration=1)
    assert accepted and all(s.query.id == f"gen1-{corpus.ids[s.positive]}" for s in accepted)
    want = tmp_path / "want.jsonl"
    save_samples(accepted, want, corpus)
    assert out.read_bytes() == want.read_bytes()


def test_generate_makes_the_rejected_log_directory(tmp_path, synth_dir, warm_ckpt):
    out, rejected = tmp_path / "gen" / "generated.jsonl", tmp_path / "logs" / "r.jsonl"
    generator = warm_ckpt.parent / "generator.json"
    code = generate_cmd(tmp_path / "c.cfg", synth_dir, warm_ckpt, generator, out, 3, "--rejected", str(rejected))
    assert code == EXIT_OK
    assert out.stat().st_size > 0
    records = [json.loads(line) for line in rejected.read_text(encoding="utf-8").splitlines()]
    assert records and {r["reason"] for r in records} <= {"sparse-top1-miss", "dense-top1-miss"}
    assert json.loads(Path(str(out) + ".manifest.json").read_text())["command"] == "generate"


def test_generate_logs_why_each_pair_was_rejected(tmp_path, synth_dir, warm_ckpt, capsys):
    # each logged reason, recomputed from the two searches: BM25's top-1 is
    # another passage or none, else the dense top-1 is another passage
    out, rejected = tmp_path / "generated.jsonl", tmp_path / "rejected.jsonl"
    generator = warm_ckpt.parent / "generator.json"
    cfg_path = tmp_path / "c.cfg"
    assert generate_cmd(cfg_path, synth_dir, warm_ckpt, generator, out, 3, "--rejected", str(rejected)) == EXIT_OK
    cfg = pipeline_config_from_mapping(parse_kv_config(cfg_path), seed=3)
    corpus = load_passages(synth_dir / "passages.jsonl")
    sparse = build_index(corpus, cfg.tokenizer)
    params = bind_encoder(load_checkpoint(warm_ckpt)[0], corpus, cfg.tokenizer)
    state = start_state(params, GeneratorModel(), sparse, corpus)
    records = [json.loads(line) for line in rejected.read_text(encoding="utf-8").splitlines()]
    for r in records:
        tokens = tokenize(r["query_text"], cfg.tokenizer)
        position = corpus.position(r["passage_id"])
        if search_sparse(state.sparse_index, tokens, 1)[0].tolist() != [position]:
            want = "sparse-top1-miss"
        else:
            assert search_dense(state.dense_index, [tokens], 1)[0][0, 0] != position
            want = "dense-top1-miss"
        assert r["reason"] == want, r
    assert {r["reason"] for r in records} == {"sparse-top1-miss", "dense-top1-miss"}
    # the printed counts are the log's and the samples file's
    accepted = load_samples(out, corpus)
    counts = f"generated {len(records) + len(accepted)} candidates, accepted {len(accepted)}, rejected {len(records)}"
    assert accepted and counts in capsys.readouterr().out


def test_generate_rejected_log_path_that_cannot_be_made_writes_nothing(tmp_path, synth_dir, warm_ckpt, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    out = tmp_path / "generated.jsonl"
    generator = warm_ckpt.parent / "generator.json"
    code = generate_cmd(
        tmp_path / "c.cfg", synth_dir, warm_ckpt, generator, out, 3, "--rejected", str(blocker / "r.jsonl")
    )
    assert code == EXIT_DATA
    assert "data error:" in capsys.readouterr().err
    assert not out.exists()
    assert not Path(str(out) + ".manifest.json").exists()


def _text_file(path):
    path.write_text("not a checkpoint\n")


def _npz_without_meta(path):
    with open(path, "wb") as fh:
        np.savez(fh, embedding=np.zeros((2, 4)))


@pytest.mark.parametrize("write", [_text_file, _npz_without_meta], ids=["not_npz", "no_meta"])
def test_mine_malformed_checkpoint_exit_3(tmp_path, capsys, write):
    data = tiny_data(tmp_path)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(PIPELINE_CFG)
    ckpt = tmp_path / "ckpt.npz"
    write(ckpt)
    out = tmp_path / "mined.jsonl"
    assert mine_cmd(cfg, data, ckpt, out, 3) == EXIT_DATA
    assert f"data error: {ckpt}: not a lexmine checkpoint" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture()
def foreign_warm(tmp_path, synth_cfg):
    """A warm-up directory from a synth corpus under other language tags, so
    its vocabulary shares no token with ``synth_dir``'s."""
    data = tmp_path / "foreign"
    code = dispatch(
        ["synth", "--config", str(synth_cfg), "--set", "languages=zsrc,ztgt", "--seed", "7", "--out", str(data)]
    )
    assert code == EXIT_OK
    (data / "train_queries.jsonl").write_bytes((data / "queries.jsonl").read_bytes())
    cfg = tmp_path / "foreign.cfg"
    cfg.write_text(PIPELINE_CFG)
    assert warmup_cmd(data, tmp_path / "foreign_warm", "--config", str(cfg)) == EXIT_OK
    return tmp_path / "foreign_warm"


@pytest.mark.parametrize("command", ["mine", "generate", "train"])
def test_stage_command_rejects_checkpoint_of_another_vocabulary(
    tmp_path, synth_dir, warm_ckpt, foreign_warm, capsys, command
):
    cfg = tmp_path / "c.cfg"
    corpus = load_passages(synth_dir / "passages.jsonl")
    n_tokens = len(corpus.tokenized().vocab)
    # every token of this corpus and one more
    superset = tmp_path / "superset.npz"
    save_checkpoint(superset, init_params([*corpus.tokenized().vocab, "zzz"], dim=16))
    if command == "mine":
        # the checkpoint warmed up on this corpus mines as before
        assert mine_cmd(cfg, synth_dir, warm_ckpt, tmp_path / "ok.jsonl", 3) == EXIT_OK
        assert (tmp_path / "ok.jsonl").stat().st_size > 0
        capsys.readouterr()
    for ckpt, missing, extra in ((foreign_warm / "checkpoint.npz", n_tokens, None), (superset, 0, 1)):
        out = tmp_path / "out"
        if command == "mine":
            code = mine_cmd(cfg, synth_dir, ckpt, out, 3)
        elif command == "generate":
            code = generate_cmd(cfg, synth_dir, ckpt, foreign_warm / "generator.json", out, 3)
        else:
            passage = next(iter(corpus))
            samples = tmp_path / "samples.jsonl"
            samples.write_text(json.dumps({"query_id": "q", "query_text": passage.text, "positive": passage.id}) + "\n")
            code = train_cmd(cfg, synth_dir, ckpt, [samples], out, 3)
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert (
            f"data error: {ckpt}: vocabulary is not the corpus's tokens under the config's tokenizer "
            f"({missing} of {n_tokens} missing, "
        ) in err
        if extra is not None:
            assert f"{extra} extra)" in err
        assert not out.exists()


def test_generate_truncated_generator_exit_3(tmp_path, capsys):
    data = tiny_data(tmp_path)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(PIPELINE_CFG)
    ckpt = tmp_path / "ckpt.npz"
    save_checkpoint(ckpt, init_params(["alpha", "beta1", "beta2"], dim=4))
    generator = tmp_path / "generator.json"
    generator.write_text('{"format": 1, "version": 1, "query_len')
    out = tmp_path / "generated.jsonl"
    assert generate_cmd(cfg, data, ckpt, generator, out, 3) == EXIT_DATA
    assert f"data error: {generator}: not a lexmine generator" in capsys.readouterr().err
    assert not out.exists()


def _generator_payload(**changes):
    """A trained generator's file contents with ``changes`` applied."""
    payload = {
        "format": 1,
        "version": 1,
        "query_len_dist": {"1": 0.5, "2": 0.5},
        "term_salience": [{"lang": "en", "token": "alpha", "weight": 0.5}],
    }
    return json.dumps({**payload, **changes})


@pytest.mark.parametrize(
    "contents",
    [
        pytest.param(None, id="untrained"),
        pytest.param(_generator_payload(version=0), id="version-0"),
        pytest.param(_generator_payload(version=-2), id="version-negative"),
        pytest.param(_generator_payload(query_len_dist={}), id="empty-lengths"),
        pytest.param(_generator_payload(query_len_dist={"0": 1.0}), id="length-0"),
        pytest.param(_generator_payload(query_len_dist={"-1": 0.5, "2": 0.5}), id="length-negative"),
        pytest.param(_generator_payload(query_len_dist={"1": float("nan")}), id="probability-nan"),
        pytest.param(_generator_payload(query_len_dist={"1": float("inf")}), id="probability-inf"),
        pytest.param(_generator_payload(query_len_dist={"1": -0.5, "2": 1.5}), id="probability-negative"),
        pytest.param(_generator_payload(query_len_dist={"1": 0.0}), id="probability-all-zero"),
        pytest.param(
            _generator_payload(term_salience=[{"lang": "en", "token": "a", "weight": float("nan")}]), id="weight-nan"
        ),
        pytest.param(
            _generator_payload(term_salience=[{"lang": "en", "token": "a", "weight": -1.0}]), id="weight-negative"
        ),
        # fields of a JSON type save_generator never writes
        pytest.param(_generator_payload(format=True), id="format-bool"),
        pytest.param(_generator_payload(version=True), id="version-bool"),
        pytest.param(_generator_payload(version="2"), id="version-string"),
        pytest.param(_generator_payload(version=2.7), id="version-float"),
        pytest.param(_generator_payload(query_len_dist={"1_0": 1.0}), id="length-underscore"),
        pytest.param(_generator_payload(query_len_dist={"\u0663": 1.0}), id="length-arabic-indic-digit"),
        pytest.param(_generator_payload(query_len_dist={"1": 0.25, "01": 0.75}), id="length-01-next-to-1"),
        pytest.param(_generator_payload(format=1.0), id="format-float"),
        pytest.param(_generator_payload(query_len_dist={"1": True}), id="probability-bool"),
        pytest.param(
            _generator_payload(term_salience=[{"lang": "en", "token": "a", "weight": "0.5"}]), id="weight-string"
        ),
        pytest.param(_generator_payload(term_salience=[{"lang": 5, "token": "a", "weight": 0.5}]), id="lang-int"),
        pytest.param(_generator_payload(term_salience=[{"lang": "en", "token": 5, "weight": 0.5}]), id="token-int"),
    ],
)
def test_generate_rejects_untrained_or_invalid_generator(tmp_path, capsys, contents):
    data = tiny_data(tmp_path)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(PIPELINE_CFG)
    ckpt = tmp_path / "ckpt.npz"
    save_checkpoint(ckpt, init_params(["alpha", "beta1", "beta2"], dim=4))
    generator = tmp_path / "generator.json"
    if contents is None:
        save_generator(GeneratorModel(), generator)
    else:
        generator.write_text(contents)
    out = tmp_path / "generated.jsonl"
    assert generate_cmd(cfg, data, ckpt, generator, out, 3) == EXIT_DATA
    assert f"data error: {generator}: not a lexmine generator" in capsys.readouterr().err
    assert not out.exists()


def _rewrite_meta(path, **fields):
    """Rewrite a checkpoint's metadata with ``fields`` set."""
    with np.load(path) as data:
        arrays = dict(data)
    meta = json.loads(bytes(arrays["meta"]))
    meta.update(fields)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


@pytest.mark.parametrize(
    "fields",
    [
        pytest.param({"version": "3"}, id="version-string"),
        pytest.param({"version": -1}, id="version-negative"),
        pytest.param({"version": True}, id="version-bool"),
        pytest.param({"shared": "no"}, id="shared-string"),
        pytest.param({"shared": 0}, id="shared-int"),
        pytest.param({"shared": False}, id="shared-false-untied"),
        pytest.param({"tokens": [0, 1, 2]}, id="tokens-int"),
        pytest.param({"format": True}, id="format-bool"),
        pytest.param({"format": 1.0}, id="format-float"),
        pytest.param({"format": "1"}, id="format-string"),
    ],
)
def test_train_rejects_checkpoint_metadata_of_the_wrong_type(tmp_path, capsys, fields):
    data = tiny_data(tmp_path)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(PIPELINE_CFG)
    ckpt = tmp_path / "ckpt.npz"
    save_checkpoint(ckpt, init_params(["alpha", "beta1", "beta2"], dim=4))
    load_checkpoint(ckpt)  # valid before the rewrite
    _rewrite_meta(ckpt, **fields)
    samples = tmp_path / "samples.jsonl"
    samples.write_text(json.dumps({"query_id": "q", "query_text": "alpha", "positive": "p1"}) + "\n")
    out = tmp_path / "trained"
    assert train_cmd(cfg, data, ckpt, [samples], out, 3) == EXIT_DATA
    assert f"data error: {ckpt}: not a lexmine checkpoint" in capsys.readouterr().err
    assert not out.exists()


def _save_with_adam_moments(path: Path, params) -> None:
    """``params`` in a format-1 file as ``lexmine train`` wrote it when
    checkpoints also carried the optimizer: Adam moments and ``opt`` metadata."""
    rng = np.random.default_rng(0)
    meta = {
        "format": 1,
        "tokens": sorted(params.vocab, key=params.vocab.get),
        "shared": True,
        "version": params.version,
        "dim": params.dim,
        "opt": {"step": 7, "lr": 0.003, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8},
    }
    with open(path, "wb") as fh:
        np.savez(
            fh,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            embedding=params.embedding,
            adam_m=rng.normal(size=params.embedding.shape),
            adam_v=rng.random(params.embedding.shape),
        )


def test_checkpoint_with_adam_moments_loads_and_trains_as_its_encoder(tmp_path, synth_dir, warm_ckpt):
    params, _ = load_checkpoint(warm_ckpt)
    with_moments = tmp_path / "with_moments.npz"
    _save_with_adam_moments(with_moments, params)
    loaded, opt = load_checkpoint(with_moments)
    assert opt is None
    assert loaded.vocab == params.vocab and loaded.version == params.version
    assert np.array_equal(loaded.embedding, params.embedding)

    # `train` starts fresh moments at train_lr from either file
    cfg = tmp_path / "c.cfg"
    mined = tmp_path / "mined.jsonl"
    assert mine_cmd(cfg, synth_dir, warm_ckpt, mined, 3) == EXIT_OK
    assert train_cmd(cfg, synth_dir, warm_ckpt, [mined], tmp_path / "plain", 3) == EXIT_OK
    assert train_cmd(cfg, synth_dir, with_moments, [mined], tmp_path / "from_moments", 3) == EXIT_OK
    _assert_same_checkpoint(tmp_path / "from_moments" / "checkpoint.npz", tmp_path / "plain" / "checkpoint.npz")
    with np.load(tmp_path / "plain" / "checkpoint.npz") as npz:
        assert npz.files == ["meta", "embedding"]


def _rewrite_checkpoint(path: Path, meta_changes=None, embedding=None) -> None:
    """Rewrite a checkpoint with ``meta_changes`` set and its table mapped by ``embedding``."""
    with np.load(path) as data:
        arrays = dict(data)
    meta = {**json.loads(bytes(arrays["meta"])), **(meta_changes or {})}
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    if embedding is not None:
        arrays["embedding"] = embedding(arrays["embedding"])
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


@pytest.mark.parametrize(
    "meta_changes, embedding",
    [
        pytest.param({"dim": 17}, None, id="dim-17-of-16"),
        pytest.param(None, lambda table: np.full_like(table, np.nan), id="all-nan"),
        pytest.param(None, lambda table: np.vstack([table[:3], [[np.inf] * table.shape[1]], table[4:]]), id="inf-row"),
        # tables save_checkpoint never writes, which astype(float64) would read
        pytest.param(None, lambda table: table.astype(complex), id="complex"),
        pytest.param(None, lambda table: table.astype("U3"), id="strings"),
        pytest.param(None, lambda table: table > 0, id="bool"),
    ],
)
def test_mine_rejects_checkpoint_values_that_disagree(tmp_path, synth_dir, warm_ckpt, capsys, meta_changes, embedding):
    cfg = tmp_path / "c.cfg"
    bad = tmp_path / "bad.npz"
    bad.write_bytes(warm_ckpt.read_bytes())
    _rewrite_checkpoint(bad, meta_changes, embedding)
    out = tmp_path / "mined.jsonl"
    assert mine_cmd(cfg, synth_dir, bad, out, 3) == EXIT_DATA
    assert f"data error: {bad}: not a lexmine checkpoint" in capsys.readouterr().err
    assert not out.exists()


def test_stage_commands_read_a_row_permuted_checkpoint_as_the_sorted_one(tmp_path, synth_dir, warm_ckpt):
    # the encoder's rows are put in corpus order when it is loaded, so every
    # output is the same, and `train` saves its checkpoint in corpus order
    cfg = tmp_path / "c.cfg"
    permuted = tmp_path / "permuted.npz"
    with np.load(warm_ckpt) as data:
        tokens = json.loads(bytes(data["meta"]))["tokens"]
    order = np.random.default_rng(0).permutation(len(tokens))
    permuted.write_bytes(warm_ckpt.read_bytes())
    _rewrite_checkpoint(permuted, {"tokens": [tokens[i] for i in order]}, lambda table: table[order])
    assert tokens == list(load_passages(synth_dir / "passages.jsonl").tokenized().vocab)
    generator = warm_ckpt.parent / "generator.json"
    for name, ckpt in (("sorted", warm_ckpt), ("permuted", permuted)):
        out = tmp_path / name
        assert mine_cmd(cfg, synth_dir, ckpt, out / "mined.jsonl", 3) == EXIT_OK
        assert generate_cmd(cfg, synth_dir, ckpt, generator, out / "generated.jsonl", 3) == EXIT_OK
        samples = (out / "mined.jsonl", out / "generated.jsonl")
        assert train_cmd(cfg, synth_dir, ckpt, samples, out / "trained", 3) == EXIT_OK
    assert (tmp_path / "sorted" / "mined.jsonl").stat().st_size > 0
    _assert_same_run(tmp_path / "permuted", tmp_path / "sorted")
    with np.load(tmp_path / "permuted" / "trained" / "checkpoint.npz") as data:
        assert json.loads(bytes(data["meta"]))["tokens"] == tokens


def test_pipeline_resume_rejects_a_run_of_another_corpus(tmp_path, synth_dir, capsys):
    split_synth_for_pipeline(synth_dir)
    cfg = pipeline_cfg_file(tmp_path, synth_dir)
    run = tmp_path / "run"
    argv = ["pipeline", "--config", str(cfg), "--seed", "4", "--out", str(run)]
    assert dispatch(argv) == EXIT_OK
    (run / "iter_2" / "report.json").unlink()
    # one passage gains a token that no passage held
    passages = synth_dir / "passages.jsonl"
    first, *rest = passages.read_text().splitlines(keepends=True)
    record = json.loads(first)
    n_tokens = len(load_passages(passages).tokenized().vocab)
    passages.write_text(json.dumps({**record, "text": record["text"] + " zzznewtoken"}) + "\n" + "".join(rest))
    capsys.readouterr()
    assert dispatch([*argv, "--resume"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert (
        f"data error: {run / 'warmup' / 'checkpoint.npz'}: vocabulary is not the corpus's tokens "
        f"under the config's tokenizer (1 of {n_tokens + 1} missing, 0 extra)"
    ) in err
    assert not (run / "iter_2" / "report.json").exists()


def test_pipeline_resume_rejects_changed_input_texts(tmp_path, synth_dir, capsys):
    # one passage's text changes while the corpus keeps its tokens: the
    # checkpoints still bind, but they were trained on the old texts
    split_synth_for_pipeline(synth_dir)
    cfg = pipeline_cfg_file(tmp_path, synth_dir)
    run = tmp_path / "run"
    argv = ["pipeline", "--config", str(cfg), "--seed", "4", "--out", str(run)]
    assert dispatch(argv) == EXIT_OK
    (run / "iter_2" / "report.json").unlink()
    passages = synth_dir / "passages.jsonl"
    tokens = load_passages(passages).tokenized().vocab
    first, *rest = passages.read_text().splitlines(keepends=True)
    record = json.loads(first)
    record["text"] += " " + record["text"].split()[0]
    passages.write_text(json.dumps(record) + "\n" + "".join(rest))
    assert load_passages(passages).tokenized().vocab == tokens
    capsys.readouterr()
    assert dispatch([*argv, "--resume"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"data error: {run / 'manifest.json'}: data key 'passages' is not the file the run started from" in err
    assert not (run / "iter_2" / "report.json").exists()


def test_pipeline_resume_names_a_manifest_without_inputs(tmp_path, synth_dir, capsys):
    # a run directory written before the manifest recorded its inputs: nothing
    # changed, the record is absent, and the message says so
    split_synth_for_pipeline(synth_dir)
    run = tmp_path / "run"
    argv = ["pipeline", "--config", str(pipeline_cfg_file(tmp_path, synth_dir)), "--seed", "4", "--out", str(run)]
    assert dispatch(argv) == EXIT_OK
    manifest = json.loads((run / "manifest.json").read_text())
    del manifest["inputs"]
    (run / "manifest.json").write_text(json.dumps(manifest))
    (run / "iter_2" / "report.json").unlink()
    capsys.readouterr()
    assert dispatch([*argv, "--resume"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "manifest records no input digests (written before they were recorded); start a new run" in err
    assert not (run / "iter_2" / "report.json").exists()


@pytest.mark.parametrize("contents", [b"{", b"[]", b'{"inputs": []}', b'{"inputs": 5}', b"\xff"])
def test_pipeline_resume_rejects_a_manifest_that_is_not_one_exit_3(tmp_path, capsys, contents):
    # each escaped run_pipeline as a traceback: JSONDecodeError, AttributeError,
    # TypeError and UnicodeDecodeError
    cfg = pipeline_cfg_file(tmp_path, tiny_data(tmp_path))
    run = tmp_path / "run"
    argv = ["pipeline", "--config", str(cfg), "--seed", "1", "--out", str(run)]
    assert dispatch(argv) == EXIT_OK
    (run / "manifest.json").write_bytes(contents)
    (run / "iter_2" / "report.json").unlink()
    capsys.readouterr()
    assert dispatch([*argv, "--resume"]) == EXIT_DATA
    assert f"data error: {run / 'manifest.json'}: not a lexmine manifest" in capsys.readouterr().err
    assert not (run / "iter_2" / "report.json").exists()


def test_pipeline_resume_reads_a_moved_data_directory(tmp_path, synth_dir):
    # the manifest records what the inputs hold, not where they are
    split_synth_for_pipeline(synth_dir)
    run = tmp_path / "run"
    argv = ["pipeline", "--seed", "4", "--out", str(run)]
    assert dispatch([*argv, "--config", str(pipeline_cfg_file(tmp_path, synth_dir))]) == EXIT_OK
    want = json.loads((run / "iter_2" / "report.json").read_text())
    (run / "iter_2" / "report.json").unlink()
    moved = synth_dir.rename(tmp_path / "moved")
    assert dispatch([*argv, "--config", str(pipeline_cfg_file(tmp_path, moved)), "--resume"]) == EXIT_OK
    got = json.loads((run / "iter_2" / "report.json").read_text())
    for report in (got, want):
        report.pop("wall_clock_sec")
    assert got == want


def _assert_same_checkpoint(got: Path, want: Path) -> None:
    """The same arrays, ``meta`` included, under the same names."""
    with np.load(got) as a, np.load(want) as b:
        assert a.files == b.files, (got, want)
        for key in a.files:
            np.testing.assert_array_equal(a[key], b[key], err_msg=f"{got}:{key}")


def test_mine_then_train_reproduce_pipeline_iteration_one(tmp_path, synth_dir):
    # `warmup`, `mine` and `train` on a run's inputs, config and seed write its
    # warm-up checkpoint and generator and its iteration-1 samples and checkpoint
    split_synth_for_pipeline(synth_dir)
    # unlabeled queries hold tokens the corpus lacks, which no vocabulary may take
    corpus_tokens = set(load_passages(synth_dir / "passages.jsonl").tokenized().vocab)
    assert any(set(q.tokens()) - corpus_tokens for q in load_queries(synth_dir / "unlabeled_tgt.jsonl"))
    cfg = pipeline_cfg_file(tmp_path, synth_dir)
    run = tmp_path / "run"
    code = dispatch(
        ["pipeline", "--config", str(cfg), "--set", "iterations=1", "--seed", "5", "--out", str(run)]
    )
    assert code == EXIT_OK
    iter_1 = run / "iter_1"

    warm = tmp_path / "warm"
    assert warmup_cmd(synth_dir, warm, "--config", str(cfg), seed=5) == EXIT_OK
    _assert_same_checkpoint(warm / "checkpoint.npz", run / "warmup" / "checkpoint.npz")
    assert (warm / "generator.json").read_bytes() == (run / "warmup" / "generator.json").read_bytes()

    mined = tmp_path / "mined.jsonl"
    assert mine_cmd(cfg, synth_dir, warm / "checkpoint.npz", mined, 5) == EXIT_OK
    assert mined.read_bytes() == (iter_1 / "mined.jsonl").read_bytes()

    trained = tmp_path / "trained"
    samples = (iter_1 / "mined.jsonl", iter_1 / "generated.jsonl")
    assert train_cmd(cfg, synth_dir, warm / "checkpoint.npz", samples, trained, 5) == EXIT_OK
    _assert_same_checkpoint(trained / "checkpoint.npz", iter_1 / "checkpoint.npz")


@pytest.mark.parametrize(
    "record, message",
    [
        ([1, 2], "expected a JSON object"),
        ({"query_id": 5, "query_text": "alpha", "positive": "p1"}, "field 'query_id' must be a string"),
        (
            {"query_id": "q", "query_text": "alpha", "positive": "p1", "hard_negatives": "p2"},
            "field 'hard_negatives' must be a list of strings",
        ),
        ({"query_id": "q", "query_text": "alpha", "positive": "p1", "lang": None}, "field 'lang' must be a string"),
        ({"query_id": "q", "query_text": "alpha", "positive": "p1", "source": 5}, "field 'source' must be a string"),
    ],
)
def test_train_malformed_sample_exit_3(tmp_path, capsys, record, message):
    data = tiny_data(tmp_path)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(PIPELINE_CFG)
    ckpt = tmp_path / "ckpt.npz"
    save_checkpoint(ckpt, init_params(["alpha", "beta1", "beta2"], dim=4))
    samples = tmp_path / "samples.jsonl"
    valid = {"query_id": "q0", "query_text": "alpha", "positive": "p2"}
    samples.write_text(json.dumps(valid) + "\n" + json.dumps(record) + "\n")
    out = tmp_path / "trained"
    assert train_cmd(cfg, data, ckpt, [samples], out, 3) == EXIT_DATA
    assert f"data error: {samples}:2: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_train_non_finite_loss_exit_1(tmp_path, synth_dir, warm_ckpt, monkeypatch, capsys):
    import lexmine.pipeline as pipeline_mod

    cfg = tmp_path / "c.cfg"
    passage = next(iter(load_passages(synth_dir / "passages.jsonl")))
    samples = tmp_path / "samples.jsonl"
    samples.write_text(
        json.dumps({"query_id": "q", "query_text": passage.text, "positive": passage.id}) + "\n"
    )
    monkeypatch.setattr(pipeline_mod, "train_step", lambda *a, **k: float("nan"))
    out = tmp_path / "trained"
    assert train_cmd(cfg, synth_dir, warm_ckpt, [samples], out, 3) == 1
    assert "pipeline error: iteration 1 step 1: training loss is nan" in capsys.readouterr().err
    assert not out.exists()


# Runs ``lexmine`` ARGV... with every module's ``atomic_write`` wrapped to count
# writes and to die (os._exit(1)) after the body of write N, before its rename.
# N = 0 never dies and reports the count on stderr.
_DIE_AT_WRITE = """
import contextlib, os, sys
import lexmine.cli

real = lexmine.corpus.atomic_write
die_at = int(sys.argv[1])
writes = 0

@contextlib.contextmanager
def dying(path, binary=False):
    global writes
    with real(path, binary) as fh:
        yield fh
        writes += 1
        if writes == die_at:
            fh.flush()
            os._exit(1)

for name, module in list(sys.modules.items()):
    if name.startswith("lexmine") and getattr(module, "atomic_write", None) is real:
        module.atomic_write = dying
code = lexmine.cli.dispatch(sys.argv[2:])
print(f"writes={writes}", file=sys.stderr)
sys.exit(code)
"""


def _run_dying_at(n: int, argv: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", _DIE_AT_WRITE, str(n), *argv], capture_output=True, text=True, env=env, timeout=300
    )


def _assert_same_run(got: Path, want: Path) -> None:
    """Same files; checkpoint arrays equal, reports equal apart from
    wall_clock_sec, every other file byte-identical."""
    files = sorted(p.relative_to(want) for p in want.rglob("*") if p.is_file())
    assert sorted(p.relative_to(got) for p in got.rglob("*") if p.is_file()) == files
    for rel in files:
        if rel.suffix == ".npz":
            with np.load(got / rel) as a, np.load(want / rel) as b:
                assert sorted(a.files) == sorted(b.files), rel
                for key in a.files:
                    np.testing.assert_array_equal(a[key], b[key], err_msg=f"{rel}:{key}")
        elif rel.name == "report.json":
            a, b = json.loads((got / rel).read_text()), json.loads((want / rel).read_text())
            a.pop("wall_clock_sec"), b.pop("wall_clock_sec")
            assert a == b, rel
        else:
            assert filecmp.cmp(got / rel, want / rel, shallow=False), rel


_NO_SCIPY = """
import sys
import lexmine.cli
code = lexmine.cli.dispatch(sys.argv[1:])
sys.exit("scipy was imported" if "scipy" in sys.modules else code)
"""


def test_pipeline_run_does_not_import_scipy(tmp_path, synth_dir):
    # importing scipy.sparse alone costs a fresh process about 0.2 s and 22 MB
    split_synth_for_pipeline(synth_dir)
    cfg = pipeline_cfg_file(tmp_path, synth_dir)
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    argv = ["pipeline", "--config", str(cfg), "--seed", "2", "--out", str(tmp_path / "run")]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, *argv], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert (tmp_path / "run" / "iter_2" / "report.json").exists()


def test_pipeline_killed_at_every_write_resumes_to_uninterrupted_run(tmp_path, synth_dir):
    split_synth_for_pipeline(synth_dir)
    cfg = pipeline_cfg_file(tmp_path, synth_dir)

    def argv(out):
        return ["pipeline", "--config", str(cfg), "--seed", "4", "--out", str(out)]

    full = tmp_path / "full"
    proc = _run_dying_at(0, argv(full))
    assert proc.returncode == EXIT_OK, proc.stderr
    writes = int(proc.stderr.rsplit("writes=", 1)[1])
    assert writes == len([p for p in full.rglob("*") if p.is_file()])  # each file written once
    for n in range(1, writes + 1):
        out = tmp_path / f"killed_{n}"
        proc = _run_dying_at(n, argv(out))
        assert proc.returncode == 1, (n, proc.stderr)
        assert len(list(out.rglob("*.tmp"))) == 1, n  # the write cut short before its rename
        assert dispatch([*argv(out), "--resume"]) == EXIT_OK, n
        assert not list(out.rglob("*.tmp")), n
        _assert_same_run(out, full)



def test_pipeline_outputs_do_not_depend_on_the_hash_seed(tmp_path, synth_dir):
    # set and dict iteration over strings follows PYTHONHASHSEED; no artifact may
    split_synth_for_pipeline(synth_dir)
    cfg = pipeline_cfg_file(tmp_path, synth_dir)
    src = Path(__file__).resolve().parents[1] / "src"
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        out = tmp_path / f"hash_seed_{hash_seed}"
        argv = ["pipeline", "--config", str(cfg), "--seed", "6", "--out", str(out)]
        proc = subprocess.run([sys.executable, "-m", "lexmine", *argv], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr
        runs.append(out)
    assert (runs[0] / "iter_2" / "generated.jsonl").stat().st_size > 0
    _assert_same_run(*runs)
