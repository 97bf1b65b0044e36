"""Seeded exit-code fuzz test of the command line.

Each case copies one tiny run (``test_cli.tiny_data`` and one pipeline run
over it), mutates one line, field, array or config value of one input file and
runs one command that reads that file, in-process through ``cli.dispatch``.
The command must exit 0, 1, 2 or 3 (README "CLI") and let no exception
escape. The cases are drawn from one fixed seed, so every run sees the same
cases; each failure message names its mutation.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

import numpy as np
import pytest

from lexmine.cli import EXIT_OK, dispatch
from lexmine.pipeline import MINING_MODES, NEGATIVE_MODES
from test_cli import pipeline_cfg_file, tiny_data

SEED = 20261020
N_CASES = 60

# values put in a JSON field, a text column or a config value
JSON_VALUES = [None, True, False, 0, 1, -1, 1.0, 1.5, 1e308, float("nan"), "", " ", "a b", "\u0663", "p1", [], {}, ["p1"]]
COLUMN_VALUES = ["", "0", "1", "-1", "01", "1_0", "1e309", "nan", "inf", "\u0663", "\ufeff", "p1", "q1", "Q0", "x" * 40]
CONFIG_VALUES = ["", "0", "1", "2", "-1", "0.5", "1_0", "\u0663", "nan", "inf", "abc", "true", *MINING_MODES, *NEGATIVE_MODES]
TABLE_VALUES = [np.nan, np.inf, -np.inf, 1e308, 0.0]

# input kind -> (its file in a case directory, the commands that read it)
KINDS = {
    "passages": ("tiny/passages.jsonl", ["pipeline", "warmup", "mine", "generate", "train"]),
    "train_queries": ("tiny/train_queries.jsonl", ["pipeline", "warmup"]),
    "unlabeled_queries": ("tiny/unlabeled_tgt.jsonl", ["pipeline", "mine"]),
    "eval_queries": ("tiny/queries.jsonl", ["pipeline", "eval"]),
    "qrels": ("tiny/qrels.tsv", ["pipeline", "warmup", "eval"]),
    "run": ("run/iter_1/run.trec", ["eval"]),
    "config": ("pipe.cfg", ["pipeline", "pipeline --resume", "warmup", "mine", "generate", "train"]),
    "checkpoint": ("run/iter_1/checkpoint.npz", ["mine", "generate", "train", "pipeline --resume"]),
    "generator": ("run/iter_1/generator.json", ["generate", "pipeline --resume"]),
    "samples": ("run/iter_1/mined.jsonl", ["train"]),
}


def _cases() -> list[tuple[str, str, int]]:
    """(kind, command, mutation seed) for each case: the kinds in turn, the
    command and the mutation drawn from ``SEED``."""
    rng = random.Random(SEED)
    kinds = list(KINDS)
    cases = []
    for i in range(N_CASES):
        kind = kinds[i % len(kinds)]
        cases.append((kind, rng.choice(KINDS[kind][1]), rng.randrange(2**32)))
    return cases


def _argv(command: str, root: Path) -> list[str]:
    data, stage = root / "tiny", root / "run" / "iter_1"
    # the seed of the base run, so that a resume sees its config hash
    seeded = ["--config", str(root / "pipe.cfg"), "--seed", "1"]
    passages = ["--passages", str(data / "passages.jsonl")]
    checkpoint = ["--checkpoint", str(stage / "checkpoint.npz")]
    return {
        "pipeline": ["pipeline", *seeded, "--out", str(root / "out")],
        "pipeline --resume": ["pipeline", *seeded, "--out", str(root / "run"), "--resume"],
        "warmup": [
            "warmup", *seeded, *passages,
            "--queries", str(data / "train_queries.jsonl"),
            "--qrels", str(data / "qrels.tsv"),
            "--out", str(root / "warm"),
        ],
        "mine": [
            "mine", *seeded, *passages, *checkpoint,
            "--queries", str(data / "unlabeled_tgt.jsonl"),
            "--out", str(root / "mined.jsonl"),
        ],
        "generate": [
            "generate", *seeded, *passages, *checkpoint,
            "--generator", str(stage / "generator.json"),
            "--rejected", str(root / "rejected.jsonl"),
            "--out", str(root / "generated.jsonl"),
        ],
        "train": [
            "train", *seeded, *passages, *checkpoint,
            "--samples", str(stage / "mined.jsonl"),
            "--out", str(root / "trained"),
        ],
        "eval": [
            "eval",
            "--run", str(stage / "run.trec"),
            "--qrels", str(data / "qrels.tsv"),
            "--queries", str(data / "queries.jsonl"),
            "--out", str(root / "eval.json"),
        ],
    }[command]


# ---------------------------------------------------------------------------
# mutations: each changes one thing and returns what it did
# ---------------------------------------------------------------------------


def _mutate_lines(path: Path, rng: random.Random, change_line) -> str:
    """One line of a text file dropped, repeated, cut short, given a byte that
    is not UTF-8 or a BOM, or changed by ``change_line(line, rng)``."""
    lines = path.read_bytes().split(b"\n")[:-1] or [b""]
    i = rng.randrange(len(lines))
    line = lines[i]
    op = rng.choice(["drop", "repeat", "cut", "non-utf8", "bom", "change", "change"])
    if op == "drop":
        del lines[i]
    elif op == "repeat":
        lines.insert(i, line)
    elif op == "cut":
        lines[i] = line[: rng.randrange(len(line) + 1)]
    elif op == "non-utf8":
        at = rng.randrange(len(line) + 1)
        lines[i] = line[:at] + b"\xff" + line[at:]
    elif op == "bom":
        lines[0] = b"\xef\xbb\xbf" + lines[0]
        i = 0
    else:
        changed, op = change_line(line.decode("utf-8"), rng)
        lines[i] = changed.encode("utf-8")
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    return f"line {i + 1}: {op}"


def _change_json_field(line: str, rng: random.Random) -> tuple[str, str]:
    obj = json.loads(line)
    key = rng.choice([*obj, "extra"])
    if key in obj and rng.random() < 0.25:
        del obj[key]
        return json.dumps(obj), f"delete {key!r}"
    obj[key] = rng.choice(JSON_VALUES)
    return json.dumps(obj), f"{key!r} = {obj[key]!r}"


def _change_column(line: str, rng: random.Random) -> tuple[str, str]:
    fields = line.split()
    i = rng.randrange(len(fields) + 1)
    if i == len(fields) or rng.random() < 0.2:
        fields.insert(i, rng.choice(COLUMN_VALUES))
        return " ".join(fields), f"insert column {i}"
    fields[i] = rng.choice(COLUMN_VALUES)
    return " ".join(fields), f"column {i} = {fields[i]!r}"


def _change_config_value(line: str, rng: random.Random) -> tuple[str, str]:
    key = line.split("=", 1)[0].strip() if "=" in line else "extra_key"
    value = rng.choice(CONFIG_VALUES)
    return f"{key} = {value}", f"{key} = {value!r}"


def _mutate_checkpoint(path: Path, rng: random.Random) -> str:
    with np.load(path) as data:
        arrays = dict(data)
    meta = json.loads(bytes(arrays["meta"]))
    table = arrays["embedding"]
    op = rng.choice(["meta", "meta", "table value", "table shape", "table dtype", "array"])
    if op == "meta":
        key = rng.choice([*meta, "extra"])
        if key in meta and rng.random() < 0.25:
            del meta[key]
            what = f"meta: delete {key!r}"
        elif key == "tokens" and rng.random() < 0.5:
            meta["tokens"][rng.randrange(len(meta["tokens"]))] = rng.choice(["zz", meta["tokens"][0], ""])
            what = f"meta tokens: {meta['tokens']!r}"
        else:
            meta[key] = rng.choice(JSON_VALUES)
            what = f"meta {key!r} = {meta[key]!r}"
    elif op == "table value":
        value = rng.choice(TABLE_VALUES)
        table = table.copy()
        table[rng.randrange(table.shape[0]), rng.randrange(table.shape[1])] = value
        what = f"one table entry = {value}"
    elif op == "table shape":
        shape = rng.choice(["drop row", "drop column", "flat", "3-d"])
        table = {
            "drop row": table[:-1],
            "drop column": table[:, :-1],
            "flat": table.ravel(),
            "3-d": table[None],
        }[shape]
        what = f"table {shape}"
    elif op == "table dtype":
        dtype = rng.choice(["float32", "int64", "bool", "complex128", "U3"])
        table = table.astype(dtype)
        what = f"table as {dtype}"
    else:
        name = rng.choice(["meta", "embedding", "extra"])
        if name in arrays:
            del arrays[name]
            what = f"delete array {name!r}"
        else:
            arrays[name] = np.zeros(3)
            what = f"add array {name!r}"
    if "meta" in arrays:
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    if "embedding" in arrays:
        arrays["embedding"] = table
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    return what


def _mutate_generator(path: Path, rng: random.Random) -> str:
    payload = json.loads(path.read_text(encoding="utf-8"))
    part = rng.choice(["field", "length", "salience"])
    if part == "field":
        key = rng.choice([*payload, "extra"])
        if key in payload and rng.random() < 0.25:
            del payload[key]
            what = f"delete {key!r}"
        else:
            payload[key] = rng.choice(JSON_VALUES)
            what = f"{key!r} = {payload[key]!r}"
    elif part == "length":
        lengths = payload["query_len_dist"]
        key = rng.choice(list(lengths))
        if rng.random() < 0.5:
            new = rng.choice(["0" + key, "-" + key, "0", "x", key + " "])
            lengths[new] = lengths.pop(key)
            what = f"length key {key!r} -> {new!r}"
        else:
            lengths[key] = rng.choice(JSON_VALUES)
            what = f"length {key!r} = {lengths[key]!r}"
    else:
        entries = payload["term_salience"]
        i = rng.randrange(len(entries))
        field = rng.choice(["lang", "token", "weight", None])
        if field is None:
            entries[i] = rng.choice(JSON_VALUES)
            what = f"salience entry {i} = {entries[i]!r}"
        else:
            entries[i][field] = rng.choice(JSON_VALUES)
            what = f"salience entry {i} {field!r} = {entries[i][field]!r}"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return what


def _mutate(kind: str, path: Path, rng: random.Random) -> str:
    if kind == "checkpoint":
        return _mutate_checkpoint(path, rng)
    if kind == "generator":
        return _mutate_generator(path, rng)
    if kind in ("qrels", "run"):
        return _mutate_lines(path, rng, _change_column)
    if kind == "config":
        return _mutate_lines(path, rng, _change_config_value)
    return _mutate_lines(path, rng, _change_json_field)


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> Path:
    """Tiny data, its pipeline config and one seed-1 pipeline run over them."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = pipeline_cfg_file(root, tiny_data(root))
    assert dispatch(["pipeline", "--config", str(cfg), "--seed", "1", "--out", str(root / "run")]) == EXIT_OK
    return root


@pytest.mark.parametrize("kind, command, seed", _cases(), ids=lambda v: str(v))
def test_mutated_input_exits_with_a_documented_code(base, tmp_path, kind, command, seed):
    root = tmp_path / "case"
    shutil.copytree(base, root)
    pipeline_cfg_file(root, root / "tiny")  # the copy's config names the copy's data
    if command == "pipeline --resume":
        # so that the resumed run continues from the stage the mutation may hit
        shutil.rmtree(root / "run" / "iter_2")
    what = f"{kind} ({KINDS[kind][0]}), {_mutate(kind, root / KINDS[kind][0], random.Random(seed))}; {command}"
    try:
        code = dispatch(_argv(command, root))
    except (Exception, SystemExit) as exc:
        pytest.fail(f"{what}: escaped {exc!r}")
    assert code in (0, 1, 2, 3), what
