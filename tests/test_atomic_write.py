"""Every artifact writer replaces its target only once the new content is complete."""

import json

import numpy as np
import pytest

from lexmine.cli import dispatch
from lexmine.corpus import (
    Corpus,
    Passage,
    Query,
    QuerySet,
    atomic_write,
    save_passages,
    save_queries,
)
from lexmine.dense import TrainingSample, init_params, save_checkpoint
from lexmine.evaluation import save_run
from lexmine.mining import save_samples
from lexmine.pipeline import _write_json, write_manifest
from lexmine.querygen import GeneratorModel, save_generator


class Interrupted(Exception):
    pass


def _partial_then_raise(chunk):
    """A stand-in for a serializer that writes ``chunk`` to its file, then fails."""

    def fail(*args, **kwargs):
        fh = next(a for a in (*args, *kwargs.values()) if hasattr(a, "write"))
        fh.write(chunk)
        raise Interrupted

    return fail


def _dumps_once(real=json.dumps):
    """json.dumps that serializes the first record and fails on the second."""
    calls = []

    def dumps(*args, **kwargs):
        calls.append(1)
        if len(calls) > 1:
            raise Interrupted
        return real(*args, **kwargs)

    return dumps


def _raise(*args, **kwargs):
    raise Interrupted


# the passages the samples name, by id
SAMPLE_CORPUS = Corpus([Passage(id=pid, text="x") for pid in ("p0", "p1", "h0", "h1")])


def _samples(v):
    pos = SAMPLE_CORPUS.position
    return [
        TrainingSample(query=Query(id=f"q{i}", text=f"v{v}"), positive=pos(f"p{i}"), hard_negatives=(pos(f"h{i}"),))
        for i in range(2)
    ]


# writer name -> (write(path, version), patch target, replacement factory)
WRITERS = {
    "samples": (lambda path, v: save_samples(_samples(v), path, SAMPLE_CORPUS), (json, "dumps"), _dumps_once),
    "passages": (
        lambda path, v: save_passages(Corpus([Passage(id=f"p{i}", text=f"v{v}") for i in range(2)]), path),
        (json, "dumps"),
        _dumps_once,
    ),
    "queries": (
        lambda path, v: save_queries(QuerySet([Query(id=f"q{i}", text=f"v{v}") for i in range(2)]), path),
        (json, "dumps"),
        _dumps_once,
    ),
    "checkpoint": (
        lambda path, v: save_checkpoint(path, init_params(["a", "b"], dim=2, seed=v)),
        (np, "savez"),
        lambda: _partial_then_raise(b"PK\x03\x04partial"),
    ),
    "generator": (
        lambda path, v: save_generator(GeneratorModel(query_len_dist={1: 1.0}, version=v), path),
        # the payload is encoded whole, inside the write, before its one fh.write
        (json, "dumps"),
        lambda: _raise,
    ),
    "manifest": (
        lambda path, v: write_manifest(path, "synth", {"v": str(v)}, v),
        (json, "dump"),
        lambda: _partial_then_raise('{"command": '),
    ),
    "report": (lambda path, v: _write_json(path, {"v": v}), (json, "dump"), lambda: _partial_then_raise('{"v": ')),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_keeps_previous_artifact(tmp_path, monkeypatch, name):
    write, (module, attr), make_failure = WRITERS[name]
    path = tmp_path / "artifact"
    write(path, 0)
    before = path.read_bytes()
    monkeypatch.setattr(module, attr, make_failure())
    with pytest.raises(Interrupted):
        write(path, 1)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_failed_run_write_keeps_previous_run(tmp_path):
    # the second query's score cannot be formatted, after the first line is written
    path = tmp_path / "run.trec"
    save_run({"q1": [("p1", 1.0)]}, path)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        save_run({"q1": [("p1", 2.0)], "q2": [("p2", "not a score")]}, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["run.trec"]


def test_atomic_write_first_write_leaves_nothing_on_failure(tmp_path):
    path = tmp_path / "new.json"
    with pytest.raises(Interrupted):
        with atomic_write(path) as fh:
            fh.write("{")
            raise Interrupted
    assert list(tmp_path.iterdir()) == []
    with atomic_write(path, binary=True) as fh:
        fh.write(b"done")
    assert path.read_bytes() == b"done"
    assert [p.name for p in tmp_path.iterdir()] == ["new.json"]


def test_failed_eval_report_keeps_previous_report(tmp_path, monkeypatch):
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    save_run({"q1": [("p1", 1.0)]}, inputs / "run.trec")
    (inputs / "qrels.tsv").write_text("q1 0 p1 1\n")
    argv = ["eval", "--run", str(inputs / "run.trec"), "--qrels", str(inputs / "qrels.tsv"), "--out", str(out / "report.json")]
    assert dispatch(argv) == 0
    before = (out / "report.json").read_bytes()
    monkeypatch.setattr(json, "dump", _partial_then_raise('{"mrr@10": '))
    with pytest.raises(Interrupted):
        dispatch(argv)
    assert (out / "report.json").read_bytes() == before
    assert [p.name for p in out.iterdir()] == ["report.json"]
