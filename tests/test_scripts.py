"""Smoke runs of the experiment scripts on a tiny benchmark."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

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
minibatches_per_iter = 10
batch_size = 8
warmup_epochs = 2
mining_s = 2
mining_l = 8
n_generate = 10
embedding_dim = 16
warmup_lr = 0.01
train_lr = 0.003
eval_k = 10
"""


@pytest.fixture()
def configs(tmp_path):
    synth, pipeline = tmp_path / "synth.cfg", tmp_path / "pipeline.cfg"
    synth.write_text(SYNTH_CFG)
    pipeline.write_text(PIPELINE_CFG)
    return ["--synth-config", str(synth), "--pipeline-config", str(pipeline)]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_run_benchmark_script(configs, tmp_path):
    lines = run_script("run_benchmark.py", *configs, "--workdir", str(tmp_path / "work"))
    # one table row per report: the warm-up (iteration 0) and two iterations
    rows = [line.split() for line in lines if line.split()[:1] in (["0"], ["1"], ["2"])]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    assert any(line.startswith("mean target mrr@10: zero-shot") for line in lines)
    assert (tmp_path / "work" / "iter_2" / "report.json").exists()


def test_run_ablations_script(configs):
    lines = run_script("run_ablations.py", *configs, "--variants", "agreement", "double_dense")
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:]}
    assert list(rows) == ["agreement", "double_dense"]
    for mined, mrr, recall, _ in rows.values():
        assert int(mined) > 0
        assert 0.0 <= float(mrr) <= float(recall) <= 1.0
