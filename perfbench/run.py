#!/usr/bin/env python3
"""The lexmine benchmark: timed runs of ``lexmine pipeline`` with output checks.

    python3 perfbench/run.py --workload mine_heavy --seed 0 --seconds 1 --trace 0

Run from the root of a checkout. Inputs are generated from the workload seed
before anything is timed; every pipeline run is a fresh process that calls
``lexmine.cli.dispatch`` in-process. With ``--trace 0`` the pipeline is run
until ``--seconds`` of measurement have passed (at least once) and the
end-to-end metrics are medians over those runs. With ``--trace 1`` one
untraced and one traced run are made and the per-layer metrics come from the
traced one. Outputs are checked after every run, outside the timed region.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS, Workload, pipeline_argv, write_inputs  # noqa: E402

WORK_DIR = ".perfbench_work"
SETUP_SAMPLES = 3  # set-up is measured at least this many times per timed run
# One BLAS thread and a fixed hash seed on both sides of every comparison.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "target_mrr10_final": "mrr",
    "pass_frac": "fraction",
}


def source_digest(root: Path) -> str:
    """Content hash of the benchmarked program: src/ and configs/."""
    h = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "configs").glob("*.cfg")]):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "child_env": CHILD_ENV,
        "commit": commit,
        "source_digest": source_digest(root),
    }


class Runner:
    """Spawns pipeline runs for one benchmark invocation and checks their outputs."""

    def __init__(self, root: Path, workload: Workload, seed: int, work: Path,
                 synth_cfg: dict | None = None, extra_sets: tuple[str, ...] = ()):
        self.root, self.workload, self.seed, self.work = root, workload, seed, work
        self.synth_cfg, self.extra_sets = synth_cfg, tuple(extra_sets)
        self.deadline = time.monotonic() + workload.timeout_s
        self.data = write_inputs(root, workload, seed, work / "data", synth_cfg)
        self.n_spawned = 0
        self._oracle = None

    def argv(self, out: Path, workload: Workload | None = None, data: dict | None = None) -> list[str]:
        argv = pipeline_argv(self.root, workload or self.workload, self.seed, data or self.data, out)
        for item in self.extra_sets:
            argv += ["--set", item]
        return argv

    def spawn(self, argv: list[str], trace: bool = False, setup_only: bool = False) -> dict:
        """One fresh process running the command; returns its timings.

        ``run_s`` is the wall-clock from just before the process is started to
        its exit; ``warmup_at`` is the set-up time, from the same start to the
        entry of ``pipeline.warmup``.
        """
        self.n_spawned += 1
        result_path = self.work / f"result_{self.n_spawned}.json"
        env = {**os.environ, **CHILD_ENV}
        t_spawn = time.monotonic()
        spec = {
            "root": str(self.root),
            "bench_dir": str(BENCH_DIR),
            "argv": argv,
            "t_spawn": t_spawn,
            "trace": trace,
            "setup_only": setup_only,
            "result": str(result_path),
        }
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
                cwd=self.work, env=env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - t_spawn),
            )
            returncode, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired as exc:
            returncode, stderr = None, f"timed out after {exc.timeout:.0f} s"
        run_s = time.monotonic() - t_spawn
        res = json.loads(result_path.read_text()) if result_path.exists() else {}
        ok = returncode == 0 and res.get("exit_code") == 0
        if not ok:
            print(f"run failed (exit {returncode}, command exit {res.get('exit_code')}): "
                  f"{stderr.strip()[-2000:]}", file=sys.stderr)
        return {"ok": ok, "run_s": run_s, **res}

    def oracle(self, out: Path):
        if self._oracle is None:
            from checks import Oracle

            manifest = json.loads((out / "manifest.json").read_text())
            self._oracle = Oracle(self.data, manifest["config"])
        return self._oracle

    def check(self, out: Path, run: dict, first: dict | None) -> tuple[list, dict | None]:
        """Checks for one run; returns (checks, outputs).

        The first run is checked against the oracles. A later run of the same
        inputs must reproduce the first one's reports and artifacts exactly.
        """
        from checks import (artifact_digest, check_counts, check_final_run, check_mining,
                            comparable, read_reports)

        checks = [("exit_code", run["ok"], "")]
        if not run["ok"]:
            return checks, None
        reports = read_reports(out)
        outputs = {"reports": comparable(reports), "digest": artifact_digest(out)}
        checks += check_counts(out, reports)
        if first is None:
            oracle = self.oracle(out)
            checks += check_mining(oracle, out, len(reports) - 1, self.seed)
            checks += check_final_run(oracle, out, len(reports) - 1, reports)
        else:
            checks.append(("deterministic", outputs == first, "outputs differ from the first run's"))
        return checks, outputs

    def reference_path(self, workload: Workload) -> Path:
        """Cache file for ``workload``'s reports at this seed and program version."""
        key = json.dumps([source_digest(self.root), workload.name, self.seed, self.synth_cfg,
                          self.extra_sets], sort_keys=True)
        return self.root / WORK_DIR / "reports" / f"{hashlib.sha256(key.encode()).hexdigest()[:20]}.json"

    def save_reference(self, reports: list) -> None:
        cache = self.reference_path(self.workload)
        cache.parent.mkdir(parents=True, exist_ok=True)
        tmp = cache.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(reports))
        os.replace(tmp, cache)

    def reference_reports(self, latin: Workload) -> list | None:
        """Reports of ``latin`` for this seed: from the cache a ``latin`` run
        left in this checkout, else from a run made here, untimed."""
        from checks import comparable, read_reports

        cache = self.reference_path(latin)
        if cache.exists():
            return json.loads(cache.read_text())
        data = write_inputs(self.root, latin, self.seed, self.work / "latin_data", self.synth_cfg)
        out = self.work / "latin_run"
        if not self.spawn(self.argv(out, latin, data))["ok"]:
            return None
        return comparable(read_reports(out))


def run_benchmark(root: Path, workload: Workload, seed: int, seconds: float, trace: bool,
                  synth_cfg: dict | None = None, extra_sets: tuple[str, ...] = ()) -> dict:
    """One benchmark invocation; returns the result object printed last."""
    work = root / WORK_DIR / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        t0 = time.monotonic()
        runner = Runner(root, workload, seed, work, synth_cfg, extra_sets)
        print(f"inputs: {time.monotonic() - t0:.1f} s", file=sys.stderr)
        return _measure(runner, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _timed_run(r: Runner, name: str, first: dict | None, trace: bool = False) -> tuple[dict, list, dict | None]:
    out = r.work / name
    run = r.spawn(r.argv(out), trace=trace)
    t0 = time.monotonic()
    checks, outputs = r.check(out, run, first)
    print(f"{name}: run_s {run['run_s']:.3f}, cpu_s {run.get('cpu_s') or 0:.3f}, "
          f"setup_s {run.get('warmup_at') or 0:.3f}, "
          f"checks {sum(ok for _, ok, _ in checks)}/{len(checks)} in {time.monotonic() - t0:.1f} s",
          file=sys.stderr)
    return run, checks, outputs


def _measure(r: Runner, seconds: float, trace: bool) -> dict:
    from checks import target_mrr

    runs: list[dict] = []
    checks: list = []
    first = None
    measured = 0.0
    while not runs or (not trace and measured < seconds and runs[-1]["ok"]):
        run, c, outputs = _timed_run(r, f"run_{len(runs) + 1}", first)
        runs.append(run)
        checks += c
        measured += run["run_s"]
        first = first or outputs

    zeroshot = final = 0.0
    oracle = r.oracle(r.work / "run_1") if first is not None else None
    if first is not None:
        reports = first["reports"]
        target_langs = sorted({q.lang for q in oracle.unlabeled})
        k = oracle.cfg["eval_k"]
        zeroshot, final = target_mrr(reports[0], target_langs, k), target_mrr(reports[-1], target_langs, k)
        checks.append(("quality.final_above_zeroshot", final > zeroshot,
                       f"final {final:.4f} vs zero-shot {zeroshot:.4f}"))
        if r.workload.cjk:
            checks.append(("cjk.equals_mine_heavy", r.reference_reports(WORKLOADS["mine_heavy"]) == reports,
                           "reports differ from mine_heavy's for the same seed"))
        elif r.workload.name == "mine_heavy":
            r.save_reference(reports)

    if trace:
        from layers import per_layer

        traced, c, _ = _timed_run(r, "traced", first, trace=True)
        checks += c
        metrics = per_layer(traced, runs[0]["run_s"], first["reports"] if first else [],
                            len(oracle.unlabeled) if oracle else 0, zeroshot)
    else:
        setups = [run["warmup_at"] for run in runs if run.get("warmup_at") is not None]
        while first is not None and len(setups) < SETUP_SAMPLES:
            s = r.spawn(r.argv(r.work / f"setup_{len(setups)}"), setup_only=True)
            if not s["ok"] or s.get("warmup_at") is None:
                checks.append(("setup_only_run", False, "set-up-only run failed"))
                break
            setups.append(s["warmup_at"])
        print(f"setup samples: {', '.join(f'{s:.3f}' for s in setups)}", file=sys.stderr)
        failed = sum(not ok for _, ok, _ in checks)
        values = {
            "run_s": statistics.median(run["run_s"] for run in runs),
            "setup_s": statistics.median(setups) if setups else 0.0,
            "peak_rss_mb": statistics.median(run.get("peak_rss_mb", 0.0) for run in runs),
            "target_mrr10_final": final,
            "pass_frac": (len(checks) - failed) / len(checks),
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}

    failed = [(name, detail) for name, ok, detail in checks if not ok]
    for name, detail in failed:
        print(f"check failed: {name}: {detail}", file=sys.stderr)
    return {"correct": not failed, "attempted": len(checks), "failed": len(failed), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed; 0 is the shipped pair")
    parser.add_argument("--seconds", type=float, default=1.0, help="measure at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = BENCH_DIR.parent
    needed = [root / "src" / "lexmine" / "cli.py", root / "configs" / "synth_benchmark.cfg",
              root / "configs" / "pipeline_benchmark.cfg"]
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a lexmine checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "environment": environment(root)}))
    result = run_benchmark(root, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
