#!/usr/bin/env python3
"""Mining-variant comparison on the synthetic benchmark.

Variants (all without query generation, mirroring the ablation setup):
  agreement     sparse/dense agreement mining with mined hard negatives
  fuse_sum      positives from the sum-fused ranking
  fuse_product  positives from the product-fused ranking
  double_dense  two dense retrievers (different seed/data split) instead of
                sparse+dense
  no_hn         mined positives, in-batch negatives only
  sparse_hn     mined positives, top sparse results as hard negatives
"""

from __future__ import annotations

import argparse
import time
from dataclasses import replace
from pathlib import Path

from lexmine.cli import parse_kv_config, pipeline_config_from_mapping
from lexmine.corpus import SynthSpec, synth_benchmark
from lexmine.pipeline import pipeline_data_from_benchmark, run_pipeline, target_mean

ROOT = Path(__file__).resolve().parents[1]

VARIANTS = {
    "agreement": {},
    "fuse_sum": {"mining_mode": "fuse_sum"},
    "fuse_product": {"mining_mode": "fuse_product"},
    "double_dense": {"mining_mode": "double_dense"},
    "no_hn": {"negative_mode": "none"},
    "sparse_hn": {"negative_mode": "sparse_top"},
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--synth-seed", type=int, default=11)
    parser.add_argument("--synth-config", default=ROOT / "configs" / "synth_benchmark.cfg")
    parser.add_argument("--pipeline-config", default=ROOT / "configs" / "pipeline_benchmark.cfg")
    parser.add_argument("--variants", nargs="*", default=list(VARIANTS), choices=list(VARIANTS))
    args = parser.parse_args()

    spec = SynthSpec.from_mapping(parse_kv_config(args.synth_config))
    mapping = parse_kv_config(args.pipeline_config)
    bench = synth_benchmark(spec, seed=args.synth_seed)
    data = pipeline_data_from_benchmark(bench)
    langs = list(bench.target_langs)

    print(f"{'variant':<14} {'mined(final)':>12} {'mrr@10':>8} {'recall@10':>10} {'time':>6}")
    for name in args.variants:
        overrides = VARIANTS[name]
        cfg = replace(pipeline_config_from_mapping(mapping, seed=args.seed), **overrides, n_generate=0)
        t0 = time.perf_counter()
        reports = run_pipeline(cfg, data)
        final = reports[-1]
        mrr = target_mean(final.metrics, langs, f"mrr@{cfg.eval_k}")
        rec = target_mean(final.metrics, langs, f"recall@{cfg.eval_k}")
        print(
            f"{name:<14} {final.mined_samples:>12} {mrr:>8.4f} {rec:>10.4f} "
            f"{time.perf_counter() - t0:>5.0f}s"
        )


if __name__ == "__main__":
    main()
