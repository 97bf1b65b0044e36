"""One benchmark run of ``lexmine pipeline``, in a fresh process.

Usage (from run.py): child.py SPEC_JSON, where the spec names the checkout
root, the CLI arguments, the spawn time on the monotonic clock, whether to
trace, whether to stop at warm-up entry, and where to write the result.
The command runs in-process through ``lexmine.cli.dispatch``.
"""

from __future__ import annotations

import json
import resource
import sys
import time


class _StopAtWarmup(BaseException):
    """Ends a set-up-only run at warm-up entry; not caught by the CLI."""


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["root"] + "/src")
    sys.path.insert(1, spec["bench_dir"])
    import lexmine.cli
    import lexmine.pipeline

    if not lexmine.__file__.startswith(spec["root"] + "/src/"):
        raise SystemExit(f"imported lexmine from {lexmine.__file__}, not the checkout")

    t_spawn = spec["t_spawn"]
    result: dict = {"warmup_at": None}
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    warmup = lexmine.pipeline.warmup

    def timed_warmup(*args, **kwargs):
        if result["warmup_at"] is None:
            result["warmup_at"] = time.monotonic() - t_spawn
            if spec["setup_only"]:
                raise _StopAtWarmup
        return warmup(*args, **kwargs)

    lexmine.pipeline.warmup = timed_warmup
    try:
        result["exit_code"] = lexmine.cli.dispatch(spec["argv"])
    except _StopAtWarmup:
        result["exit_code"] = 0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
