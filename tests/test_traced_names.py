"""Every function the benchmark's tracer wraps still exists under its name.

``perfbench/tracing.py`` looks each traced function up by (module, name) on
the installed package; a renamed or deleted one would only fail the traced
benchmark run. The file is read and executed here, never imported as a
package module, so this check writes nothing under ``perfbench/``.
"""

import importlib
import inspect
from pathlib import Path

from lexmine.corpus import tokenize
from lexmine.dense import train_step

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_targets() -> set[tuple[str, str]]:
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    targets = {t for group in namespace["GROUPS"].values() for t in group}
    # the benchmark's child process times set-up up to this function's entry
    return targets | {("pipeline", "warmup")}


def test_traced_functions_resolve_on_lexmine():
    missing = [
        f"lexmine.{module}.{name}"
        for module, name in sorted(_traced_targets())
        if not callable(getattr(importlib.import_module(f"lexmine.{module}"), name, None))
    ]
    assert not missing


def test_counted_arguments_keep_their_positions():
    # the tracer's counters read train_step's batch as args[2] and tokenize's text as args[0]
    assert list(inspect.signature(train_step).parameters)[2] == "batch"
    assert list(inspect.signature(tokenize).parameters)[0] == "text"
