"""The program names the benchmark traces still exist.

``bench/worker.py`` wraps ``(module, attribute)`` bindings for its traced
runs and reads its layer metrics by the callee's ``module.qualname``.  A
renamed or moved function would crash the traced run, or leave its layer
metric at zero without a word.  This imports ``bench/`` and changes nothing
in it.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_binding_exists():
    missing = [f"{module.__name__}.{attr}"
               for module, attr, *_ in worker.boundaries(workloads)
               if not hasattr(module, attr)]
    assert missing == []


def test_every_layer_callee_is_a_function_of_that_name():
    callees = [callee for callee, _ in worker.OP_LAYERS.values()]
    callees += list(worker.SETUP_LAYERS.values())
    for callee in callees:
        module, _, name = callee.rpartition(".")
        fn = getattr(importlib.import_module(module), name, None)
        assert callable(fn), callee
        assert f"{fn.__module__}.{fn.__qualname__}" == callee
