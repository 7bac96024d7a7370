"""Every per-layer metric of the benchmark names a function the package
exports, so a traced benchmark run cannot fail on a missing name."""

import importlib.util
import inspect
from pathlib import Path

import fta
import fta.cli

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def layer_stats():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_STATS


def test_layer_stats_name_exported_functions():
    missing = []
    for name, _ in layer_stats():
        if name == "cli.main":
            assert inspect.isfunction(fta.cli.main)
            continue
        module, function = name.split(".")
        obj = getattr(fta, function, None)
        if not (inspect.isfunction(obj) and obj.__module__ == f"fta.{module}"):
            missing.append(name)
    assert missing == []
