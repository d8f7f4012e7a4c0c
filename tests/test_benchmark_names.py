"""The package names that the benchmark under perfbench/ calls or traces.

A cleanup that renames or deletes one of them breaks traced benchmark runs,
which the rest of the suite does not exercise.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("cli", "core", "detectors", "features", "io", "metrics", "rtbench")


def load_worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:  # the worker puts perfbench/ on sys.path to import its harness
        spec.loader.exec_module(worker)
    finally:
        sys.path[:] = saved
    return worker


def test_every_trace_target_is_callable():
    targets = load_worker().trace_targets()
    assert targets
    for owner, attr, name in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner!r} has no {attr!r}"


def test_every_package_name_the_benchmark_uses_exists():
    """Each ``<module>.<name>`` the scripts use, e.g. ``detectors.LinearDetector``."""
    used = {
        (script, node.value.id, node.attr)
        for script in ("worker.py", "gen.py")
        for node in ast.walk(ast.parse((PERFBENCH / script).read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in MODULES
    }
    assert ("worker.py", "detectors", "LinearDetector") in used
    for script, module, name in sorted(used):
        module_obj = importlib.import_module(f"seizeval.{module}")
        assert hasattr(module_obj, name), f"{script} uses {module}.{name}"
