"""The package namespace loads submodules on first access, each in a fresh interpreter."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with the package on its path; its stdout."""
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("statement, unloaded", [
    ("import seizeval", ["cli", "metrics", "rtbench"]),
    ("from seizeval import core, detectors, features, io", ["metrics", "rtbench"]),
])
def test_import_loads_only_what_it_names(statement, unloaded):
    loaded = fresh(f"""
        import sys
        {statement}
        print(" ".join(sorted(sys.modules)))
    """).split()
    assert [name for name in unloaded if f"seizeval.{name}" in loaded] == []


def test_every_name_resolves_to_its_submodule_attribute():
    out = fresh("""
        import importlib
        import seizeval as sv

        for name in sv.__all__:
            owner = importlib.import_module(f"seizeval.{sv._OWNER[name]}")
            assert getattr(sv, name) is getattr(owner, name), name
        for name in ("core", "detectors", "errors", "features", "io", "metrics", "rtbench"):
            assert getattr(sv, name) is importlib.import_module(f"seizeval.{name}"), name
        assert sv.features.BlockCache and sv.rtbench.run_stream is sv.run_stream
        assert set(sv.__all__) <= set(dir(sv))
        try:
            sv.no_such_name
        except AttributeError as exc:
            print(exc)
    """)
    assert out == "module 'seizeval' has no attribute 'no_such_name'\n"
