"""The project's pytest settings, run against a throwaway test file."""

import subprocess
import sys
from pathlib import Path

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_always_fails(n):
    assert n != n
"""

RUNTIME_WARNING = """
import warnings


def test_warns():
    warnings.warn("overflow encountered", RuntimeWarning)
"""


def run_with_project_config(tmp_path, source):
    """Run ``source`` as a test file under the project's ``pyproject.toml``."""
    (tmp_path / "test_throwaway.py").write_text(source)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), str(tmp_path / "test_throwaway.py")],
        capture_output=True, text=True, timeout=300,
    )


def test_failing_property_is_reported_as_one_failure(tmp_path):
    # On failure hypothesis imports its patching helpers, which raise a
    # DeprecationWarning; under the project's warning filters the session
    # must still report the failure, not end in an INTERNALERROR.
    proc = run_with_project_config(tmp_path, FAILING_PROPERTY)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout
    assert "1 failed" in proc.stdout, proc.stdout
    assert proc.returncode == 1


def test_runtime_warning_fails_the_test(tmp_path):
    # numpy reports overflow, invalid values and the discarded imaginary part
    # of a complex cast (ComplexWarning) as RuntimeWarnings; under the
    # project's warning filters each fails the test that raised it
    proc = run_with_project_config(tmp_path, RUNTIME_WARNING)
    assert "1 failed" in proc.stdout, proc.stdout
    assert proc.returncode == 1
