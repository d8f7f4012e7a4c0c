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


def test_failing_property_is_reported_as_one_failure(tmp_path):
    # On failure hypothesis imports its patching helpers, which raise a
    # DeprecationWarning; under the project's warning filters the session
    # must still report the failure, not end in an INTERNALERROR.
    (tmp_path / "test_prop.py").write_text(FAILING_PROPERTY)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), str(tmp_path / "test_prop.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout
    assert "1 failed" in proc.stdout, proc.stdout
    assert proc.returncode == 1
