"""The pytest settings of pyproject.toml report a failing test and run the rest."""

import pathlib
import subprocess
import sys

_PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

_PROBE = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    """With filterwarnings = ["error"] alone, Hypothesis's plugin raised a
    DeprecationWarning while it reported the failing example: pytest stopped
    with INTERNALERROR, printed "1 failed" and never ran the passing test."""
    probe = tmp_path / "test_probe.py"
    probe.write_text(_PROBE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(_PYPROJECT), "--rootdir", str(tmp_path), str(probe)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
    assert run.returncode == 1, out
