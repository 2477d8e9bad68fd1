"""The repo's pytest options keep a failing test an ordinary failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after():
    pass
'''


def test_a_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    # hypothesis reports a failure through a module whose imports warn; with every warning an
    # error, that warning used to end the session with INTERNALERROR and skip the later tests
    (tmp_path / "test_probe.py").write_text(PROBE)
    argv = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, *argv, "test_probe.py"], cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1  # tests failed; 3 is an internal error
    assert "1 failed, 1 passed" in proc.stdout
