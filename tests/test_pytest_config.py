"""The pytest configuration turns warnings into errors, yet a failing
Hypothesis test is reported as one failure and the run goes on."""

import subprocess
import sys
from pathlib import Path

_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_TWO_TESTS = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_given_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_two.py").write_text(_TWO_TESTS)
    argv = [sys.executable, "-m", "pytest", "-c", str(_PYPROJECT), "-p", "no:cacheprovider",
            "-q", "test_two.py"]
    # run in tmp_path, where Hypothesis writes its database and patch file
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in done.stdout
