"""The test suite's own pytest settings (pyproject.toml)."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_example_does_not_end_the_session(tmp_path):
    # with every warning an error, Hypothesis's patch suggestion for a failing
    # example raised one inside a pytest hook: INTERNALERROR, and the tests
    # after it never ran
    (tmp_path / "test_probe.py").write_text(_PROBE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in output, output
