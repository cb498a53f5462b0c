"""The pytest settings in pyproject.toml must let a failing property test
report its falsifying example."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 5
'''


def test_failing_property_test_shows_its_falsifying_example(tmp_path):
    # hypothesis imports libcst to explain a failure; under the
    # error::DeprecationWarning filter that import used to end the run in
    # an INTERNALERROR in place of the example
    (tmp_path / "test_fails.py").write_text(FAILING, encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT),
                           "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
                           "test_fails.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
