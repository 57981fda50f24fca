"""The repository's pytest settings: warnings are errors, and a failing test still lets the session go on."""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_end_the_session(tmp_path) -> None:
    # the hypothesis plugin reports a failure through a deprecated
    # mypy_extensions name; that one warning must not stop the tests after it
    (tmp_path / "test_two.py").write_text(_TWO_TESTS)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert "INTERNALERROR" not in out.stdout + out.stderr, out.stdout + out.stderr
    assert out.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), out.stdout
