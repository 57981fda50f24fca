"""The demos that exercise the public API run cleanly."""

from __future__ import annotations

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_DEMOS = (
    "build_and_classify.py",
    "decompose_and_replay.py",
    "mine_obstructions.py",
    "anticircuit_triangle.py",
    "verify_suites.py",
)


def test_api_demos_run() -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    stdout = {}
    for name in _DEMOS:
        proc = subprocess.run(
            [sys.executable, os.path.join(REPO_ROOT, "demos", name)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )
        assert proc.returncode == 0, (name, proc.stderr)
        assert proc.stdout.strip(), name
        stdout[name] = proc.stdout.splitlines()
    # the D5 anchor of the ferrers-two-switch theorem row, read through the
    # row tests behind has_two_switch and has_anticircuit
    anticircuit = stdout["anticircuit_triangle.py"]
    assert "two-pattern restatement: 14 counterexamples with n <= 5" in anticircuit
    assert "three-pattern restatement: 0 counterexamples with n <= 5" in anticircuit
