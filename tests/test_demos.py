"""The demos that exercise the public API run cleanly."""

from __future__ import annotations

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_api_demos_run() -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    for name in ("build_and_classify.py", "decompose_and_replay.py", "mine_obstructions.py"):
        proc = subprocess.run(
            [sys.executable, os.path.join(REPO_ROOT, "demos", name)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )
        assert proc.returncode == 0, (name, proc.stderr)
        assert proc.stdout.strip(), name
