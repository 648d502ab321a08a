"""Every demo script runs to completion against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_cleanly(script):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_demos_are_found():
    assert len(DEMOS) >= 6
