"""Each narrative demo runs to completion against the package sources."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import package_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=package_env(),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
