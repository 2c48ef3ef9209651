"""Smoke test: every script in demos/ runs to completion against the tree under test."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True,
        cwd=str(tmp_path), env=child_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
