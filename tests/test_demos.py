"""Every demo runs to completion in a fresh interpreter.

The demos import public names from the package, so one that a refactor
removed or renamed fails here instead of on a reader's machine.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import timingq

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero_with_empty_stderr(demo, tmp_path):
    src = Path(timingq.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "TIMINGQ_OUTDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
