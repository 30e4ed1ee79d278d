"""The benchmark harness's traced run, which patches every absaudit module."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# `--trace 1` looks up each traced module in `sys.modules` by name, so every
# one of them must be there after the workload's commands have run, whether
# or not they used it.
@pytest.mark.parametrize("workload", ["structural", "distribution"])
def test_a_small_traced_run_is_correct(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1", "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True
