"""The benchmark's own test: `python3 -m pytest perfbench` from the repo root.

Runs `run.py --self-check`, which runs every workload at its smallest sizes
in fresh processes and checks that every metric of BENCHMARK.json is printed
with its unit, that only the corpus's known-defect jobs fail, and that two
traced runs with one seed count the same work.
"""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_self_check():
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--self-check"],
                          capture_output=True, text=True, timeout=600, cwd=HERE.parent)
    assert done.returncode == 0, done.stdout + done.stderr
