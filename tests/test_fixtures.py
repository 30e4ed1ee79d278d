"""The fixture generator reproduces every shipped data file byte for byte."""

from __future__ import annotations

import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = pathlib.Path("src") / "absaudit" / "data"


def _files(root: pathlib.Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_make_fixtures_reproduces_shipped_data(tmp_path):
    # The script writes next to itself, so it runs on a copy of the tree.
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for part in ("src", "tools"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=ignore)
    shutil.rmtree(tmp_path / DATA)
    subprocess.run(
        [sys.executable, "tools/make_fixtures.py"],
        cwd=tmp_path,
        check=True,
        capture_output=True,
    )
    regenerated = _files(tmp_path / DATA)
    shipped = _files(ROOT / DATA)
    assert sorted(regenerated) == sorted(shipped)
    for name, content in shipped.items():
        assert regenerated[name] == content, name
