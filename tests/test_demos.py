"""Each script under ``demo/`` runs to completion (exit 0) in a child process
that imports ``pce`` from ``src/``, as the README presents them."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demo").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    done = subprocess.run(
        [sys.executable, "-W", "error", str(script)], cwd=tmp_path, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_readme_quotes_the_pixel_corruption_tables(tmp_path):
    # README's "Reproduction status" shows the demo's tables as they are printed
    done = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demo" / "pixel_corruption.py")], cwd=tmp_path,
        capture_output=True, text=True, timeout=120, check=True,
    )
    rows = [line for line in done.stdout.splitlines() if line.startswith("| ")]
    assert len(rows) == 28
    readme = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    assert [row for row in rows if row not in readme] == []
