"""Every demo script, and every Python block of the README, runs to completion
against the current library."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text("utf-8"),
                           flags=re.MULTILINE | re.DOTALL)
# The interpreter's arguments for each: a demo's path, or a README block as -c code.
SCRIPTS = [[str(demo)] for demo in DEMOS] + [["-c", block] for block in README_BLOCKS]
IDS = [d.stem for d in DEMOS] + [f"README-{i}" for i in range(1, len(README_BLOCKS) + 1)]


def test_the_readme_has_python_blocks():
    assert README_BLOCKS


@pytest.mark.parametrize("script", SCRIPTS, ids=IDS)
def test_demo_runs(script, tmp_path):
    proc = subprocess.run(
        [sys.executable, *script],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
