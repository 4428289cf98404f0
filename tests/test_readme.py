"""The README's examples run as written."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_tour_runs():
    tour = (ROOT / "README.md").read_text().split("## Quick tour", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", tour.split("\n## ", 1)[0], re.S)
    proc = subprocess.run(
        [sys.executable, "-c", block],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
