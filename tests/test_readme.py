"""The README's examples run as written, and the names that star imports,
the benchmark and the scripts read from the package exist."""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("module", ["positroids", "positroids.cm", "positroids.numeric"])
def test_star_imports_find_every_public_name(module):
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    assert set(importlib.import_module(module).__all__) <= set(namespace)


def test_the_benchmark_and_scripts_find_every_name_they_read():
    # perfbench reads the package as ``p`` (or ``self.p``); scripts import names
    importlib.import_module("positroids.cli")  # perfbench binds p.cli this way
    wanted = set()
    for path in (ROOT / "perfbench" / "workloads.py", ROOT / "perfbench" / "selftest.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and ast.unparse(node.value) in ("p", "self.p"):
                wanted.add(("positroids", node.attr))
    for path in sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("positroids"):
                wanted.update((node.module, alias.name) for alias in node.names)
    assert {("positroids", "cli"), ("positroids", "mutation_class"), ("positroids.numeric", "sample_generic_matrix")} <= wanted
    assert sorted((m, name) for m, name in wanted if not hasattr(importlib.import_module(m), name)) == []
