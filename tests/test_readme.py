"""The README's examples run as written, the names that star imports,
the benchmark and the scripts read from the package exist, and every
exported name has a reader."""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
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


def benchmark_and_script_reads() -> set[tuple[str, str]]:
    """(module, name) for each ``p.<name>`` (or ``self.p.<name>``) that perfbench
    reads, ``p`` being the package, and for each name a script imports."""
    wanted = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and ast.unparse(node.value) in ("p", "self.p"):
                wanted.add(("positroids", node.attr))
    for path in sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("positroids"):
                wanted.update((node.module, alias.name) for alias in node.names)
    return wanted


def test_the_benchmark_and_scripts_find_every_name_they_read():
    importlib.import_module("positroids.cli")  # perfbench binds p.cli this way
    wanted = benchmark_and_script_reads()
    assert {("positroids", "cli"), ("positroids", "mutation_class"), ("positroids.numeric", "sample_generic_matrix")} <= wanted
    assert sorted((m, name) for m, name in wanted if not hasattr(importlib.import_module(m), name)) == []


# Exported names that nothing in src/, scripts/ or perfbench/ reads, each with the reason it stays
UNREAD_EXPORTS = {
    "is_cluster_tilting_collection": "the paper's cluster-tilting condition on U, stated once",
    "noncrossing": "the chord test that rank-one extensions vanish by; cm reads its mask form",
    "square_move": "the one square move; tests compare it with reference_square_move",
    "reverse_necklace": "the reverse necklace, which the twist's bases (ROADMAP item 12) read",
}


def loaded_names(tree: ast.AST) -> set[str]:
    """Names loaded as a variable or an attribute outside the def or class of
    that name.  A name that a string or a docstring only mentions is not read."""

    def loads(node: ast.AST) -> Counter:
        found = (n for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in found)

    total = loads(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            total[node.name] -= loads(node)[node.name]
    return {name for name, count in total.items() if count > 0}


def test_every_exported_name_has_a_reader():
    modules = ("positroids", "positroids.cm", "positroids.numeric")
    exported = {name for m in modules for name in importlib.import_module(m).__all__}
    read = {name for _, name in benchmark_and_script_reads()}
    for path in [*(ROOT / "src" / "positroids").glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
        read |= loaded_names(ast.parse(path.read_text()))
    assert sorted(exported - read - UNREAD_EXPORTS.keys()) == []
    assert sorted(UNREAD_EXPORTS.keys() - (exported - read)) == []  # an entry goes once its name has a reader
