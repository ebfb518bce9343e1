"""Every name a module imports is used in it: a stale import outlives the
code that needed it and misleads the reader about what a module depends on.
Names the package lists in `__all__` are its exports, not stale."""
import ast
from pathlib import Path

import geams_sim

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/geams_sim/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement in `source` that no expression in
    it reads; `from __future__` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_finds_an_unused_import():
    source = ("import os\nimport a.b\nfrom x import y as z, w\n"
              "from __future__ import annotations\nw\n")
    assert unused_imports(source) == ["line 1: os", "line 2: a", "line 3: z"]


def test_no_unused_imports():
    assert FILES
    stale = []
    for path in FILES:
        names = unused_imports(path.read_text())
        if path.name == "__init__.py":
            names = [n for n in names if n.split(": ")[1] not in geams_sim.__all__]
        stale += [f"{path.relative_to(ROOT)}: {n}" for n in names]
    assert stale == []
