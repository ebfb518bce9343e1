"""Every test the CI workflow names exists: pytest exits with code 4 when a
node id on its command line names no test, which would fail a step for a
renamed or deleted test rather than for a fault."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_test_the_workflow_names_exists():
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    named = re.findall(r"\b(tests/\w+\.py)(?:::(\w+))?", text)  # file[::name]
    assert any(name for _, name in named)
    for file, name in named:
        path = ROOT / file
        assert path.is_file(), file
        if name:
            tree = ast.parse(path.read_text())
            defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert name in defined, f"{file}::{name}"
