"""Names that other files refer to exist.  Every test the CI workflow names
exists: pytest exits with code 4 when a node id on its command line names no
test, which would fail a step for a renamed or deleted test rather than for a
fault.  Every entry point the benchmark's tracer wraps exists too: the
tracer's own self-test is not in tier 1."""
import ast
import importlib
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


def test_every_entry_point_the_tracer_wraps_exists():
    """perfbench/spans.py's ENTRY_POINTS, read without importing perfbench:
    each (owner path, attribute) names an attribute of geams_sim."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    [points] = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["ENTRY_POINTS"]]
    assert points
    for owner_path, attr, _, _ in points:
        package, module, *names = owner_path.split(".")
        assert package == "geams_sim", owner_path
        owner = importlib.import_module(f"{package}.{module}")
        for name in names:
            owner = getattr(owner, name)
        assert hasattr(owner, attr), f"{owner_path}.{attr}"
