"""The experiment scripts use only the public library surface."""

import ast
from pathlib import Path

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def _private_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "abrbench":
            yield from (f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_"))
        elif isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.startswith("abrbench") and "._" in a.name)


def test_scripts_import_no_private_names():
    assert SCRIPTS
    found = {path.name: list(_private_imports(path)) for path in SCRIPTS}
    assert found == {path.name: [] for path in SCRIPTS}
