"""Every public name in the package is reached from the package or a script.

A public module-level function or class of ``src/abrbench/*.py`` must
be referenced (as a name or an attribute) somewhere in
``src/abrbench/*.py`` or ``scripts/*.py`` outside its own definition; a
public method of one such class must be referenced there as an
attribute (``x.method``), since a bare name of the same spelling is some
other local. Re-exports in ``__init__.py`` do not count: they are
imports, not uses. A name that only tests reach is code that
no command or script runs; it goes, or a command starts using it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "abrbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _definitions(module: str, tree: ast.Module):
    """(qualified name, definition node, the use kinds that reach it) of each public top-level
    function or class and public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node, (ast.Name, ast.Attribute)
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item, ast.Attribute


def unreached_names() -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    uses = [  # (identifier, kind, file, line) of every name or attribute read or written outside __init__.py
        (node.id if isinstance(node, ast.Name) else node.attr, type(node), path, node.lineno)
        for path, tree in trees.items() if path.name != "__init__.py"
        for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
    ]
    unreached = []
    for path, tree in trees.items():
        for qualified, node, kinds in _definitions(path.stem, tree):
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and issubclass(kind, kinds) and not (where == path and line in inside)
                       for name, kind, where, line in uses):
                unreached.append(qualified)
    return unreached


def test_every_public_name_is_reached_by_the_package_or_a_script():
    assert unreached_names() == []
