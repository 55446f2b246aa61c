"""The exact search stays behind one module boundary.

``search`` holds the enumeration kernel, the objectives and the FastMPC
table; ``abr`` holds the state, the predictors and the policies, and
imports ``search``. ``search`` importing ``abr`` or ``cli`` would make
the two one module again, and a moved name defined a second time in
``abr`` would be a second copy of the search.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "abrbench"

MOVED = {
    "_check_search", "_MAX_SEQUENCES", "_FOLD_ENTRIES", "_constant_scores", "_Pruner", "_enumerate",
    "_PRICE_STEPS", "_mpc_objective", "_rdos_objective", "_decisions",
    "MpcObjectiveParams", "RdosParams", "_check_horizon_params",
    "TableBinning", "LookupTable", "_bin_index", "_SLAB_ROWS", "_MAX_TABLE_CELLS", "check_table", "_table_bin",
    "build_mpc_table", "save_table", "load_table",
}


def _tree(module: str) -> ast.Module:
    path = PACKAGE / f"{module}.py"
    return ast.parse(path.read_text(), str(path))


def imported_modules(tree: ast.Module) -> set[str]:
    """The last dotted part of every module an import names, and every name a ``from . import`` takes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                names.add(node.module.split(".")[-1])
            if not node.module or node.module == "abrbench":  # from . import x / from abrbench import x
                names.update(alias.name for alias in node.names)
    return names


def defined_names(tree: ast.Module) -> set[str]:
    """Every top-level function, class and assigned name of a module."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name))
    return names


def test_search_imports_neither_abr_nor_cli():
    assert imported_modules(_tree("search")) & {"abr", "cli"} == set()
    assert "search" in imported_modules(_tree("abr"))  # the direction the boundary allows


def test_abr_defines_none_of_the_search_names():
    assert defined_names(_tree("abr")) & MOVED == set()
    assert MOVED <= defined_names(_tree("search"))


def test_the_guards_see_an_import_and_a_definition():
    # a guard that parses nothing passes any module
    tree = ast.parse("from . import abr\nfrom .cli import main\nimport abrbench.media\n_FOLD_ENTRIES = 1\n"
                     "def _enumerate():\n    pass\nclass _Pruner:\n    pass\n")
    assert {"abr", "cli", "media"} <= imported_modules(tree)
    assert {"_FOLD_ENTRIES", "_enumerate", "_Pruner"} <= defined_names(tree)
