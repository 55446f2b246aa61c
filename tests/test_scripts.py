"""The experiment scripts use only the public library surface, and run end to end."""

import ast
import subprocess
import sys
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


def test_demo_grid_runs_end_to_end(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "demo_grid.py"
    proc = subprocess.run([sys.executable, str(script), str(tmp_path)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    table = (
        "| | rate_based | buffer_based | fastmpc | rdos |\n"
        "|---|---|---|---|---|\n"
        "| rate_based | - | - | - | 0 |\n"
        "| buffer_based | - | - | 0 | 0 |\n"
        "| fastmpc | - | 1 | - | 0 |\n"
        "| rdos | 1 | 1 | 1 | - |\n"
    )
    assert f"Wilcoxon significance matrix (1 = row beats column):\n{table}" in proc.stdout
    assert (tmp_path / "out" / "policy_significance.md").read_text() == table
    assert "simulate: 36/36 cells ok" in proc.stdout and "qoe: scored 324 (record, model) pairs" in proc.stdout
