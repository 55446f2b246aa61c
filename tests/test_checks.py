"""The parameter-value checks, that no other module defines its own, and one way to start workers."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from abrbench import checks, media, simulator

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "abrbench").glob("*.py"))


def _own_checks(path):
    """Names in ``path`` that define or reach for a scalar number, count or flag check."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute) and node.attr in ("Real", "Integral"):
            if isinstance(node.value, ast.Name) and node.value.id == "numbers":
                yield f"numbers.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
            yield from (f"numbers.{a.name}" for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "_number" or node.name.startswith("_require_"):
                yield node.name


def test_only_checks_module_defines_value_checks():
    others = [path for path in MODULES if path.name != "checks.py"]
    assert len(others) == len(MODULES) - 1 > 0
    found = {path.name: list(_own_checks(path)) for path in others}
    assert found == {path.name: [] for path in others}


def _worker_start_choices(path):
    """Places in ``path`` that import ``multiprocessing`` or pick a worker start method."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.split(".")[0] == "multiprocessing")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "multiprocessing":
            yield node.module
        elif isinstance(node, ast.keyword) and node.arg == "mp_context":
            yield "mp_context="
        elif "get_context" in (getattr(node, "attr", None), getattr(node, "id", None)):  # attribute or name
            yield "get_context"


def test_workers_start_one_way():
    # --jobs pools are concurrent.futures.ProcessPoolExecutor(jobs) with the platform's start method
    found = {path.name: list(_worker_start_choices(path)) for path in MODULES}
    assert found == {path.name: [] for path in MODULES}


@pytest.mark.parametrize("check", [checks.nonnegative, checks.positive])
def test_reals_come_back_as_floats(check):
    for value in (60, np.int64(60), 60.0, np.float64(60.0)):
        out = check("x", value)
        assert type(out) is float and out == 60.0
    for bad in (True, False, "60", None, math.nan, math.inf, -1.0, [60]):
        with pytest.raises(ValueError, match="x must be finite"):
            check("x", bad)
    assert checks.nonnegative("x", 0) == 0.0
    with pytest.raises(ValueError):
        checks.positive("x", 0)


def test_finite_numbers_and_instances():
    for value in (-3, np.int64(2), -0.5, np.float64(1e300)):
        assert type(checks.finite("x", value)) is float
    for bad in (True, "1", None, math.nan, math.inf, -math.inf, [1.0]):
        with pytest.raises(ValueError, match="x must be a finite number"):
            checks.finite("x", bad)
    table = checks.instance(dict)
    assert table("t", {}) == {}
    with pytest.raises(ValueError, match=r"t must be a dict, got \[\]"):
        table("t", [])


def test_between_bounds():
    assert checks.between("q", 0, 0.0, 100.0) == 0.0 and checks.between("q", 100, 0.0, 100.0) == 100.0
    for bad in (-0.1, 100.5, math.nan, True, "50"):
        with pytest.raises(ValueError, match=r"q must be a number in \[0.0, 100.0\]"):
            checks.between("q", bad, 0.0, 100.0)
    assert checks.between("alpha", 0.05, 0.0, 1.0, exclusive=True) == 0.05
    for bad in (0, 1, 0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match=r"alpha must be a number in \(0.0, 1.0\)"):
            checks.between("alpha", bad, 0.0, 1.0, exclusive=True)


def test_counts_and_flags():
    assert checks.count("n", 3) == 3 and checks.count("n", np.int64(3)) == 3
    for bad in (0, -1, 2.0, 2.5, True, "3", None):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            checks.count("n", bad)
    assert checks.flag("f", True) is True and checks.flag("f", False) is False
    for bad in (1, 0, "true", None):
        with pytest.raises(ValueError, match="f must be true or false"):
            checks.flag("f", bad)


def test_known_keys_names_the_first_unknown_one():
    checks.known_keys("block", {"a": 1}, ("a", "b"))
    with pytest.raises(ValueError, match="unknown key 'c' in block; expected one of \\['a', 'b'\\]"):
        checks.known_keys("block", {"a": 1, "c": 2, "d": 3}, ("a", "b"))


def test_each_checks_every_item_and_names_the_first_bad_one():
    check = checks.each(checks.positive)
    assert check("xs", [1, 2.5]) == (1.0, 2.5) and check("xs", ()) == ()
    with pytest.raises(ValueError, match=r"xs\[2\] must be finite and > 0, got 0"):
        check("xs", [1.0, 2.0, 0, -1.0])
    for bad in ("12", 1.0, None, {1.0: 2.0}):
        with pytest.raises(ValueError, match="xs must be a list"):
            check("xs", bad)


def test_commands_are_non_empty_lists_of_strings():
    # a string command was split into characters by the qoe command and ran its first letter
    assert checks.command("command", ["python", "x.py"]) == ["python", "x.py"]
    for bad in ("python x.py", [], ("python",), ["python", 3], None):
        with pytest.raises(ValueError, match="command must be a non-empty list of strings"):
            checks.command("command", bad)


def _outcome(check, *args):
    """What a check gives: ("ok", the result) or ("error", its ValueError text)."""
    try:
        return "ok", check(*args)
    except ValueError as exc:
        return "error", str(exc)


NEXT_ABOVE_100 = math.nextafter(100.0, 200.0)
# each case is checked as a whole list of qualities and as one of bitrates; plain floats in range pass in one pass
ONE_PASS_CASES = [
    [50.0, math.nan], [math.inf], [-math.inf], [60.0, math.inf], [True], [50.0, False], [50, 60], [50.0, 60],
    [-0.0], [0.0], [100.0], [NEXT_ABOVE_100], [99.5, 100.0], ["50"], [50.0, None], [None], [], [np.float64(7.5)],
]


@pytest.mark.parametrize("values", ONE_PASS_CASES, ids=repr)
def test_one_pass_record_checks_match_the_per_item_checks(values):
    for one_pass, per_item, name in (
        (simulator._QUALITIES, checks.each(simulator._quality), "qualities"),
        (simulator._BITRATES, checks.each(checks.positive), "bitrates_kbps"),
    ):
        fast, slow = _outcome(one_pass, name, values), _outcome(per_item, name, values)
        assert fast == slow
        if fast[0] == "ok":
            assert all(type(x) is float for x in fast[1])
            assert [math.copysign(1.0, x) for x in fast[1]] == [math.copysign(1.0, x) for x in slow[1]]  # -0.0 stays
    if values:  # a record needs a segment; it stores what the checks return, or raises their message
        good_rates, good_qualities = [1000.0] * len(values), [50.0] * len(values)
        for field, checked in (("qualities", checks.each(simulator._quality)),
                               ("bitrates_kbps", checks.each(checks.positive))):
            args = {"qualities": good_qualities, "bitrates_kbps": good_rates, field: values}
            record = _outcome(lambda: simulator.SessionRecord(4.0, stalls=(), startup_delay_s=0.0, **args))
            made = (record[0], getattr(record[1], field)) if record[0] == "ok" else record
            assert made == _outcome(checked, field, values)


@pytest.mark.parametrize("values", [v for v in ONE_PASS_CASES if v], ids=repr)
def test_one_pass_manifest_check_matches_the_per_cell_checks(values):
    # one column of sizes and one of qualities: the case as sizes (with good qualities), then as qualities
    def matrices(sizes, qualities):
        manifest = media.Manifest(4.0, (media.Representation(1, 320, 180, 235.0),), sizes, qualities)
        return manifest.sizes, manifest.qualities

    column = [[v] for v in values]
    for sizes, qualities in ((column, [[50.0]] * len(values)), ([[1e6]] * len(values), column)):
        made = _outcome(matrices, sizes, qualities)
        assert made == _outcome(media._checked_cells, sizes, qualities)
        if made[0] == "ok":
            assert all(type(x) is float for row in made[1][0] + made[1][1] for x in row)


def test_floats_within_says_true_only_for_floats_in_range():
    assert checks.floats_within([0.0, -0.0, 100.0], 0.0, 100.0) and checks.floats_within([], 0.0, 1.0)
    assert not checks.floats_within([0.0], 0.0, 100.0, exclusive=True)
    assert checks.floats_within([5e-324, 1e308], 0.0, math.inf, exclusive=True)
    for bad in ([math.nan], [NEXT_ABOVE_100], [1], [True], [np.float64(1.0)], ["1"], [None]):
        assert not checks.floats_within(bad, 0.0, 100.0)
    assert not checks.floats_within([math.inf], 0.0, math.inf, exclusive=True)


def test_naming_prefixes_the_source_and_chains_the_cause():
    with pytest.raises(ValueError) as info, checks.naming("manifests[0] (m.json)"):
        raise ValueError("bad width")
    assert str(info.value) == "manifests[0] (m.json): bad width" and type(info.value) is ValueError
    assert str(info.value.__cause__) == "bad width"
    with pytest.raises(ValueError, match=r"^policies\[0\] \(x\): gone$") as info, \
            checks.naming("policies[0] (x)", (OSError, ValueError)):
        raise FileNotFoundError("gone")
    assert type(info.value.__cause__) is FileNotFoundError
    with pytest.raises(TypeError, match="^not named$"), checks.naming("where"):  # other errors pass as they are
        raise TypeError("not named")
    with checks.naming("where"):
        pass


def _chained_raises(path) -> int:
    """How many ``raise ... from <exception>`` statements ``path`` holds (``from None`` is no chain)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sum(isinstance(node, ast.Raise) and isinstance(node.cause, ast.Name) for node in ast.walk(tree))


def test_a_named_error_is_chained_in_naming_alone():
    # the one other chain joins its source with "player." instead of ": "
    found = {path.name: _chained_raises(path) for path in MODULES}
    assert {name: n for name, n in found.items() if n} == {"checks.py": 1, "cli.py": 1}
