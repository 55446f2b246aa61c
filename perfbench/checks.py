"""Output checks that feed ``error_rate``.

Two kinds of check run on every pass:

* properties that need no reference, for any seed: every expected cell,
  (record, model) pair and table entry is present and valid; every log
  satisfies total_wall_time_s = startup + content + stalls; and the
  ``simulate --jobs 1`` and ``--jobs 2`` output trees are byte-identical;
* a digest of the outputs against ``reference/<workload>.json``: for
  the seed the reference was recorded with, every output; for any other
  seed, the outputs in ``SEED_FREE``, whose inputs the seed does not
  change. Decisions, table entries and significance cells must match
  exactly; floating-point outputs within ``REL_TOL``, so a sum regrouped
  with only last-bit differences passes.

Every failed check is charged to one operation of the ``Tally``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12
LONG_SPAN_STRIDE = 60  # the long-session digest keeps every 60th download span
SEED_FREE = ("table.build",)  # the table's inputs are pinned


def _num(text: str):
    """A CSV cell as a float when it is one, including the ``np.float64(x)`` form numpy 2 reprs."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    try:
        return float(text)
    except ValueError:
        return text


def _csv_rows(path: Path) -> list[list]:
    with open(path, newline="") as fh:
        return [[_num(c) for c in row] for row in csv.reader(fh)]


def same(a, b) -> bool:
    """Structural equality; floats within REL_TOL, everything else exact."""
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def _log_digest(log: dict, stride: int) -> dict:
    spans = log["download_spans"]
    digest = {
        "choices": "".join(chr(ord("a") + c - 1) for c in log["choices"]),
        "stalls": log["stalls"] if stride == 1 else [len(log["stalls"]), math.fsum(d for _, d in log["stalls"])],
        "startup_delay_s": log["startup_delay_s"],
        "total_wall_time_s": log["total_wall_time_s"],
    }
    if stride == 1:
        digest["download_spans"] = spans
    else:
        digest["download_spans"] = spans[::stride] + [spans[-1]]
        digest["download_s"] = math.fsum(b - a for a, b in spans)
    return digest


def _simulate(plan, pdir: Path, labels, tally, prefix, obs) -> None:
    seg = plan["segment_duration_s"]
    stride = LONG_SPAN_STRIDE if plan["workload"] == "long_session" else 1
    for label in labels:
        sdir = pdir / plan["simulate_dirs"][label]
        rows = {}
        if (sdir / "summary.csv").exists():
            rows = {r[0]: r for r in _csv_rows(sdir / "summary.csv")[1:]}
        for cell in plan["cells"]:
            op = f"{prefix}{label}.{cell}"
            tally.attempt(op)
            row = rows.get(cell)
            if row is None or row[4] != "ok":
                tally.fail(op, "cell missing or not ok in summary.csv")
                continue
            try:
                log = json.loads((sdir / "logs" / f"{cell}.log.json").read_text())
                choices = log["choices"]
            except (OSError, ValueError, KeyError) as exc:
                tally.fail(op, f"unreadable log: {exc}")
                continue
            if len(choices) != plan["chunks_per_cell"] or not all(1 <= c <= plan["rungs"] for c in choices):
                tally.fail(op, "wrong chunk count or rung out of range")
            expect = log["startup_delay_s"] + len(choices) * seg + sum(d for _, d in log["stalls"])
            if not math.isclose(log["total_wall_time_s"], expect, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                tally.fail(op, f"total_wall_time_s {log['total_wall_time_s']!r} != startup+content+stalls {expect!r}")
            if label == "simulate":
                obs[f"simulate.{cell}"] = _log_digest(log, stride)
    if len(labels) == 2:  # serial and --jobs 2 trees must be byte-identical
        j1, j2 = (pdir / plan["simulate_dirs"][label] for label in labels)
        for cell in plan["cells"]:
            for sub, suffix in (("logs", ".log.json"), ("records", ".record.json")):
                a, b = j1 / sub / f"{cell}{suffix}", j2 / sub / f"{cell}{suffix}"
                if a.exists() and b.exists() and a.read_bytes() != b.read_bytes():
                    tally.fail(f"{prefix}{labels[1]}.{cell}", f"{sub} differs from the serial run")
        a, b = j1 / "summary.csv", j2 / "summary.csv"
        if not (a.exists() and b.exists() and a.read_bytes() == b.read_bytes()):
            tally.fail(f"{prefix}cmd.{labels[1]}", "summary.csv differs from the serial run")


def _qoe(plan, pdir: Path, tally, prefix, obs) -> None:
    spec = plan["qoe"]
    path = pdir / spec["dir"] / "qoe_scores.csv"
    scores = {}
    if path.exists():
        scores = {(r[0], r[1]): r[2] for r in _csv_rows(path)[1:]}
    keep = 1 if plan["workload"] == "grid" else 5  # reference digest keeps every 5th record
    for i, record in enumerate(spec["records"]):
        for model in spec["models"]:
            op = f"qoe.{record}|{model}"
            tally.attempt(prefix + op)
            value = scores.get((record, model))
            if not isinstance(value, float) or not math.isfinite(value):
                tally.fail(prefix + op, "score missing or not finite")
            elif i % keep == 0:
                obs[op] = value


def _stats(plan, pdir: Path, tally, prefix, obs) -> None:
    sdir = pdir / plan["stats_dir"]
    try:
        obs["cmd.stats"] = {
            "correlations": _csv_rows(sdir / "correlations.csv"),
            "significance": _csv_rows(sdir / "significance.csv"),
        }
    except FileNotFoundError as exc:
        tally.fail(prefix + "cmd.stats", f"missing output {exc.filename}")


def _subjective(plan, pdir: Path, tally, prefix, obs) -> None:
    sdir = pdir / plan["subjective_dir"]
    try:
        obs["cmd.subjective"] = {
            name: _csv_rows(sdir / name)
            for name in ("mos.csv", "realign_mappings.csv", "sensitivity.csv", "personal_mean_cdf.csv")
        }
    except FileNotFoundError as exc:
        tally.fail(prefix + "cmd.subjective", f"missing output {exc.filename}")


def _table(plan, pdir: Path, tally, prefix, obs) -> None:
    op = prefix + "table.build"
    tally.attempt(op)
    path = pdir / plan["table_dir"] / "mpc_table.bin"
    if not path.exists():
        tally.fail(op, "no table written")
        return
    try:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            blob = fh.read()
        shape = [len(header["tput_edges"]) - 1, len(header["buffer_edges"]) - 1, len(header["ladder_kbps"])]
    except (ValueError, KeyError, TypeError) as exc:
        tally.fail(op, f"unreadable table: {exc}")
        return
    if shape[0] * shape[1] * shape[2] != plan["table_cells"] or len(blob) != plan["table_cells"]:
        tally.fail(op, f"table shape {shape} does not hold {plan['table_cells']} cells")
    elif not all(1 <= v <= shape[2] for v in blob):
        tally.fail(op, "table entry outside the ladder")
    obs["table.build"] = {"shape": shape, "entries": blob.hex()}


def check_pass(plan: dict, pass_result: dict, tally) -> dict:
    """Charge one pass's operations to ``tally``; return its output digest keyed by operation."""
    prefix = f"p{pass_result['index']}:"
    pdir = Path(pass_result["dir"])
    obs: dict = {}
    ran = set()
    for step in pass_result["steps"]:
        op = f"{prefix}cmd.{step['label']}"
        tally.attempt(op)
        ran.add(step["label"])
        if step["rc"] != 0:
            tally.fail(op, step["error"] or f"exit code {step['rc']}")
    labels = [label for label in ("simulate", "simulate_jobs2") if label in ran]
    if labels:
        _simulate(plan, pdir, labels, tally, prefix, obs)
    if "qoe" in ran:
        _qoe(plan, pdir, tally, prefix, obs)
    if "stats" in ran:
        _stats(plan, pdir, tally, prefix, obs)
    if "subjective" in ran:
        _subjective(plan, pdir, tally, prefix, obs)
    if "mpc_table" in ran:
        _table(plan, pdir, tally, prefix, obs)
    return obs


def reference_scope(reference: dict | None, seed: int) -> str:
    """Which outputs the reference checks for ``seed``: all, the seed-free ones, or none."""
    if reference is None:
        return "none"
    if reference["seed"] == seed:
        return "all"
    return "seed-free" if any(op in SEED_FREE for op in reference["outputs"]) else "none"


def compare_reference(obs: dict, reference: dict, seed: int, tally, prefix: str) -> None:
    """Fail every operation whose digest differs from the recorded one."""
    for op, expected in reference["outputs"].items():
        if op not in obs:
            continue  # a missing output already failed its operation
        if reference["seed"] != seed and op not in SEED_FREE:
            continue  # recorded from other inputs
        if not same(obs[op], expected):
            tally.fail(prefix + op, "output differs from the reference")
