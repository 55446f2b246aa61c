"""Command-line entry point: batch experiments driven by a JSON config.

Subcommands::

    simulate    manifests x traces x policies grid -> logs, records, summary
    mpc-table   build and persist the offline MPC lookup table
    qoe         score session records under the configured QoE models
    subjective  ratings post-processing -> MOS, sensitivities, CDFs
    stats       correlation criteria and significance matrices
    traces      ingest/window/filter raw bandwidth traces

Every command is deterministic given the config and overwrites its
outputs atomically; every CSV table goes through ``_write_csv``, and
library functions return values, not CSV text. Grid cells fail in
isolation and run through one function, serially or with ``--jobs``,
so both give the same bytes; the exit code is 0 only when every cell
succeeded.

Config values are checked, not coerced, through ``checks`` and the
config classes that use it; a key that a config block or entry does not
take is an error. Each command checks its config before it runs any
cell, bin or record and before it writes any output; a bad value, like
a missing file, exits 2 with a message naming the key (or the file and
line).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import csv
import dataclasses
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import abr, checks, media, nettrace, qoe, search, simulator, stats, subjective


def _read_text(path: str, what: str) -> str:
    p = Path(path)
    if not p.is_file():  # a directory too: reading it would raise IsADirectoryError
        raise FileNotFoundError(f"{what} file not found: {p}")
    return p.read_text()


@contextlib.contextmanager
def _replacing(path: Path):
    """A temporary path beside ``path``; it replaces ``path`` when the block ends, and is removed if the block fails."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        yield tmp
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _atomic_write(path: Path, data: str | bytes) -> None:
    with _replacing(path) as tmp, open(tmp, "wb" if isinstance(data, bytes) else "w") as fh:
        fh.write(data)


def _write_csv(path: Path, header, rows) -> None:
    """Every CSV table a command writes: minimal RFC 4180 quoting, floats in repr form, None as an empty field."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


def _load_config(path: str) -> dict:
    text = _read_text(path, "config")
    with checks.naming(f"config {path} is not valid JSON", json.JSONDecodeError):
        config = json.loads(text)
    if not isinstance(config, dict):
        raise ValueError(f"config {path} must be a JSON object")
    return config


def _block(config: dict, key: str) -> dict:
    """A config block, checked to be a JSON object; a missing block is empty."""
    block = config.get(key, {})
    if not isinstance(block, dict):
        raise ValueError(f"{key} must be a JSON object, got {block!r}")
    return block


def _list(config: dict, key: str, what: str) -> list:
    """Config list ``key`` (``manifests``, ``policies``, ...), checked to be a JSON list; a missing key is empty."""
    value = config.get(key, [])
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list of {what}, got {value!r}")
    return value


def _directory(config: dict, key: str, default: str) -> Path:
    """The directory named by config key ``key`` (``out_dir``, ``records_dir``), checked to be a path string."""
    return Path(checks.path(key, config.get(key, default)))


def _out_dir(config: dict, args) -> Path:
    """Where a command writes: ``--out``, else the config's ``out_dir`` (checked either way), else ``out``."""
    out_dir = _directory(config, "out_dir", "out")
    return Path(args.out) if args.out else out_dir


def _pick(block: dict, keys) -> dict:
    """The entries of ``block`` under ``keys``; the classes they are passed to check them."""
    return {k: block[k] for k in keys if k in block}


def _dedupe(names: list[str]) -> list[str]:
    """Distinct names, so grid cells never collide on disk: a repeat of ``n`` becomes ``n_2``, ``n_3``, ..."""
    out: list[str] = []
    taken: set[str] = set()
    for name in names:
        unique, k = name, 1
        while unique in taken:  # also skips a suffixed name that an input already has
            k += 1
            unique = f"{name}_{k}"
        taken.add(unique)
        out.append(unique)
    return out


def _load_manifest(i: int, path) -> media.Manifest:
    checks.path(f"manifests[{i}]", path)
    with checks.naming(f"manifests[{i}] ({path})"):
        return media.parse_manifest(_read_text(path, "manifest"))


def _load_traces(block: dict, key: str) -> list[tuple[str, str, nettrace.Trace]]:
    """(distinct stem, path, trace) per entry of config list ``key``: a path, or a ``path`` and a ``format``."""
    loaded = []
    for i, entry in enumerate(_list(block, key, "trace entries")):
        entry = {"path": entry} if isinstance(entry, str) else entry
        if not isinstance(entry, dict):
            raise ValueError(f"{key}[{i}] must be a path or an object with a 'path', got {entry!r}")
        checks.known_keys(f"{key}[{i}]", entry, ("path", "format"))
        text = _read_text(checks.path(f"{key}[{i}] path", entry.get("path")), "trace")
        with checks.naming(f"{key}[{i}] ({entry['path']})"):
            loaded.append((entry["path"], nettrace.parse_trace(text, entry.get("format", "pairs"))))
    names = _dedupe([Path(path).stem for path, _ in loaded])
    return [(name, path, trace) for name, (path, trace) in zip(names, loaded)]


def _player_config(block: dict) -> simulator.PlayerConfig:
    """Keys left out take the config classes' defaults; the classes check every value."""
    channel_keys, player_keys = ("rtt_s", "loop_trace"), ("max_buffer_s", "initial_rep", "drop_first_chunk")
    checks.known_keys("player", block, channel_keys + player_keys)
    channel = nettrace.ChannelConfig(**_pick(block, channel_keys))
    return simulator.PlayerConfig(channel=channel, **_pick(block, player_keys))


def _run_cell(manifest: media.Manifest, trace: nettrace.Trace, checked, player: simulator.PlayerConfig):
    """One grid cell: ``(log, record)``, or the cell's error text; it decides with a fresh copy of ``checked``."""
    try:
        policy = dataclasses.replace(checked)  # no policy state crosses cells
        try:
            log = simulator.run_session(manifest, trace, policy, player)
        finally:
            if hasattr(policy, "close"):
                policy.close()
        return log, simulator.to_record(log, manifest, player)
    except Exception as exc:  # a cell fails in isolation
        return str(exc)


def cmd_simulate(config: dict, args) -> int:
    out_dir = _out_dir(config, args)
    player = _player_config(_block(config, "player"))
    manifest_paths = _list(config, "manifests", "manifest paths")
    manifests = [_load_manifest(i, p) for i, p in enumerate(manifest_paths)]
    for j, manifest in enumerate(manifests):  # run_session's checks of the player, before any cell runs
        try:
            player.check_fits(manifest)
        except ValueError as exc:
            raise ValueError(f"manifests[{j}] ({manifest_paths[j]}): player.{exc}") from exc
    manifests = list(zip(_dedupe([Path(p).stem for p in manifest_paths]), manifests))
    traces = _load_traces(config, "traces")
    policies, names = [], []  # every policy entry checked once, before any cell runs
    for i, spec in enumerate(_list(config, "policies", "policy entries")):
        if not (isinstance(spec, dict) and "id" in spec):
            raise ValueError(f"policies[{i}] must be an object with an 'id', got {spec!r}")
        with checks.naming(f"policies[{i}] ({spec['id']})", (OSError, ValueError)):  # OSError: a table file
            policy = abr.make_policy(spec)  # an external entry starts no child here
        policies.append(policy)
        for j, (_, manifest) in enumerate(manifests if hasattr(policy, "check_fits") else ()):
            with checks.naming(f"policies[{i}] ({spec['id']}) cannot play manifests[{j}] ({manifest_paths[j]})"):
                policy.check_fits(manifest)  # a fixed rung, an exact horizon or a table that this manifest takes
        name = spec.get("name", f"{spec['id']}{i}")
        if not (isinstance(name, str) and name and Path(name).name == name):  # a name is part of file names
            raise ValueError(f"policies[{i}] ({spec['id']}): name must be a non-empty string without '/', "
                             f"got {name!r}")
        names.append(name)
    if not manifests or not traces or not policies:
        raise ValueError("simulate needs manifests, traces and policies in the config")

    cells = [(m, manifest, t, trace, p, policy) for m, manifest in manifests
             for t, _, trace in traces for p, policy in zip(_dedupe(names), policies)]
    cell_ids = [f"{m}__{t}__{p}" for m, _, t, _, p, _ in cells]
    if len(set(cell_ids)) < len(cells):  # names holding "__" can join into another cell's id
        raise ValueError(f"two grid cells share the id {next(c for c in cell_ids if cell_ids.count(c) > 1)!r}")
    work = [(manifest, trace, policy, player) for _, manifest, _, trace, _, policy in cells]
    if args.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(_run_cell, *w) for w in work]
            # a worker that dies fails only the cells whose futures hold its error
            outcomes = [f.result() if f.exception() is None else str(f.exception()) for f in futures]
    else:
        outcomes = [_run_cell(*w) for w in work]

    rows = []
    failed = 0
    for cell_id, (m, _, t, _, p, _), outcome in zip(cell_ids, cells, outcomes):
        if not isinstance(outcome, str):
            log, record = outcome
            _atomic_write(out_dir / "logs" / f"{cell_id}.log.json", simulator.log_to_json(log))
            _atomic_write(out_dir / "records" / f"{cell_id}.record.json", simulator.record_to_json(record))
            rates = [b / 1000.0 for b in record.bitrates_kbps]
            switch = sum(abs(b - a) for a, b in zip(rates, rates[1:]))
            rows.append((
                cell_id, m, t, p, "ok", sum(record.bitrates_kbps) / len(record.bitrates_kbps),
                record.total_stall_s, len(record.stalls), switch, log.startup_delay_s, log.total_wall_time_s, None,
            ))
        else:
            failed += 1
            rows.append((cell_id, m, t, p, "error", None, None, None, None, None, None, outcome))

    header = ("cell_id", "manifest", "trace", "policy", "status", "avg_bitrate_kbps", "total_stall_s",
              "stall_count", "switch_magnitude_mbps", "startup_delay_s", "total_wall_time_s", "error")
    _write_csv(out_dir / "summary.csv", header, rows)
    print(f"simulate: {len(cells) - failed}/{len(cells)} cells ok -> {out_dir}")
    return 1 if failed else 0


def cmd_mpc_table(config: dict, args) -> int:
    out_path = _out_dir(config, args) / "mpc_table.bin"
    block = _block(config, "mpc_table")
    # keys left out take the classes' defaults; max_buffer_s caps both the buffer axis and the objective
    binning_keys = ("tput_bins", "buffer_bins", "tput_max_kbps", "max_buffer_s")
    objective_keys = ("lambda_switch", "mu_rebuf", "horizon", "rtt_s", "max_buffer_s")
    checks.known_keys("mpc_table", block, binning_keys + objective_keys + ("segment_duration_s", "ladder_kbps"))
    binning = search.TableBinning(**_pick(block, binning_keys))
    params = search.MpcObjectiveParams(**_pick(block, objective_keys))
    segment_duration_s = checks.positive("segment_duration_s", block.get("segment_duration_s", 4.0))
    ladder_kbps = search.check_table(binning, block.get("ladder_kbps", search.DEFAULT_LADDER_KBPS), params.horizon)
    cell_count = binning.tput_bins * binning.buffer_bins * len(ladder_kbps)
    print(f"cells: {cell_count} ({binning.tput_bins}x{binning.buffer_bins}x{len(ladder_kbps)})")
    # through ``abr`` and with ``progress`` unset: perfbench's traced run wraps it there to time every bin
    table = abr.build_mpc_table(params, binning, ladder_kbps=ladder_kbps, segment_duration_s=segment_duration_s,
                                jobs=args.jobs)
    with _replacing(out_path) as tmp:
        abr.save_table(table, tmp)
    print(f"mpc-table: wrote {out_path}")
    return 0


def cmd_qoe(config: dict, args) -> int:
    out_dir = _out_dir(config, args)
    records_dir = _directory(config, "records_dir", str(out_dir / "records"))
    if not records_dir.is_dir():  # a regular file too: globbing it finds nothing to score
        raise FileNotFoundError(f"records directory not found: {records_dir}")
    models = []  # (id, checked params): every entry is checked before any record is scored
    specs = _list(config, "qoe_models", "model entries") if "qoe_models" in config else [
        {"id": model_id} for model_id in sorted(qoe.MODELS)
    ]
    if not specs:
        raise ValueError("qoe_models must hold one or more model entries, got []: nothing to score")
    for i, spec in enumerate(specs):
        if not (isinstance(spec, dict) and isinstance(spec.get("id"), str)):
            raise ValueError(f"qoe_models[{i}] must be an object with a string 'id', got {spec!r}")
        with checks.naming(f"qoe_models[{i}] ({spec['id']})"):
            models.append((spec["id"], qoe.model_params(spec["id"], {k: v for k, v in spec.items() if k != "id"})))
    paths = sorted(records_dir.glob("*.record.json"), key=str)  # one directory: the order of Path's own sort
    if not paths:
        raise ValueError(f"no *.record.json file in {records_dir}: nothing to score")
    records = []  # (video id, record): every record is read and checked before any is scored
    for path in paths:
        with checks.naming(str(path)):
            records.append((path.name[: -len(".record.json")], simulator.record_from_json(path.read_text())))
    rows = []
    failed = 0
    for video_id, record in records:
        for model_id, params in models:
            try:
                rows.append((video_id, model_id, qoe.evaluate(model_id, record, params)))
            except Exception as exc:
                failed += 1
                print(f"qoe: {video_id}/{model_id} failed: {exc}", file=sys.stderr)
    if args.format == "json":
        payload = [{"video_id": v, "model_id": m, "score": s} for v, m, s in rows]
        _atomic_write(out_dir / "qoe_scores.json", json.dumps(payload))
    else:
        _write_csv(out_dir / "qoe_scores.csv", ("video_id", "model_id", "score"), rows)
    print(f"qoe: scored {len(rows)} (record, model) pairs -> {out_dir}")
    return 1 if failed else 0


def cmd_subjective(config: dict, args) -> int:
    out_dir = _out_dir(config, args)
    block = _block(config, "subjective")
    inputs = ("ratings_csv", "video_meta_csv", "keystrokes_csv", "stall_events_csv", "anchors_csv")
    checks.known_keys("subjective", block, inputs + ("keystroke_tol_s", "auxiliary_threshold", "min_set"))
    if "ratings_csv" not in block:
        raise ValueError("subjective block needs ratings_csv")
    for key in inputs:
        if key in block:
            checks.path(key, block[key])
    for given, missing in (("keystrokes_csv", "stall_events_csv"), ("stall_events_csv", "keystrokes_csv")):
        if given in block and missing not in block:
            raise ValueError(f"subjective block has {given} but not {missing}; the keystroke screen needs both")
    tol_s = checks.nonnegative("keystroke_tol_s", block.get("keystroke_tol_s", 2.0))
    threshold = checks.nonnegative("auxiliary_threshold", block.get("auxiliary_threshold", 0.10))
    min_set = checks.count("min_set", block.get("min_set", 30))

    def load(reader, key: str, what: str):
        return reader(_read_text(block[key], what), block[key])  # errors name the file and line

    matrix = load(subjective.load_ratings_csv, "ratings_csv", "ratings")
    video_meta = {}
    if "video_meta_csv" in block:
        video_meta = load(subjective.load_video_meta_csv, "video_meta_csv", "video meta")
    if "keystrokes_csv" in block:
        events = load(subjective.load_keystrokes_csv, "keystrokes_csv", "keystrokes")
        onsets = load(subjective.load_stall_events_csv, "stall_events_csv", "stall events")
        videos_of = {
            s: [v for j, v in enumerate(matrix.videos) if not np.isnan(matrix.raw[i, j])]
            for i, s in enumerate(matrix.subjects)
        }
        accuracy = subjective.keystroke_accuracy(events, onsets, videos_of, tol_s=tol_s)
    else:
        accuracy = {s: 1.0 for s in matrix.subjects}
    anchors = load(subjective.load_anchors_csv, "anchors_csv", "anchors") if "anchors_csv" in block else None

    keep = subjective.reject_auxiliary(matrix, accuracy, threshold=threshold)
    matrix = subjective.subset_matrix(matrix, keep)
    z = subjective.z_normalize(matrix)
    keep2 = subjective.reject_bt500(z)
    matrix = subjective.subset_matrix(matrix, keep2)
    z = z[np.asarray(keep2, dtype=bool), :]

    outputs = []
    if anchors is not None:
        mos, mappings = subjective.realign(matrix, z, anchors)
        _write_csv(out_dir / "mos.csv", ("video_id", "mos"), sorted(mos.items()))
        _write_csv(out_dir / "realign_mappings.csv", ("day", "slope", "intercept"),
                   [(d, a, b) for d, (a, b) in sorted(mappings.items())])
        outputs.append("mos.csv")

    if video_meta:
        partitions = subjective.partition_sessions(video_meta)
        report = subjective.build_sensitivity_report(matrix, partitions, min_set=min_set)
        sets = ("q_r_bar", "q_r", "q_q", "q_q_bar", "q_a", "q_a_bar")
        header = ("subject_id", "s_r", "s_q", "s_a", "n_r_bar", "n_r", "n_q", "n_q_bar", "n_a", "n_a_bar")
        _write_csv(out_dir / "sensitivity.csv", header,
                   [(r.subject, r.s_r, r.s_q, r.s_a, *(r.set_sizes[k] for k in sets)) for r in report])
        outputs.append("sensitivity.csv")

    cdf = subjective.personal_mean_cdf(matrix)
    _write_csv(out_dir / "personal_mean_cdf.csv", ("device", "mean_rating", "cdf"),
               [(device, m, c) for device in sorted(cdf) for m, c in zip(*cdf[device])])
    outputs.append("personal_mean_cdf.csv")
    print(f"subjective: kept {len(matrix.subjects)} subjects -> {', '.join(outputs)} in {out_dir}")
    return 0


def _load_scores_csv(text: str, source: str) -> tuple[dict[str, dict[str, float]], list[str]]:
    """Scores per method per item, and the items in first-seen order."""
    by_method: dict[str, dict[str, float]] = {}
    items: dict[str, None] = {}  # an ordered set
    for line, (item, method, score) in subjective.csv_rows(text, ("item_id", "method", "score"), "scores"):
        by_method.setdefault(method, {})[item] = subjective.csv_number(score, "score", source, line)
        items[item] = None
    return by_method, list(items)


def cmd_stats(config: dict, args) -> int:
    out_dir = _out_dir(config, args)
    block = _block(config, "stats")
    checks.known_keys("stats", block, ("scores_csv", "mos_csv", "test", "alpha"))
    for key in ("scores_csv", "mos_csv"):
        if key not in block:
            raise ValueError(f"stats block needs {key}")
        checks.path(key, block[key])
    test = block.get("test", "f_test")
    if test not in stats.TESTS:
        raise ValueError(f"test must be one of {stats.TESTS}, got {test!r}")
    alpha = checks.between("alpha", block.get("alpha", 0.05), 0.0, 1.0, exclusive=True)
    by_method, items = _load_scores_csv(_read_text(block["scores_csv"], "scores"), block["scores_csv"])
    mos_rows = subjective.csv_rows(_read_text(block["mos_csv"], "mos"), ("item_id", "mos"), "mos")
    mos_by_item = {item: subjective.csv_number(mos, "mos", block["mos_csv"], line) for line, (item, mos) in mos_rows}
    items = [i for i in items if i in mos_by_item]
    if not items:
        raise ValueError(f"no scored item in {block['scores_csv']} has a MOS in {block['mos_csv']}")
    mos = np.array([mos_by_item[i] for i in items])
    if mos.min() == mos.max():  # every method's fit would fail on it
        raise ValueError(f"{block['mos_csv']}: all {len(items)} scored items have the MOS {mos[0]}")

    correlations = []
    samples = {}  # what the significance test compares, per method
    for method in sorted(by_method):
        missing = [i for i in items if i not in by_method[method]]
        if missing:
            raise ValueError(f"{block['scores_csv']}: method {method} has no score for item {missing[0]}")
        scores = np.array([by_method[method][i] for i in items])
        with checks.naming(f"{block['scores_csv']}: method {method}"):  # e.g. constant scores
            fit = stats.fit_logistic(scores, mos)  # one fit per method, for PLCC and the F-test alike
            correlations.append((method, stats.plcc(fit.mapped, mos), stats.srcc(scores, mos), stats.krcc(scores, mos)))
        samples[method] = fit.mapped - mos if test == "f_test" else scores
    matrix = stats.build_significance_matrix(samples, test=test, alpha=alpha)  # it may refuse a pair: no file yet

    _write_csv(out_dir / "correlations.csv", ("method", "plcc", "srcc", "krcc"), correlations)
    if args.format == "json":
        payload = {"labels": list(matrix.labels), "cells": [list(r) for r in matrix.cells]}
        _atomic_write(out_dir / "significance.json", json.dumps(payload))
    else:
        _write_csv(out_dir / "significance.csv", ("", *matrix.labels), matrix.glyph_rows())
    _atomic_write(out_dir / "significance.md", matrix.to_markdown())
    print(f"stats: {len(samples)} methods over {len(items)} items -> {out_dir}")
    return 0


def cmd_traces(config: dict, args) -> int:
    out_dir = _out_dir(config, args)
    block = _block(config, "traces_ingest")
    checks.known_keys("traces_ingest", block, ("inputs", "window_s", "stride_s", "min_avg_kbps"))
    if block.get("inputs", []) == []:  # a missing or empty list leaves nothing to window
        raise ValueError("traces_ingest block needs one or more inputs")
    window_s = checks.positive("window_s", block.get("window_s", 55.0))
    stride_s = checks.positive("stride_s", block.get("stride_s", window_s))
    min_avg = checks.nonnegative("min_avg_kbps", block.get("min_avg_kbps", 200.0))
    inputs = []  # (name, path, windows): every input's windowing is checked before any window is written
    for i, (name, path, trace) in enumerate(_load_traces(block, "inputs")):
        with checks.naming(f"inputs[{i}] ({path})"):
            inputs.append((name, path, nettrace.window_traces(trace, window_s=window_s, stride_s=stride_s)))
    index = []
    kept_count = 0
    for name, path, windows in inputs:
        for w_idx, window in enumerate(windows):
            mean = window.mean_kbps()
            # strictly above the floor: where even the lowest rung stalls, bitrate selection is trivial;
            # the index records the flag of every window, kept or not
            kept = mean > min_avg
            trace_id = f"{name}_w{w_idx:03d}"
            index.append((trace_id, path, w_idx * stride_s, mean, int(kept)))
            if kept:
                kept_count += 1
                _atomic_write(out_dir / "traces" / f"{trace_id}.csv", nettrace.serialize_trace(window))
    _write_csv(out_dir / "trace_index.csv", ("trace_id", "source", "start_offset_s", "mean_kbps", "kept"), index)
    print(f"traces: kept {kept_count} windows -> {out_dir}")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "mpc-table": cmd_mpc_table,
    "qoe": cmd_qoe,
    "subjective": cmd_subjective,
    "stats": cmd_stats,
    "traces": cmd_traces,
}

# option -> (its value when not given, the commands that read it); any other command refuses it
SCOPED_OPTIONS = {"jobs": (1, ("simulate", "mpc-table")), "format": ("csv", ("qoe", "stats"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="abrbench", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--jobs", type=int, help="parallel grid cells or table throughput bins (simulate, mpc-table)")
    parser.add_argument("--out", default=None, help="override the config output directory")
    parser.add_argument("--format", choices=("csv", "json"), help="table format, csv by default (qoe, stats)")
    args = parser.parse_args(argv)
    try:
        if args.jobs is not None and args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        for option, (default, readers) in SCOPED_OPTIONS.items():
            if getattr(args, option) is None:
                setattr(args, option, default)
            elif args.command not in readers:
                raise ValueError(f"--{option} is read only by {' and '.join(readers)}, not by {args.command}")
        config = _load_config(args.config)
        return COMMANDS[args.command](config, args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"abrbench {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
