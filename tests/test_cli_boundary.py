"""Every config value that a command reads is checked before any cell, bin, record or output.

One Hypothesis test sets one value to one of a fixed list and runs the
command through ``cli.main``: a field of a ``simulate`` policy entry
(its ``params`` and ``ksqi`` fields included) or ``player`` key, an
``mpc_table`` key, a QoE model entry's ``id`` or coefficient, a
``stats`` key or a ``traces_ingest`` key. The command must exit 0, or
exit 2 with one ``abrbench <command>:`` line on stderr that names the
key as a whole word, and write nothing. A fixed ``rep_index`` of 20, an exact
``horizon`` of 7 or 20 on the 10-segment manifest, and any
``params.ksqi`` of ``rdos`` used to fail every cell with exit 1 and
write the outputs; a ``window_s`` longer than the trace and an unknown
QoE model ``id`` were refused without naming the key. ``external``
entries are left out: their child would start only at the first
decision. Path-valued keys are left out too.
"""

import contextlib
import dataclasses
import inspect
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from abrbench import abr, cli, media, nettrace, qoe

from test_cli import write_stats_inputs

VALUES = [None, True, "x", -1, 0, 1.5, math.nan, math.inf, [], {}, [1], 7, 20, 10**12]

ENTRY_FIELDS = {
    "fixed": ["rep_index"],
    "rate_based": ["window", "strict"],
    "buffer_based": ["reservoir_s", "cushion_s"],
    "mpc_exact": ["params", *(("params", f.name) for f in dataclasses.fields(abr.MpcObjectiveParams))],
    "mpc_table": ["table"],
    "rdos": ["params", "ksqi", *(("params", f.name) for f in dataclasses.fields(abr.RdosParams)),
             *(("ksqi", f.name) for f in dataclasses.fields(qoe.KsqiParams))],
}
PLAYER_KEYS = ["rtt_s", "loop_trace", "max_buffer_s", "initial_rep", "drop_first_chunk"]
TABLE_KEYS = ["tput_bins", "buffer_bins", "tput_max_kbps", "max_buffer_s", "lambda_switch", "mu_rebuf", "horizon",
              "rtt_s", "segment_duration_s", "ladder_kbps"]
# each built-in QoE model's coefficients: ksqi's are the KsqiParams fields, the others' their keyword arguments
MODEL_KEYS = {
    model_id: [f.name for f in dataclasses.fields(qoe.KsqiParams)] if model_id == "ksqi"
    else list(inspect.signature(fn).parameters)[1:]
    for model_id, fn in qoe.MODELS.items()
}

# (command, policy id, the path of the key in that policy's entry or in the player or mpc_table block)
TARGETS = (
    [("simulate", kind, (key,) if isinstance(key, str) else key)
     for kind, keys in ENTRY_FIELDS.items() for key in ["id", "name", *keys]]
    + [("simulate", "rate_based", ("player", key)) for key in PLAYER_KEYS]
    + [("mpc-table", None, ("mpc_table", key)) for key in TABLE_KEYS]
    + [("qoe", model_id, ("qoe_models", key)) for model_id, keys in MODEL_KEYS.items() for key in ["id", *keys]]
    + [("stats", None, ("stats", key)) for key in ["test", "alpha"]]
    + [("traces", None, ("traces_ingest", key)) for key in ["window_s", "stride_s", "min_avg_kbps"]]
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A 10-segment manifest on the 13-rung ladder, a 100 s trace, a table built for that manifest, the records
    of one session per policy family, and two methods' scores with their MOS."""
    root = tmp_path_factory.mktemp("inputs")
    (root / "manifest.json").write_text(media.serialize_manifest(media.synthetic_manifest(segments=10)))
    (root / "trace.csv").write_text(nettrace.serialize_trace(nettrace.Trace(((0.0, 3000.0),), 100.0)))
    abr.save_table(abr.build_mpc_table(abr.MpcObjectiveParams(horizon=1), abr.TableBinning(2, 2)), root / "t.bin")
    sim = {"manifests": [str(root / "manifest.json")], "traces": [str(root / "trace.csv")],
           "policies": [{"id": "rate_based"}, {"id": "buffer_based"}, {"id": "fixed", "rep_index": 13}]}
    (root / "simulate.json").write_text(json.dumps(sim))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--config", str(root / "simulate.json"), "--out", str(root / "sim")]) == 0
    write_stats_inputs(root)
    return root


def _config(inputs: Path, command: str, kind, path, value) -> dict:
    blocks = {
        "mpc_table": {"tput_bins": 2, "buffer_bins": 2, "horizon": 2},
        "stats": {"scores_csv": str(inputs / "scores.csv"), "mos_csv": str(inputs / "mos.csv")},
        "traces_ingest": {"inputs": [str(inputs / "trace.csv")]},
    }
    if path[0] in blocks:
        return {path[0]: {**blocks[path[0]], path[1]: value}}
    if command == "qoe":
        return {"records_dir": str(inputs / "sim" / "records"), "qoe_models": [{"id": kind, path[1]: value}]}
    entry = {"id": kind, **({"table": str(inputs / "t.bin")} if kind == "mpc_table" else {})}
    config = {"manifests": [str(inputs / "manifest.json")], "traces": [str(inputs / "trace.csv")],
              "policies": [entry], "player": {}}
    block = config["player"] if path[0] == "player" else entry
    for key in path[int(path[0] == "player"):-1]:
        block = block.setdefault(key, {})
    block[path[-1]] = value
    return config


# the budget covers every (target, value) pair, 1,302 of them, in about 5 s on 2 cores
@settings(max_examples=1400, deadline=None, derandomize=True)
@given(st.sampled_from(TARGETS), st.sampled_from(VALUES))
def test_a_config_value_runs_or_is_refused_before_any_output(inputs, target, value):
    command, kind, path = target
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "config.json", Path(tmp) / "out"
        cfg.write_text(json.dumps(_config(inputs, command, kind, path, value)))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main([command, "--config", str(cfg), "--out", str(out)])
        err = stderr.getvalue()
        assert code in (0, 2), err
        if code == 2:
            assert err.count("\n") == 1 and err.startswith(f"abrbench {command}: "), err
            assert re.search(rf"(?<!\w){re.escape(path[-1])}(?!\w)", err), err  # the key as a whole word
            assert not out.exists()
