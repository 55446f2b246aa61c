"""Every command's output bytes, pinned.

One small fixed config runs through all six commands into a fresh
directory: ``mpc-table``; ``simulate`` with every policy type, serially
and with ``--jobs 2``; ``qoe`` with all nine built-in models (CSV and
JSON); ``subjective`` with anchors, video meta and keystrokes; ``stats``
with each significance test (CSV and JSON); and ``traces``. The sha256 of
every file written is compared with ``golden_digests.json``; the
``--jobs 2`` tree of ``simulate`` must hold the serial tree's bytes.

The digests belong to the toolchain the manifest names. On another
Python, numpy or scipy the test fails and names both toolchains: float
results may differ in the last bit there, and the digests are then
re-recorded on purpose, in the change that moves the toolchain.

A change that alters an output on purpose re-records the manifest with
``PYTHONPATH=src python tests/test_golden_outputs.py`` and says why it did.
"""

import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from abrbench import cli
from test_cli import SUBJECTIVE_EXTRAS, make_subjective_fixture, write_inputs, write_stats_inputs

MANIFEST = Path(__file__).resolve().parent / "golden_digests.json"

# a constant-rung policy child: one JSON line in, one rung out
EXTERNAL_CHILD = "import sys\nfor line in sys.stdin:\n    print(3, flush=True)\n"

# (mean quality, quality std, stall s) of v0..v9: three videos in each of q_r_bar, q_r, q_q, q_a_bar,
# two in q_q_bar and q_a, so with min_set 3 s_r is a number and s_q, s_a are missing
VIDEO_META = [(80, 2, 0)] * 3 + [(80, 2, 5)] * 3 + [(40, 2, 0)] * 2 + [(80, 20, 0)] * 2


def toolchain() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _run(*argv) -> None:
    rc = cli.main([str(a) for a in argv])
    assert rc == 0, f"abrbench {' '.join(map(str, argv))} exited {rc}"


def run_every_command(work: Path) -> dict[str, str]:
    """Run each command on the fixed inputs under ``work``; sha256 per output file, by path under ``work/out``.

    Paths in configs are relative to ``work`` (the caller's working directory), so no
    output that names an input file, such as ``trace_index.csv``, depends on where ``work`` is.
    """
    work = Path(os.path.relpath(work))
    manifests, traces = write_inputs(work, n_manifests=1, n_traces=2, segments=6)
    out = work / "out"

    table_cfg = _write_json(work / "table.json", {"mpc_table": {"tput_bins": 4, "buffer_bins": 5, "horizon": 3}})
    _run("mpc-table", "--config", table_cfg, "--out", out / "table")

    (work / "child.py").write_text(EXTERNAL_CHILD)
    policies = [
        {"id": "fixed", "rep_index": 4},
        {"id": "rate_based"},
        {"id": "buffer_based"},
        {"id": "mpc_exact", "params": {"horizon": 4}},
        {"id": "mpc_table", "table": str(out / "table" / "mpc_table.bin")},
        {"id": "rdos", "params": {"horizon": 3}},
        {"id": "external", "command": [sys.executable, str(work / "child.py")]},
    ]
    sim_cfg = _write_json(work / "simulate.json", {"manifests": manifests, "traces": traces, "policies": policies})
    _run("simulate", "--config", sim_cfg, "--out", out / "serial")
    _run("simulate", "--config", sim_cfg, "--out", out / "jobs2", "--jobs", 2)

    qoe_cfg = _write_json(work / "qoe.json", {"records_dir": str(out / "serial" / "records")})
    _run("qoe", "--config", qoe_cfg, "--out", out / "qoe")
    _run("qoe", "--config", qoe_cfg, "--out", out / "qoe", "--format", "json")

    ratings, anchors = make_subjective_fixture(work)
    block = {"ratings_csv": str(ratings), "anchors_csv": str(anchors), "min_set": 3}
    meta = "video_id,mean_quality,quality_std,total_stall_s,first_quality,last_quality\n" + "".join(
        f"v{j},{m},{s},{st},{m},{m}\n" for j, (m, s, st) in enumerate(VIDEO_META))
    for name, text in {**SUBJECTIVE_EXTRAS, "video_meta_csv": meta}.items():
        (work / f"{name}.csv").write_text(text)
        block[name] = str(work / f"{name}.csv")
    _run("subjective", "--config", _write_json(work / "subjective.json", {"subjective": block}),
         "--out", out / "subjective")

    stats_cfg = write_stats_inputs(work)
    stats_block = json.loads(stats_cfg.read_text())["stats"]
    for test in ("wilcoxon", "f_test"):
        cfg = _write_json(work / f"stats_{test}.json", {"stats": {**stats_block, "test": test}})
        _run("stats", "--config", cfg, "--out", out / f"stats_{test}")
        _run("stats", "--config", cfg, "--out", out / f"stats_{test}", "--format", "json")

    raw = work / "raw.txt"
    raw.write_text("".join(f"{1000 + 150 * (k % 7) if k < 14 else 90 + k}\n" for k in range(30)))
    ingest = {"inputs": [{"path": str(raw), "format": "granular_5s"}], "window_s": 40.0, "stride_s": 25.0}
    _run("traces", "--config", _write_json(work / "traces.json", {"traces_ingest": ingest}), "--out", out / "traces")

    digests = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }
    parallel = {name[len("jobs2/"):]: digests.pop(name) for name in list(digests) if name.startswith("jobs2/")}
    serial = {name[len("serial/"):]: digest for name, digest in digests.items() if name.startswith("serial/")}
    assert parallel == serial, "simulate --jobs 2 wrote other bytes than the serial run"
    return digests


def test_every_command_writes_its_pinned_bytes(tmp_path, monkeypatch):
    golden = json.loads(MANIFEST.read_text())
    assert golden["toolchain"] == toolchain(), (
        f"the digests were recorded on {golden['toolchain']}, this is {toolchain()}; "
        "re-record them in the change that moves the toolchain"
    )
    monkeypatch.chdir(tmp_path)
    got = run_every_command(tmp_path)
    changed = {name: (golden["digests"].get(name), got.get(name))
               for name in sorted(set(golden["digests"]) | set(got))
               if golden["digests"].get(name) != got.get(name)}
    assert not changed, f"output bytes moved (file: (pinned, now)): {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        digests = run_every_command(Path(tmp))
    MANIFEST.write_text(json.dumps({"toolchain": toolchain(), "digests": digests}, indent=1) + "\n")
    print(f"recorded {len(digests)} digests in {MANIFEST}")
