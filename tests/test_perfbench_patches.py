"""The benchmark's traced run still measures the policy and table layers.

``perfbench/worker.py::_patch_table`` wraps ``abr.make_policy``,
``abr.build_mpc_table`` and ``abr.save_table`` as attributes of ``abr``,
where the CLI looks them up, and times each table bin through
``build_mpc_table``'s ``progress`` callback. If a command stopped
calling one of them through ``abr``, or a function moved to another
module, its row would read 0 and no benchmark check would fail. This
test installs the traced wrappers, runs a 2x2 ``mpc-table`` and a
``simulate`` with an ``mpc_table`` entry through ``cli.main``, and
asserts that each row saw its calls.

It runs in a child process: perfbench's top-level ``checks`` and
``metrics`` modules would otherwise shadow other modules of those names
in this test session.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from abrbench import media, nettrace

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import worker
from spans import Tracer

cli, _ = worker.import_cli()
tracer = Tracer()
with worker.Patched(worker._patch_table(tracer)):
    codes = [cli.main(["mpc-table", "--config", sys.argv[2], "--out", sys.argv[4]]),
             cli.main(["simulate", "--config", sys.argv[3], "--out", sys.argv[4]])]
spans = {}
for name, *_ in tracer.finished():
    spans[name] = spans.get(name, 0) + 1
print(json.dumps({"codes": codes, "spans": spans, "samples": {k: len(v) for k, v in tracer.samples.items()}}))
"""


def test_the_traced_run_wraps_the_policy_and_table_functions_the_cli_calls(tmp_path):
    out = tmp_path / "out"
    (tmp_path / "manifest.json").write_text(media.serialize_manifest(media.synthetic_manifest(segments=4)))
    (tmp_path / "trace.csv").write_text(nettrace.serialize_trace(nettrace.Trace(((0.0, 3000.0),), 60.0)))
    table_cfg, sim_cfg = tmp_path / "table.json", tmp_path / "simulate.json"
    table_cfg.write_text(json.dumps({"mpc_table": {"tput_bins": 2, "buffer_bins": 2, "horizon": 1}}))
    sim_cfg.write_text(json.dumps({"manifests": [str(tmp_path / "manifest.json")],
                                   "traces": [str(tmp_path / "trace.csv")],
                                   "policies": [{"id": "mpc_table", "table": str(out / "mpc_table.bin")}]}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench"), str(table_cfg), str(sim_cfg), str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["codes"] == [0, 0]
    assert seen["spans"]["abr.make_policy"] == 1  # one per policy entry
    assert seen["spans"]["abr.build_mpc_table"] == seen["spans"]["abr.save_table"] == 1
    assert seen["samples"]["abr.table_bin"] == 2  # one per throughput bin
