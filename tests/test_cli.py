import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from abrbench import abr, cli, media, nettrace, qoe, search, simulator, stats, subjective


def write_inputs(tmp_path, n_manifests=1, n_traces=1, segments=6):
    manifests = []
    for i in range(n_manifests):
        m = media.synthetic_manifest(segments=segments, size_jitter=0.1, seed=i)
        path = tmp_path / f"manifest{i}.json"
        path.write_text(media.serialize_manifest(m))
        manifests.append(str(path))
    traces = []
    rates = [900.0, 2500.0, 5200.0, 1400.0, 700.0, 3600.0, 8000.0, 450.0, 6100.0]
    for j in range(n_traces):
        path = tmp_path / f"trace{j}.csv"
        path.write_text(f"0,{rates[j % len(rates)]}\n30,{rates[(j + 3) % len(rates)]}\n")
        traces.append({"path": str(path), "format": "pairs"})
    return manifests, traces


def run(args):
    return cli.main([str(a) for a in args])


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported by the functions that fit or evaluate distributions, not at startup
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, abrbench.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_simulate_single_cell(tmp_path):
    manifests, traces = write_inputs(tmp_path)
    config = {
        "manifests": manifests,
        "traces": traces,
        "policies": [{"id": "rate_based"}],
        "out_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert run(["simulate", "--config", cfg_path]) == 0
    logs = list((tmp_path / "out" / "logs").glob("*.log.json"))
    records = list((tmp_path / "out" / "records").glob("*.record.json"))
    assert len(logs) == 1 and len(records) == 1
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert len(summary) == 2
    assert summary[0].startswith("cell_id,manifest,trace,policy,status")


def test_simulate_grid_shape_and_determinism(tmp_path):
    manifests, traces = write_inputs(tmp_path, n_manifests=2, n_traces=3)
    config = {
        "manifests": manifests,
        "traces": traces,
        "policies": [{"id": "rate_based"}, {"id": "buffer_based"}],
        "out_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert run(["simulate", "--config", cfg_path]) == 0
    first = (tmp_path / "out" / "summary.csv").read_bytes()
    log_files = sorted((tmp_path / "out" / "logs").glob("*.log.json"))
    assert len(log_files) == 12
    first_logs = [f.read_bytes() for f in log_files]
    assert run(["simulate", "--config", cfg_path]) == 0
    assert (tmp_path / "out" / "summary.csv").read_bytes() == first
    assert [f.read_bytes() for f in sorted((tmp_path / "out" / "logs").glob("*.log.json"))] == first_logs


@pytest.mark.parametrize("jobs", [1, 2])
def test_simulate_cells_fail_in_isolation(tmp_path, jobs):
    manifests, traces = write_inputs(tmp_path)
    dead = tmp_path / "dead_trace.csv"
    dead.write_text("0,500\n")  # duration 1 s, no loop -> exhaustion
    config = {
        "manifests": manifests,
        "traces": traces + [{"path": str(dead), "format": "pairs"}],
        "policies": [{"id": "fixed", "rep_index": 1}],
        "player": {"loop_trace": False},
        "out_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    rc = run(["simulate", "--config", cfg_path, "--jobs", jobs])
    assert rc == 1
    rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
    statuses = sorted(r.split(",")[4] for r in rows)
    assert statuses == ["error", "ok"]


def test_simulate_parallel_matches_serial(tmp_path, capsys):
    manifests, traces = write_inputs(tmp_path, n_traces=2)
    config = {
        "manifests": manifests,
        "traces": traces,
        "policies": [{"id": "rate_based"}, {"id": "fixed", "rep_index": 2}],
        "out_dir": str(tmp_path / "serial"),
    }
    cfg = tmp_path / "c1.json"
    cfg.write_text(json.dumps(config))
    assert run(["simulate", "--config", cfg]) == 0
    config["out_dir"] = str(tmp_path / "parallel")
    cfg2 = tmp_path / "c2.json"
    cfg2.write_text(json.dumps(config))
    assert run(["simulate", "--config", cfg2, "--jobs", 2]) == 0
    assert (tmp_path / "serial" / "summary.csv").read_text() == (tmp_path / "parallel" / "summary.csv").read_text()
    for sub in ("logs", "records"):
        serial = {f.name: f.read_bytes() for f in (tmp_path / "serial" / sub).iterdir()}
        parallel = {f.name: f.read_bytes() for f in (tmp_path / "parallel" / sub).iterdir()}
        assert len(serial) == 4 and serial == parallel
    # a worker count below one is refused for every command, not run serially
    for command, jobs in (("simulate", 0), ("simulate", -3), ("stats", 0)):
        assert run([command, "--config", cfg2, "--jobs", jobs]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err


UNREAD_OPTIONS = [
    ("subjective", ["--format", "json"]),  # exited 0 and wrote CSV
    ("traces", ["--jobs", "2"]),  # exited 0 and ran serially
    ("simulate", ["--format", "csv"]),
    ("mpc-table", ["--format", "json"]),
    ("qoe", ["--jobs", "1"]),
    ("stats", ["--jobs", "2"]),
    ("subjective", ["--jobs", "1"]),
    ("traces", ["--format", "csv"]),
]


@pytest.mark.parametrize("command, option", UNREAD_OPTIONS, ids=[f"{c}{o[0]}" for c, o in UNREAD_OPTIONS])
def test_options_are_refused_by_the_commands_that_do_not_read_them(tmp_path, capsys, command, option):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"out_dir": str(tmp_path / "out")}))
    assert run([command, "--config", cfg, *option]) == 2
    assert f"abrbench {command}: {option[0]} is read only by " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("initial_rep", 1.9),  # was truncated to rung 1
        ("initial_rep", "2"),
        ("loop_trace", "false"),  # was read as True
        ("drop_first_chunk", "no"),
        ("max_buffer_s", None),  # was a TypeError traceback
        ("max_buffer_s", "60"),
        ("rtt_s", None),
        ("initial_rep", True),  # ran at rung 1
        ("max_buffer_s", True),
        ("rtt_s", True),
        ("max_bufer_s", 9),  # was ignored
    ],
)
def test_simulate_rejects_bad_player_values(tmp_path, capsys, key, value):
    manifests, traces = write_inputs(tmp_path)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "manifests": manifests,
        "traces": traces,
        "policies": [{"id": "rate_based"}],
        "player": {key: value},
        "out_dir": str(tmp_path / "out"),
    }))
    assert run(["simulate", "--config", cfg]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", [{"name": "no_id"}, "rate_based", None])
def test_simulate_rejects_policy_entries_without_id(tmp_path, capsys, bad):
    manifests, traces = write_inputs(tmp_path)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "manifests": manifests,
        "traces": traces,
        "policies": [{"id": "rate_based"}, bad],
        "out_dir": str(tmp_path / "out"),
    }))
    assert run(["simulate", "--config", cfg]) == 2
    assert "policies[1]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_mpc_table_build_and_reload(tmp_path):
    config = {
        "mpc_table": {"tput_bins": 6, "buffer_bins": 5, "tput_max_kbps": 8000.0, "horizon": 2},
        "out_dir": str(tmp_path / "out"),
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert run(["mpc-table", "--config", cfg]) == 0
    path = tmp_path / "out" / "mpc_table.bin"
    table = search.load_table(path)
    assert table.entries.shape == (6, 5, 13)
    rebuilt = search.build_mpc_table(
        search.MpcObjectiveParams(horizon=2),
        search.TableBinning(tput_bins=6, buffer_bins=5, tput_max_kbps=8000.0),
    )
    assert np.array_equal(table.entries, rebuilt.entries)
    # rebuild through the CLI is byte-identical
    first = path.read_bytes()
    assert run(["mpc-table", "--config", cfg]) == 0
    assert path.read_bytes() == first
    # throughput bins solved in two worker processes: same bytes
    assert run(["mpc-table", "--config", cfg, "--jobs", "2"]) == 0
    assert path.read_bytes() == first


def test_mpc_table_default_geometry_reported(tmp_path, capsys):
    # default binning announces the full 100x100x13 = 130,000 cells
    # before building; build itself is exercised on reduced binning
    config = {"mpc_table": {"tput_bins": 100, "buffer_bins": 100}, "out_dir": str(tmp_path)}
    binning = search.TableBinning()
    assert binning.tput_bins * binning.buffer_bins * 13 == 130_000
    assert len(binning.tput_edges()) == 101
    assert binning.tput_centers()[0] == pytest.approx(100.0)
    assert binning.buffer_centers()[0] == pytest.approx(0.3)


def test_mpc_table_malformed_binning(tmp_path):
    config = {"mpc_table": {"tput_bins": 0}, "out_dir": str(tmp_path)}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert run(["mpc-table", "--config", cfg]) == 2


def test_qoe_scores_match_library(tmp_path):
    manifests, traces = write_inputs(tmp_path)
    out = tmp_path / "out"
    config = {
        "manifests": manifests,
        "traces": traces,
        "policies": [{"id": "buffer_based"}],
        "out_dir": str(out),
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert run(["simulate", "--config", cfg]) == 0
    qoe_config = {
        "records_dir": str(out / "records"),
        "qoe_models": [{"id": "yin2015"}, {"id": "ksqi"}, {"id": "ftw"}],
        "out_dir": str(out),
    }
    cfg2 = tmp_path / "qoe.json"
    cfg2.write_text(json.dumps(qoe_config))
    assert run(["qoe", "--config", cfg2]) == 0
    rows = (out / "qoe_scores.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    record_path = next((out / "records").glob("*.record.json"))
    record = simulator.record_from_json(record_path.read_text())
    for row in rows:
        video_id, model_id, score = row.split(",")
        assert float(score) == pytest.approx(qoe.evaluate(model_id, record))


def test_qoe_external_stub_constant_column(tmp_path):
    manifests, traces = write_inputs(tmp_path)
    out = tmp_path / "out"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "manifests": manifests, "traces": traces,
        "policies": [{"id": "rate_based"}], "out_dir": str(out),
    }))
    assert run(["simulate", "--config", cfg]) == 0
    stub = tmp_path / "stub.py"
    stub.write_text("import sys, json\njson.load(sys.stdin)\nprint(7.25)\n")
    cfg2 = tmp_path / "qoe.json"
    cfg2.write_text(json.dumps({
        "records_dir": str(out / "records"),
        "qoe_models": [{"id": "ext", "command": [sys.executable, str(stub)]}],
        "out_dir": str(out),
    }))
    assert run(["qoe", "--config", cfg2]) == 0
    rows = (out / "qoe_scores.csv").read_text().splitlines()[1:]
    assert all(row.endswith(",7.25") for row in rows)


def test_qoe_external_command_does_not_leak_into_later_runs(tmp_path):
    manifests, traces = write_inputs(tmp_path)
    out = tmp_path / "out"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "manifests": manifests, "traces": traces,
        "policies": [{"id": "rate_based"}], "out_dir": str(out),
    }))
    assert run(["simulate", "--config", cfg]) == 0
    stub = tmp_path / "stub.py"
    stub.write_text("import sys, json\njson.load(sys.stdin)\nprint(-99.0)\n")
    ext_cfg = tmp_path / "ext.json"
    ext_cfg.write_text(json.dumps({
        "records_dir": str(out / "records"),
        "qoe_models": [{"id": "ksqi", "command": [sys.executable, str(stub)]}],
        "out_dir": str(tmp_path / "ext"),
    }))
    builtin_cfg = tmp_path / "builtin.json"
    builtin_cfg.write_text(json.dumps({
        "records_dir": str(out / "records"),
        "qoe_models": [{"id": "ksqi"}],
        "out_dir": str(tmp_path / "builtin"),
    }))
    assert run(["qoe", "--config", ext_cfg]) == 0
    assert run(["qoe", "--config", builtin_cfg]) == 0
    ext_rows = (tmp_path / "ext" / "qoe_scores.csv").read_text().splitlines()[1:]
    builtin_rows = (tmp_path / "builtin" / "qoe_scores.csv").read_text().splitlines()[1:]
    assert ext_rows and all(row.endswith(",ksqi,-99.0") for row in ext_rows)
    record_path = next((out / "records").glob("*.record.json"))
    record = simulator.record_from_json(record_path.read_text())
    assert builtin_rows == [f"{record_path.name[:-len('.record.json')]},ksqi,{qoe.qoe_ksqi(record)!r}"]


@pytest.mark.parametrize(
    "bad",
    [
        {"id": "yin2015", "lamb": 2},  # failed once per record, then exit 1 with an empty qoe_scores.csv
        {"id": "nonsense"},
        {"id": "ksqi", "lam": 1.0},
        {"id": "ksqi", "c0": -1.0},
        {"id": "ksqi", "beta_pos": True},
        {"name": "no_id"},
        "ksqi",
        {"id": "ksqi", "stall_table": {"x_grid": [0, 1], "y_grid": [0, 1], "values": [[0, 1], [1, 2]]}},  # exit 1
        {"id": "yin2015", "mu": True},  # scored with mu = 1
        {"id": "yin2015", "lam": "2"},  # a TypeError on every record
        {"id": "xue2014", "r_min_kbps": 0},  # ZeroDivisionError
        {"id": "sqi", "tau_memory_s": -1},  # gave a score
        {"id": "mok2011", "levels": {}},  # its coefficients and levels are constants
        {"id": "m", "command": [sys.executable, "-c", "print(1)"], "bogus": 1},  # scored, bogus ignored
        {"id": "m", "command": "python x.py"},  # ran "p" once per record
        {"id": "yin2015", "name": "foo"},  # scored, name never read
    ],
)
def test_qoe_models_are_checked_before_any_record_is_scored(tmp_path, capsys, bad):
    manifests, traces = write_inputs(tmp_path)
    out = tmp_path / "out"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "manifests": manifests, "traces": traces,
        "policies": [{"id": "rate_based"}], "out_dir": str(out),
    }))
    assert run(["simulate", "--config", cfg]) == 0
    cfg.write_text(json.dumps({"qoe_models": [{"id": "ftw"}, bad], "out_dir": str(out)}))
    assert run(["qoe", "--config", cfg]) == 2
    assert "qoe_models[1]" in capsys.readouterr().err
    assert not (out / "qoe_scores.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "mpc-table", "qoe", "subjective", "stats", "traces"])
def test_out_dir_must_be_a_path_string(tmp_path, capsys, command):
    # each command ended in an uncaught TypeError from Path(5); mpc-table only after building its table
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"out_dir": 5, "mpc_table": {"tput_bins": 1, "buffer_bins": 1, "horizon": 1}}))
    assert run([command, "--config", cfg]) == 2
    assert "out_dir must be a non-empty path string, got 5" in capsys.readouterr().err


@pytest.mark.parametrize("value", [5, ["records"], ""])
def test_qoe_records_dir_must_be_a_path_string(tmp_path, capsys, value):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"records_dir": value, "out_dir": str(tmp_path / "out")}))
    assert run(["qoe", "--config", cfg]) == 2
    assert f"records_dir must be a non-empty path string, got {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["regular_file", "no_records"])
def test_qoe_refuses_a_records_dir_with_nothing_to_score(tmp_path, capsys, kind):
    # both exited 0 with a header-only qoe_scores.csv
    records = tmp_path / "records"
    if kind == "regular_file":
        records.write_text("not a directory\n")
    else:
        records.mkdir()
        (records / "r0.json").write_text("{}")  # not a *.record.json file
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"records_dir": str(records), "out_dir": str(tmp_path / "out")}))
    assert run(["qoe", "--config", cfg]) == 2
    err = capsys.readouterr().err
    expected = "records directory not found" if kind == "regular_file" else "no *.record.json file in"
    assert err.startswith("abrbench qoe: ") and f"{expected}" in err and str(records) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, block, key",
    [("qoe", None, "qoe_models"), ("traces", {"inputs": []}, "inputs"), ("traces", {"window_s": 40}, "inputs")],
    ids=["qoe_models", "inputs", "no_inputs"],
)
def test_an_empty_input_list_is_refused_before_any_output(tmp_path, capsys, command, block, key):
    # an empty qoe_models wrote a header-only qoe_scores.csv, an empty inputs an empty trace_index.csv: both exit 0
    config = {"out_dir": str(tmp_path / "out")}
    if command == "qoe":
        manifests, traces = write_inputs(tmp_path)
        config["records_dir"] = str(tmp_path / "sim" / "records")
        sim = {"manifests": manifests, "traces": traces, "policies": [{"id": "rate_based"}],
               "out_dir": str(tmp_path / "sim")}
        (tmp_path / "sim.json").write_text(json.dumps(sim))
        assert run(["simulate", "--config", tmp_path / "sim.json"]) == 0
        config["qoe_models"] = []
    else:
        config["traces_ingest"] = block
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert run([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"abrbench {command}: ") and key in err
    assert not (tmp_path / "out").exists()


def test_subjective_names_the_file_and_line_of_an_out_of_range_rating(tmp_path, capsys):
    # RatingsMatrix refused it as "ratings must lie in [0, 100]", naming neither
    ratings, anchors = make_subjective_fixture(tmp_path)
    lines = ratings.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",150"
    ratings.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "subj.json"
    cfg.write_text(json.dumps({"subjective": {"ratings_csv": str(ratings), "anchors_csv": str(anchors)},
                               "out_dir": str(tmp_path / "out")}))
    assert run(["subjective", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err == f"abrbench subjective: {ratings} line 4: score must be a number in [0, 100], got '150'\n"
    assert not (tmp_path / "out").exists()


def test_subjective_refuses_a_ratings_day_without_anchors(tmp_path, capsys):
    # session B moved to day D2, which anchors.csv does not name: its five videos got no MOS, silently
    ratings, anchors = make_subjective_fixture(tmp_path)
    ratings.write_text(ratings.read_text().replace(",B,D1,", ",B,D2,"))
    cfg = tmp_path / "subj.json"
    cfg.write_text(json.dumps({"subjective": {"ratings_csv": str(ratings), "anchors_csv": str(anchors)},
                               "out_dir": str(tmp_path / "out")}))
    assert run(["subjective", "--config", cfg]) == 2
    assert capsys.readouterr().err == "abrbench subjective: ratings day 'D2' has 5 videos but no anchors\n"
    assert not (tmp_path / "out").exists()


def make_subjective_fixture(tmp_path):
    rng = np.random.default_rng(0)
    base = np.linspace(20, 80, 10)
    lines = ["subject_id,video_id,session_id,day,device,score"]
    for i in range(5):
        for j in range(10):
            sess = "A" if j < 5 else "B"
            score = float(np.clip(base[j] + rng.normal(0, 6.0), 0, 100))
            lines.append(f"s{i},v{j},{sess},D1,hdtv,{score}")
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("\n".join(lines) + "\n")
    anchors = tmp_path / "anchors.csv"
    anchor_lines = ["day,video_id,mos"] + [f"D1,v{j},{20 + 6 * j}" for j in range(10)]
    anchors.write_text("\n".join(anchor_lines) + "\n")
    return ratings, anchors


def test_subjective_pipeline_matches_library(tmp_path):
    ratings, anchors = make_subjective_fixture(tmp_path)
    out = tmp_path / "out"
    cfg = tmp_path / "subj.json"
    cfg.write_text(json.dumps({
        "subjective": {"ratings_csv": str(ratings), "anchors_csv": str(anchors)},
        "out_dir": str(out),
    }))
    assert run(["subjective", "--config", cfg]) == 0
    with open(out / "mos.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        mos_rows = list(reader)
    assert reader.fieldnames == ["video_id", "mos"]
    assert all(repr(float(r["mos"])) == r["mos"] for r in mos_rows)  # floats in repr form
    got = {r["video_id"]: float(r["mos"]) for r in mos_rows}

    matrix = subjective.load_ratings_csv(ratings.read_text())
    keep = subjective.reject_auxiliary(matrix, {s: 1.0 for s in matrix.subjects})
    matrix = subjective.subset_matrix(matrix, keep)
    z = subjective.z_normalize(matrix)
    keep2 = subjective.reject_bt500(z)
    matrix = subjective.subset_matrix(matrix, keep2)
    z = z[np.asarray(keep2, dtype=bool), :]
    expected, _ = subjective.realign(matrix, z, subjective.load_anchors_csv(anchors.read_text()))
    assert got.keys() == expected.keys()
    for v, m in expected.items():
        assert got[v] == pytest.approx(m)


def test_sensitivity_csv_cells_are_plain_floats(tmp_path):
    ratings, _ = make_subjective_fixture(tmp_path)
    # (mean quality, quality std, stall s) of v0..v9: three videos in each of q_r_bar, q_r, q_q, q_a_bar,
    # two in q_q_bar and q_a, so with min_set 3 s_r is a number and s_q, s_a are missing
    meta = [(80, 2, 0)] * 3 + [(80, 2, 5)] * 3 + [(40, 2, 0)] * 2 + [(80, 20, 0)] * 2
    meta_csv = tmp_path / "meta.csv"
    meta_csv.write_text("video_id,mean_quality,quality_std,total_stall_s\n"
                        + "".join(f"v{j},{m},{s},{st}\n" for j, (m, s, st) in enumerate(meta)))
    out = tmp_path / "out"
    cfg = tmp_path / "subj.json"
    cfg.write_text(json.dumps({
        "subjective": {"ratings_csv": str(ratings), "video_meta_csv": str(meta_csv), "min_set": 3},
        "out_dir": str(out),
    }))
    assert run(["subjective", "--config", cfg]) == 0
    with open(out / "sensitivity.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == ["subject_id", "s_r", "s_q", "s_a", "n_r_bar", "n_r", "n_q", "n_q_bar", "n_a", "n_a_bar"]
    assert rows
    for row in rows:
        assert repr(float(row["s_r"])) == row["s_r"]  # a plain float, not np.float64(...)
        assert row["s_q"] == row["s_a"] == ""  # a missing sensitivity is an empty field
        assert [row[k] for k in reader.fieldnames[4:]] == ["3", "3", "3", "2", "2", "3"]


def test_subjective_missing_file_names_path(tmp_path, capsys):
    cfg = tmp_path / "subj.json"
    cfg.write_text(json.dumps({"subjective": {"ratings_csv": str(tmp_path / "nope.csv")}}))
    assert run(["subjective", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "nope.csv" in err


def write_stats_inputs(tmp_path):
    """Two methods scored on 40 items, a good and a bad one; returns the config path."""
    rng = np.random.default_rng(3)
    items = [f"i{k}" for k in range(40)]
    mos = rng.uniform(10, 90, size=40)
    score_lines = ["item_id,method,score"]
    for k, item in enumerate(items):
        score_lines.append(f"{item},good,{mos[k] + rng.normal(0, 2.0)}")
        score_lines.append(f"{item},bad,{rng.uniform(10, 90)}")
    scores = tmp_path / "scores.csv"
    scores.write_text("\n".join(score_lines) + "\n")
    mos_path = tmp_path / "mos.csv"
    mos_path.write_text("\n".join(["item_id,mos"] + [f"{i},{m}" for i, m in zip(items, mos)]) + "\n")
    cfg = tmp_path / "stats.json"
    cfg.write_text(json.dumps({
        "stats": {"scores_csv": str(scores), "mos_csv": str(mos_path), "test": "f_test"},
        "out_dir": str(tmp_path / "out"),
    }))
    return cfg


def test_stats_writes_nothing_when_the_significance_test_fails(tmp_path, capsys):
    # correlations.csv used to be written before the Wilcoxon test refused the pair
    mos = [10.0, 25.0, 30.0, 45.0, 60.0, 70.0, 85.0]
    good = [12.0, 22.0, 33.0, 41.0, 63.0, 72.0, 80.0]
    near = good[:4] + [58.0, 75.0, 88.0]  # differs from good on 3 items: too few for the test
    (tmp_path / "scores.csv").write_text("item_id,method,score\n" + "".join(
        f"i{k},good,{g}\ni{k},near,{n}\n" for k, (g, n) in enumerate(zip(good, near))))
    (tmp_path / "mos.csv").write_text("item_id,mos\n" + "".join(f"i{k},{m}\n" for k, m in enumerate(mos)))
    cfg = tmp_path / "stats.json"
    cfg.write_text(json.dumps({
        "stats": {"scores_csv": str(tmp_path / "scores.csv"), "mos_csv": str(tmp_path / "mos.csv"), "test": "wilcoxon"},
        "out_dir": str(tmp_path / "out"),
    }))
    assert run(["stats", "--config", cfg]) == 2
    assert "methods good and near: only 3 nonzero differences; need at least 6" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_stats_command_two_methods(tmp_path):
    cfg = write_stats_inputs(tmp_path)
    out = tmp_path / "out"
    assert run(["stats", "--config", cfg]) == 0
    sig = (out / "significance.csv").read_text().splitlines()
    assert sig == [",bad,good", "bad,-,0", "good,1,-"]  # a label, then a glyph per column
    corr = (out / "correlations.csv").read_text().splitlines()
    assert corr[0] == "method,plcc,srcc,krcc"
    by_method = {}
    for line in corr[1:]:
        name, p, s, k = line.split(",")
        by_method[name] = float(s)
    assert by_method["good"] > by_method["bad"]


@pytest.mark.parametrize(
    "command, key, header, missing",
    [
        ("subjective", "ratings_csv", "subject_id,video_id,session_id,day,device", "score"),
        ("subjective", "video_meta_csv", "video_id,mean_quality,quality_std", "total_stall_s"),
        ("subjective", "keystrokes_csv", "subject_id,video_id,time_s", "event_time_s"),
        ("subjective", "stall_events_csv", "video_id,onset_s", "position_s"),
        ("subjective", "anchors_csv", "day,video,mos", "video_id"),
        ("stats", "scores_csv", "item,method,score", "item_id"),
        ("stats", "mos_csv", "item_id,score", "mos"),
    ],
)
def test_csv_reader_missing_column_exits_2(tmp_path, capsys, command, key, header, missing):
    ratings, anchors = make_subjective_fixture(tmp_path)
    files = {
        "ratings_csv": ratings.read_text(),
        "anchors_csv": anchors.read_text(),
        "keystrokes_csv": "subject_id,video_id,event_time_s\n",
        "stall_events_csv": "video_id,position_s\n",
        "scores_csv": "item_id,method,score\n" + "".join(f"i{k},m,{k}\n" for k in range(5)),
        "mos_csv": "item_id,mos\n" + "".join(f"i{k},{10 * k}\n" for k in range(5)),
    }
    files[key] = header + "\n" + ",".join(["x"] * len(header.split(","))) + "\n"
    block = {}
    for name, text in files.items():
        if (name in ("scores_csv", "mos_csv")) != (command == "stats"):
            continue  # a block takes only its own command's inputs
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        block[name] = str(path)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({command: block, "out_dir": str(tmp_path / "out")}))
    assert run([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert missing in err and key[: -len("_csv")].replace("_", " ") in err


def test_traces_command_windows_and_filters(tmp_path):
    raw = tmp_path / "raw.txt"
    raw.write_text("\n".join(["1000"] * 11 + ["50"] * 11) + "\n")  # 110 s at 5 s granularity
    out = tmp_path / "out"
    cfg = tmp_path / "traces.json"
    cfg.write_text(json.dumps({
        "traces_ingest": {
            "inputs": [{"path": str(raw), "format": "granular_5s"}],
            "window_s": 55.0,
            "stride_s": 55.0,
            "min_avg_kbps": 200.0,
        },
        "out_dir": str(out),
    }))
    assert run(["traces", "--config", cfg]) == 0
    index = (out / "trace_index.csv").read_text().splitlines()
    assert len(index) == 3
    kept = list((out / "traces").glob("*.csv"))
    assert len(kept) == 1
    window = nettrace.parse_trace(kept[0].read_text(), "pairs", duration_s=55.0)
    assert window.mean_kbps() > 200.0


@pytest.mark.parametrize(
    "key, value", [("window_s", 0), ("stride_s", -55.0), ("min_avg_kbps", math.nan), ("window_len_s", 30.0)]
)
def test_traces_options_are_checked(tmp_path, capsys, key, value):
    raw = tmp_path / "raw.txt"
    raw.write_text("1000\n" * 22)
    cfg = tmp_path / "traces.json"
    block = {"inputs": [{"path": str(raw), "format": "granular_5s"}], key: value}
    cfg.write_text(json.dumps({"traces_ingest": block, "out_dir": str(tmp_path / "out")}))
    assert run(["traces", "--config", cfg]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_traces_windows_every_input_before_writing_any(tmp_path, capsys):
    # long.csv's three windows used to be written before short.csv failed, and the error named no input
    long, short = tmp_path / "long.csv", tmp_path / "short.csv"
    long.write_text("1000\n" * 40)  # 200 s at 5 s granularity
    short.write_text("1000\n" * 4)  # 20 s
    block = {"inputs": [{"path": str(p), "format": "granular_5s"} for p in (long, short)], "window_s": 55}
    cfg = tmp_path / "traces.json"
    cfg.write_text(json.dumps({"traces_ingest": block, "out_dir": str(tmp_path / "out")}))
    assert run(["traces", "--config", cfg]) == 2
    assert f"inputs[1] ({short}): window_s 55.0 is longer than the trace (20.0s)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_config_file(tmp_path, capsys):
    assert run(["simulate", "--config", tmp_path / "missing.json"]) == 2
    assert "missing.json" in capsys.readouterr().err


def test_simulate_deduplicates_same_stem_inputs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    for d, rate in (("a", 900.0), ("b", 4000.0)):
        (tmp_path / d / "trace.csv").write_text(f"0,{rate}\n")
    m = media.synthetic_manifest(segments=4)
    (tmp_path / "m.json").write_text(media.serialize_manifest(m))
    config = {
        "manifests": [str(tmp_path / "m.json")],
        "traces": [
            {"path": str(tmp_path / "a" / "trace.csv"), "format": "pairs"},
            {"path": str(tmp_path / "b" / "trace.csv"), "format": "pairs"},
        ],
        "policies": [{"id": "fixed", "rep_index": 1}],
        "out_dir": str(tmp_path / "out"),
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert run(["simulate", "--config", cfg]) == 0
    rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    assert len({r.split(",")[0] for r in rows}) == 2  # distinct cell ids
    assert len(list((tmp_path / "out" / "logs").glob("*.log.json"))) == 2


def test_stats_fits_each_method_once(tmp_path, monkeypatch):
    # the F-test reuses the fits behind PLCC instead of fitting every method again
    fitted = []
    fit = stats.fit_logistic
    monkeypatch.setattr(stats, "fit_logistic", lambda s, m: fitted.append(len(s)) or fit(s, m))
    assert run(["stats", "--config", write_stats_inputs(tmp_path)]) == 0
    assert fitted == [40, 40]


def test_stats_method_missing_an_item_exits_2(tmp_path, capsys):
    cfg = write_stats_inputs(tmp_path)
    scores = tmp_path / "scores.csv"
    kept = [line for line in scores.read_text().splitlines() if not line.startswith("i7,bad,")]
    scores.write_text("\n".join(kept) + "\n")
    assert run(["stats", "--config", cfg]) == 2
    assert "method bad has no score for item i7" in capsys.readouterr().err


def test_stats_constant_scores_name_the_method(tmp_path, capsys):
    cfg = write_stats_inputs(tmp_path)
    scores = tmp_path / "scores.csv"
    lines = scores.read_text().splitlines()
    scores.write_text("\n".join(line.rsplit(",", 1)[0] + ",5.0" if ",bad," in line else line for line in lines) + "\n")
    assert run(["stats", "--config", cfg]) == 2
    assert f"{scores}: method bad: degenerate objective scores" in capsys.readouterr().err


def test_stats_constant_mos_names_the_mos_file(tmp_path, capsys):
    cfg = write_stats_inputs(tmp_path)
    mos = tmp_path / "mos.csv"
    mos.write_text("\n".join(["item_id,mos"] + [f"i{k},50.0" for k in range(40)]) + "\n")
    assert run(["stats", "--config", cfg]) == 2
    assert f"{mos}: all 40 scored items have the MOS 50.0" in capsys.readouterr().err


def test_stats_scores_without_a_mos_name_both_files(tmp_path, capsys):
    cfg = write_stats_inputs(tmp_path)
    mos = tmp_path / "mos.csv"
    mos.write_text(mos.read_text().replace("\ni", "\nother"))
    assert run(["stats", "--config", cfg]) == 2
    assert f"no scored item in {tmp_path / 'scores.csv'} has a MOS in {mos}" in capsys.readouterr().err


SUBJECTIVE_EXTRAS = {  # the optional subjective inputs, each with more than three rows
    "video_meta_csv": "video_id,mean_quality,quality_std,total_stall_s,first_quality,last_quality\n"
    + "".join(f"v{j},80.0,5.0,0.0,78.0,82.0\n" for j in range(10)),
    "keystrokes_csv": "subject_id,video_id,event_time_s\n"
    + "".join(f"s{i},v{j},3.0\n" for i in range(5) for j in range(5, 10)),
    "stall_events_csv": "video_id,position_s\n" + "".join(f"v{j},3.0\n" for j in range(5, 10)),
}


@pytest.mark.parametrize("bad", ["abc", "nan", "inf", ""])
@pytest.mark.parametrize(
    "command, key, column",
    [
        ("subjective", "ratings_csv", "score"),
        ("stats", "scores_csv", "score"),
        ("stats", "mos_csv", "mos"),
        ("subjective", "anchors_csv", "mos"),  # a nan anchor turned every MOS of its day into nan
        ("subjective", "video_meta_csv", "total_stall_s"),
        ("subjective", "video_meta_csv", "last_quality"),  # a column older files carry; not read, so not checked
        ("subjective", "keystrokes_csv", "event_time_s"),
        ("subjective", "stall_events_csv", "position_s"),
    ],
)
def test_number_parse_errors_name_file_and_line(tmp_path, capsys, command, key, column, bad):
    # a non-number used to surface as "could not convert string to float", and a NaN rating as a missing one
    if command == "subjective":
        ratings, anchors = make_subjective_fixture(tmp_path)
        block = {"ratings_csv": str(ratings), "anchors_csv": str(anchors)}
        for name, text in SUBJECTIVE_EXTRAS.items():
            (tmp_path / f"{name}.csv").write_text(text)
            block[name] = str(tmp_path / f"{name}.csv")
        cfg = tmp_path / "subj.json"
        cfg.write_text(json.dumps({"subjective": block, "out_dir": str(tmp_path / "out")}))
        path = Path(block[key])
    else:
        cfg = write_stats_inputs(tmp_path)
        path = tmp_path / ("scores.csv" if key == "scores_csv" else "mos.csv")
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[lines[0].split(",").index(column)] = bad
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    if column == "last_quality":
        assert run([command, "--config", cfg]) == 0
        assert column not in capsys.readouterr().err
        return
    assert run([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"{path} line 4: {column} must be a finite number, got {bad!r}" in err


@pytest.mark.parametrize("player", [5, "fast", [60]])
def test_simulate_rejects_a_player_block_that_is_not_an_object(tmp_path, capsys, player):
    # "player": 5 used to end in a TypeError traceback
    manifests, traces = write_inputs(tmp_path)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "manifests": manifests,
        "traces": traces,
        "policies": [{"id": "rate_based"}],
        "player": player,
        "out_dir": str(tmp_path / "out"),
    }))
    assert run(["simulate", "--config", cfg]) == 2
    assert "player must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, j, message", [
    ("initial_rep", 5, 1, "must be a rung of the ladder (1..3), got 5"),
    ("max_buffer_s", 5, 0, "must be at least two segments (8.0 s), got 5.0"),
])
def test_simulate_checks_the_player_against_every_manifest_before_any_cell(tmp_path, capsys, key, value, j, message):
    # both used to fail every cell that reached run_session, in summary.csv, with exit 1
    manifests, traces = write_inputs(tmp_path, n_manifests=2)
    Path(manifests[1]).write_text(media.serialize_manifest(
        media.synthetic_manifest(segments=6, ladder=media.ladder_default()[:3])))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "manifests": manifests,
        "traces": traces,
        "policies": [{"id": "rate_based"}],
        "player": {key: value},
        "out_dir": str(tmp_path / "out"),
    }))
    assert run(["simulate", "--config", cfg]) == 2
    assert f"abrbench simulate: manifests[{j}] ({manifests[j]}): player.{key} {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


MISTYPED_POLICY_OPTIONS = [
    ({"id": "fixed", "rep_index": 1.9}, "rep_index"),  # ran at rung 1
    ({"id": "fixed", "rep_index": True}, "rep_index"),
    ({"id": "rate_based", "strict": "false"}, "strict"),  # ran as strict
    ({"id": "rate_based", "window": 2.5}, "window"),
    ({"id": "buffer_based", "reservoir_s": "5"}, "reservoir_s"),
    ({"id": "buffer_based", "cushion_s": None}, "cushion_s"),
    ({"id": "mpc_exact", "params": {"horizon": 2.0}}, "horizon"),
    ({"id": "mpc_exact", "params": {"lambda_switch": "1"}}, "lambda_switch"),
    ({"id": "mpc_exact", "params": {"use_manifest_sizes": "no"}}, "use_manifest_sizes"),
    ({"id": "mpc_exact", "params": {"horizn": 3}}, "horizn"),
    ({"id": "mpc_exact", "params": [3]}, "params"),
    ({"id": "mpc_table"}, "table"),
    ({"id": "rdos", "ksqi": {"c0": True}}, "c0"),
    ({"id": "rdos", "params": {"gamma_rate": "0.1"}}, "gamma_rate"),
    ({"id": "external", "command": "python policy.py"}, "command"),
    ({"id": "external", "command": ["python"], "lookahead": 0}, "lookahead"),
    ({"id": "mpc_exact", "horizon": 3}, "horizon"),  # ran horizon 5
    ({"id": "buffer_based", "reservoir": 3}, "reservoir"),  # kept 5.0
    ({"id": "fixed", "window": 3}, "window"),
    ({"id": "rdos", "ksqi": {"switch_table": {"x_grid": [0], "y_grid": [0], "values": [[1]]}}}, "switch_table"),
    ({"id": "fixed", "name": "../../x"}, "name"),  # wrote logs/x.log.json for cell m__t__../../x
    ({"id": "fixed", "name": ["x"]}, "name"),  # a TypeError traceback
    ({"id": "fixed", "name": 0}, "name"),  # these four became fixed1 with exit 0
    ({"id": "fixed", "name": False}, "name"),
    ({"id": "fixed", "name": ""}, "name"),
    ({"id": "fixed", "name": None}, "name"),
]


@pytest.mark.parametrize("spec, key", MISTYPED_POLICY_OPTIONS)
def test_simulate_rejects_mistyped_policy_options(tmp_path, capsys, spec, key):
    manifests, traces = write_inputs(tmp_path)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "manifests": manifests,
        "traces": traces,
        "policies": [{"id": "rate_based"}, spec],
        "out_dir": str(tmp_path / "out"),
    }))
    assert run(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"policies[1] ({spec['id']})" in err and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec, key", MISTYPED_POLICY_OPTIONS)
def test_policy_classes_reject_what_simulate_rejects(spec, key):
    # the classes check their own fields: a policy built in Python, from the parameter sets its
    # entry's JSON objects make, meets the checks the entry does in a config
    options = {k: v for k, v in spec.items() if k != "id"}
    with pytest.raises((TypeError, ValueError), match=key):  # TypeError: a keyword the class does not take
        if spec["id"] == "mpc_exact" and "params" in options:
            options["params"] = abr._options_object(search.MpcObjectiveParams, "params", options["params"])
        elif spec["id"] == "rdos":
            ksqi = qoe.KsqiParams(**options.pop("ksqi", {}))
            options["params"] = search.RdosParams(ksqi, **options.get("params", {}))
        abr.POLICIES[spec["id"]](**options)  # an external policy's options are checked before its child starts


def test_simulate_accepts_integers_where_numbers_are_expected(tmp_path):
    manifests, traces = write_inputs(tmp_path)
    policies = [
        {"id": "fixed", "rep_index": 2},
        {"id": "rate_based", "window": 3, "strict": False},
        {"id": "buffer_based", "reservoir_s": 5, "cushion_s": 10},
        {"id": "mpc_exact", "params": {"horizon": 2, "rtt_s": 0, "mu_rebuf": 17}},
        {"id": "rdos", "ksqi": {"c0": 1, "beta_neg": 1}, "params": {"horizon": 2, "gamma_rate": 0}},
    ]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "manifests": manifests,
        "traces": traces,
        "policies": policies,
        "player": {"max_buffer_s": 60, "initial_rep": 1, "rtt_s": 0},
        "out_dir": str(tmp_path / "out"),
    }))
    assert run(["simulate", "--config", cfg]) == 0


@pytest.mark.parametrize(
    "key, value",
    [
        ("tput_bins", 10.5),  # was truncated to 10
        ("buffer_bins", "5"),
        ("horizon", 2.0),
        ("tput_max_kbps", "20000"),
        ("rtt_s", None),
        ("lambda_switch", True),
        ("segment_duration_s", "4"),
        ("ladder_kbps", [300, "900"]),
        ("ladder_kbps", 300),
        ("ladder_kbps", [300, -900]),
        ("segment_duration_s", 0),
        ("max_bufer_s", 9),  # was ignored
        ("ladder_kbps", [500, 300]),  # wrote an artifact that no manifest's ladder fits
        ("ladder_kbps", [300, 300]),
        ("ladder_kbps", []),  # failed in numpy: "zero-size array to reduction operation maximum"
        ("ladder_kbps", None),  # built the reference ladder's table
    ],
)
def test_mpc_table_rejects_mistyped_values(tmp_path, capsys, key, value):
    block = {"tput_bins": 2, "buffer_bins": 2, "horizon": 2, key: value}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"mpc_table": block, "out_dir": str(tmp_path / "out")}))
    assert run(["mpc-table", "--config", cfg]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_mpc_table_integers_write_the_artifact_of_their_float_twin(tmp_path):
    ints = {"tput_bins": 3, "buffer_bins": 2, "horizon": 2, "tput_max_kbps": 9000, "max_buffer_s": 30,
            "lambda_switch": 1, "mu_rebuf": 17, "rtt_s": 0, "segment_duration_s": 2, "ladder_kbps": [300, 900, 2000]}
    counts = ("tput_bins", "buffer_bins", "horizon")
    floats = {k: v if k in counts else list(map(float, v)) if isinstance(v, list) else float(v) for k, v in ints.items()}
    artifacts = []
    for name, block in (("ints", ints), ("floats", floats)):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"mpc_table": block, "out_dir": str(tmp_path / name)}))
        assert run(["mpc-table", "--config", cfg]) == 0
        artifacts.append((tmp_path / name / "mpc_table.bin").read_bytes())
    assert artifacts[0] == artifacts[1]
    assert b'"mu_rebuf": 17.0' in artifacts[0] and b'"ladder_kbps": [300.0, 900.0, 2000.0]' in artifacts[0]


def test_mpc_table_block_must_be_an_object(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"mpc_table": [100, 100], "out_dir": str(tmp_path / "out")}))
    assert run(["mpc-table", "--config", cfg]) == 2
    assert "mpc_table must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "block, key",
    [
        ({"tput_bins": 100_000_000}, "tput_bins"),  # asked numpy for 121 GiB: an _ArrayMemoryError traceback
        ({"buffer_bins": 10**12}, "buffer_bins"),
        ({"ladder_kbps": list(range(300, 1301))}, "ladder rungs"),  # 100 x 100 x 1001 cells
        ({"horizon": 7}, "horizon"),  # 13^7 sequences: refused by check_table with the other sizes
        ({"horizon": 10**12}, "horizon"),
        ({"tput_bins": 1, "buffer_bins": 1, "horizon": 65, "ladder_kbps": [300]}, "horizon"),
    ],
)
def test_mpc_table_refuses_a_table_too_large_before_building(tmp_path, capsys, block, key):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"mpc_table": block, "out_dir": str(tmp_path / "out")}))
    assert run(["mpc-table", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("abrbench mpc-table: ") and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("stats", "alpha", "0.05"),
        ("subjective", "min_set", 30.5),
        ("subjective", "keystroke_tol_s", None),
        ("stats", "test", "ttest"),  # left correlations.csv behind
        ("stats", "alpha", math.nan),  # marked every pair significant
        ("stats", "alpha", 0),
        ("stats", "alpha", 1),
        ("subjective", "min_set", 0),
        ("subjective", "auxiliary_threshold", -0.1),
        ("subjective", "min_sett", 5),  # was ignored, and the default min_set used
        ("stats", "alfa", 0.01),
    ],
)
def test_analysis_options_are_checked_before_any_output(tmp_path, capsys, command, key, value):
    # a bad alpha used to surface only after correlations.csv was written, and min_set after mos.csv
    if command == "stats":
        cfg = write_stats_inputs(tmp_path)
        config = json.loads(cfg.read_text())
    else:
        ratings, anchors = make_subjective_fixture(tmp_path)
        block = {"ratings_csv": str(ratings), "anchors_csv": str(anchors)}
        config = {"subjective": block, "out_dir": str(tmp_path / "out")}
        cfg = tmp_path / "subj.json"
    config[command][key] = value
    cfg.write_text(json.dumps(config))
    assert run([command, "--config", cfg]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [5, "", None, ["a.csv"], {"path": "a.csv"}, "directory"])
@pytest.mark.parametrize(
    "command, key",
    [("stats", "scores_csv"), ("stats", "mos_csv"), ("subjective", "ratings_csv"), ("subjective", "anchors_csv"),
     ("subjective", "video_meta_csv"), ("subjective", "keystrokes_csv"), ("subjective", "stall_events_csv")],
)
def test_path_values_are_checked(tmp_path, capsys, command, key, value):
    # a number was a TypeError traceback from Path(5); "" named the working directory, and a directory
    # raised IsADirectoryError, both tracebacks
    if command == "stats":
        config = json.loads(write_stats_inputs(tmp_path).read_text())
    else:
        ratings, anchors = make_subjective_fixture(tmp_path)
        block = {"ratings_csv": str(ratings), "anchors_csv": str(anchors)}
        for name, text in SUBJECTIVE_EXTRAS.items():
            (tmp_path / f"{name}.csv").write_text(text)
            block[name] = str(tmp_path / f"{name}.csv")
        config = {"subjective": block, "out_dir": str(tmp_path / "out")}
    config[command][key] = str(tmp_path) if value == "directory" else value
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert run([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"abrbench {command}: ")
    assert (str(tmp_path) if value == "directory" else key) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["manifest", "table"])
@pytest.mark.parametrize("value", [5, ""])
def test_simulate_path_values_are_checked(tmp_path, capsys, where, value):
    manifests, traces = write_inputs(tmp_path)
    policy = {"id": "mpc_table", "table": value} if where == "table" else {"id": "rate_based"}
    config = {"manifests": [value] if where == "manifest" else manifests, "traces": traces, "policies": [policy],
              "out_dir": str(tmp_path / "out")}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert run(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"must be a non-empty path string, got {value!r}" in err
    assert ("manifests[0]" if where == "manifest" else "table") in err
    assert not (tmp_path / "out").exists()


def test_simulate_gives_same_named_policies_distinct_cells(tmp_path):
    # two entries named "p" kept one result between them, with exit 0
    manifests, traces = write_inputs(tmp_path)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "manifests": manifests,
        "traces": traces,
        "policies": [{"id": "fixed", "rep_index": 1, "name": "p"}, {"id": "fixed", "rep_index": 9, "name": "p"},
                     {"id": "rate_based", "name": "p_2"}],
        "out_dir": str(tmp_path / "out"),
    }))
    for jobs in (1, 2):
        assert run(["simulate", "--config", cfg, "--jobs", jobs]) == 0
        rows = [r.split(",") for r in (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]]
        assert [r[3] for r in rows] == ["p", "p_2", "p_2_2"]
        assert len({r[5] for r in rows}) == 3  # three sessions, three average bitrates
        assert len(list((tmp_path / "out" / "records").glob("*.record.json"))) == 3


def test_simulate_rejects_cells_that_share_an_id(tmp_path, capsys):
    # manifest a__b with trace c, and manifest a with trace b__c, both wrote cell a__b__c__p: one log was lost
    for name in ("a__b", "a"):
        (tmp_path / f"{name}.json").write_text(media.serialize_manifest(media.synthetic_manifest(segments=4)))
    for name in ("c", "b__c"):
        (tmp_path / f"{name}.csv").write_text("0,900\n30,4000\n")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "manifests": [str(tmp_path / "a__b.json"), str(tmp_path / "a.json")],
        "traces": [str(tmp_path / "c.csv"), str(tmp_path / "b__c.csv")],
        "policies": [{"id": "fixed", "name": "p"}],
        "out_dir": str(tmp_path / "out"),
    }))
    assert run(["simulate", "--config", cfg]) == 2
    assert "two grid cells share the id 'a__b__c__p'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_dedupe_never_returns_a_name_twice():
    assert cli._dedupe(["p", "p", "p_2"]) == ["p", "p_2", "p_2_2"]  # was p, p_2, p_2
    assert cli._dedupe(["p_2", "p", "p"]) == ["p_2", "p", "p_3"]
    assert cli._dedupe(["a", "a", "b", "a"]) == ["a", "a_2", "b", "a_3"]


def test_traces_gives_same_stem_inputs_distinct_windows(tmp_path):
    # a/x.csv and b/x.csv wrote one x_w000.csv between them
    inputs = []
    for d, rate in (("a", 900.0), ("b", 4000.0)):
        (tmp_path / d).mkdir()
        (tmp_path / d / "x.csv").write_text(f"0,{rate}\n30,{rate}\n")
        inputs.append(str(tmp_path / d / "x.csv"))
    cfg = tmp_path / "traces.json"
    cfg.write_text(json.dumps({
        "traces_ingest": {"inputs": [inputs[0], {"path": inputs[1]}], "window_s": 60.0},
        "out_dir": str(tmp_path / "out"),
    }))
    assert run(["traces", "--config", cfg]) == 0
    index = [r.split(",") for r in (tmp_path / "out" / "trace_index.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[1]) for r in index] == [("x_w000", inputs[0]), ("x_2_w000", inputs[1])]
    assert sorted(f.name for f in (tmp_path / "out" / "traces").iterdir()) == ["x_2_w000.csv", "x_w000.csv"]


@pytest.mark.parametrize("command, key", [("simulate", "traces"), ("traces", "inputs")])
@pytest.mark.parametrize(
    "entry",
    [{"format": "pairs"}, {"path": 5}, 5, None, {"path": "t.csv", "fmt": "pairs"}],  # no path: a KeyError traceback
    ids=["no_path", "path_not_a_string", "number", "null", "unknown_key"],
)
def test_trace_entries_are_checked(tmp_path, capsys, command, key, entry):
    manifests, traces = write_inputs(tmp_path)
    block = {"manifests": manifests, "traces": [traces[0], entry], "policies": [{"id": "rate_based"}]}
    if command == "traces":
        block = {"traces_ingest": {"inputs": [traces[0], entry], "window_s": 30.0}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**block, "out_dir": str(tmp_path / "out")}))
    assert run([command, "--config", cfg]) == 2
    assert f"{key}[1]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key", [("simulate", "traces"), ("traces", "inputs")])
def test_trace_lists_are_checked(tmp_path, capsys, command, key):
    # a single entry in place of the list was read as a list of its keys: "trace file not found: path"
    manifests, traces = write_inputs(tmp_path)
    block = {"manifests": manifests, "traces": traces[0], "policies": [{"id": "rate_based"}]}
    if command == "traces":
        block = {"traces_ingest": {"inputs": traces[0]}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**block, "out_dir": str(tmp_path / "out")}))
    assert run([command, "--config", cfg]) == 2
    assert f"{key} must be a list of trace entries" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("manifests", 5),  # a TypeError traceback, exit 1
        ("manifests", "m.json"),  # read as the paths "m", ".", "j", ...
        ("policies", "fixed"),  # "policies[0] ... got 'f'"
        ("policies", {"id": "fixed"}),
        ("qoe_models", 5),  # a TypeError traceback, exit 1
        ("qoe_models", "ksqi"),  # "qoe_models[0] ... got 'k'"
    ],
)
def test_config_lists_are_checked_as_lists(tmp_path, capsys, key, value):
    manifests, traces = write_inputs(tmp_path)
    out = tmp_path / "out"
    config = {"manifests": manifests, "traces": traces, "policies": [{"id": "rate_based"}], "out_dir": str(out)}
    command = "simulate"
    if key == "qoe_models":
        (out / "records").mkdir(parents=True)
        config, command = {"out_dir": str(out)}, "qoe"
    config[key] = value
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert run([command, "--config", cfg]) == 2
    assert f"{key} must be a list" in capsys.readouterr().err
    assert [p.name for p in out.rglob("*.*")] == []


@pytest.mark.parametrize(
    "given, missing", [("keystrokes_csv", "stall_events_csv"), ("stall_events_csv", "keystrokes_csv")]
)
def test_subjective_keystroke_screen_needs_both_inputs(tmp_path, capsys, given, missing):
    # either file alone skipped the screen: every subject passed it with accuracy 1.0, exit 0
    ratings, anchors = make_subjective_fixture(tmp_path)
    (tmp_path / f"{given}.csv").write_text(SUBJECTIVE_EXTRAS[given])
    block = {"ratings_csv": str(ratings), "anchors_csv": str(anchors), given: str(tmp_path / f"{given}.csv")}
    cfg = tmp_path / "subj.json"
    cfg.write_text(json.dumps({"subjective": block, "out_dir": str(tmp_path / "out")}))
    assert run(["subjective", "--config", cfg]) == 2
    assert f"subjective block has {given} but not {missing}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_simulate_manifest_errors_name_the_file(tmp_path, capsys):
    manifests, traces = write_inputs(tmp_path)
    doc = json.loads(Path(manifests[0]).read_text())
    doc["ladder"][0]["index"] = 1.9
    Path(manifests[0]).write_text(json.dumps(doc))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "manifests": manifests, "traces": traces, "policies": [{"id": "rate_based"}], "out_dir": str(tmp_path / "out"),
    }))
    assert run(["simulate", "--config", cfg]) == 2
    assert f"manifests[0] ({manifests[0]}): index must be an integer" in capsys.readouterr().err


def test_qoe_json_holds_the_values_of_the_csv(tmp_path):
    manifests, traces = write_inputs(tmp_path, n_traces=2)
    out = tmp_path / "out"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "manifests": manifests, "traces": traces, "policies": [{"id": "rate_based"}],
        "qoe_models": [{"id": "ksqi"}, {"id": "yin2015"}], "out_dir": str(out),
    }))
    assert run(["simulate", "--config", cfg]) == 0
    assert run(["qoe", "--config", cfg]) == 0
    assert run(["qoe", "--config", cfg, "--format", "json"]) == 0
    csv_rows = [r.split(",") for r in (out / "qoe_scores.csv").read_text().splitlines()[1:]]
    as_json = json.loads((out / "qoe_scores.json").read_text())
    assert len(as_json) == 4
    assert as_json == [{"video_id": v, "model_id": m, "score": float(s)} for v, m, s in csv_rows]


def test_stats_json_holds_the_values_of_the_csv(tmp_path):
    cfg = write_stats_inputs(tmp_path)
    out = tmp_path / "out"
    assert run(["stats", "--config", cfg]) == 0
    assert run(["stats", "--config", cfg, "--format", "json"]) == 0
    header, *rows = [r.split(",") for r in (out / "significance.csv").read_text().splitlines()]
    as_json = json.loads((out / "significance.json").read_text())
    glyph = {stats.ROW_BETTER: "1", stats.ROW_WORSE: "0", stats.INDISTINGUISHABLE: "-"}
    assert as_json["labels"] == header[1:] == [r[0] for r in rows] == ["bad", "good"]
    assert [[glyph[c] for c in row] for row in as_json["cells"]] == [r[1:] for r in rows]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_csv_fields_with_commas_and_quotes_read_back(tmp_path):
    # a comma in a record id or a trace path split its row into extra columns
    odd = 'a,"b"'
    records = tmp_path / "records"
    records.mkdir()
    record = simulator.SessionRecord(4.0, (50.0, 60.0), (1000.0, 2000.0), (), 0.0)
    (records / f"{odd}.record.json").write_text(simulator.record_to_json(record))
    raw = tmp_path / f"{odd}.txt"
    raw.write_text("\n".join(["1000"] * 11) + "\n")
    out = tmp_path / "out"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "records_dir": str(records), "qoe_models": [{"id": "yin2015"}],
        "traces_ingest": {"inputs": [{"path": str(raw), "format": "granular_5s"}]}, "out_dir": str(out),
    }))
    assert run(["qoe", "--config", cfg]) == 0
    assert run(["traces", "--config", cfg]) == 0
    [score] = read_csv(out / "qoe_scores.csv")
    assert score == {"video_id": odd, "model_id": "yin2015", "score": repr(qoe.evaluate("yin2015", record))}
    [window] = read_csv(out / "trace_index.csv")
    assert (window["trace_id"], window["source"], window["kept"]) == (f"{odd}_w000", str(raw), "1")


def write_records(tmp_path, docs):
    """Record files named r0, r1, ... holding ``docs`` (a str is written as it is); returns the config path."""
    records = tmp_path / "records"
    records.mkdir()
    for i, doc in enumerate(docs):
        (records / f"r{i}.record.json").write_text(doc if isinstance(doc, str) else json.dumps(doc))
    cfg = tmp_path / "qoe.json"
    cfg.write_text(json.dumps({"records_dir": str(records), "qoe_models": [{"id": "yin2015"}],
                               "out_dir": str(tmp_path / "out")}))
    return cfg


GOOD_RECORD = {"segment_duration_s": 4.0, "qualities": [50.0, 60.0], "bitrates_kbps": [1000.0, 2000.0],
               "stalls": [[4.0, 1.0]], "startup_delay_s": 0.0}


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"stalls": [[4.0, -3.0]]}, "stalls[0] duration_s must be finite and > 0"),
        ({"stalls": [[-4.0, 1.0]]}, "stalls[0] position_s must be finite and >= 0"),
        ({"stalls": [[4.0]]}, "stalls[0] must be a [position_s, duration_s] pair"),
        ({"qualities": ["50", True]}, "qualities[0] must be a number in [0.0, 100.0]"),
        ({"qualities": [50.0, True]}, "qualities[1] must be a number in [0.0, 100.0]"),
        ({"qualities": [50.0, 101.0]}, "qualities[1] must be a number in [0.0, 100.0]"),
        ({"bitrates_kbps": [1000.0, 0.0]}, "bitrates_kbps[1] must be finite and > 0"),
        ({"bitrates_kbps": 1000.0}, "bitrates_kbps must be a list"),
        ({"segment_duration_s": 0}, "segment_duration_s must be finite and > 0"),
        ({"startup_delay_s": -1.0}, "startup_delay_s must be finite and >= 0"),
        ({"qualities": [], "bitrates_kbps": []}, "at least one segment"),
        ({"qualities": [50.0]}, "equal length"),
        ({"qualities": None}, "qualities must be a list"),
        ({"extra": 1}, "exactly the keys"),
    ],
    ids=["stall_duration", "stall_position", "stall_pair", "quality_string", "quality_bool", "quality_range",
         "bitrate", "bitrates_not_a_list", "segment_duration", "startup", "no_segments", "lengths",
         "qualities_not_a_list", "unknown_key"],
)
def test_qoe_checks_every_record_before_scoring_any(tmp_path, capsys, edit, message):
    cfg = write_records(tmp_path, [GOOD_RECORD, {**GOOD_RECORD, **edit}])
    assert run(["qoe", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "r1.record.json" in err and message in err
    assert not (tmp_path / "out").exists()  # the good record was not scored either


@pytest.mark.parametrize(
    "doc", ["{not json", "[]", json.dumps({k: v for k, v in GOOD_RECORD.items() if k != "qualities"})],
    ids=["not_json", "not_an_object", "no_qualities"],
)
def test_qoe_names_a_record_that_is_not_a_record(tmp_path, capsys, doc):
    # a missing key was a KeyError traceback, and bad JSON did not name the file
    cfg = write_records(tmp_path, [doc])
    assert run(["qoe", "--config", cfg]) == 2
    assert "r0.record.json" in capsys.readouterr().err


def test_simulate_fails_a_cell_whose_record_would_be_empty(tmp_path):
    # with drop_first_chunk a 1-segment session leaves no segment to score: the summary loop divided by zero
    manifests, traces = write_inputs(tmp_path, segments=1)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"manifests": manifests, "traces": traces, "policies": [{"id": "rate_based"}],
                               "out_dir": str(tmp_path / "out")}))
    assert run(["simulate", "--config", cfg]) == 1
    [row] = read_csv(tmp_path / "out" / "summary.csv")
    assert row["status"] == "error" and "at least one segment" in row["error"]


def test_simulate_fails_a_cell_whose_request_time_overflows(tmp_path):
    # the second request lands at 1e308 + 1e308 s: the session used to spin for ever, so it runs in a child
    manifests, traces = write_inputs(tmp_path)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"manifests": manifests, "traces": traces, "policies": [{"id": "rate_based"}],
                               "player": {"rtt_s": 1e308}, "out_dir": str(tmp_path / "out")}))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = f"import sys; from abrbench import cli; sys.exit(cli.main(['simulate', '--config', {str(cfg)!r}]))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    [row] = read_csv(tmp_path / "out" / "summary.csv")
    assert row["status"] == "error" and "start_time_s + rtt_s must be finite" in row["error"]


def write_table_config(tmp_path, table, n_traces=1):
    manifests, traces = write_inputs(tmp_path, n_traces=n_traces)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "manifests": manifests, "traces": traces, "out_dir": str(tmp_path / "out"),
        "policies": [{"id": "rate_based"}, {"id": "mpc_table", "table": str(table)}],
    }))
    return cfg


def test_simulate_reads_an_mpc_table_once_before_any_cell(tmp_path, monkeypatch):
    table = tmp_path / "t.bin"
    search.save_table(search.build_mpc_table(search.MpcObjectiveParams(horizon=1), search.TableBinning(4, 4)), table)
    cfg = write_table_config(tmp_path, table, n_traces=3)
    reads = []
    load = search.load_table
    monkeypatch.setattr(search, "load_table", lambda path: reads.append(path) or load(path))
    assert run(["simulate", "--config", cfg]) == 0
    assert reads == [str(table)]


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_simulate_names_the_table_key_of_a_table_that_is_not_a_file(tmp_path, capsys, kind):
    # these read "[Errno 2] No such file or directory" and "[Errno 21] Is a directory", naming no key
    table = tmp_path / "t.bin"
    if kind == "directory":
        table.mkdir()
    cfg = write_table_config(tmp_path, table)
    assert run(["simulate", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"abrbench simulate: policies[1] (mpc_table): table file not found: {table}\n"
    assert not (tmp_path / "out").exists()


def test_simulate_builds_each_policy_entry_once_before_its_first_cell(tmp_path, monkeypatch):
    # each entry was built twice before any cell ran: once to check it, once more for check_fits
    table = tmp_path / "t.bin"
    search.save_table(search.build_mpc_table(search.MpcObjectiveParams(horizon=1), search.TableBinning(4, 4)), table)
    cfg = write_table_config(tmp_path, table, n_traces=2)
    built = {"rate_based": 0, "mpc_table": 0}

    def counted(kind, check):
        def post_init(self):
            built[kind] += 1
            check(self)
        return post_init

    for kind in built:
        monkeypatch.setattr(abr.POLICIES[kind], "__post_init__", counted(kind, abr.POLICIES[kind].__post_init__))
    before_cells, run_cell = [], cli._run_cell
    monkeypatch.setattr(cli, "_run_cell", lambda *a: before_cells.append(dict(built)) or run_cell(*a))
    assert run(["simulate", "--config", cfg]) == 0
    assert before_cells[0] == {"rate_based": 1, "mpc_table": 1}
    assert built == {"rate_based": 3, "mpc_table": 3}  # and one fresh copy per cell


def test_simulate_gives_each_cell_of_an_external_entry_its_own_child(tmp_path, monkeypatch):
    script = tmp_path / "rung2.py"
    script.write_text("import sys\nfor line in sys.stdin:\n    print(2, flush=True)\n")
    manifests, traces = write_inputs(tmp_path, n_traces=2)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"manifests": manifests, "traces": traces, "out_dir": str(tmp_path / "out"),
                               "policies": [{"id": "external", "command": [sys.executable, str(script)]}]}))
    children, popen = [], abr.subprocess.Popen
    monkeypatch.setattr(abr.subprocess, "Popen", lambda *a, **k: children.append(popen(*a, **k)) or children[-1])
    assert run(["simulate", "--config", cfg]) == 0
    assert len(children) == 2 and children[0] is not children[1]
    assert [child.returncode for child in children] == [0, 0]  # each closed and reaped by its own cell


def test_named_input_errors_read_byte_for_byte(tmp_path, capsys):
    # each names its source in front of the error it re-raises, joined by ": "
    def err_of(command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config if isinstance(config, str) else json.dumps(config))
        assert run([command, "--config", cfg]) == 2
        return capsys.readouterr().err

    cfg = tmp_path / "cfg.json"
    assert err_of("simulate", '{"manifests": ') == (
        f"abrbench simulate: config {cfg} is not valid JSON: Expecting value: line 1 column 15 (char 14)\n")
    assert err_of("simulate", "{manifests: []}") == (
        f"abrbench simulate: config {cfg} is not valid JSON: "
        "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n")
    manifests, traces = write_inputs(tmp_path)
    m, m2 = tmp_path / "m.json", tmp_path / "m2.json"
    m.write_text('{"segment_duration_s": 4.0,')
    doc = json.loads(Path(manifests[0]).read_text())
    del doc["ladder"][0]["width"]
    m2.write_text(json.dumps(doc))
    assert err_of("simulate", {"manifests": [str(m)]}) == (
        f"abrbench simulate: manifests[0] ({m}): manifest is not valid JSON: "
        "Expecting property name enclosed in double quotes: line 1 column 28 (char 27)\n")
    assert err_of("simulate", {"manifests": [str(m2)]}) == (
        f"abrbench simulate: manifests[0] ({m2}): malformed manifest entry: 'width'\n")
    assert err_of("simulate", {"manifests": manifests, "traces": traces,
                               "policies": [{"id": "rdos", "params": {"horizon": 2, "bogus": 1}}]}) == (
        "abrbench simulate: policies[0] (rdos): params: RdosParams.__init__() got an unexpected keyword argument "
        "'bogus'\n")
    records = tmp_path / "rec"
    records.mkdir()
    (records / "a.record.json").write_text("[1]")
    assert err_of("qoe", {"records_dir": str(records), "out_dir": str(tmp_path / "out")}) == (
        f"abrbench qoe: {records / 'a.record.json'}: a session record must be an object with exactly the keys "
        "['segment_duration_s', 'qualities', 'bitrates_kbps', 'stalls', 'startup_delay_s']\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("printed", ["x", "2.5"])
def test_an_external_policy_that_prints_no_rung_is_named(tmp_path, printed):
    # int() failed the cell with "invalid literal for int() with base 10: 'x'", naming neither
    script = tmp_path / "bad_output.py"
    script.write_text(f"import sys\nfor line in sys.stdin:\n    print({printed!r}, flush=True)\n")
    command = [sys.executable, str(script)]
    message = f"external policy {command} printed {printed!r}, not a rung index"
    manifests, traces = write_inputs(tmp_path)
    manifest = media.parse_manifest(Path(manifests[0]).read_text())
    trace = nettrace.parse_trace(Path(traces[0]["path"]).read_text(), "pairs")
    with abr.ExternalPolicy(command) as policy, pytest.raises(ValueError) as info:
        simulator.run_session(manifest, trace, policy, simulator.PlayerConfig())
    assert str(info.value) == message
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"manifests": manifests, "traces": traces, "out_dir": str(tmp_path / "out"),
                               "policies": [{"id": "external", "command": command}]}))
    assert run(["simulate", "--config", cfg]) == 1
    [row] = read_csv(tmp_path / "out" / "summary.csv")
    assert (row["status"], row["error"]) == ("error", message)


@pytest.mark.parametrize(
    "header", [None, b"[1, 2]\n", b'{"format": "abrbench-mpc-table-v1"}\n', "short"],
    ids=["missing", "list_header", "no_fields", "short_blob"],
)
def test_simulate_rejects_a_bad_mpc_table_before_any_cell(tmp_path, capsys, header):
    # a missing table failed every cell with exit 1; a list header failed each with an AttributeError
    table = tmp_path / "t.bin"
    if header == "short":
        built = search.build_mpc_table(search.MpcObjectiveParams(horizon=1), search.TableBinning(2, 2))
        search.save_table(built, table)
        table.write_bytes(table.read_bytes()[:-1])
    elif header is not None:
        table.write_bytes(header)
    cfg = write_table_config(tmp_path, table)
    assert run(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "policies[1] (mpc_table)" in err and str(table) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "segment_duration_s, rungs", [(1.0, 13), (4.0, 12)], ids=["segment_duration", "ladder"],
)
def test_simulate_rejects_an_mpc_table_built_for_other_manifests(tmp_path, capsys, segment_duration_s, rungs):
    # a 1 s table drove the 4 s manifest with exit 0
    table = tmp_path / "t.bin"
    built = search.build_mpc_table(search.MpcObjectiveParams(horizon=1), search.TableBinning(2, 2),
                                ladder_kbps=[r.bitrate_kbps for r in media.ladder_default()[:rungs]],
                                segment_duration_s=segment_duration_s)
    search.save_table(built, table)
    cfg = write_table_config(tmp_path, table)
    assert run(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "policies[1] (mpc_table) cannot play manifests[0]" in err and "manifest0.json" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"id": "fixed", "rep_index": 20}, "rep_index must be a ladder rung (1..13), got 20"),
        ({"id": "mpc_exact", "params": {"horizon": 7}}, "horizon 7 is too long for 13 ladder rungs"),
        ({"id": "rdos", "params": {"horizon": 20}}, "horizon 9 is too long for 13 ladder rungs"),
    ],
    ids=["fixed", "mpc_exact", "rdos"],
)
def test_simulate_checks_policies_against_every_manifest_before_any_cell(tmp_path, capsys, entry, message):
    # each failed every cell with exit 1 and wrote the outputs
    manifests, traces = write_inputs(tmp_path, segments=10)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"manifests": manifests, "traces": traces, "out_dir": str(tmp_path / "out"),
                               "policies": [{"id": "rate_based"}, entry]}))
    assert run(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"policies[1] ({entry['id']}) cannot play manifests[0]" in err and message in err
    assert not (tmp_path / "out").exists()


def test_mpc_table_keeps_the_previous_artifact_when_saving_fails(tmp_path, monkeypatch):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"mpc_table": {"tput_bins": 2, "buffer_bins": 2, "horizon": 1},
                               "out_dir": str(tmp_path / "out")}))
    assert run(["mpc-table", "--config", cfg]) == 0
    path = tmp_path / "out" / "mpc_table.bin"
    before = path.read_bytes()

    def save_half(table, target):
        Path(target).write_bytes(before[: len(before) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(abr, "save_table", save_half)
    with pytest.raises(OSError, match="disk full"):
        run(["mpc-table", "--config", cfg])
    assert path.read_bytes() == before
    assert list(path.parent.iterdir()) == [path]  # no temporary file left behind
