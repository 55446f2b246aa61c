#!/usr/bin/env python3
"""End-to-end synthetic experiment: policy grid -> QoE -> significance.

Generates a synthetic manifest and a nine-trace channel corpus, replays
the (manifest x trace x policy) grid through the CLI, scores every
session record under all built-in QoE models, and prints the per-policy
KSQI comparison with a Wilcoxon significance matrix.

Usage: python scripts/demo_grid.py [workdir]
"""

import csv
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from abrbench import cli, media, nettrace, qoe, stats


TRACES = {
    "low_constant": [(0.0, 1200.0)],
    "mid_constant": [(0.0, 4500.0)],
    "step_up": [(0.0, 1000.0), (20.0, 6000.0)],
    "step_down": [(0.0, 6000.0), (20.0, 900.0)],
    "oscillating": [(0.0, 2500.0), (10.0, 600.0), (20.0, 2500.0), (30.0, 600.0), (40.0, 2500.0)],
    "ramp": [(0.0, 500.0), (10.0, 1500.0), (20.0, 3000.0), (30.0, 5000.0), (40.0, 8000.0)],
    "outage": [(0.0, 3500.0), (25.0, 0.0), (29.0, 3500.0)],
    "spiky": [(0.0, 800.0), (5.0, 9000.0), (10.0, 800.0), (15.0, 9000.0), (20.0, 800.0), (25.0, 9000.0)],
    "high_constant": [(0.0, 9000.0)],
}

POLICIES = [
    {"id": "rate_based", "name": "rate_based"},
    {"id": "buffer_based", "name": "buffer_based"},
    {"id": "mpc_exact", "name": "fastmpc", "params": {"horizon": 5}},
    {"id": "rdos", "name": "rdos"},
]


def main():
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_out")
    workdir.mkdir(parents=True, exist_ok=True)

    manifest = media.synthetic_manifest(segments=14, size_jitter=0.12, seed=7)
    manifest_path = workdir / "title.json"
    manifest_path.write_text(media.serialize_manifest(manifest))

    trace_entries = []
    for name, samples in TRACES.items():
        duration = 30.0 if name == "spiky" else 55.0
        trace = nettrace.Trace(samples=tuple(samples), duration_s=duration)
        path = workdir / f"trace_{name}.csv"
        path.write_text(nettrace.serialize_trace(trace))
        trace_entries.append({"path": str(path), "format": "pairs"})

    config = {
        "manifests": [str(manifest_path)],
        "traces": trace_entries,
        "policies": POLICIES,
        "player": {"max_buffer_s": 60.0, "initial_rep": 1, "rtt_s": 0.08},
        "qoe_models": [{"id": m} for m in sorted(qoe.MODELS)],
        "out_dir": str(workdir / "out"),
    }
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=1))

    rc = cli.main(["simulate", "--config", str(config_path)])
    rc |= cli.main(["qoe", "--config", str(config_path)])
    if rc:
        return rc

    # per-policy KSQI comparison across the trace grid, from the scores qoe wrote (repr form: read back exactly)
    by_policy = {p["name"]: {} for p in POLICIES}
    with open(workdir / "out" / "qoe_scores.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["model_id"] == "ksqi":
                _, trace_stem, policy_name = row["video_id"].split("__")
                by_policy[policy_name][trace_stem.removeprefix("trace_")] = float(row["score"])

    traces_sorted = sorted(TRACES)
    print("\nKSQI-style score per (policy, trace):")
    header = f"{'policy':>14} " + " ".join(f"{t[:9]:>9}" for t in traces_sorted) + "     mean"
    print(header)
    samples = {}
    for name, per_trace in by_policy.items():
        row = [per_trace[t] for t in traces_sorted]
        samples[name] = row
        print(f"{name:>14} " + " ".join(f"{v:9.2f}" for v in row) + f" {np.mean(row):8.2f}")

    matrix = stats.build_significance_matrix(samples, test="wilcoxon")
    print("\nWilcoxon significance matrix (1 = row beats column):")
    report = matrix.to_markdown()
    print(report)
    (workdir / "out" / "policy_significance.md").write_text(report)
    print(f"artifacts in {workdir / 'out'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
