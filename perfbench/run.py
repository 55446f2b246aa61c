#!/usr/bin/env python3
"""abrbench benchmark: seeded workloads through the abrbench CLI.

Run from the repository root:

    python3 perfbench/run.py --workload grid --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload offline --trace 1        # per-layer timings
    python3 perfbench/run.py --workload grid --result BENCH_x.json  # also keep a result file
    python3 perfbench/run.py --compare BENCH_a.json BENCH_b.json   # per-metric ratios

Each run writes the workload's inputs for ``--seed`` to a work
directory inside the checkout, times ``setup_s`` in fresh interpreters,
then runs the workload's commands in one measured process, pass after
pass, for ``--seconds``. It checks every pass's outputs and prints a
report, then one JSON line: end-to-end metrics with ``--trace 0``,
per-layer metrics from a separate traced serial run with ``--trace 1``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from spans import Tally, check_metric_name, quartiles  # noqa: E402

SETUP_PROBES = 7  # after one discarded warm-up probe, which may compile the .pyc files
DEADLINE_S = 170.0  # a run must end within 180 s
# One client, one process; --jobs 2 is the only parallelism. Pin BLAS so
# the two workers do not oversubscribe a 2-core machine.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    return env


def measure_setup(plan_path: Path, log) -> list[dict]:
    """Time fresh interpreters until each has imported abrbench.cli and loaded the inputs."""
    probes = []
    for _ in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), "setup", str(plan_path)],
                                stdout=subprocess.PIPE, stderr=log, text=True, env=_env(), cwd=ROOT)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            rc = proc.wait()
        if rc != 0 or not line:
            raise RuntimeError(f"setup probe failed with exit code {rc}")
        probe = json.loads(line)
        probe["setup_s"] = ready
        probes.append(probe)
    return probes[1:]


def run_worker(plan_path: Path, log, timeout: float) -> None:
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), "run", str(plan_path)],
                            stdout=log, stderr=log, env=_env(), cwd=ROOT)
    try:
        rc = proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"measured process did not finish within {timeout:.0f} s")
    if rc != 0:
        raise RuntimeError(f"measured process failed with exit code {rc}")


def _stat(values, unit):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "unit": unit, "values": values}


def _step_walls(passes, label):
    return [s["wall_s"] for p in passes for s in p["steps"] if s["label"] == label]


def command_metrics(plan: dict, passes: list[dict], probes, peak_rss_mb: float, tally: Tally) -> dict:
    """The per-command figures of the workload, named as in the README, over full passes."""
    out = {"setup_s": _stat([p["setup_s"] for p in probes], "s")}
    for label, name in (("simulate", "simulate_s"), ("simulate_jobs2", "simulate_jobs2_s"),
                        ("mpc_table", "mpc_table_s"), ("qoe", "qoe_s"),
                        ("subjective", "subjective_s"), ("stats", "stats_s")):
        walls = _step_walls(passes, label)
        if walls:
            out[name] = _stat(walls, "s")
    if "simulate_s" in out:
        chunks = len(plan["cells"]) * plan["chunks_per_cell"]
        out["chunks_per_s"] = _stat([chunks / w for w in _step_walls(passes, "simulate")], "chunks/s")
    if "mpc_table_s" in out:
        out["table_cells_per_s"] = _stat([plan["table_cells"] / w for w in _step_walls(passes, "mpc_table")],
                                         "cells/s")
    out["peak_rss_mb"] = _stat([peak_rss_mb], "MB")
    out["error_rate"] = _stat([tally.error_rate], "fraction")
    return out


def _output_bytes(pass_dir: Path) -> int:
    return sum(p.stat().st_size for p in pass_dir.rglob("*") if p.is_file())


def layer_metrics(result, probes, tally) -> dict[str, float]:
    """Every per-layer metric: spans from traced passes, walls from the untraced serial ones."""
    passes = result["passes"]
    traced = [p for p in passes if p["kind"] == "traced"]
    plain = [p for p in passes if p["kind"] == "plain"]
    out = dict(result["span_metrics"])
    out["setup.import_s"] = statistics.median([p["import_s"] for p in probes])
    out["setup.inputs_s"] = statistics.median([p["inputs_s"] for p in probes])
    for command in metrics.COMMANDS:
        walls = _step_walls(plain, command)
        out[f"cli.{command}.wall_s"] = statistics.median(walls) if walls else 0.0
    out["cli.output_bytes"] = statistics.median([_output_bytes(Path(p["dir"])) for p in traced])
    out["cli.cells.attempted"] = statistics.median([tally.attempted_in(f"p{p['index']}:") for p in traced])
    out["cli.cells.failed"] = statistics.median([tally.failed_in(f"p{p['index']}:") for p in traced])
    traced_wall = statistics.median([p["wall_s"] for p in traced])
    out["trace.overhead_frac"] = traced_wall / statistics.median([p["wall_s"] for p in plain]) - 1.0
    out["trace.passes"] = len(traced)
    return {name: out[name] for name, _, _ in metrics.PER_LAYER}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # a plain checkout: do not let git search the parents
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def run_metadata(args, passes) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "setup_probes": SETUP_PROBES,
        "blas_env": PINNED_ENV,
    }


def load_reference(workload: str) -> dict | None:
    path = HERE / "reference" / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else None


def record_reference(workload: str, seed: int, digest: dict) -> None:
    path = HERE / "reference" / f"{workload}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"seed": seed, "rel_tol": checks.REL_TOL, "outputs": digest}, sort_keys=True) + "\n")
    print(f"recorded {path.relative_to(ROOT)}")


def print_report(workload, meta, figures, layers, tally, scope) -> None:
    print(f"== abrbench benchmark: workload {workload}, seed {meta['seed']}, "
          f"{meta['passes']} passes in {meta['seconds']} s, trace {meta['trace']}")
    print(f"   nproc {meta['nproc']}, python {meta['python']}, numpy {meta['numpy']}, "
          f"scipy {meta['scipy']}, commit {meta['commit']}")
    checked = {"all": "yes", "seed-free": f"only {', '.join(checks.SEED_FREE)} (seed-free)",
               "none": "no (properties only)"}[scope]
    print(f"   outputs checked against the reference: {checked}")
    for name, s in figures.items():
        print(f"   {name:<20} {s['median']:>14.6g} {s['unit']:<9} q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
    print(f"   operations attempted {tally.attempted}, failed {tally.failed}")
    for reason in tally.reasons[:20]:
        print(f"   FAILED {reason}")
    if layers is not None:
        print("   traced run: serial passes only; spans inside --jobs 2 workers are not collected")
        for name, unit, _ in metrics.PER_LAYER:
            print(f"   {name:<44} {layers[name]:>14.6g} {unit}")


def merge_result(path: Path, key: str, entry: dict) -> None:
    doc = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    doc["workloads"][key] = entry
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def compare(base_path: str, new_path: str) -> int:
    """Print new/base ratios per workload and metric. Reports only; never gates."""
    base = json.loads(Path(base_path).read_text())["workloads"]
    new = json.loads(Path(new_path).read_text())["workloads"]
    print(f"{'workload':<14} {'metric':<44} {'base':>14} {'new':>14} {'new/base':>9}")
    for workload in sorted(set(base) & set(new)):
        b, n = base[workload]["metrics"], new[workload]["metrics"]
        for name in sorted(set(b) & set(n)):
            bv, nv = b[name]["median"], n[name]["median"]
            ratio = f"{nv / bv:9.3f}" if bv else "      n/a"
            print(f"{workload:<14} {name:<44} {bv:>14.6g} {nv:>14.6g} {ratio}")
    return 0


def bench(args) -> int:
    if not (ROOT / "src" / "abrbench" / "__init__.py").is_file():
        print(f"abrbench sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = workloads.make_plan(args.workload, work / "inputs", args.seed)
        plan.update(work=str(work), trace=args.trace, seconds=args.seconds,
                    result_path=str(work / "result.json"))
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        with open(work / "worker.log", "w") as log:
            try:
                probes = measure_setup(plan_path, log)
                run_worker(plan_path, log, DEADLINE_S - (time.perf_counter() - started))
            except RuntimeError as exc:
                log.flush()
                tail = (work / "worker.log").read_text()[-4000:]
                print(f"benchmark failed: {exc}\n{tail}", file=sys.stderr)
                return 1
        result = json.loads((work / "result.json").read_text())
        passes = result["passes"]

        reference = load_reference(args.workload)
        scope = "none" if args.record_reference else checks.reference_scope(reference, args.seed)
        tally = Tally()
        digest = None
        for p in passes:
            obs = checks.check_pass(plan, p, tally)
            if scope != "none":
                checks.compare_reference(obs, reference, args.seed, tally, f"p{p['index']}:")
            if digest is None and p["kind"] != "traced":
                digest = obs

        meta = run_metadata(args, passes)
        full = [p for p in passes if p["kind"] == "full"]
        figures = command_metrics(plan, full, probes, result["peak_rss_mb"], tally) if full else {}
        layers = layer_metrics(result, probes, tally) if args.trace else None
        print_report(args.workload, meta, figures, layers, tally, scope)

        if args.record_reference:
            if tally.failed:
                print("not recording a reference from a run with failures", file=sys.stderr)
                return 1
            record_reference(args.workload, args.seed, digest)

        if args.trace:
            values = layers
            units = {name: unit for name, unit, _ in metrics.PER_LAYER}
        else:
            values = {"wall_s": statistics.median([p["wall_s"] for p in full]),
                      "setup_s": figures["setup_s"]["median"],
                      "peak_rss_mb": result["peak_rss_mb"]}
            units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
        if args.result:
            kept = dict(figures)
            if args.trace:
                kept.update({k: {"median": v, "unit": units[k]} for k, v in values.items()})
            else:
                kept["wall_s"] = _stat([p["wall_s"] for p in full], "s")
            key = f"{args.workload}:trace" if args.trace else args.workload
            merge_result(Path(args.result), key, {
                "meta": meta, "attempted": tally.attempted, "failed": tally.failed,
                "failures": tally.reasons, "metrics": kept})
        line = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {check_metric_name(k): {"value": v, "unit": units[k]} for k, v in values.items()},
        }
        print(json.dumps(line))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = work.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30, help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", help="merge this run into a result file (JSON)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two result files")
    parser.add_argument("--record-reference", action="store_true",
                        help="write this run's outputs as reference/<workload>.json")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
