"""The measured process: imports abrbench from ``src`` and runs one workload.

    python3 perfbench/worker.py setup PLAN.json   # import + load inputs, print timings, exit
    python3 perfbench/worker.py run PLAN.json     # prep, then timed passes; result to plan["result_path"]

``run.py`` starts it; it is not meant to be run by hand. A pass runs
every command of the workload once, in order, through ``cli.main``. In
a traced run, untraced and traced serial passes alternate; the traced
ones wrap the layers' public functions where their callers look them up.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, summarize_spans  # noqa: E402


def import_cli():
    sys.path.insert(0, str(HERE.parent / "src"))
    t0 = time.perf_counter()
    from abrbench import cli
    return cli, time.perf_counter() - t0


def load_inputs(plan: dict) -> None:
    """Parse what the workload's first command reads: config, manifests, traces, records, ratings."""
    from abrbench import media, nettrace, simulator, subjective

    json.loads(Path(plan["config"]).read_text())
    inputs = plan["inputs"]
    for path in inputs.get("manifests", []):
        media.parse_manifest(Path(path).read_text())
    for entry in inputs.get("traces", []):
        nettrace.parse_trace(Path(entry["path"]).read_text(), entry["format"])
    if "records_dir" in inputs:
        for path in sorted(Path(inputs["records_dir"]).glob("*.record.json")):
            simulator.record_from_json(path.read_text())
    if "ratings_csv" in inputs:
        subjective.load_ratings_csv(Path(inputs["ratings_csv"]).read_text())


def _patch_table(tracer: Tracer):
    """(owner, attribute, traced wrapper) for every public function the traced run measures."""
    from abrbench import abr, media, nettrace, qoe, simulator, stats, subjective

    rows = [
        (media, "parse_manifest", "media.parse_manifest"),
        (nettrace, "parse_trace", "nettrace.parse_trace"),
        # run_session looks these up in its own module, and AbrState in abr on every call.
        (simulator, "download_time", "nettrace.download_time"),
        (simulator, "buffer_step", "simulator.buffer_step"),
        (abr, "AbrState", "abr.AbrState"),
        (abr, "make_policy", "abr.make_policy"),
        (abr, "save_table", "abr.save_table"),
        (qoe, "evaluate", lambda model_id, *a, **k: f"qoe.evaluate.{model_id}"),
    ]
    rows += [(simulator, f, f"simulator.{f}")
             for f in ("run_session", "to_record", "log_to_json", "record_to_json", "record_from_json")]
    rows += [(stats, f, f"stats.{f}")
             for f in ("krcc", "srcc", "plcc", "f_test_variance", "wilcoxon_signed_rank", "build_significance_matrix")]
    rows += [(subjective, f, f"subjective.{f}") for f in metrics.SUBJECTIVE]
    for cls, name in ((abr.RateBasedPolicy, "rate_based"), (abr.BufferBasedPolicy, "buffer_based"),
                      (abr.MpcExactPolicy, "mpc_exact"), (abr.MpcTablePolicy, "mpc_table"),
                      (abr.RdosPolicy, "rdos")):
        rows.append((cls, "select", f"abr.select.{name}"))

    fit = stats.fit_logistic

    def fit_counted(*args, **kwargs):
        result = fit(*args, **kwargs)
        tracer.count("stats.fit_logistic.converged", float(result.converged))
        return result

    build = abr.build_mpc_table

    def build_timed(*args, **kwargs):
        # Time each throughput bin through the public progress callback.
        if len(args) < 5 and kwargs.get("progress") is None:
            last = [tracer.clock()]

            def progress(done, total):
                now = tracer.clock()
                tracer.add_sample("abr.table_bin", now - last[0])
                last[0] = now

            kwargs["progress"] = progress
        return build(*args, **kwargs)

    patches = [(owner, attr, tracer.wrap(name, getattr(owner, attr))) for owner, attr, name in rows]
    patches.append((stats, "fit_logistic", tracer.wrap("stats.fit_logistic", fit_counted)))
    patches.append((abr, "build_mpc_table", tracer.wrap("abr.build_mpc_table", build_timed)))
    return patches


class Patched:
    """Installs traced wrappers for the duration of a ``with`` block."""

    def __init__(self, patches):
        self.patches = patches

    def __enter__(self):
        self.saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in self.patches]
        for owner, attr, fn in self.patches:
            setattr(owner, attr, fn)
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in self.saved:
            setattr(owner, attr, fn)
        return False


def run_pass(cli, plan: dict, index: int, kind: str, tracer: Tracer | None) -> dict:
    """Run every command of one pass; ``kind`` is full, plain (serial) or traced (serial)."""
    out = Path(plan["work"]) / "out" / f"p{index}"
    fmt = {"out": str(out), "jobs": "2" if kind == "full" else "1"}
    steps = []
    for step in plan["steps"]:
        if "glue" in step:
            workloads.glue_grid_scores(step["qoe_csv"].format(**fmt), step["scores_csv"])
            continue
        if step.get("parallel") and kind != "full":
            continue
        argv = [a.format(**fmt) for a in step["argv"]]
        main = tracer.wrap(f"cli.{step['label']}", cli.main) if kind == "traced" else cli.main
        error = None
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except Exception as exc:  # a command that raises is a failed operation, not a crashed run
            rc, error = -1, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        steps.append({"label": step["label"], "rc": rc, "wall_s": wall, "error": error})
    return {"index": index, "kind": kind, "dir": str(out), "steps": steps,
            "wall_s": sum(s["wall_s"] for s in steps)}


def peak_rss_mb() -> float:
    """Peak resident memory so far of this process or of any finished worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def run(plan: dict) -> dict:
    cli, _ = import_cli()
    for argv in plan.get("prep", []):
        if cli.main(argv) != 0:
            raise SystemExit(f"preparing inputs failed: abrbench {' '.join(argv)}")
    trace = bool(plan["trace"])
    tracer = Tracer() if trace else None
    patched = Patched(_patch_table(tracer)) if trace else None
    passes = []
    result = {"passes": passes}
    start = time.perf_counter()
    while True:
        if trace:
            kind = "plain" if len(passes) % 2 == 0 else "traced"
        else:
            kind = "full"
        if kind == "traced":
            with patched:
                passes.append(run_pass(cli, plan, len(passes), kind, tracer))
        else:
            passes.append(run_pass(cli, plan, len(passes), kind, tracer))
        if len(passes) == 1:
            # Later passes only add allocator growth, and how many fit depends on the machine's speed.
            result["peak_rss_mb"] = peak_rss_mb()
        elapsed = time.perf_counter() - start
        if trace and len(passes) < 2:
            continue
        if elapsed + passes[-1]["wall_s"] > plan["seconds"]:
            break
    if trace:
        traced = sum(1 for p in passes if p["kind"] == "traced")
        summary = summarize_spans(tracer.finished())
        result["span_metrics"] = metrics.span_metrics(summary, tracer.samples, tracer.counts, traced)
    return result


def main(argv) -> int:
    mode, plan_path = argv
    plan = json.loads(Path(plan_path).read_text())
    if mode == "setup":
        _, import_s = import_cli()
        t0 = time.perf_counter()
        load_inputs(plan)
        print(json.dumps({"import_s": import_s, "inputs_s": time.perf_counter() - t0}), flush=True)
        return 0
    if mode == "run":
        result = run(plan)
        Path(plan["result_path"]).write_text(json.dumps(result))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
