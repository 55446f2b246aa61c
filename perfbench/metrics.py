"""Metric names, units and how per-layer metrics derive from spans.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json``; a test keeps
the two in step.
"""

from __future__ import annotations

from spans import check_metric_name, nearest_rank, tail_percentile
from workloads import QOE_MODELS

# (name, unit, better, bound)
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

POLICIES = ("rate_based", "buffer_based", "mpc_exact", "mpc_table", "rdos")
COMMANDS = ("simulate", "mpc_table", "qoe", "subjective", "stats")
SUBJECTIVE = ("load_ratings_csv", "z_normalize", "reject_bt500", "realign",
              "build_sensitivity_report", "personal_mean_cdf")

_TIMED = ("calls", "busy_s", "p50_us", "tail_us", "tail_pct")


def _per_layer():
    rows = [("setup.import_s", "s"), ("setup.inputs_s", "s"), ("media.parse_manifest.busy_s", "s")]
    rows += [(f"nettrace.download_time.{s}", None) for s in _TIMED]
    rows += [("nettrace.parse_trace.busy_s", "s"),
             ("abr.AbrState.calls", "count"), ("abr.AbrState.busy_s", "s"),
             ("simulator.run_session.self_s", "s"),
             ("simulator.buffer_step.calls", "count"), ("simulator.buffer_step.busy_s", "s"),
             ("simulator.to_record.busy_s", "s"), ("simulator.log_to_json.busy_s", "s"),
             ("simulator.record_to_json.busy_s", "s")]
    rows += [(f"abr.select.{p}.{s}", None) for p in POLICIES for s in _TIMED]
    rows += [("abr.make_policy.busy_s", "s"), ("abr.build_mpc_table.busy_s", "s"),
             ("abr.table_bin.calls", "count"), ("abr.table_bin.p50_ms", "ms"),
             ("abr.table_bin.tail_ms", "ms"), ("abr.table_bin.tail_pct", "%"),
             ("abr.save_table.busy_s", "s")]
    rows += [(f"qoe.evaluate.{m}.{s}", None) for m in QOE_MODELS for s in ("calls", "busy_s")]
    rows += [("simulator.record_from_json.busy_s", "s"),
             ("stats.krcc.busy_s", "s"), ("stats.srcc.busy_s", "s"), ("stats.plcc.busy_s", "s"),
             ("stats.fit_logistic.calls", "count"), ("stats.fit_logistic.busy_s", "s"),
             ("stats.fit_logistic.converged_frac", "fraction"),
             ("stats.f_test_variance.busy_s", "s"),
             ("stats.wilcoxon_signed_rank.calls", "count"), ("stats.wilcoxon_signed_rank.busy_s", "s"),
             ("stats.build_significance_matrix.busy_s", "s")]
    rows += [(f"subjective.{f}.busy_s", "s") for f in SUBJECTIVE]
    rows += [(f"cli.{c}.self_s", "s") for c in COMMANDS]
    rows += [(f"cli.{c}.wall_s", "s") for c in COMMANDS]
    rows += [("cli.output_bytes", "bytes"), ("cli.cells.attempted", "count"), ("cli.cells.failed", "count"),
             ("trace.overhead_frac", "fraction"), ("trace.passes", "count")]
    out = []
    for name, unit in rows:
        if unit is None:
            unit = {"calls": "count", "busy_s": "s", "p50_us": "us", "tail_us": "us", "tail_pct": "%"}[
                name.rsplit(".", 1)[1]]
        better = "higher" if name.endswith((".converged_frac", ".tail_pct", "cells.attempted", "trace.passes")) else "lower"
        out.append((check_metric_name(name), unit, better))
    return tuple(out)


# (name, unit, better)
PER_LAYER = _per_layer()


def from_spans(name: str) -> bool:
    """Whether a per-layer metric is derived from spans (the rest come from the runner)."""
    return not (name.startswith(("setup.", "trace.", "cli.output_bytes", "cli.cells.")) or name.endswith(".wall_s"))


def span_metrics(summary: dict, samples: dict, counts: dict, passes: int) -> dict[str, float]:
    """Per-layer metrics that come from spans, averaged per traced pass.

    ``summary`` maps span names to calls/busy_s/self_s/durations,
    ``samples`` holds table-bin durations and ``counts`` the converged
    logistic fits. Functions never called read 0.
    """
    out: dict[str, float] = {}
    for name, unit, _ in PER_LAYER:
        if not from_spans(name):
            continue
        span, stat = name.rsplit(".", 1)
        entry = summary.get(span)
        if span == "abr.table_bin":
            durations = samples.get(span, [])
        else:
            durations = entry["durations"] if entry else []
        scale = 1e3 if unit == "ms" else 1e6
        if stat == "calls":
            out[name] = len(durations) / passes
        elif stat in ("busy_s", "self_s"):
            out[name] = entry[stat] / passes if entry else 0.0
        elif stat in ("p50_us", "p50_ms"):
            out[name] = nearest_rank(sorted(durations), 50.0) * scale if durations else 0.0
        elif stat in ("tail_us", "tail_ms"):
            out[name] = tail_percentile(durations)[1] * scale if durations else 0.0
        elif stat == "tail_pct":
            out[name] = tail_percentile(durations)[0] if durations else 0.0
        elif stat == "converged_frac":
            calls = len(summary.get("stats.fit_logistic", {}).get("durations", []))
            out[name] = counts.get("stats.fit_logistic.converged", 0.0) / calls if calls else 0.0
        else:
            raise ValueError(f"no rule derives {name} from spans")
    return out
