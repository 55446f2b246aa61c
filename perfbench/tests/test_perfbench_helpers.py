"""Tests for the benchmark's own helpers: python -m pytest perfbench/tests -q"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import metrics  # noqa: E402
from spans import (  # noqa: E402
    Tally,
    Tracer,
    check_metric_name,
    nearest_rank,
    self_times,
    summarize_spans,
    tail_percentile,
)


@pytest.mark.parametrize(
    "n, pct",
    [(1, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    values = list(range(1, n + 1))
    got_pct, value = tail_percentile(values)
    assert got_pct == pct
    beyond = sum(1 for v in values if v > value)
    if n >= 20:
        assert beyond >= 10
    # the next level up would leave fewer than ten beyond it
    higher = [p for p in (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99, 99.999) if p > pct]
    if higher:
        assert sum(1 for v in values if v > nearest_rank(values, higher[0])) < 10


def test_tail_percentile_ignores_input_order_and_rejects_empty():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 20  # n = 100 -> p90
    assert tail_percentile(values) == (90.0, 5.0)
    assert nearest_rank(sorted(values), 50.0) == 3.0
    with pytest.raises(ValueError):
        tail_percentile([])


def test_self_time_subtracts_children_once_and_clips():
    spans = [
        ("parent", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("b", 2.0, 5.0, 0),      # overlaps a: covered [1, 5] counts 4 s, not 5
        ("grand", 1.5, 2.5, 1),  # a grandchild is a's, not the parent's
        ("late", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0, 1.0, 3.0, 1.0, 3.0])


def test_tracer_records_nesting_and_summarizes():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(2) == 9
    spans = tracer.finished()
    assert [(s[0], s[3]) for s in spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    summary = summarize_spans(spans)
    assert summary["inner"]["calls"] == 2 and summary["inner"]["busy_s"] == 2.0
    assert summary["outer"]["busy_s"] == 5.0 and summary["outer"]["self_s"] == 3.0


def test_tracer_names_spans_from_arguments_and_survives_exceptions():
    tracer = Tracer()

    def fail(model):
        raise RuntimeError(model)

    wrapped = tracer.wrap(lambda model: f"qoe.evaluate.{model}", fail)
    with pytest.raises(RuntimeError):
        wrapped("ksqi")
    assert [s[0] for s in tracer.finished()] == ["qoe.evaluate.ksqi"]


@pytest.mark.parametrize("name", ["wall_s", "abr.select.mpc_exact.p50_us", "cli.mpc-table.self_s", "9lives", "a" * 64])
def test_metric_names_accept_the_allowed_characters(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "wall s", "_x", ".x", "-x", "latency/ms", "naïve", "a" * 65, "a\n"])
def test_metric_names_reject_anything_else(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_error_rate_counts_each_failed_operation_once():
    tally = Tally()
    for op in ("p0:cmd.simulate", "p0:simulate.c1", "p0:simulate.c2", "p1:simulate.c1"):
        tally.attempt(op)
    tally.fail("p0:simulate.c1", "wall-time identity")
    tally.fail("p0:simulate.c1", "differs from the reference")  # same operation, still one failure
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.error_rate == 0.25
    assert (tally.attempted_in("p0:"), tally.failed_in("p0:"), tally.failed_in("p1:")) == (3, 1, 0)
    assert len(tally.reasons) == 2
    with pytest.raises(KeyError):
        tally.fail("p0:never-attempted", "no such operation")


def test_reference_comparison_tolerates_last_bits_only():
    assert checks.same({"a": [1, 0.1 + 0.2]}, {"a": [1, 0.3]})
    assert not checks.same(1.0, 1.0 + 1e-6)
    assert not checks.same([1, 2], [1, 3])
    assert not checks.same("abc", "abd")
    tally = Tally()
    tally.attempt("p0:table.build")
    tally.attempt("p0:cmd.stats")
    ref = {"seed": 7, "outputs": {"table.build": {"entries": "0102"}, "cmd.stats": [[0.5]]}}
    checks.compare_reference({"table.build": {"entries": "0103"}, "cmd.stats": [[0.5 + 1e-15]]}, ref, 7, tally, "p0:")
    assert tally.failed == 1 and tally.reasons[0].startswith("p0:table.build")


def test_reference_checks_only_seed_free_outputs_at_other_seeds():
    ref = {"seed": 7, "outputs": {"table.build": {"entries": "0102"}, "cmd.stats": [[0.5]]}}
    assert checks.reference_scope(ref, 7) == "all"
    assert checks.reference_scope(ref, 3) == "seed-free"
    assert checks.reference_scope({"seed": 7, "outputs": {"cmd.stats": [[0.5]]}}, 3) == "none"
    assert checks.reference_scope(None, 7) == "none"
    tally = Tally()
    tally.attempt("p0:table.build")
    tally.attempt("p0:cmd.stats")
    checks.compare_reference({"table.build": {"entries": "0103"}, "cmd.stats": [[0.9]]}, ref, 3, tally, "p0:")
    assert tally.failed == 1 and tally.reasons[0].startswith("p0:table.build")


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(metrics.PER_LAYER)
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_span_metrics_cover_every_span_derived_name():
    got = metrics.span_metrics({}, {}, {}, 1)
    assert set(got) == {name for name, _, _ in metrics.PER_LAYER if metrics.from_spans(name)}
    assert all(v == 0.0 for v in got.values())
