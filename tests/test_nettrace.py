import csv
import json
import math
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from abrbench import cli, nettrace
from abrbench.nettrace import ChannelConfig, Trace, TraceExhaustedError

from conftest import random_trace
from oracles import download_time_ms_numpy, download_time_ms_steps


def test_parse_granular_5s():
    t = nettrace.parse_trace("1000\n2000", "granular_5s")
    assert t.samples == ((0.0, 1000.0), (5.0, 2000.0))
    assert t.duration_s == 10.0


def test_parse_granular_1s():
    t = nettrace.parse_trace("300\n400\n500", "granular_1s")
    assert t.samples == ((0.0, 300.0), (1.0, 400.0), (2.0, 500.0))
    assert t.duration_s == 3.0


def test_parse_pairs_single_sample():
    t = nettrace.parse_trace("(0,500)", "pairs")
    assert t.samples == ((0.0, 500.0),)
    assert t.duration_s > 0


def test_parse_negative_bandwidth_rejected():
    with pytest.raises(ValueError):
        nettrace.parse_trace("-3", "granular_5s")
    with pytest.raises(ValueError):
        nettrace.parse_trace("0,-1", "pairs")
    with pytest.raises(ValueError, match="line 2"):
        nettrace.parse_trace("100\nnan", "granular_1s")
    with pytest.raises(ValueError, match="line 1"):
        nettrace.parse_trace("0,inf", "pairs")


def test_parse_unordered_or_empty_rejected():
    with pytest.raises(ValueError):
        nettrace.parse_trace("0,100\n0,200", "pairs")
    with pytest.raises(ValueError):
        nettrace.parse_trace("", "granular_1s")


@pytest.mark.parametrize(
    "text, fmt, message",
    [
        ("abc", "granular_1s", "bandwidth 'abc' on line 1 is not a number"),  # no line number
        ("100\n200\nabc", "granular_5s", "bandwidth 'abc' on line 3 is not a number"),
        ("0,100\n1,abc", "pairs", "bandwidth 'abc' on line 2 is not a number"),
        ("0,100\n0.5,100\n0.2,100", "pairs", "time 0.2 on line 3 is not after the previous sample's 0.5"),
        ("0,100\nnan,100", "pairs", "time nan on line 2 is not finite"),  # reported as a nan duration
        ("0,100\ninf,100", "pairs", "time inf on line 2 is not finite"),
        ("x,100", "pairs", "time 'x' on line 1 is not a number"),
        ("# time_s,kbps\n\n0,100\n1,-5", "pairs", "bandwidth -5.0 on line 4"),  # comments and blanks count
        ("# time_s,kbps\n2.5,100\n3,100", "pairs", "time 2.5 on line 2 is not 0: the first sample must start"),
        ("0,100\n30,200\n20", "pairs", "end time 20.0 on line 3 is not finite, > 0 and at or after the last start"),
        ("0,100\ninf", "pairs", "end time inf on line 2 is not finite"),
        ("0,100\nnan", "pairs", "end time nan on line 2 is not finite"),
        ("0,100\n0", "pairs", "end time 0.0 on line 2 is not finite, > 0"),
        ("0,100\nx", "pairs", "end time 'x' on line 2 is not a number"),
        ("0,100\n5\n10,200", "pairs", "malformed pair on line 2: '5'"),  # only the last line can be the end
        ("5", "pairs", "malformed pair on line 1: '5'"),  # an end line needs a sample before it
    ],
    ids=["granular_word", "granular_word_line3", "pairs_word_bandwidth", "pairs_time_goes_back", "pairs_nan_time",
         "pairs_inf_time", "pairs_word_time", "pairs_line_after_comment", "pairs_first_time_not_zero",
         "end_before_last_start", "end_inf", "end_nan", "end_zero", "end_word", "end_not_last", "end_only"],
)
def test_parse_names_the_fault_and_its_line(text, fmt, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        nettrace.parse_trace(text, fmt)


def test_serialize_round_trip():
    t = nettrace.parse_trace("0,100\n7.5,2000\n30,0", "pairs", duration_s=55.0)
    text = nettrace.serialize_trace(t)
    assert text.endswith("\n30.0,0.0\n55.0\n")  # the end line carries the duration
    assert nettrace.parse_trace(text, "pairs") == t
    assert nettrace.parse_trace(text, "pairs", duration_s=40.0).duration_s == 40.0  # an explicit duration wins
    assert nettrace.parse_trace("0,100\n7.5,2000\n30,0", "pairs").duration_s == 52.5  # no end line: trailing gap


def test_every_window_reads_back_as_it_was_cut(tmp_path):
    # a 2.5 s stride over 5 s samples: window 1 ends halfway through a sample, so a duration taken from
    # the trailing gap (42.5 s, not 40 s) read it back with another mean
    values = [1000.0, 1800.0, 600.0, 2400.0, 1400.0, 900.0, 3000.0, 1200.0, 2000.0, 500.0]
    raw = tmp_path / "raw.txt"
    raw.write_text("".join(f"{v!r}\n" for v in values))
    cfg = tmp_path / "traces.json"
    cfg.write_text(json.dumps({"traces_ingest": {"inputs": [{"path": str(raw), "format": "granular_5s"}],
                                                 "window_s": 40.0, "stride_s": 2.5, "min_avg_kbps": 0.0},
                               "out_dir": str(tmp_path / "out")}))
    assert cli.main(["traces", "--config", str(cfg)]) == 0
    cut = list(nettrace.window_traces(nettrace.parse_trace(raw.read_text(), "granular_5s"), 40.0, 2.5))
    written = sorted((tmp_path / "out" / "traces").glob("*.csv"))
    assert len(written) == len(cut) == 5
    assert [nettrace.parse_trace(p.read_text(), "pairs") for p in written] == cut


def test_window_count_arithmetic():
    t = nettrace.parse_trace("\n".join(["1000"] * 22), "granular_5s")  # 110 s
    windows = list(nettrace.window_traces(t, window_s=55.0, stride_s=55.0))
    assert len(windows) == 2
    assert all(w.duration_s == 55.0 for w in windows)


def test_window_identity():
    t = nettrace.parse_trace("0,100\n10,900", "pairs", duration_s=40.0)
    (w,) = nettrace.window_traces(t, window_s=40.0, stride_s=40.0)
    assert w.samples == t.samples
    assert w.duration_s == 40.0


def test_window_reorigins_time():
    t = nettrace.parse_trace("0,100\n10,900\n30,400", "pairs", duration_s=60.0)
    windows = list(nettrace.window_traces(t, window_s=20.0, stride_s=20.0))
    assert windows[1].samples[0] == (0.0, 900.0)
    assert windows[1].samples[1] == (10.0, 400.0)


def test_window_bad_args():
    t = nettrace.parse_trace("0,100", "pairs", duration_s=10.0)
    with pytest.raises(ValueError):
        nettrace.window_traces(t, window_s=55.0, stride_s=5.0)
    with pytest.raises(ValueError):
        nettrace.window_traces(t, window_s=5.0, stride_s=0.0)


def test_window_starts_at_its_index_times_the_stride():
    # ten added strides of 0.1 reach 0.9999999999999999, which cut window 10 before the step at 1.0
    t = nettrace.parse_trace("0,100\n1,900", "pairs", duration_s=2.0)
    windows = list(nettrace.window_traces(t, window_s=0.5, stride_s=0.1))
    assert len(windows) == 16
    assert windows[10].samples == ((0.0, 900.0),)
    assert windows[9].samples == ((0.0, 100.0), (0.09999999999999998, 900.0))  # 1.0 - 9 * 0.1


def refuse_to_cut(monkeypatch):
    """Fail at the first window cut, so a stride that is not refused up front cannot run on."""

    def cut(self, t):
        raise AssertionError("a window was cut")

    monkeypatch.setattr(Trace, "_index_at", cut)


@pytest.mark.parametrize("stride_s", [1e-9, 1e-300, 5e-324, 9.9e-05])
def test_window_count_is_refused_before_any_window_is_cut(monkeypatch, stride_s):
    refuse_to_cut(monkeypatch)
    t = Trace(samples=((0.0, 100.0),), duration_s=105.0)  # 1,010,102 windows at the largest stride
    with pytest.raises(ValueError, match=r"stride_s .* cuts more than 1000000 windows"):
        nettrace.window_traces(t, window_s=5.0, stride_s=stride_s)


def test_window_count_at_the_limit(monkeypatch):
    monkeypatch.setattr(nettrace, "MAX_WINDOWS", 10)
    assert len(list(nettrace.window_traces(Trace(samples=((0.0, 100.0),), duration_s=10.0), 1.0, 1.0))) == 10
    with pytest.raises(ValueError, match="stride_s 1.0 cuts more than 10 windows"):
        nettrace.window_traces(Trace(samples=((0.0, 100.0),), duration_s=11.0), 1.0, 1.0)


def test_traces_command_refuses_a_stride_that_cuts_too_many_windows(tmp_path, capsys, monkeypatch):
    refuse_to_cut(monkeypatch)
    raw = tmp_path / "raw.csv"
    raw.write_text("0,100\n100,200\n")
    cfg = tmp_path / "traces.json"
    cfg.write_text(json.dumps({"traces_ingest": {"inputs": [str(raw)], "window_s": 5.0, "stride_s": 1e-9},
                               "out_dir": str(tmp_path / "out")}))
    assert cli.main(["traces", "--config", str(cfg)]) == 2
    assert "stride_s 1e-09 cuts more than 1000000 windows" in capsys.readouterr().err
    assert not (tmp_path / "out" / "traces").exists()


def test_windows_are_cut_one_at_a_time(monkeypatch):
    t = Trace(samples=((0.0, 100.0), (3.0, 200.0)), duration_s=10.0)
    windows = nettrace.window_traces(t, window_s=2.0, stride_s=1.0)
    assert next(windows) == Trace(samples=((0.0, 100.0),), duration_s=2.0)
    refuse_to_cut(monkeypatch)  # the second window is cut only when asked for
    with pytest.raises(AssertionError, match="a window was cut"):
        next(windows)


def test_windows_match_a_scan_of_the_whole_tail():
    rng = random.Random(19)
    for case in range(200):
        if case % 2:
            t = random_trace(rng)
            window_s = rng.uniform(0.05, 1.0) * t.duration_s
            stride_s = rng.choice([window_s, rng.uniform(0.01, 2.0) * window_s])
        else:  # windows that start and end on sample boundaries
            values = "".join(f"{rng.randint(0, 900)}\n" for _ in range(rng.randint(1, 30)))
            t = nettrace.parse_trace(values, "granular_1s")
            window_s, stride_s = float(rng.randint(1, int(t.duration_s))), float(rng.randint(1, 5))
        expected = []
        for w in range(len(list(nettrace.window_traces(t, window_s, stride_s)))):
            t0 = w * stride_s
            i = max(k for k, (s, _) in enumerate(t.samples) if s <= t0)
            samples = [(0.0, t.samples[i][1])]
            samples += [(s - t0, bw) for s, bw in t.samples[i + 1:] if t0 < s < t0 + window_s]
            expected.append(Trace(samples=tuple(samples), duration_s=window_s))
        assert list(nettrace.window_traces(t, window_s, stride_s)) == expected


def test_window_preserves_time_weighted_mean():
    rng = random.Random(7)
    for _ in range(20):
        t = random_trace(rng, n_segments=6)
        if t.duration_s < 10.0:
            continue
        w = next(nettrace.window_traces(t, window_s=t.duration_s / 2, stride_s=t.duration_s / 2))
        # reference mean over [0, half] straight from the original samples
        half = t.duration_s / 2
        total = 0.0
        for i, (s, bw) in enumerate(t.samples):
            end = t.samples[i + 1][0] if i + 1 < len(t.samples) else t.duration_s
            lo, hi = max(s, 0.0), min(end, half)
            if hi > lo:
                total += bw * (hi - lo)
        assert w.mean_kbps() == pytest.approx(total / half, rel=1e-12)


def ingest_floor(tmp_path, pairs_text, min_avg_kbps):
    """Run the traces command on one pairs trace cut into 55 s windows; return (mean, kept) rows and kept files."""
    raw = tmp_path / "raw.csv"
    raw.write_text(pairs_text)
    cfg = tmp_path / "traces.json"
    cfg.write_text(json.dumps({"traces_ingest": {"inputs": [str(raw)], "min_avg_kbps": min_avg_kbps},
                               "out_dir": str(tmp_path / "out")}))
    assert cli.main(["traces", "--config", str(cfg)]) == 0
    with open(tmp_path / "out" / "trace_index.csv", newline="") as fh:
        rows = [(float(r["mean_kbps"]), r["kept"]) for r in csv.DictReader(fh)]
    kept_dir = tmp_path / "out" / "traces"
    return rows, sorted(p.name for p in kept_dir.iterdir()) if kept_dir.exists() else []


def test_filter_threshold_cases(tmp_path):
    # window means 100, 201 and 250 (half at 0 kb/s, half at 500): the two above the floor are kept
    rows, kept = ingest_floor(tmp_path, "0,100\n55,201\n110,0\n137.5,500\n165,500\n", 200.0)
    assert rows == [(100.0, "0"), (201.0, "1"), (250.0, "1")]
    assert kept == ["raw_w001.csv", "raw_w002.csv"]


def test_filter_strictness_at_boundary(tmp_path):
    # windows whose mean is the floor itself are dropped, and still indexed
    rows, kept = ingest_floor(tmp_path, "0,200\n55,200\n", 200.0)
    assert rows == [(200.0, "0"), (200.0, "0")]
    assert kept == []


def test_download_constant_closed_form(flat_trace):
    ch = ChannelConfig()
    assert nettrace.download_time(flat_trace, ch, 0.0, 500_000.0) == pytest.approx(0.58)


def test_download_two_interval_exact():
    # 1000 kb/s for 1 s then 2000 kb/s; RTT overlaps the first interval:
    # bits flow from t=0.08, so 920k bits arrive by t=1, and the
    # remaining 1.08M bits take 0.54 s -> 1.54 s total.
    t = nettrace.parse_trace("0,1000\n1,2000", "pairs", duration_s=100.0)
    ch = ChannelConfig()
    got = nettrace.download_time(t, ch, 0.0, 2_000_000.0)
    assert got == pytest.approx(1.54, abs=1e-12)
    assert got == pytest.approx(download_time_ms_steps(t, ch, 0.0, 2_000_000.0), abs=1e-6)


def test_download_zero_size_is_rtt(flat_trace):
    assert nettrace.download_time(flat_trace, ChannelConfig(), 0.0, 0.0) == 0.08


def test_download_zero_bandwidth_spans_elapse():
    t = Trace(samples=((0.0, 0.0), (2.0, 1000.0)), duration_s=10.0)
    ch = ChannelConfig(rtt_s=0.0)
    assert nettrace.download_time(t, ch, 0.0, 1_000_000.0) == pytest.approx(3.0)


def test_download_loops_when_session_outlasts_trace():
    t = Trace(samples=((0.0, 1000.0),), duration_s=2.0)
    ch = ChannelConfig(rtt_s=0.0, loop_trace=True)
    # 10 Mbit at 1 Mbit/s needs 10 s = five loops
    assert nettrace.download_time(t, ch, 0.0, 10_000_000.0) == pytest.approx(10.0)


def test_download_exhaustion_without_looping():
    t = Trace(samples=((0.0, 1000.0),), duration_s=2.0)
    ch = ChannelConfig(rtt_s=0.0, loop_trace=False)
    with pytest.raises(TraceExhaustedError):
        nettrace.download_time(t, ch, 0.0, 10_000_000.0)


def test_download_zero_bandwidth_loop_error():
    t = Trace(samples=((0.0, 0.0),), duration_s=5.0)
    ch = ChannelConfig(loop_trace=True)
    with pytest.raises(TraceExhaustedError):
        nettrace.download_time(t, ch, 0.0, 1.0)


def test_download_rejects_bad_args(flat_trace):
    with pytest.raises(ValueError):
        nettrace.download_time(flat_trace, ChannelConfig(), -1.0, 10.0)
    with pytest.raises(ValueError):
        nettrace.download_time(flat_trace, ChannelConfig(), 0.0, -10.0)
    for start, size in ((0.0, math.nan), (0.0, math.inf), (math.nan, 10.0), (math.inf, 10.0)):
        with pytest.raises(ValueError, match="size_bits|start_time_s"):
            nettrace.download_time(flat_trace, ChannelConfig(), start, size)


def test_download_refuses_a_request_time_that_overflows():
    # 1e308 + 1e308 is inf and inf % duration is NaN: the walk looped on it for ever, so the call runs in a
    # child process that the timeout ends
    code = ("from abrbench.nettrace import ChannelConfig, Trace, download_time\n"
            "download_time(Trace(((0.0, 3000.0),), 55.0), ChannelConfig(rtt_s=1e308), 1e308, 1e6)\n")
    src = str(Path(nettrace.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "ValueError: start_time_s + rtt_s must be finite, got 1e+308 + 1e+308" in proc.stderr


@given(st.integers(0, 10_000_000), st.integers(0, 10_000_000))
@settings(max_examples=40, deadline=None)
def test_download_monotone_in_size(size_a, size_b):
    t = Trace(samples=((0.0, 800.0), (3.0, 100.0), (9.0, 2500.0)), duration_s=20.0)
    ch = ChannelConfig()
    lo, hi = sorted([size_a, size_b])
    assert nettrace.download_time(t, ch, 0.0, lo) <= nettrace.download_time(t, ch, 0.0, hi)


@given(st.floats(0.0, 5000.0), st.integers(1, 5_000_000))
@settings(max_examples=40, deadline=None)
def test_download_faster_channel_not_slower(boost, size):
    base = Trace(samples=((0.0, 500.0), (4.0, 1500.0)), duration_s=10.0)
    faster = Trace(samples=((0.0, 500.0 + boost), (4.0, 1500.0 + boost)), duration_s=10.0)
    ch = ChannelConfig()
    assert nettrace.download_time(faster, ch, 0.0, size) <= nettrace.download_time(base, ch, 0.0, size) + 1e-12


def test_download_matches_integrator_on_random_cases():
    rng = random.Random(42)
    ch = ChannelConfig()
    for _ in range(25):
        trace = random_trace(rng)
        start = rng.randint(0, int(trace.duration_s * 1000) - 1) / 1000.0
        size = rng.uniform(0.0, 3e6)
        analytic = nettrace.download_time(trace, ch, start, size)
        stepped = download_time_ms_steps(trace, ch, start, size)
        assert analytic == pytest.approx(stepped, abs=1e-6)


@pytest.mark.parametrize(
    "samples, duration_s",
    [
        (((0.0, 100.0),), 0.0),
        (((0.0, 100.0),), -1.0),
        (((0.0, 100.0),), math.nan),
        (((0.0, 100.0),), math.inf),
        (((0.0, math.nan),), 10.0),
        (((0.0, math.inf),), 10.0),
        (((0.0, 100.0), (math.nan, 100.0)), 10.0),
    ],
)
def test_trace_rejects_non_finite_or_non_positive_values(samples, duration_s):
    with pytest.raises(ValueError, match="duration_s|bandwidth|start times"):
        Trace(samples=samples, duration_s=duration_s)


def test_channel_rejects_non_finite_rtt():
    for rtt in (math.nan, math.inf, -0.1):
        with pytest.raises(ValueError, match="rtt_s"):
            ChannelConfig(rtt_s=rtt)


def test_download_ending_on_a_loop_boundary():
    ch = ChannelConfig(rtt_s=0.0)
    # bits flow only in [1, 2) of each 2 s loop: 2 Mbit are in at t=4,
    # not one zero-bandwidth second later
    lead = Trace(samples=((0.0, 0.0), (1.0, 1000.0)), duration_s=2.0)
    assert nettrace.download_time(lead, ch, 0.0, 2_000_000.0) == 4.0
    # bits flow only in [0, 1): 2 Mbit are in at t=3, before the zero span
    trail = Trace(samples=((0.0, 1000.0), (1.0, 0.0)), duration_s=2.0)
    assert nettrace.download_time(trail, ch, 0.0, 2_000_000.0) == 3.0


def test_cached_timeline_survives_pickle():
    fresh = Trace(samples=((0.0, 500.0), (2.0, 0.0), (3.5, 1200.0)), duration_s=5.0)
    used = Trace(samples=fresh.samples, duration_s=fresh.duration_s)
    ch = ChannelConfig()
    before = nettrace.download_time(used, ch, 1.0, 4_000_000.0)
    assert "timeline" in vars(used)  # derived once, on first use
    again = pickle.loads(pickle.dumps(used))
    assert again == fresh and hash(again) == hash(fresh)
    assert again.timeline == fresh.timeline
    assert nettrace.download_time(again, ch, 1.0, 4_000_000.0) == before


@st.composite
def ms_traces(draw):
    """Traces on a 1 ms grid with integer kb/s values (so the oracle's
    per-millisecond sums are exact), zero-bandwidth spans included."""
    spans_ms = draw(st.lists(st.integers(1, 1500), min_size=1, max_size=6))
    rates = [draw(st.just(0) | st.integers(50, 20_000)) for _ in spans_ms]
    starts = [sum(spans_ms[:k]) / 1000.0 for k in range(len(spans_ms))]
    samples = tuple((s, float(r)) for s, r in zip(starts, rates))
    return Trace(samples=samples, duration_s=sum(spans_ms) / 1000.0), spans_ms, rates


@given(ms_traces(), st.booleans(), st.integers(0, 200), st.data())
@settings(max_examples=150, deadline=None)
def test_download_matches_numpy_oracle_across_loops(drawn, loop, rtt_ms, data):
    trace, spans_ms, rates = drawn
    duration_ms = sum(spans_ms)
    loop_bits = float(sum(r * s for r, s in zip(rates, spans_ms)))  # kb/s x ms = bits
    start_ms = data.draw(st.integers(0, 4 * duration_ms), label="start_ms")
    # up to five loops' bits (1 Mbit when the trace carries none), so the walk wraps
    # and skips whole loops; exact multiples of a loop are included
    size = data.draw(st.integers(0, 5000), label="size_permille") * (loop_bits or 1e6) / 1000.0
    ch = ChannelConfig(rtt_s=rtt_ms / 1000.0, loop_trace=loop)
    start = start_ms / 1000.0

    def oracle(bits):
        try:
            return download_time_ms_numpy(trace, ch, start, bits)
        except ValueError:
            return None

    expected = oracle(size)
    # Where the completion time jumps (the bits run out just as a zero-bandwidth
    # span or the end of a non-looping trace begins) the answer is not
    # continuous in size; both sides are exact to the bit, so skip those sizes.
    for nearby in (oracle(size * (1 - 1e-9)), oracle(size * (1 + 1e-9))):
        assume((nearby is None) == (expected is None))
        assume(expected is None or abs(nearby - expected) < 1e-4)
    if expected is None:
        with pytest.raises(TraceExhaustedError):
            nettrace.download_time(trace, ch, start, size)
    else:
        assert nettrace.download_time(trace, ch, start, size) == pytest.approx(expected, abs=1e-6)
