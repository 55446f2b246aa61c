import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from abrbench import media, nettrace, simulator
from abrbench.abr import BufferBasedPolicy, FixedPolicy, RateBasedPolicy
from abrbench.nettrace import ChannelConfig, Trace
from abrbench.simulator import PlayerConfig, SessionLog, buffer_step, run_session, to_record

from conftest import ScriptedPolicy, random_trace


def assert_log_document_holds(log):
    """``log_to_json`` writes every field of ``log``, in declaration order, pairs and tuples as lists."""
    doc = json.loads(simulator.log_to_json(log))
    assert list(doc) == ["choices", "download_spans", "startup_delay_s", "stalls", "total_wall_time_s"]
    assert doc["choices"] == list(log.choices)
    assert doc["download_spans"] == [list(span) for span in log.download_spans]
    assert doc["startup_delay_s"] == log.startup_delay_s
    assert doc["stalls"] == [list(stall) for stall in log.stalls]
    assert doc["total_wall_time_s"] == log.total_wall_time_s


def test_buffer_step_hand_cases():
    assert buffer_step(8.0, 3.0, 4.0, 60.0) == (9.0, 0.0, 0.0)
    assert buffer_step(2.0, 3.0, 4.0, 60.0) == (4.0, 1.0, 0.0)


@given(st.floats(min_value=0.0, max_value=100.0))
def test_buffer_step_empty_buffer_stalls_everything(t):
    new_buf, stall, idle = buffer_step(0.0, t, 4.0, 60.0)
    assert new_buf == 4.0
    assert stall == t
    assert idle == 0.0


def test_buffer_step_idles_at_capacity():
    new_buf, stall, idle = buffer_step(59.0, 1.0, 4.0, 60.0)
    assert new_buf == 60.0
    assert stall == 0.0
    assert idle == pytest.approx(2.0)


@given(
    st.floats(0.0, 60.0), st.floats(0.0, 30.0), st.floats(0.5, 10.0), st.floats(20.0, 80.0)
)
def test_buffer_step_stays_in_bounds(buf, dt, seg, cap):
    new_buf, stall, idle = buffer_step(buf, dt, seg, cap)
    assert 0.0 <= new_buf <= cap or new_buf == pytest.approx(min(buf - min(buf, dt) + seg, cap))
    assert stall >= 0.0 and idle >= 0.0


@pytest.mark.parametrize("args, name", [
    ((math.nan, 3.0, 4.0, 60.0), "buffer_s"),
    ((-1.0, 3.0, 4.0, 60.0), "buffer_s"),
    ((math.inf, 3.0, 4.0, 60.0), "buffer_s"),
    ((5.0, math.nan, 4.0, 60.0), "download_time_s"),
    ((5.0, -1.0, 4.0, 60.0), "download_time_s"),
    ((5.0, math.inf, 4.0, 60.0), "download_time_s"),
    ((5.0, 3.0, 0.0, 60.0), "segment_duration_s"),
    ((5.0, 3.0, -4.0, 60.0), "segment_duration_s"),
    ((5.0, 3.0, math.nan, 60.0), "segment_duration_s"),
    ((5.0, 3.0, 4.0, 0.0), "max_buffer_s"),
    ((5.0, 3.0, 4.0, math.nan), "max_buffer_s"),
    ((5.0, 3.0, 4.0, math.inf), "max_buffer_s"),
])
def test_buffer_step_refuses_bad_input(args, name):
    # a NaN download time used to return a NaN stall, a negative one a buffer
    # grown by more than a segment
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        buffer_step(*args)


def test_hand_stepped_session():
    # 3 chunks at rung 1 (940,000 bits each) over constant 1000 kb/s:
    # every download takes 0.08 + 0.94 = 1.02 s, no stalls, buffer ends
    # at 4 + 2*(4 - 1.02) = 9.96 s.
    m = media.synthetic_manifest(segments=3)
    tr = nettrace.parse_trace("0,1000", "pairs", duration_s=1000.0)
    log = run_session(m, tr, FixedPolicy(1), PlayerConfig())
    assert log.startup_delay_s == pytest.approx(1.02)
    assert log.stalls == ()
    assert log.download_spans == (
        (0.0, pytest.approx(1.02)),
        (pytest.approx(1.02), pytest.approx(2.04)),
        (pytest.approx(2.04), pytest.approx(3.06)),
    )
    assert log.total_wall_time_s == pytest.approx(1.02 + 3 * 4.0)
    # closing buffer = total downloaded - played at last finish
    played_at_finish = log.download_spans[-1][1] - log.startup_delay_s - log.total_stall_s
    assert 3 * 4.0 - played_at_finish == pytest.approx(9.96)


def test_unconstrained_channel_never_stalls():
    m = media.synthetic_manifest(segments=10)
    tr = nettrace.parse_trace("0,100000", "pairs", duration_s=1000.0)
    log = run_session(m, tr, RateBasedPolicy(), PlayerConfig())
    assert log.stalls == ()
    assert log.startup_delay_s == pytest.approx(0.08 + m.sizes[0][0] / 1e8, abs=1e-6)


def test_top_rung_on_starved_channel_matches_recursion():
    m = media.synthetic_manifest(segments=4)
    tr = nettrace.parse_trace("0,300", "pairs", duration_s=10000.0)
    cfg = PlayerConfig()
    log = run_session(m, tr, FixedPolicy(13), cfg)
    # every chunk except the first stalls; recompute by hand recursion
    buf = 4.0
    expected = []
    for k in range(2, 5):
        dt = 0.08 + m.sizes[k - 1][12] / (300.0 * 1000.0)
        new_buf, stall, _ = buffer_step(buf, dt, 4.0, 60.0)
        expected.append(stall)
        buf = new_buf
    assert [d for _, d in log.stalls] == pytest.approx(expected)
    assert [p for p, _ in log.stalls] == pytest.approx([4.0, 8.0, 12.0])


def test_determinism():
    m = media.synthetic_manifest(segments=8, size_jitter=0.2, seed=11)
    tr = Trace(samples=((0.0, 900.0), (20.0, 2500.0), (40.0, 400.0)), duration_s=55.0)
    a = run_session(m, tr, RateBasedPolicy(), PlayerConfig())
    b = run_session(m, tr, RateBasedPolicy(), PlayerConfig())
    assert a == b


def test_wall_time_identity_randomized():
    rng = random.Random(5)
    for _ in range(50):
        m = media.synthetic_manifest(segments=rng.randint(2, 10), size_jitter=0.3, seed=rng.randint(0, 99))
        tr = random_trace(rng, n_segments=4)
        policy = rng.choice([FixedPolicy(rng.randint(1, 13)), RateBasedPolicy(), BufferBasedPolicy()])
        log = run_session(m, tr, policy, PlayerConfig())
        played = m.segment_count * m.segment_duration_s
        assert abs(log.total_wall_time_s - (log.startup_delay_s + played + log.total_stall_s)) < 1e-9


def test_faster_constant_channel_never_increases_stalls():
    # On a time-varying trace a faster channel can reach a slow region
    # sooner and stall more (the slower session hides the wait inside
    # startup), so session-level monotonicity only holds when the rate
    # shift cannot move downloads across bandwidth regions. Constant
    # traces isolate the true property; the per-request form is covered
    # in the channel tests.
    rng = random.Random(9)
    m = media.synthetic_manifest(segments=8)
    choices = [rng.randint(1, 13) for _ in range(8)]
    for _ in range(20):
        rate = rng.uniform(150.0, 6000.0)
        base = Trace(samples=((0.0, rate),), duration_s=50.0)
        boosted = Trace(samples=((0.0, rate + rng.uniform(0.0, 3000.0)),), duration_s=50.0)
        pol = ScriptedPolicy(choices)
        cfg = PlayerConfig(initial_rep=choices[0])
        slow = run_session(m, base, pol, cfg)
        fast = run_session(m, boosted, pol, cfg)
        assert fast.total_stall_s <= slow.total_stall_s + 1e-9


def test_to_record_drops_first_chunk():
    m = media.synthetic_manifest(segments=8)
    tr = nettrace.parse_trace("0,2000", "pairs", duration_s=1000.0)
    cfg = PlayerConfig()
    log = run_session(m, tr, FixedPolicy(3), cfg)
    rec = to_record(log, m, cfg)
    assert rec.segment_count == 7
    assert rec.startup_delay_s == 0.0
    assert rec.qualities == tuple(m.qualities[i][2] for i in range(1, 8))
    assert rec.bitrates_kbps == tuple(m.sizes[i][2] / 4.0 / 1000.0 for i in range(1, 8))


def test_to_record_identity_when_not_dropping():
    m = media.synthetic_manifest(segments=5)
    tr = nettrace.parse_trace("0,2000", "pairs", duration_s=1000.0)
    cfg = PlayerConfig(drop_first_chunk=False)
    log = run_session(m, tr, FixedPolicy(2), cfg)
    rec = to_record(log, m, cfg)
    assert rec.segment_count == 5
    assert rec.startup_delay_s == log.startup_delay_s
    assert rec.stalls == log.stalls


def test_to_record_stall_offset_arithmetic():
    # hand-built log: stall at playhead 6 s shifts to 2 s after trimming
    log = SessionLog(
        choices=(1, 1, 1),
        download_spans=((0.0, 1.0), (1.0, 2.0), (2.0, 9.0)),
        startup_delay_s=1.0,
        stalls=((6.0, 2.5),),
        total_wall_time_s=1.0 + 12.0 + 2.5,
    )
    m = media.synthetic_manifest(segments=3)
    rec = to_record(log, m, PlayerConfig())
    assert rec.stalls == ((2.0, 2.5),)


@pytest.mark.parametrize("bad", [0, -1, 14])
def test_to_record_refuses_a_choice_outside_the_ladder(bad):
    # a rung read straight from a manifest row: 0 and -1 would read the top rungs
    log = SessionLog(choices=(1, bad, 1), download_spans=((0.0, 1.0),) * 3, startup_delay_s=1.0, stalls=(),
                     total_wall_time_s=13.0)
    with pytest.raises(IndexError, match=rf"representation index {bad} out of range 1\.\.13"):
        to_record(log, media.synthetic_manifest(segments=3), PlayerConfig())


def test_buffer_capacity_respected():
    # tiny cap forces idle: buffer may never exceed it
    m = media.synthetic_manifest(segments=12)
    tr = nettrace.parse_trace("0,50000", "pairs", duration_s=1000.0)
    cfg = PlayerConfig(max_buffer_s=8.0)
    log = run_session(m, tr, FixedPolicy(1), cfg)
    buf = m.segment_duration_s
    for k in range(1, 12):
        dt = log.download_spans[k][1] - log.download_spans[k][0]
        buf, stall, idle = buffer_step(buf, dt, m.segment_duration_s, cfg.max_buffer_s)
        assert 0.0 <= buf <= cfg.max_buffer_s
    assert log.total_wall_time_s == pytest.approx(log.startup_delay_s + 48.0 + log.total_stall_s)


def test_log_json_round_trip():
    m = media.synthetic_manifest(segments=6)
    tr = nettrace.parse_trace("0,700", "pairs", duration_s=1000.0)
    cfg = PlayerConfig()
    log = run_session(m, tr, BufferBasedPolicy(), cfg)
    assert_log_document_holds(log)
    rec = to_record(log, m, cfg)
    assert simulator.record_from_json(simulator.record_to_json(rec)) == rec


def test_policy_states_keep_their_history_view():
    # every state a policy keeps still shows the samples it was built with:
    # read-only, never grown by later chunks
    m = media.synthetic_manifest(segments=200, size_jitter=0.2, seed=3)
    tr = nettrace.parse_trace("0,900\n7,4000\n19,2500", "pairs", duration_s=31.0)

    kept = []

    class Keeper(RateBasedPolicy):
        def select(self, state):
            kept.append((state, tuple(state.throughput_history_kbps)))
            return super().select(state)

    log = run_session(m, tr, Keeper(), PlayerConfig(max_buffer_s=20.0))
    assert [s.chunk_index for s, _ in kept] == list(range(2, 201))
    for state, snapshot in kept:
        history = state.throughput_history_kbps
        assert len(history) == state.chunk_index - 1
        assert tuple(history) == snapshot and tuple(history[-3:]) == snapshot[-3:]
        with pytest.raises(TypeError):
            history[0] = 1.0
    # the last state saw one sample per earlier download, in order
    spans = log.download_spans[:-1]
    sizes = [m.sizes[k][rep - 1] for k, rep in enumerate(log.choices[:-1])]
    assert kept[-1][1] == pytest.approx([size / (b - a) / 1000.0 for size, (a, b) in zip(sizes, spans)])


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_buffer_s": math.nan},  # ran with no buffer cap
        {"max_buffer_s": math.inf},
        {"max_buffer_s": 0.0},
        {"max_buffer_s": None},
        {"initial_rep": 1.5},  # failed later inside run_session
        {"initial_rep": 0},
        {"initial_rep": "1"},
        {"drop_first_chunk": "no"},
        {"drop_first_chunk": 1},
        {"channel": {"loop_trace": "false"}},
        {"channel": {"loop_trace": None}},
        {"channel": {"rtt_s": None}},
        {"initial_rep": True},  # ran at rung 1
        {"max_buffer_s": True},
        {"channel": {"rtt_s": True}},
    ],
)
def test_player_config_rejects_bad_values(kwargs):
    field = next(iter(kwargs.get("channel", kwargs)))
    with pytest.raises(ValueError, match=field):
        if "channel" in kwargs:
            ChannelConfig(**kwargs["channel"])
        else:
            PlayerConfig(**kwargs)


@pytest.mark.parametrize("kwargs, message", [
    ({"initial_rep": 14}, r"^initial_rep must be a rung of the ladder \(1\.\.13\), got 14$"),
    ({"max_buffer_s": 7.9}, r"^max_buffer_s must be at least two segments \(8\.0 s\), got 7\.9$"),
])
def test_run_session_checks_the_player_against_the_manifest(kwargs, message):
    m = media.synthetic_manifest(segments=3)
    tr = nettrace.parse_trace("0,700", "pairs", duration_s=1000.0)
    with pytest.raises(ValueError, match=message):
        run_session(m, tr, FixedPolicy(2), PlayerConfig(**kwargs))
    PlayerConfig(initial_rep=13, max_buffer_s=8.0).check_fits(m)  # the boundaries fit


def test_numpy_initial_rep_gives_a_plain_log():
    m = media.synthetic_manifest(segments=3)
    tr = nettrace.parse_trace("0,700", "pairs", duration_s=1000.0)
    log = run_session(m, tr, FixedPolicy(2), PlayerConfig(initial_rep=np.int64(3)))
    assert log.choices == (3, 2, 2)
    assert_log_document_holds(log)


def test_trace_exhaustion_propagates():
    m = media.synthetic_manifest(segments=8)
    tr = Trace(samples=((0.0, 500.0),), duration_s=5.0)
    cfg = PlayerConfig(channel=ChannelConfig(loop_trace=False))
    with pytest.raises(nettrace.TraceExhaustedError):
        run_session(m, tr, FixedPolicy(13), cfg)


def test_invalid_policy_output_rejected():
    m = media.synthetic_manifest(segments=3)
    tr = nettrace.parse_trace("0,700", "pairs", duration_s=1000.0)

    class Returns:
        def __init__(self, value):
            self.value = value

        def select(self, state):
            return self.value

    for bad in (99, 2.7):  # out of the ladder, or not integral (never truncated)
        with pytest.raises(ValueError, match=str(bad)):
            run_session(m, tr, Returns(bad), PlayerConfig())
    for integral in (3.0, np.int64(3)):
        assert run_session(m, tr, Returns(integral), PlayerConfig()).choices == (1, 3, 3)



finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


@st.composite
def session_logs(draw):
    n = draw(st.integers(1, 30))
    starts = sorted(draw(st.lists(finite, min_size=n, max_size=n)))
    spans = tuple((a, a + draw(positive)) for a in starts)
    positions = sorted(draw(st.lists(finite, max_size=5)))
    return SessionLog(
        choices=tuple(draw(st.lists(st.integers(1, 13), min_size=n, max_size=n))),
        download_spans=spans,
        startup_delay_s=draw(finite),
        stalls=tuple((p, draw(positive)) for p in positions),
        total_wall_time_s=draw(finite),
    )


@st.composite
def session_records(draw):
    n = draw(st.integers(1, 30))
    return simulator.SessionRecord(
        segment_duration_s=draw(positive),
        qualities=tuple(draw(st.lists(st.floats(0.0, 100.0), min_size=n, max_size=n))),
        bitrates_kbps=tuple(draw(st.lists(positive, min_size=n, max_size=n))),
        stalls=tuple(draw(st.lists(st.tuples(finite, positive), max_size=5))),
        startup_delay_s=draw(finite),
    )


@given(session_logs())
def test_log_json_round_trip_property(log):
    assert_log_document_holds(log)


@given(session_records())
def test_record_json_round_trip_property(record):
    text = simulator.record_to_json(record)
    again = simulator.record_from_json(text)
    assert again == record
    assert simulator.record_to_json(again) == text


def test_record_values_are_checked_not_coerced():
    good = dict(segment_duration_s=4.0, qualities=[50.0], bitrates_kbps=[900.0], stalls=[[4.0, 1.0]], startup_delay_s=0.0)
    record = simulator.SessionRecord(**good)
    assert record.qualities == (50.0,) and record.stalls == ((4.0, 1.0),)  # lists are stored as tuples
    ints = simulator.SessionRecord(**{**good, "qualities": [50], "segment_duration_s": 4})
    assert type(ints.qualities[0]) is float and type(ints.segment_duration_s) is float
    for edit in ({"qualities": ["50"]}, {"qualities": [True]}, {"qualities": [math.nan]}, {"bitrates_kbps": [-1.0]},
                 {"stalls": [[4.0, -3.0]]}, {"stalls": [[-0.5, 1.0]]}, {"stalls": [(1.0, 2.0, 3.0)]},
                 {"startup_delay_s": math.inf}, {"segment_duration_s": True}, {"qualities": [], "bitrates_kbps": []}):
        with pytest.raises(ValueError):
            simulator.SessionRecord(**{**good, **edit})
