"""``checks.to_json`` writes what ``json.dumps(doc, indent=1)`` writes, byte for byte.

Every JSON artifact (session logs and records, manifests, ``qoe_scores.json``
and ``significance.json``) goes through it, and ``tests/golden_digests.json``
pins the bytes those files held when ``json.dumps`` wrote them.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from abrbench import checks, media, simulator
from abrbench.abr import BufferBasedPolicy, FixedPolicy, RateBasedPolicy
from abrbench.nettrace import Trace
from abrbench.simulator import PlayerConfig, run_session, to_record


def assert_writes_as_json_dumps(doc):
    assert checks.to_json(doc) == json.dumps(doc, indent=1)


HAND_PICKED = {
    "empty_list": [],
    "empty_dict": {},
    "empty_containers_inside": {"a": [], "b": {}, "c": [[], {}], "d": [[], []], "e": [{}, {}]},
    "nested_dicts": {"a": {"b": {"c": {"d": 1.5}}, "e": {}}, "f": [{"g": [1, 2]}]},
    "ints_next_to_floats": [1, 1.0, -2, -2.5, 0, 0.0, 10**30, 3.0e-7],
    "pairs_of_ints_and_floats": [[1, 2.5], [3.0, 4], [-0.0, 0]],
    "bools_and_none": [True, False, None, [None, True], {"x": False}],
    "float_extremes": [-0.0, 5e-324, 1e16, 1e22, 1.7976931348623157e308, 0.1, 1 / 3],
    "non_finite": [math.nan, math.inf, -math.inf, [math.nan, -math.inf], {"x": math.inf}],
    "leaves_at_top": {"n": None, "t": True, "i": 7, "f": -0.0, "s": "x"},
    "comma_space_strings": ["a, b", ", ", "[1, 2]", {"k, v": "x, y"}, [["a, b", "c"], ["d", "e, f"]]],
    "strings_next_to_numbers": [[1, "2, 3"], [4, 5]],
    "non_ascii": {"é": "naïve ☃ \U0001f600", "tab\t": "quote \" backslash \\ \n"},
    "ragged_rows": [[1, 2], [3], [4, 5, 6]],
    "rows_of_one": [[1.5], [2.5]],
    "rows_holding_containers": [[1, [2, 3]], [4, [5, 6]]],
    "rows_then_a_leaf": [[1, 2], 3],
    "leaf_then_rows": [3, [1, 2]],
    "a_leaf_among_rows_one_nested": [[1, [2]], 5, [3]],
    "an_empty_row": [[1, 2], []],
    "rows_of_flat_dicts": [{"a": 1, "b": "x, y"}, {"c": None, "d": "},\n {"}, {"e": -0.0}],
    "an_empty_dict_row": [{"a": 1}, {}],
    "a_dict_row_holding_a_list": [{"a": 1}, {"b": [2]}],
    "dicts_then_lists": [{"a": 1}, [2], {"b": 3}],
    "rows_of_constants": [[True, None], [False, math.nan]],
    "tuples": ((1.0, 2.0), [(3, 4), (5, 6)]),
    "deep_rows": [[[1, 2], [3, 4]], [[5, 6], [7, 8]]],
    "top_level_leaf": 1.25,
    "top_level_string": "a, b",
    "non_string_keys": {1: 2, 1.5: [1, {}], False: {None: "x"}, -0.0: [[1]], math.nan: 0, math.inf: {2: [3]}},
    "strings_with_line_breaks_and_brackets": [["a\n]", "[,\n"], ["]", "["], {"\n": "],\n ["}],
}


@pytest.mark.parametrize("doc", HAND_PICKED.values(), ids=HAND_PICKED.keys())
def test_hand_picked_documents(doc):
    assert_writes_as_json_dumps(doc)


texts = st.text(alphabet=st.sampled_from(', []{}:"\\\naé☃'), max_size=4)
leaves = st.none() | st.booleans() | st.integers() | st.floats() | texts
keys = texts | st.none() | st.booleans() | st.integers() | st.floats()
documents = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(keys, children, max_size=3)
    | st.lists(st.lists(leaves, max_size=3), max_size=4)  # rows of leaves
    | st.lists(st.dictionaries(keys, leaves, max_size=3), max_size=4),
    max_leaves=30,
)


@given(documents)
def test_random_documents(doc):
    assert_writes_as_json_dumps(doc)


def test_keys_are_refused_as_json_dumps_refuses_them():
    for doc in ({(1, 2): 3}, {"a": {(1, 2): [3]}}):
        with pytest.raises(TypeError, match="keys must be str, int, float, bool or None, not tuple"):
            json.dumps(doc, indent=1)
        with pytest.raises(TypeError, match="keys must be str, int, float, bool or None, not tuple"):
            checks.to_json(doc)


def _written_and_dumped(manifest, trace, policy, config):
    """(what the writer wrote, what json.dumps writes) for the log, and for the record when a segment is left."""
    log = run_session(manifest, trace, policy, config)
    pairs = [(simulator.log_to_json(log), json.dumps(vars(log), indent=1))]
    if manifest.segment_count > int(config.drop_first_chunk):
        record = to_record(log, manifest, config)
        pairs.append((simulator.record_to_json(record), json.dumps(vars(record), indent=1)))
    return log, pairs


@st.composite
def sessions(draw):
    manifest = media.synthetic_manifest(
        segments=draw(st.integers(1, 12)),
        segment_duration_s=draw(st.sampled_from([1.0, 2.0, 4.0])),
        size_jitter=draw(st.floats(0.0, 0.4)),
        seed=draw(st.integers(0, 99)),
    )
    # rates from near-starvation (a stall per chunk) to ample (none)
    rates = draw(st.lists(st.floats(20.0, 20000.0), min_size=1, max_size=5))
    step = draw(st.floats(0.5, 20.0))
    trace = Trace(samples=tuple((i * step, r) for i, r in enumerate(rates)), duration_s=len(rates) * step)
    policy = draw(st.sampled_from([FixedPolicy(1), FixedPolicy(13), RateBasedPolicy(), BufferBasedPolicy()]))
    config = PlayerConfig(drop_first_chunk=draw(st.booleans()), max_buffer_s=draw(st.sampled_from([8.0, 30.0, 60.0])))
    return manifest, trace, policy, config


@settings(max_examples=80, deadline=None)
@given(sessions())
def test_session_documents_property(session):
    _, pairs = _written_and_dumped(*session)
    for written, dumped in pairs:
        assert written == dumped


@pytest.mark.parametrize("drop_first_chunk", [True, False])
@pytest.mark.parametrize(
    "segments, rate_kbps, stalls",
    [(1, 5000.0, False), (1, 50.0, False), (12, 50000.0, False), (12, 100.0, True)],
    ids=["one_chunk_fast", "one_chunk_slow", "no_stalls", "stalls"],
)
def test_session_documents_by_case(segments, rate_kbps, stalls, drop_first_chunk):
    manifest = media.synthetic_manifest(segments=segments, size_jitter=0.2, seed=3)
    trace = Trace(samples=((0.0, rate_kbps),), duration_s=30.0)
    config = PlayerConfig(drop_first_chunk=drop_first_chunk)
    log, pairs = _written_and_dumped(manifest, trace, FixedPolicy(5), config)
    assert bool(log.stalls) == stalls  # the case is the one its id names
    assert len(pairs) == (1 if segments == 1 and drop_first_chunk else 2)
    for written, dumped in pairs:
        assert written == dumped
