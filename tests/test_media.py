import json
import math

import pytest

from abrbench import media


def test_default_ladder_matches_reference_table():
    ladder = media.ladder_default()
    assert len(ladder) == 13
    assert (ladder[0].width, ladder[0].height, ladder[0].bitrate_kbps) == (320, 180, 235.0)
    assert (ladder[12].width, ladder[12].height, ladder[12].bitrate_kbps) == (3840, 2160, 16800.0)
    rates = [r.bitrate_kbps for r in ladder]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    assert [r.index for r in ladder] == list(range(1, 14))


def test_parse_minimal_manifest():
    doc = {
        "segment_duration_s": 4.0,
        "ladder": [{"index": 1, "width": 320, "height": 180, "bitrate_kbps": 235.0}],
        "segments": [
            [{"size_bits": 940000.0, "quality": 20.0}],
            [{"size_bits": 900000.0, "quality": 19.0}],
        ],
    }
    m = media.parse_manifest(json.dumps(doc))
    assert m.segment_count == 2
    assert len(m.ladder) == 1
    assert m.size_bits(0, 1) == 940000.0


def test_round_trip_is_identity():
    m = media.synthetic_manifest(segments=8, size_jitter=0.15, seed=3)
    text = media.serialize_manifest(m)
    again = media.parse_manifest(text)
    assert again == m
    assert media.parse_manifest(media.serialize_manifest(again)) == again


def test_quality_out_of_range_rejected():
    doc = {
        "segment_duration_s": 4.0,
        "ladder": [{"index": 1, "width": 320, "height": 180, "bitrate_kbps": 235.0}],
        "segments": [[{"size_bits": 1000.0, "quality": 101.0}]],
    }
    with pytest.raises(ValueError):
        media.parse_manifest(json.dumps(doc))


def test_non_increasing_ladder_rejected():
    doc = {
        "segment_duration_s": 4.0,
        "ladder": [
            {"index": 1, "width": 320, "height": 180, "bitrate_kbps": 500.0},
            {"index": 2, "width": 640, "height": 360, "bitrate_kbps": 500.0},
        ],
        "segments": [[{"size_bits": 1.0, "quality": 1.0}, {"size_bits": 2.0, "quality": 2.0}]],
    }
    with pytest.raises(ValueError):
        media.parse_manifest(json.dumps(doc))


def test_ragged_matrix_rejected():
    doc = {
        "segment_duration_s": 4.0,
        "ladder": [
            {"index": 1, "width": 320, "height": 180, "bitrate_kbps": 235.0},
            {"index": 2, "width": 640, "height": 360, "bitrate_kbps": 375.0},
        ],
        "segments": [[{"size_bits": 1.0, "quality": 1.0}]],
    }
    with pytest.raises(ValueError):
        media.parse_manifest(json.dumps(doc))


def test_non_finite_segment_size_rejected():
    for size in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match="segment size"):
            media.SegmentInfo(size_bits=size, quality=50.0)


def _minimal_doc():
    return {
        "segment_duration_s": 4.0,
        "ladder": [{"index": 1, "width": 320, "height": 180, "bitrate_kbps": 235.0}],
        "segments": [[{"size_bits": 940000.0, "quality": 20.0}]],
    }


@pytest.mark.parametrize(
    "path, value",
    [
        (("ladder", 0, "index"), 1.9),  # was truncated to 1
        (("segment_duration_s",), True),  # was read as 1.0
        (("segment_duration_s",), math.inf),
        (("ladder", 0, "bitrate_kbps"), "900"),  # was read as 900.0
        (("ladder", 0, "width"), 0),
        (("segments", 0, 0, "size_bits"), True),
        (("segments", 0, 0, "quality"), math.nan),
    ],
)
def test_manifest_values_are_checked_not_coerced(path, value):
    doc = _minimal_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ValueError, match=path[-1]):
        media.parse_manifest(json.dumps(doc))


def test_integer_manifest_values_read_as_floats():
    doc = _minimal_doc()
    doc["segment_duration_s"] = 4
    doc["ladder"][0]["bitrate_kbps"] = 235
    doc["segments"][0][0].update(size_bits=940000, quality=20)
    m = media.parse_manifest(json.dumps(doc))
    assert m == media.parse_manifest(json.dumps(_minimal_doc()))
    assert media.serialize_manifest(m) == media.serialize_manifest(media.parse_manifest(json.dumps(_minimal_doc())))
