import copy
import hashlib
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from abrbench import media

from oracles import first_bad_manifest_cell


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
    assert m.sizes[0][0] == 940000.0


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
    ladder = media.ladder_default()[:1]
    for size in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError, match=r"segments\[0\]\[0\] size_bits"):
            media.Manifest(4.0, ladder, [[size]], [[50.0]])


@pytest.mark.parametrize(
    "sizes, qualities, message",
    [
        ([[1.0, 2.0], [1.0]], [[1.0, 2.0], [1.0, 2.0]], r"ragged segment matrix: sizes row 1 has 1 entries"),
        ([[1.0, 2.0]], [(1.0, 2.0, 3.0)], r"ragged segment matrix: qualities row 0 has 3 entries"),
        ([[1.0, 2.0]], ["ab"], r"ragged segment matrix: qualities row 0 has 'ab'"),
        ([], [], r"manifest has no segments"),
        ([[1.0, 2.0]], [[1.0, 2.0]] * 2, r"1 rows of sizes but 2 of qualities"),
        ([[1.0, 2.0]], None, r"manifest qualities must be a list of rows"),
    ],
)
def test_manifest_matrices_must_be_rectangular(sizes, qualities, message):
    ladder = media.ladder_default()[:2]
    with pytest.raises(ValueError, match=message):
        media.Manifest(4.0, ladder, sizes, qualities)


def test_manifest_stores_float_tuples():
    ladder = media.ladder_default()[:2]
    m = media.Manifest(4.0, ladder, [[1, 2.5], (3.0, 4.0)], [[0, 100], [50.0, 60]])
    assert m.sizes == ((1.0, 2.5), (3.0, 4.0)) and m.qualities == ((0.0, 100.0), (50.0, 60.0))
    assert all(type(x) is float for rows in (m.sizes, m.qualities) for row in rows for x in row)
    assert all(type(rows) is tuple and all(type(row) is tuple for row in rows) for rows in (m.sizes, m.qualities))
    assert m == media.Manifest(4.0, ladder, m.sizes, m.qualities)


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


# values a manifest must refuse, per field; each is injected into one cell of a valid document
BAD_VALUES = {
    "size_bits": [True, False, math.nan, math.inf, -math.inf, 0, 0.0, -1.0, -5, "900", None, [1.0]],
    "quality": [True, math.nan, math.inf, -math.inf, -0.5, -1, 100.5, 101, "50", None, [50.0]],
}


@st.composite
def manifest_documents(draw):
    """A valid manifest document with ints among its floats, and perhaps one bad value injected."""
    width = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    size = st.one_of(st.floats(1e-3, 1e9), st.integers(1, 10**9))
    quality = st.one_of(st.floats(0.0, 100.0), st.integers(0, 100))
    cells = draw(st.lists(st.lists(st.tuples(size, quality), min_size=width, max_size=width), min_size=n, max_size=n))
    doc = {
        "segment_duration_s": 4.0,
        "ladder": [{"index": r, "width": 320, "height": 180, "bitrate_kbps": 100.0 * r} for r in range(1, width + 1)],
        "segments": [[{"size_bits": s, "quality": q} for s, q in row] for row in cells],
    }
    if draw(st.booleans()):
        field = draw(st.sampled_from(sorted(BAD_VALUES)))
        cell = doc["segments"][draw(st.integers(0, n - 1))][draw(st.integers(0, width - 1))]
        cell[field] = draw(st.sampled_from(BAD_VALUES[field]))
    return doc


@settings(max_examples=300, deadline=None)
@given(manifest_documents())
def test_bulk_manifest_check_matches_a_per_cell_scan(doc):
    bad = first_bad_manifest_cell(doc["segments"])
    text = json.dumps(doc)
    if bad is not None:
        i, r, field = bad
        with pytest.raises(ValueError, match=rf"^segments\[{i}\]\[{r}\] {field} must be") as parsed:
            media.parse_manifest(text)
        assert parsed.value.args[0].endswith(f"got {doc['segments'][i][r][field]!r}")
        ladder = tuple(media.Representation(**entry) for entry in doc["ladder"])
        matrices = ([[cell[key] for cell in row] for row in doc["segments"]] for key in ("size_bits", "quality"))
        with pytest.raises(ValueError) as built:
            media.Manifest(4.0, ladder, *matrices)
        assert built.value.args == parsed.value.args
        return
    m = media.parse_manifest(text)
    for i, row in enumerate(doc["segments"]):
        for r, cell in enumerate(row):
            for got, want in ((m.sizes[i][r], cell["size_bits"]), (m.qualities[i][r], cell["quality"])):
                assert type(got) is float and got == float(want)
    assert media.parse_manifest(media.serialize_manifest(m)) == m


def test_bulk_manifest_check_names_the_first_of_several_bad_cells():
    ladder = media.ladder_default()[:2]
    sizes = [[1.0, 2.0], [3.0, math.nan], [0.0, 1.0]]
    qualities = [[1.0, 2.0], [101.0, 2.0], [1.0, -1.0]]
    message = "segments[1][0] quality must be a number in [0.0, 100.0], got 101.0"
    with pytest.raises(ValueError, match=re.escape(message)):
        media.Manifest(4.0, ladder, sizes, qualities)
    qualities[1][0] = 1
    with pytest.raises(ValueError, match=re.escape("segments[1][1] size_bits must be finite and > 0, got nan")):
        media.Manifest(4.0, ladder, sizes, qualities)
    qualities[1][1] = "high"  # a cell bad in both fields names its size first
    with pytest.raises(ValueError, match=re.escape("segments[1][1] size_bits must be finite and > 0, got nan")):
        media.Manifest(4.0, ladder, sizes, qualities)


def test_synthetic_manifest_bytes_are_pinned():
    text = media.serialize_manifest(media.synthetic_manifest(segments=14, size_jitter=0.12, seed=7))
    # recorded when manifests became one-line json.dumps output: the sha256 of json.dumps of the document
    # the earlier indent=1 bytes (7a5be819...) parse to, so only whitespace moved
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "572b0990ec8bd65080a0e037480b88f1062e00851c42b6e554b55378e4790d94")


SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "docs" / "manifest_schema.json").read_text())


def schema_nodes(schema, path=()):
    """(path into a document, schema node) of ``schema`` and every node under it; an array stands for its first item."""
    yield path, schema
    for key, node in schema.get("properties", {}).items():
        yield from schema_nodes(node, (*path, key))
    if "items" in schema:
        yield from schema_nodes(schema["items"], (*path, 0))


def item(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def schema_violations(doc):
    """(where, rule, a copy of ``doc`` that breaks it) for each required key, minItems, numeric bound and integer
    type of the manifest schema."""
    def broken(path, value=None):
        bad = copy.deepcopy(doc)
        if value is None:
            del item(bad, path[:-1])[path[-1]]
        else:
            item(bad, path[:-1])[path[-1]] = value
        return bad

    for path, node in schema_nodes(SCHEMA):
        where = ".".join(map(str, path)) or "manifest"
        integer = node.get("type") == "integer"
        for key in node.get("required", ()):
            yield f"{where}.{key}", "required", broken((*path, key))
        if "minItems" in node:
            yield where, "minItems", broken(path, item(doc, path)[: node["minItems"] - 1])
        if "minimum" in node:
            low = node["minimum"]
            yield where, "minimum", broken(path, low - 1 if integer else math.nextafter(low, -math.inf))
        if "exclusiveMinimum" in node:
            low = node["exclusiveMinimum"]
            yield where, "exclusiveMinimum", broken(path, low if integer else float(low))
        if "maximum" in node:
            high = node["maximum"]
            yield where, "maximum", broken(path, high + 1 if integer else math.nextafter(high, math.inf))
        if integer:
            yield where, "integer", broken(path, float(item(doc, path)))


SCHEMA_DOC = json.loads(media.serialize_manifest(media.synthetic_manifest()))
SCHEMA_CASES = list(schema_violations(SCHEMA_DOC))


def test_the_schema_cases_cover_every_rule_kind():
    # a schema walk that lost a rule kind would test nothing for it
    assert {rule for _, rule, _ in SCHEMA_CASES} == {"required", "minItems", "minimum", "exclusiveMinimum", "maximum",
                                                     "integer"}
    media.parse_manifest(json.dumps(SCHEMA_DOC))  # the unbroken document parses


@pytest.mark.parametrize("doc", [pytest.param(doc, id=f"{where}-{rule}") for where, rule, doc in SCHEMA_CASES])
def test_parse_manifest_refuses_what_the_schema_refuses(doc):
    with pytest.raises(ValueError):
        media.parse_manifest(json.dumps(doc))
