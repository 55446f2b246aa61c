"""Media-side data model: bitrate ladders, per-segment attributes, manifests.

A manifest carries everything the "transmitter" side contributes to a
streaming session: the encoding ladder and, for every (segment,
representation) pair, the transfer size in bits and a precomputed
perceptual quality score in [0, 100]. Quality scores are opaque inputs;
this package never computes them.

Sizes are stored in bits so that all channel arithmetic happens in a
single unit against kb/s bandwidth values.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

from . import checks


@dataclass(frozen=True)
class Representation:
    """One encoding of the content: resolution plus nominal bitrate."""

    index: int  # 1-based position in the ladder
    width: int
    height: int
    bitrate_kbps: float

    def __post_init__(self):
        checks.attrs(self, checks.count, "index", "width", "height")
        checks.attrs(self, checks.positive, "bitrate_kbps")


def check_rungs(name: str, rates) -> tuple[float, ...]:
    """Rung bitrates (kb/s): one or more finite numbers > 0 in strictly increasing order, returned as floats."""
    rates = checks.each(checks.positive, (0.0, math.inf, True))(name, rates)
    if not rates:
        raise ValueError(f"{name} must hold one or more rungs; the ladder is empty")
    if any(b <= a for a, b in zip(rates, rates[1:])):
        raise ValueError(f"{name} bitrates must be strictly increasing, got {list(rates)}")
    return rates


def _size(name: str, value) -> float:
    return checks.positive(f"{name} size_bits", value)


def _quality(name: str, value) -> float:
    return checks.between(f"{name} quality", value, 0.0, 100.0)


def _checked_cells(sizes, qualities) -> tuple[tuple[tuple[float, ...], ...], tuple[tuple[float, ...], ...]]:
    """Both matrices as float tuples, checked one cell at a time: row by row, size before quality.

    An int becomes its float; the first bad value raises ValueError
    naming its cell as ``segments[i][r]``.
    """
    size_rows, quality_rows = [], []
    for i, (size_row, quality_row) in enumerate(zip(sizes, qualities)):
        cells = [
            (_size(f"segments[{i}][{r}]", size), _quality(f"segments[{i}][{r}]", quality))
            for r, (size, quality) in enumerate(zip(size_row, quality_row))
        ]
        size_row, quality_row = zip(*cells)
        size_rows.append(size_row)
        quality_rows.append(quality_row)
    return tuple(size_rows), tuple(quality_rows)


@dataclass(frozen=True)
class Manifest:
    """Immutable description of one encoded title.

    ``sizes[i][r-1]`` (bits) and ``qualities[i][r-1]`` (in [0, 100]) are
    the attributes of segment ``i`` (0-based position) at representation
    ``r`` (1-based ladder index): two rectangular matrices of floats, one
    row per segment and one column per rung, stored as tuples of tuples.

    Every construction checks both: rows are lists or tuples as wide as
    the ladder, sizes finite and > 0, qualities numbers in [0, 100] (a
    bool is no number); an int is stored as its float. A matrix of
    floats is checked in one pass of comparisons, anything else one cell
    at a time. A bad value raises ValueError naming its cell as
    ``segments[i][r]``, both 0-based, and the field. ``ladder_kbps``,
    derived at construction and not a field, holds the rung bitrates
    (kb/s) as the float tuple ``check_rungs`` returns.
    """

    segment_duration_s: float
    ladder: tuple[Representation, ...]
    sizes: tuple[tuple[float, ...], ...]
    qualities: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        checks.attrs(self, checks.positive, "segment_duration_s")
        for pos, rep in enumerate(self.ladder, start=1):
            if rep.index != pos:
                raise ValueError(f"ladder indices must be contiguous from 1, got {rep.index} at position {pos}")
        object.__setattr__(self, "ladder_kbps", check_rungs("ladder", [rep.bitrate_kbps for rep in self.ladder]))
        width = len(self.ladder)
        for name in ("sizes", "qualities"):
            rows = getattr(self, name)
            if not isinstance(rows, (list, tuple)):
                raise ValueError(f"manifest {name} must be a list of rows, got {rows!r}")
            for i, row in enumerate(rows):
                if not (isinstance(row, (list, tuple)) and len(row) == width):
                    got = f"{len(row)} entries" if isinstance(row, (list, tuple)) else repr(row)
                    raise ValueError(f"ragged segment matrix: {name} row {i} has {got}, ladder has {width}")
        if not self.sizes:
            raise ValueError("manifest has no segments")
        if len(self.sizes) != len(self.qualities):
            raise ValueError(f"{len(self.sizes)} rows of sizes but {len(self.qualities)} of qualities")
        cells = itertools.chain.from_iterable
        if checks.floats_within(cells(self.sizes), 0.0, math.inf, exclusive=True) and checks.floats_within(
            cells(self.qualities), 0.0, 100.0
        ):
            sizes, qualities = tuple(map(tuple, self.sizes)), tuple(map(tuple, self.qualities))
        else:
            sizes, qualities = _checked_cells(self.sizes, self.qualities)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "qualities", qualities)

    @property
    def segment_count(self) -> int:
        return len(self.sizes)


# Reference 13-step encoding ladder used throughout the toolkit
# (Netflix-style steps plus two UHD extensions).
_DEFAULT_LADDER = (
    (1, 320, 180, 235.0),
    (2, 384, 216, 375.0),
    (3, 512, 288, 560.0),
    (4, 512, 288, 750.0),
    (5, 640, 360, 1050.0),
    (6, 960, 540, 1750.0),
    (7, 1280, 720, 2350.0),
    (8, 1280, 720, 3000.0),
    (9, 1920, 1080, 4300.0),
    (10, 1920, 1080, 5800.0),
    (11, 2560, 1440, 8100.0),
    (12, 3840, 2160, 11600.0),
    (13, 3840, 2160, 16800.0),
)


def ladder_default() -> tuple[Representation, ...]:
    """The reference 13-entry encoding ladder."""
    return tuple(Representation(*row) for row in _DEFAULT_LADDER)


def parse_manifest(text: str) -> Manifest:
    """Parse the JSON manifest document (see docs/file_formats.md).

    Values are checked, not coerced: ``index``, ``width`` and ``height``
    are integers >= 1, sizes, bitrates and the segment duration finite
    numbers > 0, qualities numbers in [0, 100] (a bool is no number).
    Raises ValueError, naming the field (a cell as ``segments[i][r]``),
    on these and on schema violations, non-increasing ladder bitrates or
    a ragged segment matrix.
    """
    with checks.naming("manifest is not valid JSON", json.JSONDecodeError):
        doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("manifest document must be a JSON object")
    for key in ("segment_duration_s", "ladder", "segments"):
        if key not in doc:
            raise ValueError(f"manifest missing required field {key!r}")
    with checks.naming("malformed manifest entry", (TypeError, KeyError)):
        ladder = tuple(
            Representation(entry["index"], entry["width"], entry["height"], entry["bitrate_kbps"])
            for entry in doc["ladder"]
        )
        rows = doc["segments"]
        sizes = [[cell["size_bits"] for cell in row] for row in rows]
        qualities = [[cell["quality"] for cell in row] for row in rows]
    return Manifest(doc["segment_duration_s"], ladder, sizes, qualities)


def serialize_manifest(manifest: Manifest) -> str:
    """Serialize to the JSON manifest document.

    Floats are emitted with ``repr`` (shortest round-trip form), so
    parse -> serialize -> parse yields a field-wise identical Manifest.
    """
    doc = {
        "segment_duration_s": manifest.segment_duration_s,
        "ladder": [
            {"index": r.index, "width": r.width, "height": r.height, "bitrate_kbps": r.bitrate_kbps}
            for r in manifest.ladder
        ],
        "segments": [
            [{"size_bits": size, "quality": quality} for size, quality in zip(size_row, quality_row)]
            for size_row, quality_row in zip(manifest.sizes, manifest.qualities)
        ],
    }
    return json.dumps(doc)


def default_quality_curve(bitrate_kbps: float) -> float:
    """Saturating VMAF-like quality stand-in for synthetic manifests."""
    return 100.0 * bitrate_kbps / (bitrate_kbps + 900.0)


def synthetic_manifest(
    segments: int = 8,
    segment_duration_s: float = 4.0,
    ladder: tuple[Representation, ...] | None = None,
    size_jitter: float = 0.0,
    quality_fn=default_quality_curve,
    seed: int = 0,
) -> Manifest:
    """Build a synthetic manifest for experiments and tests.

    Segment sizes default to the nominal ladder value; ``size_jitter``
    adds deterministic multiplicative variation of +-jitter around it,
    mimicking encoder rate-control spread.
    """
    import random

    if ladder is None:
        ladder = ladder_default()
    rng = random.Random(seed)
    sizes, qualities = [], []
    for _ in range(segments):
        size_row, quality_row = [], []
        for rep in ladder:
            factor = 1.0 + size_jitter * (2.0 * rng.random() - 1.0) if size_jitter else 1.0
            size_row.append(rep.bitrate_kbps * 1000.0 * segment_duration_s * factor)
            quality_row.append(min(100.0, max(0.0, quality_fn(rep.bitrate_kbps))))
        sizes.append(size_row)
        qualities.append(quality_row)
    return Manifest(segment_duration_s, tuple(ladder), sizes, qualities)
