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

import json
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


@dataclass(frozen=True)
class SegmentInfo:
    """Per-(segment, representation) attributes embedded in the manifest."""

    size_bits: float
    quality: float  # perceptual score in [0, 100], device-adapted

    def __post_init__(self):
        size_bits = checks.positive("segment size_bits", self.size_bits)
        quality = checks.between("quality", self.quality, 0.0, 100.0)
        # stored back only when a check turned an int into a float: one manifest holds 10^4-10^5 cells
        if size_bits is not self.size_bits or quality is not self.quality:
            object.__setattr__(self, "size_bits", size_bits)
            object.__setattr__(self, "quality", quality)


def check_ladder(name: str, ladder) -> None:
    """A ladder has a rung, indices 1, 2, ... in order and strictly increasing bitrates (manifests, tables)."""
    if not ladder:
        raise ValueError(f"{name} is empty")
    for pos, rep in enumerate(ladder, start=1):
        if rep.index != pos:
            raise ValueError(f"{name} indices must be contiguous from 1, got {rep.index} at position {pos}")
    rates = [rep.bitrate_kbps for rep in ladder]
    if any(b >= a for a, b in zip(rates[1:], rates)):
        raise ValueError(f"{name} bitrates must be strictly increasing, got {rates}")


@dataclass(frozen=True)
class Manifest:
    """Immutable description of one encoded title.

    ``segments[i][r-1]`` holds the :class:`SegmentInfo` of segment ``i``
    (0-based position) at representation ``r`` (1-based ladder index).
    """

    segment_duration_s: float
    ladder: tuple[Representation, ...]
    segments: tuple[tuple[SegmentInfo, ...], ...]

    def __post_init__(self):
        checks.attrs(self, checks.positive, "segment_duration_s")
        check_ladder("ladder", self.ladder)
        if not self.segments:
            raise ValueError("manifest has no segments")
        for i, row in enumerate(self.segments):
            if len(row) != len(self.ladder):
                raise ValueError(f"ragged segment matrix: row {i} has {len(row)} entries, ladder has {len(self.ladder)}")

    @property
    def segment_count(self) -> int:
        return len(self.segments)

    def info(self, segment: int, rep_index: int) -> SegmentInfo:
        """Attributes of 0-based ``segment`` at 1-based ``rep_index``."""
        if not 1 <= rep_index <= len(self.ladder):
            raise IndexError(f"representation index {rep_index} out of range 1..{len(self.ladder)}")
        return self.segments[segment][rep_index - 1]

    def size_bits(self, segment: int, rep_index: int) -> float:
        return self.info(segment, rep_index).size_bits

    def quality(self, segment: int, rep_index: int) -> float:
        return self.info(segment, rep_index).quality


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
    Raises ValueError, naming the field, on these and on schema
    violations, non-increasing ladder bitrates or a ragged segment matrix.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("manifest document must be a JSON object")
    for key in ("segment_duration_s", "ladder", "segments"):
        if key not in doc:
            raise ValueError(f"manifest missing required field {key!r}")
    try:
        ladder = tuple(
            Representation(entry["index"], entry["width"], entry["height"], entry["bitrate_kbps"])
            for entry in doc["ladder"]
        )
        segments = tuple(
            tuple(SegmentInfo(cell["size_bits"], cell["quality"]) for cell in row) for row in doc["segments"]
        )
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed manifest entry: {exc}") from exc
    return Manifest(segment_duration_s=doc["segment_duration_s"], ladder=ladder, segments=segments)


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
            [{"size_bits": cell.size_bits, "quality": cell.quality} for cell in row]
            for row in manifest.segments
        ],
    }
    return checks.to_json(doc)


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
    rows = []
    for _ in range(segments):
        row = []
        for rep in ladder:
            factor = 1.0 + size_jitter * (2.0 * rng.random() - 1.0) if size_jitter else 1.0
            size = rep.bitrate_kbps * 1000.0 * segment_duration_s * factor
            q = min(100.0, max(0.0, quality_fn(rep.bitrate_kbps)))
            row.append(SegmentInfo(size_bits=size, quality=q))
        rows.append(tuple(row))
    return Manifest(segment_duration_s=segment_duration_s, ladder=tuple(ladder), segments=tuple(rows))
