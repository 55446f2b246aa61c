import numbers
import random

import numpy as np
import pytest

from abrbench import abr, media, nettrace


class ScriptedPolicy:
    """Replays a fixed per-chunk choice sequence (1-based chunk ordinals)."""

    def __init__(self, choices):
        self.choices = list(choices)

    def select(self, state) -> int:
        return self.choices[state.chunk_index - 1]


@pytest.fixture
def default_manifest():
    return media.synthetic_manifest(segments=8)


@pytest.fixture
def flat_trace():
    return nettrace.parse_trace("0,1000", "pairs", duration_s=1000.0)


def random_trace(rng: random.Random, n_segments=None, ms_aligned=True):
    """Random piecewise trace with millisecond-aligned boundaries."""
    n_segments = n_segments or rng.randint(1, 8)
    t = 0.0
    samples = []
    for _ in range(n_segments):
        samples.append((round(t, 3), rng.choice([0.0, 0.0, 200.0, 500.0, 1000.0, 3000.0, 8000.0, 20000.0])
                        if rng.random() < 0.35 else round(rng.uniform(50.0, 12000.0), 3)))
        t += rng.randint(200, 8000) / 1000.0
    duration = round(t, 3)
    if all(bw == 0.0 for _, bw in samples):
        samples[-1] = (samples[-1][0], 700.0)
    return nettrace.Trace(samples=tuple(samples), duration_s=duration)


def mpc_table_cells(
    params: abr.MpcObjectiveParams,
    binning: abr.TableBinning,
    cells,
    ladder=None,
    segment_duration_s: float = 4.0,
) -> dict[tuple[int, int, int], int]:
    """Compute selected table cells without building the full table.

    ``cells`` is an iterable of (tput_bin, buffer_bin, prev_rep_index)
    with 0-based bins and a 1-based rep index; a cell that is not such a
    triple, or lies outside the table, raises a ``ValueError`` naming it.
    Cells are independent, so a subset costs proportionally less; it
    audits a table against the exact per-state decision through the table
    builder's own per-bin solver.
    """
    ladder_kbps = abr._table_ladder(ladder)
    bounds = (("tput_bin", 0, binning.tput_bins - 1), ("buffer_bin", 0, binning.buffer_bins - 1),
              ("prev_rep", 1, len(ladder_kbps)))

    def check_cell(cell) -> tuple[int, int, int]:
        if not (hasattr(cell, "__len__") and len(cell) == 3):
            raise ValueError(f"cell {cell!r} must be a (tput_bin, buffer_bin, prev_rep) triple")
        for (what, low, high), value in zip(bounds, cell):
            if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and low <= value <= high):
                raise ValueError(f"cell {cell!r}: {what} must be an integer in [{low}, {high}], got {value!r}")
        return tuple(int(value) for value in cell)

    cells = [check_cell(cell) for cell in cells]
    tput_centers = binning.tput_centers()
    buffer_centers = binning.buffer_centers()
    by_tput: dict[int, set[int]] = {}
    for ti, bi, _ in cells:
        by_tput.setdefault(ti, set()).add(bi)
    rows: dict[tuple[int, int], np.ndarray] = {}
    for ti, bis in by_tput.items():
        bis_sorted = sorted(bis)
        block = abr._table_bin(ladder_kbps, segment_duration_s, params, tput_centers[ti], buffer_centers[bis_sorted])
        rows.update(((ti, bi), row) for bi, row in zip(bis_sorted, block))
    return {(ti, bi, prev): int(rows[(ti, bi)][prev - 1]) for ti, bi, prev in cells}
