#!/usr/bin/env python3
"""Offline build of the production FastMPC lookup table.

Solves the horizon-5 decision for every cell of the default
100 (throughput) x 100 (buffer) x 13 (previous rung) binning: 130,000
entries. This is the offline step of the table-driven policy; expect
~20-25 s of wall time on one core. ``--jobs N`` solves the throughput
bins in N processes; the artifact is the same for any N.

Usage: python scripts/build_default_table.py [out.bin] [--jobs N]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from abrbench.abr import MpcObjectiveParams, TableBinning, build_mpc_table, save_table
from abrbench.media import ladder_default


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("out", nargs="?", default="mpc_table_default.bin")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    binning = TableBinning()
    ladder = ladder_default()
    print(f"cells: {binning.tput_bins * binning.buffer_bins * len(ladder)} "
          f"({binning.tput_bins}x{binning.buffer_bins}x{len(ladder)})")

    start = time.time()

    def progress(done, total):
        if done % 10 == 0:
            print(f"  {done}/{total} throughput bins ({time.time() - start:.0f} s)")

    table = build_mpc_table(MpcObjectiveParams(), binning, ladder, progress=progress, jobs=args.jobs)
    save_table(table, args.out)
    print(f"wrote {args.out} in {time.time() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
