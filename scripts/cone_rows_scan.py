#!/usr/bin/env python3
"""Time walk.trajectory's two ways of stepping a wide cone, at several walker-row counts.

trajectory steps only the light cone of its start, except that a step of more than
walk._CONE_MAX_ROWS walker rows (coins times walkers) steps every site once the cone spans more
than half the window. This script sets that limit out of reach ("cone": the cone at every step)
and to 0 ("whole": every site past half the window), steps pair-shaped walkers under random
angles both ways in alternating rounds, and prints each way's best time and how often "whole" was
faster. Rows are 8 per cell (coin, start coin, particle). Both ways give the same amplitudes
inside the cone. On a shared 2-vCPU host, 40 rounds at 103 sites and 50 steps (a fig5 sweep)
and at 203 sites and 100 steps (a pair figure): "whole" was faster in 2-7 rounds at 8 rows,
7-19 at 16 to 32 rows, 18 and 30 at 40 rows, and 35-40 from 48 rows up; hence the limit of 40.

    python scripts/cone_rows_scan.py --cells 1,2,4,5,6,8,16 --rounds 30
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from topowalk import LatticeWindow, split_stepper, trajectory, walk


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--cells", default="1,2,4,5,6,8,16", help="comma-separated cell counts")
    parser.add_argument("--half-width", type=int, default=51, help="lattice half-width")
    parser.add_argument("--steps", type=int, default=50)
    parser.add_argument("--rounds", type=int, default=30)
    args = parser.parse_args()
    win, n = LatticeWindow(args.half_width), args.steps
    limits = {"cone": 1 << 62, "whole": 0}
    for cells in map(int, args.cells.split(",")):
        field = np.random.default_rng(cells).uniform(-np.pi, np.pi, (2, win.size, n, cells, 2))
        start = np.zeros((win.size, 2, 2, cells, 2), complex)  # (site, coin, start coin, cell, particle)
        start[win.index(0), 0, 0] = start[win.index(0), 1, 1] = 1.0
        stepper = split_stepper(field)
        times = {way: [] for way in limits}
        for r in range(args.rounds):
            for way in sorted(limits, reverse=r % 2 == 1):
                walk._CONE_MAX_ROWS = limits[way]
                t0 = time.perf_counter()
                for _ in trajectory(start, stepper, n):
                    pass
                times[way].append(time.perf_counter() - t0)
        cone, whole = (np.array(times[way]) for way in limits)
        print(
            f"rows {8 * cells:4d}: cone {cone.min() * 1e3:7.2f} ms, whole {whole.min() * 1e3:7.2f} ms (best),"
            f" whole faster in {(whole < cone).sum()}/{args.rounds}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
