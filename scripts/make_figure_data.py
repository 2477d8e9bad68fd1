#!/usr/bin/env python3
"""Run every documented figure config and emit its data files.

Each JSON in configs/ is a self-contained experiment; outputs land in
<out>/<config-stem>/. The package is imported from the checkout's src/, so the
script runs without installing it. Each line gives a config's time, split
into run() and write_artifacts(), and for a single or pair walk the winding
number of each walker's angles (minus|plus for a boundary). Four runs on a
shared 2-vCPU host (numpy 2.4.6, Python 3.11.7) printed totals of 1.0–1.5 s
for the whole set, 1.3–1.8 s of wall time with the interpreter's start, most
of it the six fig5 sweeps: 0.08–0.14 s each for the four without disorder,
whose fields are one step broadcast over the walk, and 0.26–0.38 s each for
the two disordered ones. Each 100-step pair config took 0.01–0.05 s, about
0.01 s of it writing its data files (the 41,209-row joint.csv most of that).
The fig2 phase diagram (64×64 points, 1,024 k-points) takes 0.01 s in this
script's cold run() and 0.002–0.004 s in warm ones, one kernel call over the
whole grid: only its θ = −π row and column take every k-point, every other
point k = 0 and k = −π alone.
"""

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from topowalk import BoundarySpec, load_config, run, winding_number, write_artifacts
from topowalk.experiments import RUN_KINDS


def walker_windings(config) -> str:
    """The winding number of each stepped walker's angles, minus|plus across a boundary."""
    walkers = RUN_KINDS[config.run_kind][2]
    if not walkers or config.sweep_grid:  # a sweep's cells set their own angles
        return ""
    words = []
    for particle in walkers:
        entry = config.angles.get(particle, config.angles["a"])
        sides = (entry.theta_minus, entry.theta_plus) if isinstance(entry, BoundarySpec) else (entry,)
        words.append(f"{particle}=" + "|".join(str(winding_number(*side).winding) for side in sides))
    return " windings " + " ".join(words)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--configs", default=str(REPO_ROOT / "configs"), help="config directory")
    parser.add_argument("--out", default=str(REPO_ROOT / "out" / "figures"), help="output root")
    parser.add_argument("--only", action="append", help="run only configs whose stem contains this")
    args = parser.parse_args()

    paths = sorted(Path(args.configs).glob("*.json"))
    if args.only:
        paths = [p for p in paths if any(tag in p.stem for tag in args.only)]
    if not paths:
        parser.error(f"no configs found under {args.configs}")

    total = time.perf_counter()
    for path in paths:
        t0 = time.perf_counter()
        config = load_config(path)
        artifacts = run(config)
        t1 = time.perf_counter()
        out_dir = Path(args.out) / path.stem
        write_artifacts(artifacts, out_dir)
        t2 = time.perf_counter()
        timing = f"{t2 - t0:6.2f}s (run {t1 - t0:.2f}s write {t2 - t1:.2f}s)"
        print(f"{path.stem:28s} {timing}{walker_windings(config)} -> {out_dir}")
    print(f"total {time.perf_counter() - total:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
