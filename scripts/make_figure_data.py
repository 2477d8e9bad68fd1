#!/usr/bin/env python3
"""Run every documented figure config and emit its data files.

Each JSON in configs/ is a self-contained experiment; outputs land in
<out>/<config-stem>/. The package is imported from the checkout's src/, so the
script runs without installing it. Each line gives a config's time, split
into run() and write_artifacts(). On a 2-vCPU host the whole set takes 2–4 s,
with the load of the host, most of it the six fig5 sweeps (0.3–0.7 s each);
each 100-step pair config takes 0.05–0.1 s, 0.02–0.05 s of it writing its
data files (the 41,209-row joint.csv most of that), and the fig2 phase
diagram (64×64 points, 1,024 k-points) 0.15–0.2 s.
"""

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from topowalk import load_config, run, write_artifacts


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
        artifacts = run(load_config(path))
        t1 = time.perf_counter()
        out_dir = Path(args.out) / path.stem
        write_artifacts(artifacts, out_dir)
        t2 = time.perf_counter()
        print(f"{path.stem:28s} {t2 - t0:6.2f}s (run {t1 - t0:.2f}s write {t2 - t1:.2f}s) -> {out_dir}")
    print(f"total {time.perf_counter() - total:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
