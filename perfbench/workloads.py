"""Seeded workload generator.

Each workload is a set of experiments, each a JSON-style config dict. The seed
becomes every config's `master_seed`; the program only ever sees these dicts,
through `config_from_dict`.

The phase-diagram experiments take 0.1-0.3 s each and a pass of that
workload about half a second, so every experiment is timed dozens of times in
one run; run.py reports each experiment's fastest time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PI = math.pi
WINDING_1 = [-PI / 2, PI / 4]
WINDING_0 = [-PI / 2, 3 * PI / 4]
BOUNDARY = {"minus": WINDING_1, "plus": WINDING_0}
PHASE_GRID_SIDES = (16, 20, 24)


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: dict  # label -> config dict, run in this order
    work_unit: str  # what work_per_s counts
    work_per_pass: int


def _pair(kind: str, disorder: str | None, seed: int) -> dict:
    cfg = {
        "run_kind": kind,
        "steps": 100,
        "master_seed": seed,
        "initial_state": {"kind": "psi_plus"},
        "angles": {"a": WINDING_1, "b": WINDING_0} if kind == "tptpw" else {"a": BOUNDARY},
    }
    if disorder is not None:
        cfg["disorder"] = {"kind": disorder, "target": "a"}
    return cfg


def pair_walk(seed: int) -> Workload:
    experiments = {
        f"{kind}_{disorder or 'clean'}": _pair(kind, disorder, seed)
        for kind in ("tptpw", "tptbw")
        for disorder in (None, "weak", "strong")
    }
    steps = sum(cfg["steps"] for cfg in experiments.values())
    return Workload("pair_walk", experiments, "pair steps", steps)


def phase_diagram(seed: int) -> Workload:
    # Three grids, one experiment each; sides 16 and 24 hold the winding
    # anchors that verify.py checks. The workload has no random input.
    experiments = {
        f"grid{n}": {"run_kind": "phase_diagram", "grid_n": n, "k_points": 1024, "master_seed": seed}
        for n in PHASE_GRID_SIDES
    }
    points = sum(n * n for n in PHASE_GRID_SIDES)
    return Workload("phase_diagram", experiments, "grid points", points)


WORKLOADS = {
    f.__name__: f for f in (pair_walk, phase_diagram)
}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
