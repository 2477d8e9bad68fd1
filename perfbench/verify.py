"""Output checks, made outside the timed region.

Every check reads the CSV files that write_artifacts() wrote, and reaches the
program only through config_from_dict, run and write_artifacts, so the
checks hold across rewrites of the program's internals. Each check returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

TOL = 1e-9  # probability sums, entropy ranges, cross-route agreement
GAP_TOL = 1e-6  # phase-diagram gap against the closed-form band

DATA_FILES = {
    "single_split": ("entropy.csv", "distribution.csv"),
    "tptpw": ("entropy.csv", "distribution_a.csv", "distribution_b.csv", "joint.csv"),
    "tptbw": ("entropy.csv", "distribution_a.csv", "distribution_b.csv", "joint.csv"),
    "phase_diagram": ("phase.csv",),
}
ENTROPY_CAP_BITS = {"single_split": 1.0, "tptpw": 2.0, "tptbw": 2.0}


def read_csv(path) -> dict:
    """Columns of a data file, by header name."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: table[:, i] for i, name in enumerate(header)}


def run_to_dir(tw, cfg: dict, out_dir: Path) -> Path:
    tw.write_artifacts(tw.run(tw.config_from_dict(cfg)), out_dir)
    return out_dir


def _expected_rows(cfg: dict, name: str) -> int:
    sites = 2 * cfg.get("steps", 0) + 3  # auto window: steps + 1 sites each side
    if name == "entropy.csv":
        return cfg["steps"] + 1
    if name == "joint.csv":
        return sites * sites
    if name == "phase.csv":
        return cfg["grid_n"] ** 2
    return sites


def invariants(cfg: dict, out_dir: Path) -> list[str]:
    """Seed-independent properties of every data file one experiment wrote."""
    kind = cfg["run_kind"]
    problems = []
    for name in DATA_FILES[kind]:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} was not written")
            continue
        cols = read_csv(path)
        rows = len(next(iter(cols.values())))
        if rows != _expected_rows(cfg, name):
            problems.append(f"{name} has {rows} rows, expected {_expected_rows(cfg, name)}")
        for col, values in cols.items():
            if not np.all(np.isfinite(values)):
                problems.append(f"{name}: column {col} is not finite")
        if "probability" in cols:
            p = cols["probability"]
            if p.min() < 0 or abs(p.sum() - 1.0) > TOL:
                problems.append(f"{name}: probabilities sum to {p.sum():.15f}, min {p.min():.3e}")
        entropy = cols.get("entropy_bits")
        if entropy is not None:
            cap = ENTROPY_CAP_BITS[kind]
            if entropy.min() < -TOL or entropy.max() > cap + TOL:
                problems.append(f"{name}: entropy outside [0, {cap}] bits")
        if "std" in cols and cols["std"].min() < 0:
            problems.append(f"{name}: negative std")
        if "winding" in cols and not set(np.unique(cols["winding"])) <= {-1.0, 0.0, 1.0}:
            problems.append(f"{name}: winding outside {{-1, 0, 1}}")
        if "gap" in cols and cols["gap"].min() < 0:
            problems.append(f"{name}: negative gap")
    return problems


# -- cross-route checks, one function per workload ---------------------------------


def _pair_marginal_a(tw, cfg, out_dir, scratch) -> list[str]:
    """Marginal A of a psi+ pair is (P0 + P1)/2 of lone walkers started in coin |0> and |1>;
    the lone walkers' own files must pass the invariants too."""
    single = {
        "run_kind": "single_split",
        "steps": cfg["steps"],
        "master_seed": cfg["master_seed"],
        "angles": {"a": cfg["angles"]["a"]},
        "disorder": cfg.get("disorder", {"kind": "none"}),
    }
    problems, lone = [], []
    for c, coin in enumerate(([1.0, 0.0], [0.0, 1.0])):
        lone_cfg = dict(single, coin_amps=coin)
        lone_dir = run_to_dir(tw, lone_cfg, scratch / f"coin{c}")
        problems += [f"lone walker in coin |{c}>: {p}" for p in invariants(lone_cfg, lone_dir)]
        lone.append(read_csv(lone_dir / "distribution.csv"))
    expected = 0.5 * (lone[0]["probability"] + lone[1]["probability"])
    got = read_csv(out_dir / "distribution_a.csv")["probability"]
    err = float(np.max(np.abs(got - expected)))
    if err > TOL:
        problems.append(f"marginal A differs from (P0 + P1)/2 by {err:.3e}")
    return problems


def _phase(tw, cfg, out_dir, scratch) -> list[str]:
    """Anchor verdicts, and the gap grid against the closed-form split-step band
    cos E = cos(t1/2)cos(t2/2)cos k - sin(t1/2)sin(t2/2) (Kitagawa et al., PRA 82, 033429)."""
    cols = read_csv(out_dir / "phase.csv")
    t1, t2, winding, gap = cols["theta1"], cols["theta2"], cols["winding"], cols["gap"]
    problems = []
    anchors = (((-math.pi / 2, math.pi / 4), 1), ((-math.pi / 2, 3 * math.pi / 4), 0))
    for (a, b), expected in anchors if cfg["grid_n"] % 8 == 0 else ():  # on the grid only then
        hit = np.flatnonzero((np.abs(t1 - a) < TOL) & (np.abs(t2 - b) < TOL))
        if hit.size != 1 or winding[hit[0]] != expected:
            problems.append(f"winding at ({a:.4f}, {b:.4f}) is not {expected}")
    n_k = cfg["k_points"]
    cos_k = np.cos(-np.pi + 2.0 * np.pi * np.arange(n_k) / n_k)
    closed = np.empty_like(gap)
    for lo in range(0, len(gap), 256):
        h1, h2 = t1[lo:lo + 256] / 2.0, t2[lo:lo + 256] / 2.0
        cos_e = (np.cos(h1) * np.cos(h2))[:, None] * cos_k - (np.sin(h1) * np.sin(h2))[:, None]
        energy = np.arccos(np.clip(cos_e, -1.0, 1.0))
        closed[lo:lo + 256] = np.minimum(energy.min(axis=1), np.pi - energy.max(axis=1))
    err = float(np.max(np.abs(closed - gap)))
    if err > GAP_TOL:
        problems.append(f"gap grid differs from the closed-form band by {err:.3e}")
    return problems


CROSS_ROUTE = {
    "pair_walk": _pair_marginal_a,
    "phase_diagram": _phase,
}


def cross_route(workload: str, tw, cfg: dict, out_dir: Path, scratch: Path) -> list[str]:
    """The workload's cross-route check for one experiment's output."""
    return CROSS_ROUTE[workload](tw, cfg, out_dir, scratch)
