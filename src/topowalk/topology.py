"""Momentum-space analysis of the split-step walk.

With constant angles the step operator is translation invariant and reduces to
a 2x2 unitary U(k) per quasimomentum. Its quasienergy E(k) and Bloch rotation
axis n(k) satisfy U(k) = cos(E) I - i sin(E) n . sigma; the number of turns the
axis makes across the Brillouin zone is the walk's topological invariant.

For this walk the invariant has a closed form (Kitagawa, Rudner, Berg & Demler,
PRA 82, 033429, 2010): the gap closes at k = 0 or k = pi exactly on the lines
|theta1| = |theta2| (mod 2 pi), and off them the axis winds once when
cos theta1 < cos theta2, else not at all. So a grid point computes only the gap,
from the diagonal of U(k) on a uniform k grid, and the grid must be even to
hold both k = 0 and k = pi. Per grid point the arrays keep k innermost.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError, as_integer
from .walk import rotation_coin

GAP_THRESHOLD = 1e-6


@dataclass(frozen=True)
class PhaseVerdict:
    """Winding verdict for one (theta1, theta2); winding is None below the gap
    threshold (phase boundary)."""

    winding: int | None
    gap: float


@dataclass
class PhaseDiagram:
    theta1_values: np.ndarray
    theta2_values: np.ndarray
    winding: np.ndarray  # (n1, n2) int; -1 marks boundary cells
    gap: np.ndarray


def _unitary_entry(r1: np.ndarray, r2: np.ndarray, phase: np.ndarray, a: int, b: int) -> np.ndarray:
    """Entry (a, b) of the step operator U(k) at phase = e^{ik}, from the coins r1, r2 of theta1, theta2:
    u = diag(1, e^{-ik}) r2 diag(e^{ik}, 1) r1, the coin-1 and coin-0 shifts around the rotations.
    winding_number reads the diagonal entries, whose trace gives the gap."""
    # column b of diag(e^{ik}, 1) r1 is (phase * r1[0, b], r1[1, b]), then row a of r2 times it; the
    # coins are real, so the scalar product r2[a, 1] * r1[1, b] rounds as numpy's array loops would
    u = r2[a, 0] * (phase * r1[0, b]) + r2[a, 1] * r1[1, b]
    return phase.conj() * u if a else u


@lru_cache(maxsize=8)
def _zone_phase(k_points: int) -> np.ndarray:
    """e^{ik} on the uniform k grid over [-pi, pi); read-only, as every call shares it."""
    phase = np.exp(1j * (-np.pi + 2.0 * np.pi * np.arange(k_points) / k_points))
    phase.flags.writeable = False
    return phase


def winding_number(theta1: float, theta2: float, k_points: int = 1024) -> PhaseVerdict:
    """Turns of the rotation axis across the Brillouin zone, 0 or 1.

    The gap is the least distance of E(k) from 0 or pi over an even, uniform k grid;
    gapless parameters (gap at most GAP_THRESHOLD) get winding None. A gapped point
    winds once exactly when cos theta1 < cos theta2.
    """
    k_points = as_integer(k_points, "k_points")
    if k_points < 64:
        raise ValueError("k_points must be >= 64")
    if k_points % 2:  # an odd grid misses k = 0, where the gap closes on theta1 = -theta2
        raise ValueError("k_points must be even")
    coins, phase = (rotation_coin(theta1), rotation_coin(theta2)), _zone_phase(k_points)
    u00, u11 = (_unitary_entry(*coins, phase, a, a) for a in (0, 1))  # U's trace is all the gap reads
    energy = u00.real + u11.real  # cos E = Re(u00 + u11) / 2
    energy *= 0.5
    np.arccos(np.clip(energy, -1.0, 1.0, out=energy), out=energy)
    gap = float(min(energy.min(), np.pi - energy.max()))
    if not np.isfinite(gap):
        raise NumericalError(f"quasienergy gap is {gap} at angles ({theta1}, {theta2})")
    if gap <= GAP_THRESHOLD:
        return PhaseVerdict(None, gap)
    return PhaseVerdict(int(np.cos(theta1) < np.cos(theta2)), gap)


def phase_diagram(grid_n: int = 64, k_points: int = 1024) -> PhaseDiagram:
    """Winding verdicts on a uniform half-open (theta1, theta2) grid over [-pi, pi).

    Boundary (gapless) cells are stored as -1 in the winding grid.
    """
    grid_n = as_integer(grid_n, "grid_n")
    if grid_n < 16:
        raise ValueError("grid_n must be >= 16")
    thetas = -np.pi + 2.0 * np.pi * np.arange(grid_n) / grid_n
    winding = np.empty((grid_n, grid_n), dtype=int)
    gap = np.empty((grid_n, grid_n), dtype=float)
    for i, j in np.ndindex(grid_n, grid_n):
        verdict = winding_number(float(thetas[i]), float(thetas[j]), k_points)
        winding[i, j] = -1 if verdict.winding is None else verdict.winding
        gap[i, j] = verdict.gap
    return PhaseDiagram(thetas.copy(), thetas.copy(), winding, gap)
