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
hold both k = 0 and k = pi. Per grid point the arrays keep k innermost, and the
coins are the four floats cos and sin of theta1/2 and theta2/2, from math.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError, as_integer

GAP_THRESHOLD = 1e-6


@dataclass(frozen=True)
class PhaseVerdict:
    """Winding verdict for one (theta1, theta2); winding is None below the gap
    threshold (phase boundary)."""

    winding: int | None
    gap: float


@dataclass
class PhaseDiagram:
    thetas: np.ndarray  # the grid of theta1 values, and of theta2 values
    winding: np.ndarray  # (n1, n2) int; -1 marks boundary cells
    gap: np.ndarray


def _diagonal(theta1: float, theta2: float, phase: np.ndarray) -> tuple:
    """U(k)'s diagonal entries (u00, u11) at phase = e^{ik}: u = diag(1, e^{-ik}) r2 diag(e^{ik}, 1) r1,
    the coin-1 and coin-0 shifts around the real rotations r = [[c, -s], [s, c]] of the half angles.
    winding_number reads their trace, which gives the gap."""
    c1, s1, c2, s2 = math.cos(theta1 / 2), math.sin(theta1 / 2), math.cos(theta2 / 2), math.sin(theta2 / 2)
    # numpy casts each float coin entry to c + 0j and runs the complex loops a complex coin ran, and a
    # product of two coin entries is a real product either way, so the bytes match complex coins
    u00 = c2 * (phase * c1) + (-s2) * s1
    u11 = phase.conj() * (s2 * (phase * -s1) + c2 * c1)
    return u00, u11


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
    theta1, theta2 = float(theta1), float(theta2)
    if not (math.isfinite(theta1) and math.isfinite(theta2)):  # math.cos(inf) would raise ValueError
        raise NumericalError(f"quasienergy gap is nan at angles ({theta1}, {theta2})")
    u00, u11 = _diagonal(theta1, theta2, _zone_phase(k_points))
    energy = u00.real + u11.real  # cos E = Re(u00 + u11) / 2
    energy *= 0.5
    np.maximum(energy, -1.0, out=energy)  # clipped in place, without np.clip's wrapper
    np.minimum(energy, 1.0, out=energy)
    np.arccos(energy, out=energy)
    gap = float(min(energy.min(), np.pi - energy.max()))
    if gap <= GAP_THRESHOLD:
        return PhaseVerdict(None, gap)
    return PhaseVerdict(int(math.cos(theta1) < math.cos(theta2)), gap)


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
    return PhaseDiagram(thetas, winding, gap)
