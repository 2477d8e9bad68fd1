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
hold both k = 0 and k = pi. One kernel computes the gaps of a whole grid, a
theta1 row at a time, into (theta2, k) work arrays allocated once per call; the
coins are the floats cos and sin of theta/2, from math.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError, as_integer

GAP_THRESHOLD = 1e-6
_WORK_AMPLITUDES = 2**14  # per work array; uncapped (theta2, k) blocks ran slower than one point at a time


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


@lru_cache(maxsize=8)
def _zone_phase(k_points: int) -> np.ndarray:
    """e^{ik} on the uniform k grid over [-pi, pi); read-only, as every call shares it."""
    phase = np.exp(1j * (-np.pi + 2.0 * np.pi * np.arange(k_points) / k_points))
    phase.flags.writeable = False
    return phase


def _check_k_points(k_points) -> int:
    k_points = as_integer(k_points, "k_points")
    if k_points < 64:
        raise ValueError("k_points must be >= 64")
    if k_points % 2:  # an odd grid misses k = 0, where the gap closes on theta1 = -theta2
        raise ValueError("k_points must be even")
    return k_points


def _gap_grid(thetas1, thetas2, k_points: int) -> np.ndarray:
    """(n1, n2) quasienergy gaps of finite float angles over a checked k grid.

    U(k)'s diagonal is u00 = c2 (e^{ik} c1) - s2 s1 and u11 = e^{-ik} (s2 (e^{ik} (-s1)) + c2 c1):
    the shifts around the real rotations [[c, -s], [s, c]] of the half angles. The coins enter the
    complex products as c + 0j, as numpy casts a float scalar, and arccos falls, so taking it of
    the extremes of cos E = Re(u00 + u11) / 2 over k gives each point's gap bit for bit.
    """
    phase = _zone_phase(k_points)
    phase_conj = phase.conj()
    c2 = np.array([math.cos(t / 2) for t in thetas2])
    s2 = np.array([math.sin(t / 2) for t in thetas2])
    c2_column, s2_column, minus_s2 = c2.astype(complex)[:, None], s2.astype(complex)[:, None], -s2
    width = max(1, min(c2.size, _WORK_AMPLITUDES // k_points))  # theta2 columns a chunk
    u00 = np.empty((width, k_points), dtype=complex)
    w = np.empty_like(u00)
    energy = np.empty(u00.shape)
    extremes = np.empty((2, len(thetas1), c2.size))  # max and min of cos E over k
    for i, theta1 in enumerate(thetas1):
        c1, s1 = math.cos(theta1 / 2), math.sin(theta1 / 2)
        phase_c1, phase_s1 = phase * c1, phase * -s1
        s2s1, c2c1 = (minus_s2 * s1).astype(complex)[:, None], (c2 * c1).astype(complex)[:, None]
        for j in range(0, c2.size, width):
            n = min(width, c2.size - j)
            cols, a, b, e = slice(j, j + n), u00[:n], w[:n], energy[:n]
            np.multiply(c2_column[cols], phase_c1, out=a)
            np.add(a, s2s1[cols], out=a)
            np.multiply(s2_column[cols], phase_s1, out=b)
            np.add(b, c2c1[cols], out=b)
            np.multiply(phase_conj, b, out=b)  # b is u11 now
            np.add(a.real, b.real, out=e)
            e *= 0.5
            e.max(axis=1, out=extremes[0, i, cols])
            e.min(axis=1, out=extremes[1, i, cols])
    np.maximum(extremes, -1.0, out=extremes)  # clipped in place, without np.clip's wrapper
    np.minimum(extremes, 1.0, out=extremes)
    np.arccos(extremes, out=extremes)
    return np.minimum(extremes[0], np.pi - extremes[1])


def _verdict_grid(thetas1, thetas2, k_points: int) -> tuple:
    """(winding, gap) grids over float angle lists: winding -1 where gapless, else cos theta1 < cos theta2."""
    gap = _gap_grid(thetas1, thetas2, k_points)
    cos1, cos2 = (np.array([math.cos(t) for t in thetas]) for thetas in (thetas1, thetas2))
    winding = (cos1[:, None] < cos2).astype(int)
    winding[gap <= GAP_THRESHOLD] = -1
    return winding, gap


def winding_number(theta1: float, theta2: float, k_points: int = 1024) -> PhaseVerdict:
    """Turns of the rotation axis across the Brillouin zone, 0 or 1.

    The gap is the least distance of E(k) from 0 or pi over an even, uniform k grid;
    gapless parameters (gap at most GAP_THRESHOLD) get winding None. A gapped point
    winds once exactly when cos theta1 < cos theta2.
    """
    k_points = _check_k_points(k_points)
    theta1, theta2 = float(theta1), float(theta2)
    if not (math.isfinite(theta1) and math.isfinite(theta2)):  # math.cos(inf) would raise ValueError
        raise NumericalError(f"quasienergy gap is nan at angles ({theta1}, {theta2})")
    winding, gap = (grid[0, 0] for grid in _verdict_grid([theta1], [theta2], k_points))
    return PhaseVerdict(None if winding < 0 else int(winding), float(gap))


def phase_diagram(grid_n: int = 64, k_points: int = 1024) -> PhaseDiagram:
    """Winding verdicts on a uniform half-open (theta1, theta2) grid over [-pi, pi).

    Boundary (gapless) cells are stored as -1 in the winding grid.
    """
    grid_n = as_integer(grid_n, "grid_n")
    if grid_n < 16:
        raise ValueError("grid_n must be >= 16")
    k_points = _check_k_points(k_points)
    thetas = -np.pi + 2.0 * np.pi * np.arange(grid_n) / grid_n
    angles = thetas.tolist()
    return PhaseDiagram(thetas, *_verdict_grid(angles, angles, k_points))
