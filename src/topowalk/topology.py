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
hold both k = 0 and k = pi. One kernel computes the gaps of a whole grid in
(theta1, theta2, k) chunks; the coins are the floats cos and sin of theta/2,
from math. cos E(k) = cos(theta1/2) cos(theta2/2) cos k - sin(theta1/2) sin(theta2/2)
is affine in cos k, so a point whose cos(theta1/2) and cos(theta2/2) clear a
floor takes only the columns k = 0 and k = -pi, which hold its largest and
least computed cos E (the column rule below); a point with a coin below the
floor, theta within about 2**-7 of pi (mod 2 pi), takes every k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError, as_integer

GAP_THRESHOLD = 1e-6
# per work array; uncapped (theta2, k) blocks ran slower than one point at a time, and u00 and u11 of
# 2**14 each, in one allocation, raised the phase_diagram bench's peak RSS by 0.35 MB (glibc malloc)
_WORK_AMPLITUDES = 2**13
_WORK_POINTS = 2**10  # per chunk; at 2 k-points the per-point sums would otherwise outweigh the work arrays

# The column rule. Write A = c1 c2 and B = s1 s2 for a point's float coins. Every cos E the kernel
# computes lies within 2**-48 of A Re(e^{ik}) - B taken exactly (tests/test_topology.py checks this;
# the worst seen is about 2**-52), inside the margin M = 2**-40. If |c1| and |c2| are at least the
# floor F = 2**-8, then |A| >= F**2, and a column with 1 - |Re e^{ik}| > 4 M / F**2 has
# A Re(e^{ik}) - B more than 4 M below the value at k = 0 or at k = -pi, whichever holds the largest,
# and more than 4 M above the other, which holds the least. Every even grid holds both, with
# Re e^{ik} exactly 1 and -1, so the column's computed value is more than 2 M from either extreme and
# is neither. Such a point keeps only the other columns: k = 0 and k = -pi alone on grids of 64 to
# 8,192 points. A point with a coin below F keeps every k.
_COIN_FLOOR = 2.0**-8
_MARGIN = 2.0**-40
_COLUMN_SLACK = 4 * _MARGIN / _COIN_FLOOR**2


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


@lru_cache(maxsize=8)
def _phases(k_points: int) -> tuple:
    """(every, extreme): (e^{ik}, e^{-ik}) over the whole k grid, and over the columns that the
    column rule keeps for a point whose coins clear the floor; read-only."""
    phase = _zone_phase(k_points)
    extreme = phase[1.0 - np.abs(phase.real) <= _COLUMN_SLACK]
    pairs = ((phase, phase.conj()), (extreme, extreme.conj()))
    for array in (*pairs[0], *pairs[1]):
        array.flags.writeable = False
    return pairs


def _check_k_points(k_points) -> int:
    k_points = as_integer(k_points, "k_points")
    if k_points < 64:
        raise ValueError("k_points must be >= 64")
    if k_points % 2:  # an odd grid misses k = 0, where the gap closes on theta1 = -theta2
        raise ValueError("k_points must be even")
    return k_points


def _runs(cosines) -> list:
    """(slice, clears) for each run of consecutive cosines whose sizes all clear the floor, or all
    fall below it."""
    clears = [abs(c) >= _COIN_FLOOR for c in cosines]
    runs, start = [], 0
    for stop in range(1, len(clears) + 1):
        if stop == len(clears) or clears[stop] != clears[start]:
            runs.append((slice(start, stop), clears[start]))
            start = stop
    return runs


def _extremes(coins1, coins2, phases, out) -> None:
    """Write twice the largest and least cos E over the k grid of phases = (e^{ik}, e^{-ik}) into
    out[0] and out[1], (n1, n2) each, from the float coins (c1, -s1) of each theta1 in coins1 and
    (c2, s2) of each theta2 in coins2, (2, n) each.

    U(k)'s diagonal is u00 = c2 (e^{ik} c1) - s2 s1 and u11 = e^{-ik} (s2 (e^{ik} (-s1)) + c2 c1):
    the shifts around the real rotations [[c, -s], [s, c]] of the half angles. The coins enter the
    complex products as c + 0j, as numpy casts a float scalar, and each element takes the same
    ufuncs whatever chunk or k grid it is in. Each chunk holds at most _WORK_POINTS points
    and two work arrays of at most _WORK_AMPLITUDES amplitudes, u00 and u11 side by side.
    """
    (phase, phase_conj), n1, n2 = phases, coins1.shape[1], coins2.shape[1]
    k_points = phase.size
    width = max(1, min(n2, _WORK_POINTS, _WORK_AMPLITUDES // k_points))  # theta2 columns a chunk
    height = max(1, min(n1, _WORK_POINTS // width, _WORK_AMPLITUDES // (width * k_points)))  # theta1 rows
    work, energy = np.empty((2, height, width, k_points), dtype=complex), np.empty((height, width, k_points))
    rows_c, cols_c = coins1.astype(complex)[:, :, None, None], coins2.astype(complex)[:, None, :, None]
    for i in range(0, n1, height):
        rows = slice(i, i + height)
        for j in range(0, n2, width):
            cols = slice(j, j + width)
            m, n = min(height, n1 - i), min(width, n2 - j)
            w, e = work[:, :m, :n], energy[:m, :n]
            np.multiply(phase, rows_c[:, rows], out=w)  # e^{ik} c1 and e^{ik} (-s1)
            np.multiply(cols_c[:, :, cols], w, out=w)
            w += (coins1[::-1, rows, None] * coins2[::-1, None, cols]).astype(complex)[..., None]  # -s1 s2, c1 c2
            u11 = w[1]
            np.multiply(phase_conj, u11, out=u11)  # w holds u00 and u11 now
            w.real.sum(axis=0, out=e)  # 2 cos E = Re(u00 + u11)
            e.max(axis=2, out=out[0, rows, cols])
            e.min(axis=2, out=out[1, rows, cols])


def _gap_grid(thetas1, thetas2, k_points: int) -> np.ndarray:
    """(n1, n2) quasienergy gaps of finite float angles over a checked k grid.

    arccos falls, so taking it of the extremes of cos E over k gives each point's gap. Halving and
    clipping rise with their argument, so they commute with max and min too, and each point's gap
    is bit for bit what arccos of every one of its k-points gives. The runs of theta1 rows and of
    theta2 columns whose coins clear the floor are chunked apart from those whose coins do not: a
    block of points that all clear it takes the column rule's k-points, any other every k.
    """
    cos1, cos2 = ([math.cos(t / 2) for t in thetas] for thetas in (thetas1, thetas2))
    coins1 = np.array([cos1, [-math.sin(t / 2) for t in thetas1]])
    coins2 = np.array([cos2, [math.sin(t / 2) for t in thetas2]])
    every, extreme = _phases(k_points)
    extremes = np.empty((2, len(cos1), len(cos2)))  # max and min of 2 cos E over k
    for rows, clear_rows in _runs(cos1):
        for cols, clear_cols in _runs(cos2):
            phases = extreme if clear_rows and clear_cols else every
            _extremes(coins1[:, rows], coins2[:, cols], phases, extremes[:, rows, cols])
    extremes *= 0.5
    np.maximum(extremes, -1.0, out=extremes)  # clipped in place, without np.clip's wrapper
    np.minimum(extremes, 1.0, out=extremes)
    np.arccos(extremes, out=extremes)
    return np.minimum(extremes[0], np.pi - extremes[1])


def _verdict_grid(thetas1, thetas2, k_points: int) -> tuple:
    """(winding, gap) grids over float angle lists: winding -1 where gapless, else cos theta1 < cos theta2."""
    gap = _gap_grid(thetas1, thetas2, k_points)
    cos1, cos2 = (np.array([math.cos(t) for t in thetas]) for thetas in (thetas1, thetas2))
    return np.where(gap <= GAP_THRESHOLD, -1, cos1[:, None] < cos2), gap


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
