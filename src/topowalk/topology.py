"""Momentum-space analysis of the split-step walk.

With constant angles the step operator is translation invariant and reduces to
a 2x2 unitary U(k) per quasimomentum. Its quasienergy E(k) and Bloch rotation
axis n(k) satisfy U(k) = cos(E) I - i sin(E) n . sigma; the number of turns the
axis makes across the Brillouin zone is the walk's topological invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError
from .walk import rotation_coin

GAP_THRESHOLD = 1e-6
PLANARITY_TOL = 1e-6


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


def momentum_unitary(theta1: float, theta2: float, k) -> np.ndarray:
    """Step operator at quasimomentum k; k may be an array (batched result)."""
    return _unitary_at_phase(theta1, theta2, np.exp(1j * np.asarray(k, dtype=float)))


def _unitary_at_phase(theta1: float, theta2: float, phase: np.ndarray) -> np.ndarray:
    """momentum_unitary at phase = e^{ik}: the coin-0 shift diag(e^{ik}, 1) and the coin-1
    shift diag(1, e^{-ik}) sandwich the two coin rotations."""
    r1 = rotation_coin(theta1)
    r2 = rotation_coin(theta2)
    m = np.empty(phase.shape + (2, 2), dtype=complex)
    m[..., 0, :] = phase[..., None] * r1[0, :]
    m[..., 1, :] = r1[1, :]
    m = r2[:, 0, None] * m[..., None, 0, :] + r2[:, 1, None] * m[..., None, 1, :]  # r2 @ m
    m[..., 1, :] = phase.conj()[..., None] * m[..., 1, :]
    return m


@lru_cache(maxsize=8)
def _zone_phase(k_points: int) -> np.ndarray:
    """e^{ik} on the uniform k grid over [-pi, pi); read-only, as every call shares it."""
    phase = np.exp(1j * (-np.pi + 2.0 * np.pi * np.arange(k_points) / k_points))
    phase.flags.writeable = False
    return phase


def _pauli_components(u: np.ndarray):
    """Coefficients of U = a0 I + ax sx + ay sy + az sz over trailing 2x2 axes."""
    a0 = (u[..., 0, 0] + u[..., 1, 1]) / 2.0
    ax = (u[..., 0, 1] + u[..., 1, 0]) / 2.0
    ay = 1j * (u[..., 0, 1] - u[..., 1, 0]) / 2.0
    az = (u[..., 0, 0] - u[..., 1, 1]) / 2.0
    return a0, ax, ay, az


def winding_number(theta1: float, theta2: float, k_points: int = 1024) -> PhaseVerdict:
    """Turns of the rotation axis across the Brillouin zone, 0 or 1.

    Samples n(k) on a uniform grid, checks that all axes share one plane, and
    accumulates the signed in-plane angle around the zone. Gapless parameters
    (E(k) reaching 0 or pi) get winding None.
    """
    if k_points < 64:
        raise ValueError("k_points must be >= 64")
    a0, ax, ay, az = _pauli_components(_unitary_at_phase(theta1, theta2, _zone_phase(k_points)))
    energy = np.arccos(np.clip(a0.real, -1.0, 1.0))
    gap = float(min(energy.min(), np.pi - energy.max()))
    if not np.isfinite(gap):
        raise NumericalError(f"quasienergy gap is {gap} at angles ({theta1}, {theta2})")
    if gap <= GAP_THRESHOLD:
        return PhaseVerdict(None, gap)

    # n(k) = -Im(ax, ay, az) / sin E, normalized; written out, as np.stack and norm are call-bound
    axes = np.empty((energy.size, 3))
    axes[:, 0], axes[:, 1], axes[:, 2] = -ax.imag, -ay.imag, -az.imag
    axes /= np.sin(energy)[:, None]
    axes /= np.sqrt(axes[:, 0] ** 2 + axes[:, 1] ** 2 + axes[:, 2] ** 2)[:, None]

    # Common plane normal: the least-squares direction orthogonal to every axis.
    normal = np.linalg.eigh(axes.T @ axes)[1][:, 0]
    out_of_plane = float(np.max(np.abs(axes @ normal)))
    if not out_of_plane <= PLANARITY_TOL:  # a NaN fails it too
        raise NumericalError(f"axis samples deviate {out_of_plane:.3e} from a common plane")

    (n0, n1, n2), (x0, x1, x2) = normal.tolist(), axes[0].tolist()
    e2 = np.array([n1 * x2 - n2 * x1, n2 * x0 - n0 * x2, n0 * x1 - n1 * x0])  # normal x axes[0]
    phi = np.arctan2(axes @ e2, axes @ axes[0])
    steps = np.diff(phi, append=phi[:1])  # closes the loop across the zone edge
    steps = (steps + np.pi) % (2.0 * np.pi) - np.pi
    return PhaseVerdict(int(round(abs(float(steps.sum())) / (2.0 * np.pi))), gap)


def phase_diagram(grid_n: int = 64, k_points: int = 1024) -> PhaseDiagram:
    """Winding verdicts on a uniform half-open (theta1, theta2) grid over [-pi, pi).

    Boundary (gapless) cells are stored as -1 in the winding grid.
    """
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
