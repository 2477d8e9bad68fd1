"""Momentum-space analysis of the split-step walk.

With constant angles the step operator is translation invariant and reduces to
a 2x2 unitary U(k) per quasimomentum. Its quasienergy E(k) and Bloch rotation
axis n(k) satisfy U(k) = cos(E) I - i sin(E) n . sigma; the number of turns the
axis makes across the Brillouin zone is the walk's topological invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Step operator at quasimomentum k; k may be an array (batched result).

    The conditional shifts become diag(e^{ik}, 1) for the coin-0 move and
    diag(1, e^{-ik}) for the coin-1 move, sandwiching the two coin rotations.
    """
    k = np.asarray(k, dtype=float)
    r1 = rotation_coin(theta1)
    r2 = rotation_coin(theta2)
    phase = np.exp(1j * k)
    m = np.empty(k.shape + (2, 2), dtype=complex)
    m[..., 0, :] = phase[..., None] * r1[0, :]
    m[..., 1, :] = r1[1, :]
    m = np.einsum("ab,...bc->...ac", r2, m)
    m[..., 1, :] = phase.conj()[..., None] * m[..., 1, :]
    return m


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
    k = -np.pi + 2.0 * np.pi * np.arange(k_points) / k_points
    u = momentum_unitary(theta1, theta2, k)
    a0, ax, ay, az = _pauli_components(u)
    energy = np.arccos(np.clip(a0.real, -1.0, 1.0))
    gap = float(min(energy.min(), np.pi - energy.max()))
    if gap <= GAP_THRESHOLD:
        return PhaseVerdict(None, gap)

    axes = -np.stack([ax.imag, ay.imag, az.imag], axis=-1) / np.sin(energy)[:, None]
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)

    # Common plane normal: the least-squares direction orthogonal to every axis.
    _, eigvecs = np.linalg.eigh(axes.T @ axes)
    normal = eigvecs[:, 0]
    out_of_plane = float(np.max(np.abs(axes @ normal)))
    if out_of_plane > PLANARITY_TOL:
        raise NumericalError(f"axis samples deviate {out_of_plane:.3e} from a common plane")

    e1 = axes[0]
    e2 = np.cross(normal, e1)
    phi = np.arctan2(axes @ e2, axes @ e1)
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
    for i, t1 in enumerate(thetas):
        for j, t2 in enumerate(thetas):
            verdict = winding_number(float(t1), float(t2), k_points)
            winding[i, j] = -1 if verdict.winding is None else verdict.winding
            gap[i, j] = verdict.gap
    return PhaseDiagram(thetas.copy(), thetas.copy(), winding, gap)
