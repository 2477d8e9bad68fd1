"""Momentum-space analysis of the split-step walk.

With constant angles the step operator is translation invariant and reduces to
a 2x2 unitary U(k) per quasimomentum. Its quasienergy E(k) and Bloch rotation
axis n(k) satisfy U(k) = cos(E) I - i sin(E) n . sigma; the number of turns the
axis makes across the Brillouin zone is the walk's topological invariant.
Per grid point the arrays keep k innermost: U(k) is four (k,) entry arrays and
the axes one (3, k) array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError, as_integer
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
    k = np.asarray(k, dtype=float)  # raveled, as numpy's scalar math rounds unlike its array loops
    return np.stack(_unitary_entries(theta1, theta2, np.exp(1j * k.ravel())), -1).reshape(k.shape + (2, 2))


def _unitary_entries(theta1: float, theta2: float, phase: np.ndarray) -> tuple:
    """Entries (u00, u01, u10, u11) of momentum_unitary at phase = e^{ik}, each shaped like phase:
    u = diag(1, e^{-ik}) r2 diag(e^{ik}, 1) r1, the coin-1 and coin-0 shifts around the rotations."""
    r1 = rotation_coin(theta1)
    r2 = rotation_coin(theta2)
    # row 0 of diag(e^{ik}, 1) r1 (row 1 is r1[1]), then r2 times it; the coins are real, so
    # the scalar products r2[a, 1] * r1[1, b] round as numpy's array loops would
    m0 = phase * r1[0, 0], phase * r1[0, 1]
    u0, u1 = ([r2[a, 0] * m0[b] + r2[a, 1] * r1[1, b] for b in (0, 1)] for a in (0, 1))
    back = phase.conj()
    return u0[0], u0[1], back * u1[0], back * u1[1]


@lru_cache(maxsize=8)
def _zone_phase(k_points: int) -> np.ndarray:
    """e^{ik} on the uniform k grid over [-pi, pi); read-only, as every call shares it."""
    phase = np.exp(1j * (-np.pi + 2.0 * np.pi * np.arange(k_points) / k_points))
    phase.flags.writeable = False
    return phase


def winding_number(theta1: float, theta2: float, k_points: int = 1024) -> PhaseVerdict:
    """Turns of the rotation axis across the Brillouin zone, 0 or 1.

    Samples n(k) on a uniform grid, checks that all axes share one plane, and
    accumulates the signed in-plane angle around the zone. Gapless parameters
    (E(k) reaching 0 or pi) get winding None.
    """
    k_points = as_integer(k_points, "k_points")
    if k_points < 64:
        raise ValueError("k_points must be >= 64")
    u00, u01, u10, u11 = _unitary_entries(theta1, theta2, _zone_phase(k_points))
    energy = u00.real + u11.real  # cos E = Re(u00 + u11) / 2
    energy *= 0.5
    np.arccos(np.clip(energy, -1.0, 1.0, out=energy), out=energy)
    gap = float(min(energy.min(), np.pi - energy.max()))
    if not np.isfinite(gap):
        raise NumericalError(f"quasienergy gap is {gap} at angles ({theta1}, {theta2})")
    if gap <= GAP_THRESHOLD:
        return PhaseVerdict(None, gap)

    # rows 2 n(k) sin E(k), from -Im of u's sx, sy, sz coefficients; sin E > 0 once gapped,
    # so normalizing drops both factors
    axes = np.empty((3, k_points))
    np.negative(np.add(u01.imag, u10.imag, out=axes[0]), out=axes[0])
    np.subtract(u10.real, u01.real, out=axes[1])
    np.subtract(u11.imag, u00.imag, out=axes[2])
    axes /= np.sqrt(np.einsum("ik,ik->k", axes, axes))

    # Common plane normal: the least-squares direction orthogonal to every axis.
    normal = np.linalg.eigh(axes @ axes.T)[1][:, 0]
    out_of_plane = float(np.abs(normal @ axes).max())
    if not out_of_plane <= PLANARITY_TOL:  # a NaN fails it too
        raise NumericalError(f"axis samples deviate {out_of_plane:.3e} from a common plane")

    # in-plane points z = (e1 . n) + i (e2 . n), e1 = axes[:, 0] and e2 = normal x e1, read as
    # complex from the rows of the (k, 2) product; the turns between neighbours close the loop
    (n0, n1, n2), (x0, x1, x2) = normal.tolist(), axes[:, 0].tolist()
    basis = np.array([[x0, n1 * x2 - n2 * x1], [x1, n2 * x0 - n0 * x2], [x2, n0 * x1 - n1 * x0]])
    z = (axes.T @ basis).view(complex)[:, 0]
    turns = float(np.angle(z[1:] * z[:-1].conj()).sum() + np.angle(z[0] * z[-1].conj()))
    return PhaseVerdict(int(round(abs(turns) / (2.0 * np.pi))), gap)


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
