"""Coin operators, the split-step kernel, and angle fields.

One split step is S1 . coin(theta2) . S0 . coin(theta1), i.e. the rightmost
operator acts first: S0 moves every coin-0 amplitude one site right and S1
moves every coin-1 amplitude one site left. The Hadamard walk is the same
kernel with the Hadamard coin first and the identity second. Coin angles may
depend on site and step; each coin reads the angle at the site where the
amplitude currently sits. A walker's angle field is a (2, site, step) array
holding the theta1 and theta2 planes. Walkers are arrays with axes
(site, coin, *walkers), as in states.py; trajectory() steps any of them and
checks every walker's norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, WindowOverflowError
from .states import LatticeWindow

# Guards compare as `not x <= tol`, so that a NaN fails them instead of passing.
BOUNDARY_TOL = 1e-14
RUNTIME_NORM_TOL = 1e-8

WEAK_HALF_WIDTH = 0.1 * np.pi
STRONG_HALF_WIDTH = 2.0 * np.pi

_PARTICLE_INDEX = {"a": 0, "b": 1}


def hadamard_coin() -> np.ndarray:
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def rotation_coin(theta) -> np.ndarray:
    """Real spin rotation by theta; half-angle entries, so the period in theta is 4*pi.

    Accepts a scalar (returns 2x2) or an array of angles (returns shape + (2, 2)).
    """
    theta = np.asarray(theta, dtype=float)
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    m = np.empty(theta.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = c
    m[..., 0, 1] = -s
    m[..., 1, 0] = s
    m[..., 1, 1] = c
    return m


# -- angle fields ---------------------------------------------------------------


@dataclass(frozen=True)
class DisorderSpec:
    """Per-site, per-step uniform angle randomization.

    half_width is the half-width of the uniform interval in radians; target
    selects which particle's field is randomized.
    """

    kind: str = "none"  # "none" | "uniform"
    half_width: float = 0.0
    target: str = "a"  # "a" | "b" | "both"

    def __post_init__(self):
        if self.kind not in ("none", "uniform"):
            raise ValueError(f"unknown disorder kind {self.kind!r}")
        if self.target not in ("a", "b", "both"):
            raise ValueError(f"unknown disorder target {self.target!r}")
        if self.half_width < 0:
            raise ValueError("half_width must be >= 0")
        if self.kind == "none" and self.half_width != 0:
            raise ValueError("disorder of kind 'none' has no half_width")

    def applies_to(self, particle: str) -> bool:
        return (
            self.kind == "uniform"
            and self.half_width > 0
            and self.target in (particle, "both")
        )


@dataclass(frozen=True)
class BoundarySpec:
    """Two angle pairs joined at the origin: theta_minus for x < 0, theta_plus for x >= 0."""

    theta_minus: tuple[float, float]
    theta_plus: tuple[float, float]


def randomize_field(field: np.ndarray, disorder: DisorderSpec, particle: str, seed: int) -> np.ndarray:
    """Add i.i.d. uniform noise to every (site, step) angle when the particle is targeted.

    field is a (2, site, step) array of (theta1, theta2) planes. Streams are
    keyed by (seed, particle, angle index) so theta1/theta2 noise for each
    particle is independent and reproducible regardless of host state.
    """
    if not disorder.applies_to(particle):
        return field
    p = _PARTICLE_INDEX[particle]
    w = disorder.half_width
    noise = np.empty_like(field)
    for substep in range(2):
        seq = np.random.SeedSequence(seed, spawn_key=(p, substep))
        noise[substep] = np.random.default_rng(seq).uniform(-w, w, size=field.shape[1:])
    return field + noise


def sample_angle_field(
    entry: tuple[float, float] | BoundarySpec,
    disorder: DisorderSpec,
    n_steps: int,
    window: LatticeWindow,
    particle: str,
    seed: int,
) -> np.ndarray:
    """One particle's (2, site, step) field of (theta1, theta2) angles.

    A BoundarySpec entry puts theta_minus on x < 0 and theta_plus on x >= 0; a
    plain (theta1, theta2) pair is the boundary with both sides equal. The
    field is then randomized per the disorder spec from the given seed.
    """
    if isinstance(entry, BoundarySpec):
        minus, plus = entry.theta_minus, entry.theta_plus
    else:
        minus = plus = entry
    minus, plus = (np.asarray(side, dtype=float).reshape(2, 1, 1) for side in (minus, plus))
    sides = np.where(window.positions()[:, None] < 0, minus, plus)  # (2, site, 1)
    return randomize_field(np.repeat(sides, n_steps, axis=2), disorder, particle, seed)


# -- split-step evolution --------------------------------------------------------


# The stepping kernel. Amplitudes have leading axes (position, coin) and any
# trailing axes, so one call can step several walkers. Each coin is its four
# real per-site entries (m00, m01, m10, m11), shaped to broadcast against one
# coin plane: (size,) + (1,) * (amps.ndim - 2).


def _check_edge(leaving: np.ndarray, where: str) -> None:
    """Raise unless the amplitude a shift would push off the window is zero."""
    if not float(np.max(np.abs(leaving))) <= BOUNDARY_TOL:
        raise WindowOverflowError(f"{where}; window too small")


def _step_amps(amps: np.ndarray, coin1, coin2) -> np.ndarray:
    """One split step on raw amplitudes, with each coin+shift pair fused.

    Equivalent to coin1, shift coin-0 right, coin2, shift coin-1 left, but
    writes each shifted coin plane directly (the coins are real, so plain
    broadcasting does the 2x2 product).
    """
    m00, m01, m10, m11 = coin1
    a0, a1 = amps[:, 0], amps[:, 1]

    # coin1 then move the coin-0 plane one site right
    _check_edge(m00[-1] * a0[-1] + m01[-1] * a1[-1], "coin-0 amplitude at the right edge")
    mid = np.empty_like(amps)
    mid[1:, 0] = m00[:-1] * a0[:-1] + m01[:-1] * a1[:-1]
    mid[0, 0] = 0.0
    mid[:, 1] = m10 * a0 + m11 * a1

    # coin2 then move the coin-1 plane one site left
    m00, m01, m10, m11 = coin2
    b0, b1 = mid[:, 0], mid[:, 1]
    _check_edge(m10[0] * b0[0] + m11[0] * b1[0], "coin-1 amplitude at the left edge")
    out = np.empty_like(amps)
    out[:, 0] = m00 * b0 + m01 * b1
    out[:-1, 1] = m10[1:] * b0[1:] + m11[1:] * b1[1:]
    out[-1, 1] = 0.0
    return out


def _rotation_entries(theta: np.ndarray, ndim: int) -> tuple:
    """Entries (m00, m01, m10, m11) of rotation_coin(theta), shaped for amps of ndim axes."""
    shape = (theta.shape[0],) + (1,) * (ndim - 2)
    c, s = np.cos(theta / 2.0).reshape(shape), np.sin(theta / 2.0).reshape(shape)
    return c, -s, s, c


def split_step(amps: np.ndarray, field: np.ndarray, step: int) -> np.ndarray:
    """One split step with the site-dependent angles field[:, :, step] of a (2, site, step) field."""
    if field.shape[1] != amps.shape[0]:
        raise ValueError("angle field does not match the lattice window")
    if not 0 <= step < field.shape[2]:
        raise ValueError(f"field covers steps 0..{field.shape[2] - 1}, got {step}")
    th1, th2 = field[:, :, step]
    return _step_amps(amps, _rotation_entries(th1, amps.ndim), _rotation_entries(th2, amps.ndim))


def hadamard_step(amps: np.ndarray) -> np.ndarray:
    """One step of the plain Hadamard walk: both shifts after a single coin."""
    h = np.full((amps.shape[0],) + (1,) * (amps.ndim - 2), 1.0 / np.sqrt(2.0))
    one, zero = np.ones_like(h), np.zeros_like(h)
    return _step_amps(amps, (h, h, h, -h), (one, zero, zero, one))


def trajectory(amps: np.ndarray, stepper, n_steps: int):
    """Yield amps, then amps = stepper(amps, step) after each of n_steps steps.

    amps has axes (site, coin, *walkers); after every step each walker's norm
    is checked against RUNTIME_NORM_TOL.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    yield amps
    for step in range(n_steps):
        amps = stepper(amps, step)
        drift = float(np.max(np.abs(np.linalg.norm(amps, axis=(0, 1)) - 1.0)))
        if not drift <= RUNTIME_NORM_TOL:
            raise NumericalError(f"walker norm drifted by {drift:.3e} at step {step + 1}")
        yield amps
