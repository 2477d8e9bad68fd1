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

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
HADAMARD.flags.writeable = False


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


# The stepping kernel works on site-last memory (coin, *walkers, site): it takes
# and returns walker arrays with axes (site, coin, *walkers) as transposed views
# of that memory, so a trajectory copies no walker array after its start. Each
# coin is its two columns ([m00, m10], [m01, m11]), shaped (2, 1..., *batch,
# site) to broadcast against the memory; the batch axes are the last walker axes.


def _check_edge(leaving: np.ndarray, where: str) -> None:
    """Raise unless the amplitude a shift would push off the window is zero."""
    if not float(np.max(np.abs(leaving))) <= BOUNDARY_TOL:
        raise WindowOverflowError(f"{where}; window too small")


def _step_amps(amps: np.ndarray, coin1, coin2) -> np.ndarray:
    """One split step on site-last memory: coin1, shift coin-0 right, coin2, shift coin-1 left.

    Each coin acts on every site at once as col0 * (coin-0 plane) + col1 *
    (coin-1 plane); the coins are real, so plain broadcasting does the 2x2
    product. Each shift is a slice copy along the site axis plus a zeroed row.
    """
    mem = np.ascontiguousarray(amps.transpose(*range(1, amps.ndim), 0))  # copies only a site-first start
    col0, col1 = coin1
    mid = col0 * mem[:1] + col1 * mem[1:]
    _check_edge(mid[0, ..., -1], "coin-0 amplitude at the right edge")
    mid[0, ..., 1:] = mid[0, ..., :-1]
    mid[0, ..., 0] = 0.0

    col0, col1 = coin2
    out = col0 * mid[:1] + col1 * mid[1:]
    _check_edge(out[1, ..., 0], "coin-1 amplitude at the left edge")
    out[1, ..., :-1] = out[1, ..., 1:]
    out[1, ..., -1] = 0.0
    return out.transpose(-1, *range(amps.ndim - 1))


def _check_step(step: int, n_steps: int) -> None:
    if not 0 <= step < n_steps:
        raise ValueError(f"field covers steps 0..{n_steps - 1}, got {step}")


def split_stepper(field: np.ndarray):
    """Stepper (amps, step) -> amps for trajectory() under a (2, site, step, *batch) field.

    amps has axes (site, coin, *walkers) whose last axes match the batch axes,
    so each batch entry steps its walkers under its own angles. Every coin of
    the field is built once, as the rows (-s, c, s) of the half angles: the
    coin columns ([c, s], [-s, c]) are then the views rows[1:3] and rows[0:2].
    """
    shape = (3, field.shape[2], 2, *field.shape[3:], field.shape[1])
    rows = np.empty(shape)
    np.divide(field.transpose(2, 0, *range(3, field.ndim), 1), 2.0, out=rows[0])
    np.cos(rows[0], out=rows[1])
    np.sin(rows[0], out=rows[2])
    np.negative(rows[2], out=rows[0])

    def stepper(amps: np.ndarray, step: int) -> np.ndarray:
        if amps.shape[0] != shape[-1]:
            raise ValueError("angle field does not match the lattice window")
        _check_step(step, shape[1])
        broadcast = (2,) + (1,) * (amps.ndim + 2 - len(shape)) + shape[3:]
        coin1, coin2 = (
            (rows[1:3, step, k].reshape(broadcast), rows[0:2, step, k].reshape(broadcast)) for k in (0, 1)
        )
        return _step_amps(amps, coin1, coin2)

    return stepper


def hadamard_step(amps: np.ndarray) -> np.ndarray:
    """One step of the plain Hadamard walk: both shifts after a single coin."""
    shape = (2, 2) + (1,) * (amps.ndim - 1)
    h = HADAMARD.reshape(shape)
    one = np.eye(2).reshape(shape)
    return _step_amps(amps, (h[:, 0], h[:, 1]), (one[:, 0], one[:, 1]))


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
