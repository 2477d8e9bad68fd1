"""Coin operators, conditional shifts, split-step composition, and angle fields.

One split step is shift_coin1_left . coin(theta2) . shift_coin0_right . coin(theta1),
i.e. the rightmost operator acts first. Coin angles may depend on site and step;
each coin reads the angle at the site where the amplitude currently sits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, WindowOverflowError
from .states import LatticeWindow, SingleParticleState

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


# -- amplitude kernels, shared with the two-particle module -------------------
# All kernels take arrays with leading axes (position, coin) and arbitrary
# trailing axes, so a pair state can be stepped one particle at a time.


def _apply_coin(amps: np.ndarray, coins: np.ndarray) -> np.ndarray:
    if coins.ndim == 2:
        return np.einsum("ab,xb...->xa...", coins, amps)
    return np.einsum("xab,xb...->xa...", coins, amps)


def _shift_coin0_right(amps: np.ndarray) -> np.ndarray:
    if not float(np.max(np.abs(amps[-1, 0]))) <= BOUNDARY_TOL:
        raise WindowOverflowError("coin-0 amplitude at the right edge; window too small")
    out = amps.copy()
    out[1:, 0] = amps[:-1, 0]
    out[0, 0] = 0.0
    return out


def _shift_coin1_left(amps: np.ndarray) -> np.ndarray:
    if not float(np.max(np.abs(amps[0, 1]))) <= BOUNDARY_TOL:
        raise WindowOverflowError("coin-1 amplitude at the left edge; window too small")
    out = amps.copy()
    out[:-1, 1] = amps[1:, 1]
    out[-1, 1] = 0.0
    return out


def _coin_table(window: LatticeWindow, coin, step: int) -> np.ndarray:
    if callable(coin):
        return np.stack(
            [np.asarray(coin(int(x), step), dtype=complex) for x in window.positions()]
        )
    coins = np.asarray(coin, dtype=complex)
    if coins.shape not in ((2, 2), (window.size, 2, 2)):
        raise ValueError(f"coin table has shape {coins.shape}")
    return coins


# -- single-walker operations --------------------------------------------------


def apply_coin(state: SingleParticleState, coin, step: int = 0) -> SingleParticleState:
    """Rotate the coin at every site.

    `coin` is a 2x2 matrix, a (size, 2, 2) per-site table, or a callable
    (x, step) -> 2x2 matrix evaluated over the window.
    """
    coins = _coin_table(state.window, coin, step)
    return SingleParticleState(state.window, _apply_coin(state.amps, coins))


def shift_coin0_right(state: SingleParticleState) -> SingleParticleState:
    """Move every coin-0 amplitude one site right; coin-1 stays put."""
    return SingleParticleState(state.window, _shift_coin0_right(state.amps))


def shift_coin1_left(state: SingleParticleState) -> SingleParticleState:
    """Move every coin-1 amplitude one site left; coin-0 stays put."""
    return SingleParticleState(state.window, _shift_coin1_left(state.amps))


def hadamard_step(state: SingleParticleState) -> SingleParticleState:
    """One step of the plain Hadamard walk: both shifts after a single coin."""
    amps = _apply_coin(state.amps, hadamard_coin())
    amps = _shift_coin0_right(amps)
    amps = _shift_coin1_left(amps)
    return SingleParticleState(state.window, amps)


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
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "uniform"):
            raise ValueError(f"unknown disorder kind {self.kind!r}")
        if self.target not in ("a", "b", "both"):
            raise ValueError(f"unknown disorder target {self.target!r}")
        if self.half_width < 0:
            raise ValueError("half_width must be >= 0")

    def applies_to(self, particle: str) -> bool:
        return (
            self.kind == "uniform"
            and self.half_width > 0
            and self.target in (particle, "both")
        )

    @classmethod
    def none(cls) -> "DisorderSpec":
        return cls()

    @classmethod
    def weak(cls, seed: int, target: str = "a") -> "DisorderSpec":
        return cls("uniform", WEAK_HALF_WIDTH, target, seed)

    @classmethod
    def strong(cls, seed: int, target: str = "a") -> "DisorderSpec":
        return cls("uniform", STRONG_HALF_WIDTH, target, seed)


@dataclass(frozen=True)
class BoundarySpec:
    """Two angle pairs joined at the origin: theta_minus for x < 0, theta_plus for x >= 0."""

    theta_minus: tuple[float, float]
    theta_plus: tuple[float, float]


@dataclass
class AngleField:
    """Coin angles per (site, step) for one walker."""

    theta1: np.ndarray  # (n_positions, n_steps)
    theta2: np.ndarray

    def __post_init__(self):
        self.theta1 = np.asarray(self.theta1, dtype=float)
        self.theta2 = np.asarray(self.theta2, dtype=float)
        if self.theta1.shape != self.theta2.shape or self.theta1.ndim != 2:
            raise ValueError(
                f"theta1/theta2 must share a 2D shape, got {self.theta1.shape} and {self.theta2.shape}"
            )

    @property
    def n_positions(self) -> int:
        return self.theta1.shape[0]

    @property
    def n_steps(self) -> int:
        return self.theta1.shape[1]

    def angles_at(self, step: int) -> tuple[np.ndarray, np.ndarray]:
        if not 0 <= step < self.n_steps:
            raise ValueError(f"field covers steps 0..{self.n_steps - 1}, got {step}")
        return self.theta1[:, step], self.theta2[:, step]


def constant_angle_field(
    theta1: float, theta2: float, n_steps: int, window: LatticeWindow
) -> AngleField:
    shape = (window.size, n_steps)
    return AngleField(np.full(shape, theta1), np.full(shape, theta2))


def boundary_angle_field(
    spec: BoundarySpec, n_steps: int, window: LatticeWindow
) -> AngleField:
    """Static two-phase field: theta_minus on x < 0, theta_plus on x >= 0."""
    minus = window.positions() < 0
    th1 = np.where(minus, spec.theta_minus[0], spec.theta_plus[0])
    th2 = np.where(minus, spec.theta_minus[1], spec.theta_plus[1])
    return AngleField(
        np.repeat(th1[:, None], n_steps, axis=1),
        np.repeat(th2[:, None], n_steps, axis=1),
    )


def randomize_field(field: AngleField, disorder: DisorderSpec, particle: str = "a") -> AngleField:
    """Add i.i.d. uniform noise to every (site, step) angle when the particle is targeted.

    Streams are keyed by (seed, particle, angle index) so theta1/theta2 noise
    for each particle is independent and reproducible regardless of host state.
    """
    if not disorder.applies_to(particle):
        return field
    p = _PARTICLE_INDEX[particle]
    w = disorder.half_width
    shifted = []
    for substep, base in enumerate((field.theta1, field.theta2)):
        seq = np.random.SeedSequence(disorder.seed, spawn_key=(p, substep))
        noise = np.random.default_rng(seq).uniform(-w, w, size=base.shape)
        shifted.append(base + noise)
    return AngleField(shifted[0], shifted[1])


def sample_angle_field(
    base: tuple[float, float],
    disorder: DisorderSpec,
    n_steps: int,
    window: LatticeWindow,
    particle: str = "a",
) -> AngleField:
    """Constant field at the base angles, randomized per the disorder spec."""
    field = constant_angle_field(base[0], base[1], n_steps, window)
    return randomize_field(field, disorder, particle)


# -- split-step evolution --------------------------------------------------------


def _half_angle_factors(theta: np.ndarray, ndim: int):
    shape = (theta.shape[0],) + (1,) * (ndim - 2)
    return np.cos(theta / 2.0).reshape(shape), np.sin(theta / 2.0).reshape(shape)


def _split_step_amps(amps: np.ndarray, field: AngleField, step: int) -> np.ndarray:
    """One split step on raw amplitudes, with each coin+shift pair fused.

    Equivalent to coin(theta1), shift coin-0 right, coin(theta2), shift coin-1
    left, but writes each shifted coin plane directly (the rotation coin is
    real, so plain broadcasting does the 2x2 product).
    """
    th1, th2 = field.angles_at(step)
    c1, s1 = _half_angle_factors(th1, amps.ndim)
    a0, a1 = amps[:, 0], amps[:, 1]

    # coin(theta1) then move the coin-0 plane one site right
    edge = c1[-1] * a0[-1] - s1[-1] * a1[-1]
    if not float(np.max(np.abs(edge))) <= BOUNDARY_TOL:
        raise WindowOverflowError("coin-0 amplitude at the right edge; window too small")
    mid = np.empty_like(amps)
    mid[1:, 0] = c1[:-1] * a0[:-1] - s1[:-1] * a1[:-1]
    mid[0, 0] = 0.0
    mid[:, 1] = s1 * a0 + c1 * a1

    # coin(theta2) then move the coin-1 plane one site left
    c2, s2 = _half_angle_factors(th2, amps.ndim)
    b0, b1 = mid[:, 0], mid[:, 1]
    edge = s2[0] * b0[0] + c2[0] * b1[0]
    if not float(np.max(np.abs(edge))) <= BOUNDARY_TOL:
        raise WindowOverflowError("coin-1 amplitude at the left edge; window too small")
    out = np.empty_like(amps)
    out[:, 0] = c2 * b0 - s2 * b1
    out[:-1, 1] = s2[1:] * b0[1:] + c2[1:] * b1[1:]
    out[-1, 1] = 0.0
    return out


def split_step(state: SingleParticleState, field: AngleField, step: int) -> SingleParticleState:
    """One split step with site- and step-dependent angles."""
    if field.n_positions != state.window.size:
        raise ValueError("angle field does not match the lattice window")
    return SingleParticleState(state.window, _split_step_amps(state.amps, field, step))


def evolve(state, stepper, n_steps: int, observers=None):
    """Apply `stepper(state, step)` n_steps times.

    Observers is a mapping name -> callable(state); each is recorded at step 0
    and after every step, so series have n_steps + 1 entries. Returns
    (final_state, records).
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    observers = observers or {}
    records = {name: [fn(state)] for name, fn in observers.items()}
    for step in range(n_steps):
        state = stepper(state, step)
        if not abs(state.norm() - 1.0) <= RUNTIME_NORM_TOL:
            raise NumericalError(f"norm drifted to {state.norm():.12f} at step {step + 1}")
        for name, fn in observers.items():
            records[name].append(fn(state))
    return state, records
