"""Brute-force reference constructions used only by the tests.

The dense operators act on flattened state vectors with basis index
2*site + coin. Shifts wrap periodically, which agrees with the hard-wall
package operators as long as no amplitude sits at the window edge (the tests
size windows so that support never reaches them).

The dense pair route at the end is the reference for the package's product
decomposition: the full pair state with axes (x_a, c_a, x_b, c_b), stepped one
particle at a time.
"""

from dataclasses import dataclass

import numpy as np

from topowalk import (
    InitialPairState,
    LatticeWindow,
    NumericalError,
    WindowOverflowError,
    make_single_state,
    split_stepper,
    von_neumann_entropy,
)
from topowalk.topology import GAP_THRESHOLD
from topowalk.walk import BOUNDARY_TOL, HADAMARD, RUNTIME_NORM_TOL, _check_step

PLANARITY_TOL = 1e-6  # largest out-of-plane component the numerical winding accepts

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


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


def split_step(amps: np.ndarray, field: np.ndarray, step: int, out=None, sites=None, walkers=()):
    """One split step with the site-dependent angles field[:, :, step] of a (2, site, step, *batch) field."""
    _check_step(step, field.shape[2])
    return split_stepper(field[:, :, step : step + 1])(amps, 0, out, sites, walkers)


def _check_edge(leaving: np.ndarray, where: str) -> None:
    if not abs(leaving).max() <= BOUNDARY_TOL:
        raise WindowOverflowError(f"{where}; window too small")


def step_amps(amps: np.ndarray, coin1, coin2) -> np.ndarray:
    """Whole-window reference split step of (site, coin, *walkers) walkers: coin1, shift coin-0
    right, coin2, shift coin-1 left.

    Each coin acts on every site at once as col0 * (coin-0 plane) + col1 * (coin-1 plane), with
    columns shaped (2, 1..., *batch, site) against site-last memory; each shift is a slice copy
    along the site axis plus a zeroed row. It shares no code with the package's stepping kernel.
    """
    mem = np.ascontiguousarray(amps.transpose(*range(1, amps.ndim), 0))
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


def hadamard_reference_step(amps: np.ndarray, step: int) -> np.ndarray:
    """One Hadamard walk step through the whole-window reference kernel step_amps."""
    shape = (2, 2) + (1,) * (amps.ndim - 1)
    h, one = HADAMARD.reshape(shape), np.eye(2).reshape(shape)
    return step_amps(amps, (h[:, 0], h[:, 1]), (one[:, 0], one[:, 1]))


def full_table_stepper(field: np.ndarray):
    """split_stepper with cos and sin taken of every step's angles, steady in the step or not.

    The coin table holds the rows (-s, c, s) of the half angles for every
    (step, batch entry), all computed from their own angles, and each step
    feeds its columns to the stepping kernel.
    """
    shape = (3, field.shape[2], 2, *field.shape[3:], field.shape[1])
    rows = np.empty(shape)
    np.divide(field.transpose(2, 0, *range(3, field.ndim), 1), 2.0, out=rows[0])
    np.cos(rows[0], out=rows[1])
    np.sin(rows[0], out=rows[2])
    np.negative(rows[2], out=rows[0])

    def stepper(amps: np.ndarray, step: int) -> np.ndarray:
        _check_step(step, shape[1])
        broadcast = (2,) + (1,) * (amps.ndim + 2 - len(shape)) + shape[3:]
        coin1, coin2 = (
            (rows[1:3, step, k].reshape(broadcast), rows[0:2, step, k].reshape(broadcast)) for k in (0, 1)
        )
        return step_amps(amps, coin1, coin2)

    return stepper


def reduce_to_coin(amps: np.ndarray) -> np.ndarray:
    """2x2 coin density matrix of a (size, 2) walker after tracing out the position."""
    return amps.T @ amps.conj()


def distribution_sigma(positions: np.ndarray, probs: np.ndarray) -> float:
    """Standard deviation of a position distribution."""
    mean = float(np.dot(probs, positions))
    return float(np.sqrt(np.dot(probs, positions.astype(float) ** 2) - mean**2))


def dense_coin_block(coins) -> np.ndarray:
    """Block-diagonal per-site coin matrix; `coins` is (n, 2, 2)."""
    coins = np.asarray(coins, dtype=complex)
    n = coins.shape[0]
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    for i in range(n):
        m[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = coins[i]
    return m


def dense_rotation_block(thetas) -> np.ndarray:
    thetas = np.asarray(thetas, dtype=float)
    c, s = np.cos(thetas / 2), np.sin(thetas / 2)
    coins = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    return dense_coin_block(coins)


def dense_shift0(n: int) -> np.ndarray:
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    for i in range(n):
        m[2 * ((i + 1) % n), 2 * i] = 1.0
        m[2 * i + 1, 2 * i + 1] = 1.0
    return m


def dense_shift1(n: int) -> np.ndarray:
    m = np.zeros((2 * n, 2 * n), dtype=complex)
    for i in range(n):
        m[2 * i, 2 * i] = 1.0
        m[2 * ((i - 1) % n) + 1, 2 * i + 1] = 1.0
    return m


def dense_split_unitary(thetas1, thetas2) -> np.ndarray:
    n = len(thetas1)
    return (
        dense_shift1(n)
        @ dense_rotation_block(thetas2)
        @ dense_shift0(n)
        @ dense_rotation_block(thetas1)
    )


def dense_hadamard_unitary(n: int) -> np.ndarray:
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    return dense_shift1(n) @ dense_shift0(n) @ dense_coin_block(np.broadcast_to(h, (n, 2, 2)))


def split_reachable(n_steps: int, start_coin: int) -> set:
    """(site, coin) pairs the split-step shift pattern can populate from the origin."""
    occupied = {(0, start_coin)}
    for _ in range(n_steps):
        mixed = {(x, c) for x, _ in occupied for c in (0, 1)}
        shifted0 = {(x + 1, 0) if c == 0 else (x, 1) for x, c in mixed}
        mixed = {(x, c) for x, _ in shifted0 for c in (0, 1)}
        occupied = {(x - 1, 1) if c == 1 else (x, 0) for x, c in mixed}
    return occupied


def hadamard_reachable(n_steps: int, start_coin: int) -> set:
    occupied = {(0, start_coin)}
    for _ in range(n_steps):
        mixed = {(x, c) for x, _ in occupied for c in (0, 1)}
        occupied = {(x + 1, 0) if c == 0 else (x - 1, 1) for x, c in mixed}
    return occupied


def axis_from_eigendecomposition(u: np.ndarray) -> np.ndarray:
    """Bloch axis of an SU(2) unitary via its spectral projectors."""
    eigvals, eigvecs = np.linalg.eig(u)
    phases = np.angle(eigvals)
    # the e^{-iE} branch (E in (0, pi)) carries the +1 eigenvector of n.sigma
    plus = eigvecs[:, int(np.argmin(phases))]
    n_sigma = 2.0 * np.outer(plus, plus.conj()) - np.eye(2)
    return np.array([np.trace(s @ n_sigma).real / 2.0 for s in PAULI])


# -- momentum-space reference ---------------------------------------------------
# The phase diagram's arithmetic as written before its 2x2 product and k grid were
# written out and its verdict put in closed form: a generic einsum for r2 @ m, a
# fresh k grid per call, and the winding counted numerically, as the turns of the
# Bloch axes n(k) around the normal of their common plane. The package must give
# the same winding verdicts and a byte-equal gap from less work.


def reference_momentum_unitary(theta1: float, theta2: float, k) -> np.ndarray:
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


def momentum_walk(
    theta1: float, theta2: float, window: LatticeWindow, x0: int, coin, steps: int
) -> np.ndarray:
    """(size, 2) walker after steps clean split steps from coin at x0, stepped in momentum space.

    The start is transformed as psi(k) = sum_x e^{ikx} psi(x) at the window's k = 2 pi m / N,
    stepped as psi(k) <- U(k)^steps psi(k) with U from reference_momentum_unitary, and
    transformed back. The transform wraps periodically, so it is the window's walk while the
    walker stays off the window's edges, as it does for |x0| + steps < window.half_width.
    """
    x = window.positions()
    k = 2.0 * np.pi * np.arange(x.size) / x.size
    fourier = np.exp(1j * np.outer(k, x))  # (k, x)
    psi = fourier @ make_single_state(window, x0, coin)
    u = np.linalg.matrix_power(reference_momentum_unitary(theta1, theta2, k), steps)
    return fourier.conj().T @ np.einsum("kab,kb->ka", u, psi) / x.size


def reference_winding_number(theta1: float, theta2: float, k_points: int = 1024):
    """(winding or None, gap) for one angle pair, computed point by point."""
    k = -np.pi + 2.0 * np.pi * np.arange(k_points) / k_points
    u = reference_momentum_unitary(theta1, theta2, k)
    a0 = (u[..., 0, 0] + u[..., 1, 1]) / 2.0
    ax = (u[..., 0, 1] + u[..., 1, 0]) / 2.0
    ay = 1j * (u[..., 0, 1] - u[..., 1, 0]) / 2.0
    az = (u[..., 0, 0] - u[..., 1, 1]) / 2.0
    energy = np.arccos(np.clip(a0.real, -1.0, 1.0))
    gap = float(min(energy.min(), np.pi - energy.max()))
    if gap <= GAP_THRESHOLD:
        return None, gap

    axes = -np.stack([ax.imag, ay.imag, az.imag], axis=-1) / np.sin(energy)[:, None]
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    _, eigvecs = np.linalg.eigh(axes.T @ axes)
    normal = eigvecs[:, 0]
    out_of_plane = float(np.max(np.abs(axes @ normal)))
    if out_of_plane > PLANARITY_TOL:
        raise NumericalError(f"axis samples deviate {out_of_plane:.3e} from a common plane")

    e1 = axes[0]
    e2 = np.cross(normal, e1)
    phi = np.arctan2(axes @ e2, axes @ e1)
    steps = np.diff(phi, append=phi[:1])
    steps = (steps + np.pi) % (2.0 * np.pi) - np.pi
    return int(round(abs(float(steps.sum())) / (2.0 * np.pi))), gap


def reference_phase_grids(grid_n: int, k_points: int) -> tuple[np.ndarray, np.ndarray]:
    """(winding, gap) grids over phase_diagram's angle grid; -1 marks boundary cells."""
    thetas = -np.pi + 2.0 * np.pi * np.arange(grid_n) / grid_n
    winding = np.empty((grid_n, grid_n), dtype=int)
    gap = np.empty((grid_n, grid_n), dtype=float)
    for i, t1 in enumerate(thetas):
        for j, t2 in enumerate(thetas):
            w, gap[i, j] = reference_winding_number(float(t1), float(t2), k_points)
            winding[i, j] = -1 if w is None else w
    return winding, gap


# -- dense pair route ------------------------------------------------------------


@dataclass
class TwoParticleState:
    window: LatticeWindow
    amps: np.ndarray  # (size, 2, size, 2) complex

    def norm(self) -> float:
        return float(np.sqrt(np.vdot(self.amps, self.amps).real))


@dataclass
class JointDistribution:
    """P(i, j): particle A at site i, particle B at site j."""

    window: LatticeWindow
    values: np.ndarray  # (size, size) real, nonnegative, sums to 1


def tensor_pair(a: np.ndarray, b: np.ndarray) -> TwoParticleState:
    """Product state of two (size, 2) single walkers sharing the same window."""
    if a.shape != b.shape:
        raise ValueError("tensor_pair requires identical windows")
    return TwoParticleState(LatticeWindow(a.shape[0] // 2), np.einsum("ia,jb->iajb", a, b))


def reduce_pair_to_coin(state: TwoParticleState) -> np.ndarray:
    """4x4 coin density matrix over the pair coin basis (c_a, c_b) ordered
    00, 01, 10, 11, after tracing out both positions."""
    n = state.window.size
    m = state.amps.transpose(0, 2, 1, 3).reshape(n * n, 4)
    return m.T @ m.conj()


def make_pair_state(init: InitialPairState, window: LatticeWindow) -> TwoParticleState:
    xa, xb = init.positions
    if abs(xa) >= window.half_width or abs(xb) >= window.half_width:
        raise ValueError(f"positions {init.positions} must satisfy |x| < {window.half_width}")
    ia, ib = window.index(xa), window.index(xb)
    amps = np.zeros((window.size, 2, window.size, 2), dtype=complex)
    if init.kind == "separable":
        amps[ia, 0, ib, 1] = 1.0
    elif init.kind == "psi_plus":
        amps[ia, 0, ib, 1] = 1.0 / np.sqrt(2.0)
        amps[ia, 1, ib, 0] = 1.0 / np.sqrt(2.0)
    else:
        amps[ia, 0, ib, 1] = 1.0 / np.sqrt(2.0)
        amps[ia, 1, ib, 0] = -1.0 / np.sqrt(2.0)
    return TwoParticleState(window, amps)


def pair_split_step(
    state: TwoParticleState, field_a: np.ndarray, field_b: np.ndarray, step: int
) -> TwoParticleState:
    """One product step: A's split step on (x_a, c_a), then B's on (x_b, c_b)."""
    amps = split_step(state.amps, field_a, step)
    amps = np.ascontiguousarray(amps.transpose(2, 3, 0, 1))
    amps = split_step(amps, field_b, step)
    amps = np.ascontiguousarray(amps.transpose(2, 3, 0, 1))
    return TwoParticleState(state.window, amps)


def evolve_pair(
    state: TwoParticleState,
    field_a: np.ndarray,
    field_b: np.ndarray,
    n_steps: int,
    observers=None,
):
    """Evolve the pair n_steps steps and return (final_state, records).

    Observers is a mapping name -> callable(state); each is recorded at step 0
    and after every step, so series have n_steps + 1 entries. The whole pair
    state's norm is checked after every step.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    observers = observers or {}
    records = {name: [] for name in observers}
    for step, state in enumerate(iter_pair_trajectory(state, field_a, field_b, n_steps)):
        if step and not abs(state.norm() - 1.0) <= RUNTIME_NORM_TOL:
            raise NumericalError(f"norm drifted to {state.norm():.12f} at step {step}")
        for name, fn in observers.items():
            records[name].append(fn(state))
    return state, records


def iter_pair_trajectory(
    state: TwoParticleState, field_a: np.ndarray, field_b: np.ndarray, n_steps: int
):
    """Yield the pair state at step 0 and after each of n_steps steps."""
    yield state
    for step in range(n_steps):
        state = pair_split_step(state, field_a, field_b, step)
        yield state


def joint_distribution_direct(state: TwoParticleState) -> JointDistribution:
    """Ground-truth P(i, j) by summing |amplitude|^2 over both coins."""
    values = np.einsum("iajb->ij", np.abs(state.amps) ** 2)
    return JointDistribution(state.window, values)


def marginals(joint: JointDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Per-particle position distributions (rows for A, columns for B)."""
    return joint.values.sum(axis=1), joint.values.sum(axis=0)


def pair_entropy_series(trajectory) -> np.ndarray:
    """Coin entanglement entropy of each state in a trajectory, in bits, one entry per step."""
    return np.array([von_neumann_entropy(reduce_pair_to_coin(state)) for state in trajectory])


def walker_amps(coin0: np.ndarray, coin1: np.ndarray) -> np.ndarray:
    """One particle's lone walkers as the product route's (site, coin, start coin) array."""
    return np.stack([coin0, coin1], axis=-1)


def two_gram_coin_density(amps_a: np.ndarray, amps_b: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """The pair's (*cells, 4, 4) coin density matrix from one Gram einsum per particle.

    amps_x is particle x's (site, coin, start coin, *cells) walker array and
    coefficients is C[c_a, c_b]. G_x[s, c, t, d] = sum_i amps_x[i, c, s]
    conj(amps_x[i, d, t]) is taken on site-first subscripts, and C and conj(C)
    enter the contraction as two operands.
    """
    c = coefficients
    ga = np.einsum("ics...,idt...->...sctd", amps_a, amps_a.conj())
    gb = np.einsum("ics...,idt...->...sctd", amps_b, amps_b.conj())
    # rho[(ca, cb), (ca', cb')] = sum C[s, s'] conj(C[t, t']) Ga[s, ca, t, ca'] Gb[s', cb, t', cb']
    return np.einsum("ab,cd,...aecf,...bgdh->...egfh", c, c.conj(), ga, gb).reshape(*ga.shape[:-4], 4, 4)
