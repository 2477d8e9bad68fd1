"""Coin operators, the split-step kernel, and angle fields.

One split step is S1 . coin(theta2) . S0 . coin(theta1), i.e. the rightmost
operator acts first: S0 moves every coin-0 amplitude one site right and S1
moves every coin-1 amplitude one site left. The Hadamard walk is the same
kernel with the Hadamard coin first and the identity second. Coin angles may
depend on site and step; each coin reads the angle at the site where the
amplitude currently sits. A walker's angle field is a (2, site, step) array
holding the theta1 and theta2 planes. Walkers are arrays with axes
(site, coin, *walkers), as in states.py; trajectory() steps any of them,
yields the steps in blocks with a leading step axis, and checks every
walker's norm once per block. A block is a view of zeroed rows that hold each
coin's walkers as rows of sites plus one spare row; the stepper writes each
step into its own row, the shifts as write offsets. The walk is local, so a
step computes only the sites of the start's light cone, one site wider on
the right, and a direct stepper call, hadamard_step(amps) or
split_stepper(field)(amps, step), computes the whole window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError, WindowOverflowError
from .states import LatticeWindow

# Guards compare as `not x <= tol`, so that a NaN fails them instead of passing.
BOUNDARY_TOL = 1e-14
RUNTIME_NORM_TOL = 1e-8

# Walker rows (coins times walkers) above which a step whose light cone spans more than half the
# window computes every site: numpy's loop overhead on each row of a range then outweighs the saving.
# scripts/cone_rows_scan.py times both ways: whole windows were faster from 48 rows up, not below 40.
_CONE_MAX_ROWS = 40

# Amplitudes per trajectory block: a one-cell walk takes several steps per block, so that the
# norm check, and a caller's reduction of each step, is one numpy call per block, not per step.
_BLOCK_AMPLITUDES = 2**14

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
        if not math.isfinite(self.half_width):
            raise ValueError(f"half_width must be finite, got {self.half_width!r}")
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


# A trajectory holds each step in a zeroed row (coin, walker + 1, site): each coin's walkers, as M
# rows of sites, then one spare row. Over a row's flat memory two views, whose coin stride is one
# amplitude shorter than the row's, make both shifts write offsets. Written through the view that
# starts one amplitude in, coin 0 lands one site right (S0) and coin 1 in place; through the view
# that starts at 0, coin 1 lands one site left (S1) and coin 0 in place. A walker's amplitude that
# a shift pushes off the window lands on the next or previous walker's edge site, or in the spare
# row, where the edge check reads it and a zero then replaces it. A step's two coins are their
# columns, cols[k, c] = m[c, k], as one (2, 2, coin, 1, *batch, site) array that broadcasts against
# a coin's walker rows viewed as (head, *axes, site), the axes being the walkers' last len(batch).


def _walkers(rows: np.ndarray, shape: tuple) -> np.ndarray:
    """The (..., coin, *walkers, site) view of rows holding walker arrays of (site, coin, *walkers) shape."""
    return rows[..., :-1, :].reshape(*rows.shape[:-2], *shape[2:], shape[0])


def _check_edge(leaving: np.ndarray, where: str, step: int | None) -> None:
    """Raise unless the amplitude a shift pushed off the window is zero; step counts from 0."""
    if not abs(leaving).max() <= BOUNDARY_TOL:
        at = "" if step is None else f" at step {step + 1}"
        raise WindowOverflowError(f"{where}{at}; window too small")


def _walker_rows(walkers: tuple, batch: tuple, size: int) -> tuple:
    """The shape (-1, *axes, site) of a coin's rows of walkers with axes `walkers` under batch axes.

    The axes are the walkers' last len(batch) axes; each batch axis must equal its walker axis or
    be 1, as in broadcasting, so that every walker steps under its own batch entry's angles.
    """
    axes = walkers[len(walkers) - len(batch) :]
    if len(walkers) < len(batch) or any(b not in (1, w) for w, b in zip(axes, batch)):
        raise ValueError(f"walker axes {walkers} do not end in the angle field's batch axes {batch}")
    return (-1, *axes, size)


def _step_rows(src: np.ndarray, out: np.ndarray, coins, sites: slice, scratch, step, shape: tuple) -> None:
    """One split step from the row src into the zeroed row out, over the window sites in `sites`.

    shape is (-1, *axes, site), the shape of a coin's walker rows, and coins the columns of both
    coins. Each coin acts on the sites in range as one product of its columns with both coin
    planes, into scratch, and one sum over the input coin, col0 * (coin-0 plane) + col1 * (coin-1
    plane), into both planes of out through that coin's shifting view; the coins are real, so
    plain broadcasting does the 2x2 product. Sites outside the range must hold no amplitude, and
    an edge is checked only when the range reaches it.
    """
    m, size = out.shape[1] - 1, out.shape[2]
    lo, hi = sites.start, sites.stop
    flat = out.reshape(-1)
    span = flat.size // 2 - 1  # the shifting views' coin stride
    shift0 = flat[1 : 1 + 2 * span].reshape(2, span)[:, : m * size].reshape(2, *shape)[..., lo:hi]
    shift1 = flat[: 2 * span].reshape(2, span)[:, : m * size].reshape(2, *shape)[..., lo:hi]
    products = scratch[..., : hi - lo]
    first, second = products
    np.multiply(coins[:, :, 0, ..., lo:hi], src[:, :m].reshape(2, 1, *shape)[..., lo:hi], out=products)
    np.add(first, second, out=shift0)
    if hi == size:
        _check_edge(out[0, 1:, 0], "coin-0 amplitude at the right edge", step)
        out[0, 1:m, 0] = 0.0  # S0 shifts in zeros where the previous walker's leaving amplitude sat
    np.multiply(coins[:, :, 1, ..., lo:hi], out[:, :m].reshape(2, 1, *shape)[..., lo:hi], out=products)
    np.add(first, second, out=shift1)
    if lo == 0:
        _check_edge(flat[span : span + m * size : size], "coin-1 amplitude at the left edge", step)
    if lo == 0 or hi == size:
        out[1, :m, -1] = 0.0  # S1 shifts in zeros where the first coin's sums or a leaving amplitude sat


def _step_whole_window(stepper, amps: np.ndarray, step) -> np.ndarray:
    """A direct stepper call: the step of a (site, coin, *walkers) walker array over every site."""
    size = amps.shape[0]
    rows = np.zeros((2, 2, amps.size // (2 * size) + 1, size), complex)
    walkers = _walkers(rows, amps.shape)
    walkers[0] = amps.transpose(*range(1, amps.ndim), 0)
    stepper(rows[0], step, rows[1], slice(0, size), amps.shape[2:])
    return walkers[1].transpose(-1, *range(amps.ndim - 1))


def _check_step(step: int, n_steps: int) -> None:
    if not 0 <= step < n_steps:
        raise ValueError(f"field covers steps 0..{n_steps - 1}, got {step}")


def split_stepper(field: np.ndarray):
    """Stepper for trajectory() under a (2, site, step, *batch) field.

    From trajectory, stepper(amps, step, out, sites, walkers) writes the step from the row amps
    into the zeroed row out, over the window sites of the slice `sites`; the rows hold walkers with
    the axes `walkers`. Called as stepper(amps, step), it steps a (site, coin, *walkers) walker
    array over every site and returns the new walker array. The walker axes end in the batch axes,
    or in axes they broadcast to, so each batch entry steps its walkers under its own angles; other
    walker axes raise ValueError. Every coin of the field is built once, as the rows (-s, c, s) of
    the half angles: the coin columns ([c, s], [-s, c]) are then the views rows[1:3] and rows[0:2].
    A batch entry whose half angles are bitwise the same at every step (a field no disorder
    touches) takes cos and sin at its first step only, and its later steps copy that step's rows.
    """
    shape = (3, field.shape[2], 2, *field.shape[3:], field.shape[1])
    rows = np.empty(shape)
    np.divide(field.transpose(2, 0, *range(3, field.ndim), 1), 2.0, out=rows[0])
    bits = rows[0].view(np.uint64)  # bits, not values, so that -0.0 and 0.0 stay apart
    steady = (bits == bits[:1]).all(axis=(0, 1, -1), keepdims=True)  # (1, 1, *batch, 1)
    first = (np.arange(shape[1]) == 0).reshape(-1, *(1,) * (len(shape) - 2))
    fresh = first | ~steady  # the (step, batch entry) coins computed from their own angles
    np.cos(rows[0], out=rows[1], where=fresh)
    np.sin(rows[0], out=rows[2], where=fresh)
    # from a copy: a view of the same table would make numpy buffer the whole broadcast source
    np.copyto(rows[1:, 1:], rows[1:, :1].copy(), where=steady)
    np.negative(rows[2], out=rows[0])
    # the columns as one (2, 2, step, coin, 1, *batch, site) view of the table, cols[k, c] = rows[1 - k + c]
    table = rows.reshape(shape[:3] + (1,) + shape[3:])[1]
    coins = np.lib.stride_tricks.as_strided(
        table, (2, 2, *table.shape), (-rows.strides[0], rows.strides[0], *table.strides), writeable=False
    )
    kernels = {}  # (row shape, walker axes) -> the kernel's scratch array and walker row shape

    def step_rows(amps: np.ndarray, step: int, out: np.ndarray, sites: slice, walkers: tuple) -> None:
        if out.shape[-1] != shape[-1]:
            raise ValueError("angle field does not match the lattice window")
        _check_step(step, shape[1])
        kernel = kernels.get((out.shape, walkers))
        if kernel is None:
            walker_rows = _walker_rows(walkers, shape[3:-1], shape[-1])
            work = np.empty((2, 2, out.shape[1] - 1, shape[-1]), complex).reshape(2, 2, *walker_rows)
            kernel = kernels[out.shape, walkers] = work, walker_rows
        _step_rows(amps, out, coins[:, :, step], sites, kernel[0], step, kernel[1])

    def stepper(amps: np.ndarray, step: int, out: np.ndarray | None = None, sites=None, walkers=()):
        if out is None:  # step_rows, not stepper itself: a closure over itself would live until a gc pass
            return _step_whole_window(step_rows, amps, step)
        step_rows(amps, step, out, sites, walkers)

    return stepper


@lru_cache(maxsize=8)
def _hadamard_coins(size: int) -> np.ndarray:
    """The Hadamard coin, then the identity, as the read-only (2, 2, coin, 1, site) columns of a step."""
    return np.broadcast_to(np.stack([HADAMARD.T, np.eye(2)], axis=2)[..., None, None], (2, 2, 2, 1, size))


def hadamard_step(amps: np.ndarray, step=None, out: np.ndarray | None = None, sites=None, walkers=()):
    """One step of the plain Hadamard walk, both shifts after a single coin: a stepper as split_stepper's."""
    if out is None:
        return _step_whole_window(hadamard_step, amps, step)
    size = out.shape[-1]
    scratch = np.empty((2, 2, out.shape[1] - 1, size), complex)
    _step_rows(amps, out, _hadamard_coins(size), sites, scratch, step, (-1, size))


def _check_norms(block: np.ndarray, first_step: int) -> None:
    """Raise at the first step of a (step, coin, *walkers, site) block where a walker's norm drifted."""
    # squared norms as a float dot, real and imaginary parts alike, over (coin, step, *walkers, site):
    # with the coin axis first, a one-step block runs the einsum loop of a lone step
    mem = block.view(float).swapaxes(0, 1)
    drift = abs(np.sqrt(np.einsum("c...i,c...i->...", mem, mem)) - 1.0)
    if not drift.max(initial=0.0) <= RUNTIME_NORM_TOL:
        drift = drift.reshape(len(block), -1).max(axis=1)
        step = np.argmin(drift <= RUNTIME_NORM_TOL)  # the first step that fails, NaN included
        raise NumericalError(f"walker norm drifted by {drift[step]:.3e} at step {first_step + step}")


def trajectory(amps: np.ndarray, stepper, n_steps: int):
    """Yield amps and the n_steps steps of it that stepper makes, in blocks of consecutive steps.

    amps has axes (site, coin, *walkers). Each block has axes (step, site, coin, *walkers), a view
    of (step, coin, walker + 1, site) rows, so block[s] is one step's walker array; the first block
    starts with amps. A block holds _BLOCK_AMPLITUDES amplitudes, or one step if a step holds more.
    Step t (counted from 0) is stepper(row t, t, zeroed row t + 1, sites, amps.shape[2:]), over the
    light cone: a start with amplitude on sites [a, b] has none outside [a - t, b + t] after t
    steps, so step t reads that cone and writes [a - t - 1, b + t + 1], and computes the sites
    [a - t, b + t + 1] within the window only. A step of more than _CONE_MAX_ROWS walker rows
    computes every site once that range spans more than half the window. Each block's stepped
    walkers have their norms checked against RUNTIME_NORM_TOL before it is yielded; if the stepper
    raises, the steps before it are checked first, so a drift is reported at the step where it
    appeared.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    size = amps.shape[0]
    occupied = np.flatnonzero(amps.reshape(size, -1).any(axis=1))
    a, b = (int(occupied[0]), int(occupied[-1])) if occupied.size else (0, size - 1)
    length = max(1, _BLOCK_AMPLITUDES // amps.size)
    block_axes = (0, amps.ndim, *range(1, amps.ndim))
    widest = size // 2 if amps.size // size > _CONE_MAX_ROWS else size  # the widest range stepped as one
    rows = None
    for first in range(0, n_steps + 1, length):
        count = min(length, n_steps + 1 - first)
        previous, rows = rows, np.zeros((count, 2, amps.size // (2 * size) + 1, size), complex)
        block = _walkers(rows, amps.shape)
        checked = int(first == 0)  # the start is the caller's; only stepped walkers are checked
        if checked:
            block[0] = amps.transpose(*range(1, amps.ndim), 0)
        for s in range(checked, count):
            step = first + s - 1
            sites = slice(max(a - step, 0), min(b + step + 2, size))
            if sites.stop - sites.start > widest:
                sites = slice(0, size)
            try:
                stepper(rows[s - 1] if s else previous[-1], step, rows[s], sites, amps.shape[2:])
            except Exception:  # whatever the stepper raised, a drift before it is the cause to report
                _check_norms(block[checked:s], first + checked)
                raise
        _check_norms(block[checked:], first + checked)
        yield block.transpose(block_axes)
