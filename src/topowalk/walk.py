"""Coin operators, the split-step kernel, and angle fields.

One split step is S1 . coin(theta2) . S0 . coin(theta1), i.e. the rightmost
operator acts first: S0 moves every coin-0 amplitude one site right and S1
moves every coin-1 amplitude one site left. The Hadamard walk is the same
kernel with the Hadamard coin first and the identity second. Coin angles may
depend on site and step; each coin reads the angle at the site where the
amplitude currently sits. A walker's angle field is a (2, site, step) array
holding the theta1 and theta2 planes. A walk is its table of coins:
split_coins(field) and hadamard_coins(size, n_steps) return the two coins'
columns at every step; split_coins stores one step of a field that stores one,
and, given the start's occupied sites, builds each step's coins only on the
light cone that step reads. trajectory(amps, coins) steps walker arrays with
axes (site, coin, *walkers), as in states.py, once per step of the table. The
coins and shifts are real, so a walk steps in its start's dtype: a real start
in float64, a complex one in complex128. It yields the steps in blocks with a
leading step axis and checks every walker's norm once per block. A block is a
view of zeroed rows that hold each coin's walkers as rows of sites plus one
spare row; each step is written into its own row, the shifts as write offsets.
The walk is local, so a step computes only the sites of the start's light
cone, one site wider on the right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, WindowOverflowError
from .states import LatticeWindow

# Guards compare as `not x <= tol`, so that a NaN fails them instead of passing.
BOUNDARY_TOL = 1e-14
RUNTIME_NORM_TOL = 1e-8

# Walker rows (coins times walkers) above which a step whose light cone spans more than half the
# window computes every site: numpy's loop overhead on each row of a range then outweighs the saving.
# scripts/cone_rows_scan.py times both ways. On complex rows, whole windows were faster from 48 rows up,
# not below 40; on float rows, as runs step now, they were faster from 64 rows up and split at 32-48.
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
        if self.target != "a" and not self.applies_to("b"):  # a target of b or both that draws nothing
            raise ValueError(f"disorder that draws no angles has no target {self.target!r}; leave it 'a'")

    def applies_to(self, particle: str) -> bool:
        return self.kind == "uniform" and self.half_width > 0 and self.target in (particle, "both")


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


def _check_edge(leaving: np.ndarray, where: str, step: int) -> None:
    """Raise unless the amplitude a shift pushed off the window is zero; step counts from 0."""
    if not abs(leaving).max() <= BOUNDARY_TOL:
        raise WindowOverflowError(f"{where} at step {step + 1}; window too small")


def _walker_rows(walkers: tuple, batch: tuple, size: int) -> tuple:
    """The shape (-1, *axes, site) of a coin's rows of walkers with axes `walkers` under batch axes.

    The axes are the walkers' last len(batch) axes; each batch axis must equal its walker axis or
    be 1, as in broadcasting, so that every walker steps under its own batch entry's angles.
    """
    axes = walkers[len(walkers) - len(batch) :]
    if len(walkers) < len(batch) or any(b not in (1, w) for w, b in zip(axes, batch)):
        raise ValueError(f"walker axes {walkers} do not end in the angle field's batch axes {batch}")
    return (-1, *axes, size)


def _block_views(rows: np.ndarray, shape: tuple) -> tuple:
    """A block's per-step views of its (step, coin, walker + 1, site) rows, each with a leading step axis.

    shape is (-1, *axes, site), the shape of a coin's walker rows. Returns the coin planes of each
    row, (step, 2, 1, *shape); the rows' two shifting views, (step, 2, *shape), through which coin
    0 lands one site right and coin 1 one site left; and the (step, walker) amplitudes that S1
    pushed past the left edge, each in the memory just before its walker's coin-1 row.
    """
    count, m, size = rows.shape[0], rows.shape[2] - 1, rows.shape[3]
    flat = rows.reshape(count, -1)
    span = flat.shape[1] // 2 - 1  # the shifting views' coin stride
    planes = rows[:, :, :m].reshape(count, 2, 1, *shape)
    shift0 = flat[:, 1 : 1 + 2 * span].reshape(count, 2, span)[..., : m * size].reshape(count, 2, *shape)
    shift1 = flat[:, : 2 * span].reshape(count, 2, span)[..., : m * size].reshape(count, 2, *shape)
    return planes, shift0, shift1, flat[:, span : span + m * size : size]


def _step_rows(src, out, views, coins, sites: slice, scratch, step) -> None:
    """One split step from the coin planes src into the zeroed row out, over the window sites in `sites`.

    views are out's coin planes, shifting views and left-edge amplitudes, as _block_views returns
    them at out's step, and coins the columns of both coins. Each coin acts on the sites in range
    as one product of its columns with both coin planes, into scratch, and one sum over the input
    coin, col0 * (coin-0 plane) + col1 * (coin-1 plane), into both planes of out through that
    coin's shifting view; the coins are real, so plain broadcasting does the 2x2 product. Sites
    outside the range must hold no amplitude, and an edge is checked only when the range reaches it.
    """
    planes, shift0, shift1, left = views
    m, size = out.shape[1] - 1, out.shape[2]
    lo, hi = sites.start, sites.stop
    products = scratch[..., : hi - lo]
    first, second = products
    np.multiply(coins[:, :, 0, ..., lo:hi], src[..., lo:hi], out=products)
    np.add(first, second, out=shift0[..., lo:hi])
    if hi == size:
        _check_edge(out[0, 1:, 0], "coin-0 amplitude at the right edge", step)
        out[0, 1:m, 0] = 0.0  # S0 shifts in zeros where the previous walker's leaving amplitude sat
    np.multiply(coins[:, :, 1, ..., lo:hi], planes[..., lo:hi], out=products)
    np.add(first, second, out=shift1[..., lo:hi])
    if lo == 0:
        _check_edge(left, "coin-1 amplitude at the left edge", step)
    if lo == 0 or hi == size:
        out[1, :m, -1] = 0.0  # S1 shifts in zeros where the first coin's sums or a leaving amplitude sat


def split_coins(field, occupied: tuple[int, int] | None = None) -> np.ndarray:
    """The coins of a field, as trajectory() takes them.

    field is a (2, site, step, *batch) array, or a sequence of (2, site, step, *cells) arrays that
    are the entries of a last batch axis, batch = (*cells, entry), as a pair's particles a and b.
    Returns the read-only (2, 2, step, coin, 1, *batch, site) columns cols[k, c] = m[c, k] of each
    step's two coins. Every coin a field stores is built once, as the rows (-s, c, s) of the half
    angles: the coin columns ([c, s], [-s, c]) are then the views rows[1:3] and rows[0:2]. A field
    whose step axis is broadcast (stride 0) stores one step. A table of such fields alone stores one
    step, read at every step; beside a field that stores every step, a one-step field's coins are
    built once and copied to every step. Given the start's occupied sites (a, b) as window indices,
    a field that stores every step gets its coins at step t only on the sites [a - t, b + t + 1]
    that trajectory's step t reads, and zeros elsewhere, so an angle outside them is never read.
    Each coin built keeps the bits of a full table's, whichever way it was built.
    """
    single = isinstance(field, np.ndarray)
    fields = [field] if single else list(field)
    size, n_steps = fields[0].shape[1:3]
    fields = [f[:, :, :1] if f.strides[2] == 0 else f for f in fields]  # a broadcast step axis: its one step, or none
    stored = max(f.shape[2] for f in fields)
    shape = (3, stored, 2, *fields[0].shape[3:], *(() if single else (len(fields),)), size)
    rows = np.zeros(shape)
    for f, out in zip(fields, [rows] if single else np.moveaxis(rows, -2, 0)):
        steps, where = f.shape[2], True
        if occupied is not None and steps == n_steps:  # the sites step t reads, a - t <= i <= b + t + 1
            t, i = np.ogrid[:steps, :size]
            where = ((occupied[0] - t <= i) & (i <= occupied[1] + t + 1)).reshape(steps, *(1,) * (f.ndim - 2), size)
        np.divide(f.transpose(2, 0, *range(3, f.ndim), 1), 2.0, out=out[0, :steps], where=where)
        np.cos(out[0, :steps], out=out[1, :steps], where=where)
        np.sin(out[0, :steps], out=out[2, :steps], where=where)
        np.negative(out[2, :steps], out=out[0, :steps], where=where)
        out[:, steps:] = out[:, :1]  # a one-step field's coins at each step of a full table
    # the columns as one view of the table, cols[k, c] = rows[1 - k + c]
    table = rows.reshape(shape[:3] + (1,) + shape[3:])[1]
    step_stride = table.strides[0] if stored == n_steps else 0  # one stored step serves every step
    strides = (-rows.strides[0], rows.strides[0], step_stride, *table.strides[1:])
    return np.lib.stride_tricks.as_strided(table, (2, 2, n_steps, *table.shape[1:]), strides, writeable=False)


def hadamard_coins(size: int, n_steps: int) -> np.ndarray:
    """The plain Hadamard walk's coins, the Hadamard coin and then the identity, as the read-only
    (2, 2, step, coin, 1, site) columns of n_steps steps on size sites."""
    columns = np.stack([HADAMARD.T, np.eye(2)], axis=2)[:, :, None, :, None, None]
    return np.broadcast_to(columns, (2, 2, n_steps, 2, 1, size))


def _check_norms(block: np.ndarray, first_step: int) -> None:
    """Raise at the first step of a (step, coin, *walkers, site) block where a walker's norm drifted."""
    # squared norms as a float dot over (coin, step, *walkers, site), of a complex block's real and
    # imaginary parts alike (its float view doubles the site axis; a float block's is the block):
    # with the coin axis first, a one-step block runs the einsum loop of a lone step
    mem = block.view(float).swapaxes(0, 1)
    drift = abs(np.sqrt(np.einsum("c...i,c...i->...", mem, mem)) - 1.0)
    if not drift.max(initial=0.0) <= RUNTIME_NORM_TOL:
        drift = drift.reshape(len(block), -1).max(axis=1)
        step = np.argmin(drift <= RUNTIME_NORM_TOL)  # the first step that fails, NaN included
        raise NumericalError(f"walker norm drifted by {drift[step]:.3e} at step {first_step + step}")


def trajectory(amps: np.ndarray, coins: np.ndarray):
    """Yield amps and its steps under coins, in blocks of consecutive steps.

    amps has axes (site, coin, *walkers); coins are (2, 2, step, coin, 1, *batch, site) columns, as
    split_coins and hadamard_coins return them, and their step axis sets the number of steps. The
    walker axes end in the batch axes, or in axes they broadcast to, so each batch entry steps its
    walkers under its own coins; other walker axes, or coins of another window, raise ValueError
    before the first block. Each block has axes (step, site, coin, *walkers), a view of (step,
    coin, walker + 1, site) rows, so block[s] is one step's walker array; the first block starts
    with amps. Blocks are float64 for a real amps, complex128 for a complex one: the coins are
    real, so a float walk holds the bits of the complex walk's real parts, up to the sign of a
    zero. A block holds _BLOCK_AMPLITUDES amplitudes, or one step if a step holds more. Step t
    (counted from 0) writes from row t into the zeroed row t + 1 under coins[:, :, t], over the
    light cone: a start with amplitude on sites [a, b] has none outside [a - t, b + t] after t
    steps, so step t reads that cone and writes [a - t - 1, b + t + 1], and computes the sites
    [a - t, b + t + 1] within the window only. A step of more than _CONE_MAX_ROWS walker rows
    computes every site once that range spans more than half the window. Each block's stepped
    walkers have their norms checked against RUNTIME_NORM_TOL before it is yielded; if a step
    raises, as when it overflows the window, the steps before it are checked first, so a drift is
    reported at the step where it appeared.
    """
    size, n_steps = amps.shape[0], coins.shape[2]
    if coins.shape[-1] != size:
        raise ValueError(f"coins for {coins.shape[-1]} sites do not match the {size}-site window")
    walker_rows = _walker_rows(amps.shape[2:], coins.shape[5:-1], size)
    m = amps.size // (2 * size)  # walkers per coin
    dtype = complex if np.iscomplexobj(amps) else float
    scratch = np.empty((2, 2, m, size), dtype).reshape(2, 2, *walker_rows)
    occupied = np.flatnonzero(amps.reshape(size, -1).any(axis=1))
    a, b = (int(occupied[0]), int(occupied[-1])) if occupied.size else (0, size - 1)
    length = max(1, _BLOCK_AMPLITUDES // amps.size)
    block_axes = (0, amps.ndim, *range(1, amps.ndim))
    widest = size // 2 if amps.size // size > _CONE_MAX_ROWS else size  # the widest range stepped as one
    planes = None
    for first in range(0, n_steps + 1, length):
        count = min(length, n_steps + 1 - first)
        rows = np.zeros((count, 2, m + 1, size), dtype)
        previous = planes  # the previous block's coin planes, whose last row the block's first step reads
        planes, shift0, shift1, left = _block_views(rows, walker_rows)
        block = _walkers(rows, amps.shape)
        checked = int(first == 0)  # the start is the caller's; only stepped walkers are checked
        if checked:
            block[0] = amps.transpose(*range(1, amps.ndim), 0)
        for s in range(checked, count):
            t = first + s - 1
            sites = slice(max(a - t, 0), min(b + t + 2, size))
            if sites.stop - sites.start > widest:
                sites = slice(0, size)
            src = planes[s - 1] if s else previous[-1]
            views = (planes[s], shift0[s], shift1[s], left[s])
            try:
                _step_rows(src, rows[s], views, coins[:, :, t], sites, scratch, t)
            except Exception:  # whatever a step raised, a drift before it is the cause to report
                _check_norms(block[checked:s], first + checked)
                raise
        _check_norms(block[checked:], first + checked)
        yield block.transpose(block_axes)
