"""Two noninteracting walkers: joint distributions and pair coin entropy.

A noninteracting pair started in a superposition of coin products stays a
superposition of products of single-walker states, so pair observables are
assembled from four lone walkers: the coin-|0> and coin-|1> starts of each
particle, stepped under that particle's field. All four are one array with
axes (site, coin, start coin, particle), and both particles step together,
in blocks of consecutive steps. The starts and the coins are real, so the
walkers are float64, and so are the coin density matrices built from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalError, as_integer
from .states import LatticeWindow, make_single_state
from .walk import split_coins, trajectory

PAIR_KIND_ALIASES = {
    "psi+": "psi_plus",
    "psi-": "psi_minus",
    "sep": "separable",
    "psi_plus": "psi_plus",
    "psi_minus": "psi_minus",
    "separable": "separable",
}

CLIP_TOL = 1e-12
DISTRIBUTION_TOL = 1e-8


@dataclass(frozen=True)
class InitialPairState:
    """Initial coin configuration of the pair; both walkers sit at `positions`.

    kind "separable" is coin |01>; "psi_plus"/"psi_minus" are (|01> +- |10>)/sqrt(2),
    labels ordered (c_a, c_b).
    """

    kind: str = "psi_plus"
    positions: tuple[int, int] = (0, 0)

    def __post_init__(self):
        canonical = PAIR_KIND_ALIASES.get(self.kind)
        if canonical is None:
            raise ValueError(f"unknown pair state kind {self.kind!r}")
        try:
            x_a, x_b = (as_integer(x, "positions") for x in self.positions)
        except (TypeError, ValueError):  # not a sequence, not two values, or not integers
            raise ValueError(f"positions must be two integers, got {self.positions!r}") from None
        object.__setattr__(self, "kind", canonical)
        object.__setattr__(self, "positions", (x_a, x_b))


def coin_coefficients(init: InitialPairState) -> np.ndarray:
    """The initial pair state as a matrix: C[c_a, c_b] is the coefficient of coin |c_a c_b>."""
    c = np.zeros((2, 2), dtype=complex)
    if init.kind == "separable":
        c[0, 1] = 1.0
    else:
        rt = 1.0 / np.sqrt(2.0)
        c[0, 1] = rt
        c[1, 0] = rt if init.kind == "psi_plus" else -rt
    return c


def iter_product_walkers(init: InitialPairState, window: LatticeWindow, field):
    """Iterate the pair's lone walkers at step 0 and after each step of field, in blocks of steps.

    field holds both particles' angles, particle a then b: a (2, site, step,
    *cells, particle) array, or one (2, site, step, *cells) array per particle,
    so that a particle that draws no angles may store one step, broadcast over
    the others, beside one that stores every step. The walkers are one array
    with axes (site, coin, start coin, *cells, particle): walkers[:, :, c, ...,
    p] is particle p's lone walker started in coin |c> at its site in
    init.positions and stepped under its field, each cell a run from the same
    start. Both particles step in one walk.trajectory under split_coins(field),
    built on the light cone of the two start sites, and each yielded block is
    its float64 block of consecutive steps, with axes (step, site, coin, start
    coin, *cells, particle), so block[s] is one step's walkers.
    """
    if isinstance(field, np.ndarray):
        if field.ndim < 4 or field.shape[-1] != 2:
            raise ValueError(f"field must have a trailing particle axis of 2, got shape {field.shape}")
        cells = field.shape[3:-1]
    else:
        shapes = [f.shape for f in field]
        if len(shapes) != 2 or shapes[0] != shapes[1] or len(shapes[0]) < 3:
            raise ValueError(f"field must be two particles' (2, site, step, *cells) fields, got shapes {shapes}")
        cells = shapes[0][3:]
    starts = [
        np.stack([make_single_state(window, x, c).real for c in ((1, 0), (0, 1))], axis=-1)
        for x in init.positions
    ]
    starts = [np.broadcast_to(s.reshape(s.shape + (1,) * len(cells)), s.shape + cells) for s in starts]
    occupied = tuple(window.index(x) for x in sorted(init.positions))
    return trajectory(np.stack(starts, axis=-1), split_coins(field, occupied))


@lru_cache(maxsize=8)
def _coin_weights(coefficients: bytes) -> tuple:
    """K[a, b, c, d] = C[a, b] conj(C[c, d]) for the bytes of a complex C, one per pair state, and,
    if K is real, its nonzero terms ((a, b, c, d), K[a, b, c, d].real) in index order, else None."""
    c = np.frombuffer(coefficients, dtype=complex).reshape(2, 2)
    weights = np.einsum("ab,cd->abcd", c, c.conj())
    weights.flags.writeable = False
    terms = None if weights.imag.any() else tuple((i, weights.real[i]) for i in zip(*np.nonzero(weights)))
    return weights, terms


def pair_coin_density_from_singles(walkers: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """4x4 coin density matrix of the evolved pair per cell, a (*cells, 4, 4) array.

    walkers is a (site, coin, start coin, *cells, particle) array, one step of
    what iter_product_walkers yields; a block's step axis moved among the cell
    axes reduces a whole block of steps in one call. coefficients is C[c_a,
    c_b] (see coin_coefficients). Tracing the positions of a product superposition
    reduces to each particle's Gram tensor G[s, c, t, d] = sum_i w[i, c, s]
    conj(w[i, d, t]) between its coin-0 and coin-1 starts; one einsum over the
    site-last memory builds both particles' tensors. Real walkers under real
    weights K = C conj(C), as every InitialPairState has, give a real rho: one
    float64 einsum sums each Gram entry in site order, with the bits of a complex
    einsum's real parts, and the tensors are combined over the nonzero weights
    only, in float64. Complex walkers or weights take the complex einsum and give
    a complex rho.
    """
    if walkers.ndim < 4 or walkers.shape[1:3] != (2, 2) or walkers.shape[-1] != 2:
        raise ValueError(f"walkers must have axes (site, 2, 2, *cells, 2), got shape {walkers.shape}")
    weights, terms = _coin_weights(np.asarray(coefficients, dtype=complex).tobytes())
    real = terms is not None and not np.iscomplexobj(walkers)
    mem = walkers.transpose(*range(1, walkers.ndim), 0)  # (coin, start, *cells, particle, site)
    if real:
        # the float sums in site order, as the complex einsum's real parts: numpy's einsum takes its
        # SIMD partial sums over a contiguous float axis, and its sequential strided loop over a
        # site stride of two floats (a loop choice of numpy's, which the pinned bytes guard)
        copy = np.empty(mem.shape + (2,))[..., 0]
        copy[...] = mem
        gram = np.einsum("cs...i,dt...i->...sctd", copy, copy)  # (*cells, particle, s, c, t, d)
    else:
        mem = mem.astype(complex, copy=False)
        gram = np.einsum("cs...i,dt...i->...sctd", mem, mem.conj())
    ga, gb = gram[..., 0, :, :, :, :], gram[..., 1, :, :, :, :]
    # rho[(ca, cb), (ca', cb')] = sum C[s, s'] conj(C[t, t']) Ga[s, ca, t, ca'] Gb[s', cb, t', cb']
    if real:  # the einsum's terms in its order, (s, s', t, t'), less those of zero weight
        rho = np.zeros((*gram.shape[:-5], 2, 2, 2, 2))
        for (s, s_, t, t_), k in terms:
            rho += (k * ga[..., s, :, t, :])[..., :, None, :, None] * gb[..., s_, None, :, t_, None, :]
    else:
        rho = np.einsum("abcd,...aecf,...bgdh->...egfh", weights, ga, gb)
    return rho.reshape(*gram.shape[:-5], 4, 4)


_COMBINE = "ab,cd,iac,jbd->ij"


@lru_cache(maxsize=8)
def _combine_path(size: int) -> tuple:
    """The contraction order np.einsum(_COMBINE, ..., optimize=True) finds on a window of size sites;
    it depends on the operands' shapes only."""
    o = np.zeros((size, 2, 2), complex)
    return tuple(np.einsum_path(_COMBINE, o[0], o[0], o, o, optimize=True)[0])


def joint_distribution_interference(
    amps_a: np.ndarray, amps_b: np.ndarray, coefficients: np.ndarray
) -> np.ndarray:
    """P(i, j), particle A at site i and B at site j, from the lone walkers.

    amps_x is particle x's (site, coin, start coin) walker array, evolved for
    the same number of steps as the other particle's; coefficients is
    C[c_a, c_b] (see coin_coefficients). Returns the (size, size) array

        P(i, j) = sum_{s s' t t'} C[s, s'] conj(C[t, t']) O^a_st(i) O^b_s't'(j),
        O^x_st(i) = sum_c amps_x[i, c, s] * conj(amps_x[i, c, t]).

    For psi+- the cross terms are the exchange interference
    +- Re(O^a_01(i) conj(O^b_01(j))). The O tensors of float walkers are float
    sums of two products, the bits of complex ones' real parts; the combine is
    complex either way, along np.einsum's own contraction order, found once per
    window size. Entries in [-CLIP_TOL, 0) are rounding noise and are clipped to zero.
    """
    if amps_a.ndim != 3 or amps_a.shape[1:] != (2, 2) or amps_b.shape != amps_a.shape:
        raise ValueError(
            f"walker arrays must share one (size, 2, 2) shape, got {amps_a.shape} and {amps_b.shape}"
        )
    c = coefficients
    oa, ob = (np.einsum("ics,ict->ist", x, x.conj()).astype(complex, copy=False) for x in (amps_a, amps_b))
    values = np.einsum(_COMBINE, c, c.conj(), oa, ob, optimize=_combine_path(len(oa))).real
    low = float(values.min())
    if not low >= -CLIP_TOL:
        raise NumericalError(f"interference joint distribution has entry {low:.3e} < 0")
    values = np.clip(values, 0.0, None)
    total = float(values.sum())
    if not abs(total - 1.0) <= DISTRIBUTION_TOL:
        raise NumericalError(
            f"interference joint distribution sums to {total:.12f}; "
            "walker inputs are inconsistent"
        )
    return values
