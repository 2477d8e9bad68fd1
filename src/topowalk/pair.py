"""Two noninteracting walkers: joint distributions and pair coin entropy.

A noninteracting pair started in a superposition of coin products stays a
superposition of products of single-walker states, so pair observables are
assembled from four lone walkers: the coin-|0> and coin-|1> starts of each
particle, stepped under that particle's field. Each particle's walkers are one
array with axes (site, coin, start coin).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .states import LatticeWindow, make_single_state
from .walk import split_step, trajectory

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
        integral = [  # as experiments._integer: no bools, no fractional parts
            isinstance(x, (int, np.integer)) and not isinstance(x, bool)
            or isinstance(x, float) and x.is_integer()
            for x in self.positions
        ]
        if len(integral) != 2 or not all(integral):
            raise ValueError(f"positions must be two integers, got {self.positions!r}")
        object.__setattr__(self, "kind", canonical)
        object.__setattr__(self, "positions", (int(self.positions[0]), int(self.positions[1])))


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


def iter_product_walkers(
    init: InitialPairState,
    window: LatticeWindow,
    field_a: np.ndarray,
    field_b: np.ndarray,
    n_steps: int,
):
    """Iterate (amps_a, amps_b) at step 0 and after each of n_steps steps.

    amps_x[:, :, c] is particle x's lone walker started in coin |c> at its site
    in init.positions and stepped under the (2, site, step) angle field_x: an
    array of shape (size, coin, start coin). Both coin starts of a particle
    share one kernel call, and each particle runs on its own walk.trajectory.
    """

    def lone_walkers(x: int, field: np.ndarray):
        start = np.stack([make_single_state(window, x, c) for c in ((1, 0), (0, 1))], axis=-1)
        return trajectory(start, lambda amps, step: split_step(amps, field, step), n_steps)

    return zip(lone_walkers(init.positions[0], field_a), lone_walkers(init.positions[1], field_b))


def pair_coin_density_from_singles(
    amps_a: np.ndarray, amps_b: np.ndarray, coefficients: np.ndarray
) -> np.ndarray:
    """4x4 coin density matrix of the evolved pair, from per-particle walks.

    amps_x is particle x's (site, coin, start coin) walker array, as yielded by
    iter_product_walkers; coefficients is C[c_a, c_b] (see coin_coefficients).
    Tracing the positions of a product superposition reduces to the Gram
    tensor G_x[s, c, t, d] = sum_i amps_x[i, c, s] conj(amps_x[i, d, t])
    between the coin-0 and coin-1 starts of each particle.
    """
    c = coefficients
    ga = np.einsum("ics,idt->sctd", amps_a, amps_a.conj())
    gb = np.einsum("ics,idt->sctd", amps_b, amps_b.conj())
    # rho[(ca, cb), (ca', cb')] = sum C[s, s'] conj(C[t, t']) Ga[s, ca, t, ca'] Gb[s', cb, t', cb']
    return np.einsum("ab,cd,aecf,bgdh->egfh", c, c.conj(), ga, gb).reshape(4, 4)


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
    +- Re(O^a_01(i) conj(O^b_01(j))). Entries in [-CLIP_TOL, 0) are rounding
    noise and are clipped to zero.
    """
    if amps_a.ndim != 3 or amps_a.shape[1:] != (2, 2) or amps_b.shape != amps_a.shape:
        raise ValueError(
            f"walker arrays must share one (size, 2, 2) shape, got {amps_a.shape} and {amps_b.shape}"
        )
    c = coefficients
    oa = np.einsum("ics,ict->ist", amps_a, amps_a.conj())
    ob = np.einsum("ics,ict->ist", amps_b, amps_b.conj())
    values = np.einsum("ab,cd,iac,jbd->ij", c, c.conj(), oa, ob, optimize=True).real
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
