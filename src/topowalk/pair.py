"""Two noninteracting walkers: joint distributions and pair coin entropy.

Pair observables come from the product decomposition: four lone walkers, the
coin-|0> and coin-|1> starts of each particle, stepped under that particle's
field. The dense pair state with axes (x_a, c_a, x_b, c_b), stepped one
particle at a time, is kept as the reference route the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .states import (
    LatticeWindow,
    SingleParticleState,
    TwoParticleState,
    reduce_to_coin,
    von_neumann_entropy,
)
from .walk import RUNTIME_NORM_TOL, AngleField, _split_step_amps, evolve

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
        object.__setattr__(self, "kind", canonical)
        object.__setattr__(self, "positions", (int(self.positions[0]), int(self.positions[1])))


@dataclass
class JointDistribution:
    """P(i, j): particle A at site i, particle B at site j."""

    window: LatticeWindow
    values: np.ndarray  # (size, size) real, nonnegative, sums to 1


@dataclass
class EntropySeries:
    steps: list[int] = field(default_factory=list)
    entropy_bits: list[float] = field(default_factory=list)


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
    state: TwoParticleState, field_a: AngleField, field_b: AngleField, step: int
) -> TwoParticleState:
    """One product step: A's split step on (x_a, c_a), then B's on (x_b, c_b)."""
    amps = _split_step_amps(state.amps, field_a, step)
    amps = np.ascontiguousarray(amps.transpose(2, 3, 0, 1))
    amps = _split_step_amps(amps, field_b, step)
    amps = np.ascontiguousarray(amps.transpose(2, 3, 0, 1))
    return TwoParticleState(state.window, amps)


def evolve_pair(
    state: TwoParticleState,
    field_a: AngleField,
    field_b: AngleField,
    n_steps: int,
    observers=None,
):
    """Evolve the pair n_steps steps; see walk.evolve for the observer contract."""
    return evolve(
        state,
        lambda s, step: pair_split_step(s, field_a, field_b, step),
        n_steps,
        observers,
    )


def iter_pair_trajectory(
    state: TwoParticleState, field_a: AngleField, field_b: AngleField, n_steps: int
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


def pair_entropy_series(trajectory) -> EntropySeries:
    """Coin entanglement entropy of each state in a trajectory, in bits."""
    series = EntropySeries()
    for step, state in enumerate(trajectory):
        series.steps.append(step)
        series.entropy_bits.append(von_neumann_entropy(reduce_to_coin(state)))
    return series


# -- product decomposition -----------------------------------------------------
# A noninteracting pair started in a superposition of coin products stays a
# superposition of products of single-walker states, so pair observables can be
# assembled from four single runs: the production route for pair runs and
# sweeps. The dense tensor evolution above is the reference it is tested
# against.


def product_terms(init: InitialPairState) -> list[tuple[complex, int, int]]:
    """The initial pair state as [(coefficient, coin_a, coin_b), ...]."""
    rt = 1.0 / np.sqrt(2.0)
    if init.kind == "separable":
        return [(1.0 + 0.0j, 0, 1)]
    if init.kind == "psi_plus":
        return [(rt, 0, 1), (rt, 1, 0)]
    return [(rt, 0, 1), (-rt, 1, 0)]


def _coefficients(terms: list[tuple[complex, int, int]]) -> np.ndarray:
    """product_terms as a matrix: C[s_a, s_b] is the coefficient of coin |s_a s_b>."""
    c = np.zeros((2, 2), dtype=complex)
    for coef, ca, cb in terms:
        c[ca, cb] += coef
    return c


def _overlap(walkers, subscripts: str) -> np.ndarray:
    """np.einsum(subscripts, w, conj(w)) over one particle's lone walkers,
    stacked as w[i, s, c] = walkers[s].amps[i, c] (site, start coin, coin).

    Summed over sites, "isc,itd->sctd" is the Gram tensor of the coin density;
    summed over the coin, "isc,itc->ist" is the per-site overlap O_st(i) of
    the joint distribution.
    """
    w = np.stack([walker.amps for walker in walkers], axis=1)
    return np.einsum(subscripts, w, w.conj())


def iter_product_walkers(
    init: InitialPairState,
    window: LatticeWindow,
    field_a: AngleField,
    field_b: AngleField,
    n_steps: int,
):
    """Yield (walkers_a, walkers_b) at step 0 and after each of n_steps steps.

    walkers_x[c] is particle x's lone walker started in coin |c> at its site
    in init.positions and stepped under field_x. Both coin starts of a
    particle share one kernel call on a trailing axis. As in evolve, every
    walker's norm is checked after every step.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    amps = []
    for x in init.positions:
        if abs(x) >= window.half_width:
            raise ValueError(f"positions {init.positions} must satisfy |x| < {window.half_width}")
        start = np.zeros((window.size, 2, 2), dtype=complex)  # (site, coin, start coin)
        start[window.index(x)] = np.eye(2)
        amps.append(start)

    def walkers(particle_amps):
        return tuple(SingleParticleState(window, particle_amps[:, :, c]) for c in (0, 1))

    yield walkers(amps[0]), walkers(amps[1])
    for step in range(n_steps):
        amps = [_split_step_amps(amps[0], field_a, step), _split_step_amps(amps[1], field_b, step)]
        drift = max(float(np.max(np.abs(np.linalg.norm(a, axis=(0, 1)) - 1.0))) for a in amps)
        if not drift <= RUNTIME_NORM_TOL:
            raise NumericalError(f"lone-walker norm drifted by {drift:.3e} at step {step + 1}")
        yield walkers(amps[0]), walkers(amps[1])


def pair_coin_density_from_singles(
    walkers_a: tuple[SingleParticleState, SingleParticleState],
    walkers_b: tuple[SingleParticleState, SingleParticleState],
    terms: list[tuple[complex, int, int]],
) -> np.ndarray:
    """4x4 coin density matrix of the evolved pair, from per-particle walks.

    walkers_x[c] is the lone-walker state evolved under particle x's field from
    coin |c> at that particle's start site. Tracing the positions of a product
    superposition reduces to 2x2 position-overlap (Gram) matrices between the
    coin-0 and coin-1 runs of each particle.
    """
    c = _coefficients(terms)
    ga = _overlap(walkers_a, "isc,itd->sctd")
    gb = _overlap(walkers_b, "isc,itd->sctd")
    # rho[(ca, cb), (ca', cb')] = sum C[s, s'] conj(C[t, t']) Ga[s, ca, t, ca'] Gb[s', cb, t', cb']
    return np.einsum("ab,cd,aecf,bgdh->egfh", c, c.conj(), ga, gb).reshape(4, 4)


def joint_distribution_interference(
    coin0_a: SingleParticleState,
    coin1_a: SingleParticleState,
    coin0_b: SingleParticleState | None = None,
    coin1_b: SingleParticleState | None = None,
    sign: int = +1,
    terms: list[tuple[complex, int, int]] | None = None,
) -> JointDistribution:
    """P(i, j) of a coin-product superposition from four single-walker runs.

    coin0_x / coin1_x are the states of a lone walker evolved for the same
    number of steps under particle x's own angle field, starting from coin |0>
    and coin |1> at the pair's initial position. For the initial state
    sum_t c_t |ca_t, cb_t> (terms, as from product_terms; by default the
    (|01> + sign |10>)/sqrt(2) pair)

        P(i, j) = sum_tu c_t conj(c_u) O^a_tu(i) O^b_tu(j),
        O^x_tu(i) = sum_c amp_t(i, c) * conj(amp_u(i, c)),

    with amp_t particle x's walker for the coin label of term t. For psi+- the
    cross terms are the exchange interference +- Re(O^a_01(i) conj(O^b_01(j))).
    Entries in [-CLIP_TOL, 0) are rounding noise and are clipped to zero.
    """
    if terms is None:
        if sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        terms = product_terms(InitialPairState("psi_plus" if sign > 0 else "psi_minus"))
    if coin0_b is None:
        coin0_b = coin0_a
    if coin1_b is None:
        coin1_b = coin1_a
    windows = {s.window for s in (coin0_a, coin1_a, coin0_b, coin1_b)}
    if len(windows) != 1:
        raise ValueError("all four walker states must share one window")
    window = coin0_a.window
    c = _coefficients(terms)
    oa = _overlap((coin0_a, coin1_a), "isc,itc->ist")
    ob = _overlap((coin0_b, coin1_b), "isc,itc->ist")
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
    return JointDistribution(window, values)
