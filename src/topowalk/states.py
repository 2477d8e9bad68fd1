"""Single-walker state vectors on a finite 1D lattice.

A walker is a dense float64 or complex128 array with axes (position, coin,
*walkers): one walker is a (size, 2) array, and trailing axes stack walkers
stepped together. make_single_state returns a complex walker; a real one (its
.real, when no amplitude has an imaginary part) steps in float64.
Positions run x = -L..+L; array index 0 corresponds to x = -L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

# Guards compare as `not x <= tol`, so that a NaN fails them instead of passing.
NORM_TOL = 1e-10
EIGENVALUE_TOL = 1e-10
HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class LatticeWindow:
    """Symmetric window of 2*half_width + 1 sites centred on the origin."""

    half_width: int

    def __post_init__(self):
        if self.half_width < 1:
            raise ValueError(f"half_width must be >= 1, got {self.half_width}")

    @property
    def size(self) -> int:
        return 2 * self.half_width + 1

    def positions(self) -> np.ndarray:
        return np.arange(-self.half_width, self.half_width + 1)

    def index(self, x: int) -> int:
        if abs(x) > self.half_width:
            raise ValueError(f"position {x} outside window |x| <= {self.half_width}")
        return x + self.half_width


def make_single_state(window: LatticeWindow, x0: int, coin_amps) -> np.ndarray:
    """(size, 2) walker localized at x0 with the given normalized 2-component coin state."""
    coin = np.asarray(coin_amps, dtype=complex)
    if coin.shape != (2,):
        raise ValueError(f"coin_amps must have 2 components, got shape {coin.shape}")
    if not abs(np.sum(np.abs(coin) ** 2) - 1.0) <= NORM_TOL:
        raise ValueError("coin_amps must be normalized")
    if abs(x0) >= window.half_width:
        raise ValueError(f"x0={x0} must satisfy |x0| < {window.half_width}")
    amps = np.zeros((window.size, 2), dtype=complex)
    amps[window.index(x0)] = coin
    return amps


def position_distribution(amps: np.ndarray) -> np.ndarray:
    """P(x) with the coin traced out; sums to 1 for a normalized walker."""
    return np.sum(np.abs(amps) ** 2, axis=1)


def von_neumann_entropy(rho: np.ndarray) -> float | np.ndarray:
    """Entropy -sum(lam * log2(lam)) of a Hermitian unit-trace matrix, in bits.

    rho is one (n, n) matrix, giving a float, or a stack (..., n, n), giving
    an array of entropies; every guard applies to every matrix, and an error
    names the first bad one. Eigenvalues in [-EIGENVALUE_TOL, 0) are rounding
    noise and are clipped to zero; anything more negative means the input is
    not a density matrix.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")

    def check(ok: np.ndarray, problem: str) -> None:
        if not np.all(ok):  # name the first failing matrix of a stack
            at = tuple(int(i) for i in np.unravel_index(np.argmin(ok), ok.shape))
            where = f" {at}" if at else ""
            raise NumericalError(f"density matrix{where} {problem}")

    check(np.all(np.isfinite(rho), axis=(-2, -1)), "has non-finite entries")
    skew = np.max(np.abs(rho - rho.conj().swapaxes(-2, -1)), axis=(-2, -1))
    check(skew <= HERMITICITY_TOL, "is not Hermitian")
    evals = np.linalg.eigvalsh(rho)
    low = evals.min(axis=-1)
    check(low >= -EIGENVALUE_TOL, f"is invalid: eigenvalue {low.min():.3e} < 0")
    lam = np.clip(evals, 0.0, 1.0)
    # a zero eigenvalue adds a +0.0 term, as if it were left out of the sum
    logs = np.log2(lam, out=np.zeros_like(lam), where=lam > 0.0)
    entropy = -(lam * logs).sum(axis=-1)
    return float(entropy) if rho.ndim == 2 else entropy
