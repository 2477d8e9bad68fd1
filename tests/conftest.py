import numpy as np
import pytest

from topowalk import LatticeWindow
from oracles import TwoParticleState


def random_single_state(window: LatticeWindow, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((window.size, 2)) + 1j * rng.standard_normal((window.size, 2))
    amps /= np.sqrt(np.vdot(amps, amps).real)
    return amps


def random_pair_state(window: LatticeWindow, seed: int) -> TwoParticleState:
    rng = np.random.default_rng(seed)
    shape = (window.size, 2, window.size, 2)
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    amps /= np.sqrt(np.vdot(amps, amps).real)
    return TwoParticleState(window, amps)


@pytest.fixture
def small_window() -> LatticeWindow:
    return LatticeWindow(8)
