"""Split-step quantum walk simulator.

Single- and two-particle discrete-time walks on a 1D lattice with split-step
coins, site/step angle disorder, topological boundary fields, coin-space
entanglement entropy, and momentum-space winding numbers, plus a reproducible
experiment driver and CLI.
"""

from ._version import __version__
from .errors import ConfigError, NumericalError, TopowalkError, WindowOverflowError
from .states import (
    LatticeWindow,
    make_single_state,
    position_distribution,
    von_neumann_entropy,
)
from .walk import (
    BoundarySpec,
    DisorderSpec,
    STRONG_HALF_WIDTH,
    WEAK_HALF_WIDTH,
    hadamard_coins,
    randomize_field,
    sample_angle_field,
    split_coins,
    trajectory,
)
from .pair import (
    InitialPairState,
    coin_coefficients,
    iter_product_walkers,
    joint_distribution_interference,
    pair_coin_density_from_singles,
)
from .topology import (
    PhaseDiagram,
    PhaseVerdict,
    phase_diagram,
    winding_number,
)
from .experiments import (
    RunArtifacts,
    RunConfig,
    SweepAxis,
    config_from_dict,
    config_to_dict,
    derive_seed,
    load_config,
    run,
    write_artifacts,
)

__all__ = [name for name in dir() if not name.startswith("_")]
