"""Reproducible experiment driver: validated run configs, seeded ensembles, artifacts.

A RunConfig describes one experiment (walk kind, angles, disorder, seeding,
sweep axes); run() executes it deterministically and write_artifacts() emits
CSV data files plus a manifest that suffices to re-run the experiment.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import ConfigError
from .pair import (
    InitialPairState,
    coin_coefficients,
    iter_product_walkers,
    joint_distribution_interference,
    pair_coin_density_from_singles,
)
from .states import (
    NORM_TOL,
    LatticeWindow,
    position_distribution,
    make_single_state,
    reduce_to_coin,
    von_neumann_entropy,
)
from .topology import PhaseDiagram, phase_diagram
from .walk import (
    BoundarySpec,
    DisorderSpec,
    STRONG_HALF_WIDTH,
    WEAK_HALF_WIDTH,
    hadamard_step,
    sample_angle_field,
    split_step,
    trajectory,
)

ANGLES_WINDING_1 = (-np.pi / 2.0, np.pi / 4.0)
ANGLES_WINDING_0 = (-np.pi / 2.0, 3.0 * np.pi / 4.0)

# Run kind -> (the config fields it reads, the artifact kinds it writes). Every
# other field keeps its RunConfig default, and the manifest writes only these.
_WALK = ("steps", "window", "master_seed", "outputs")
_PAIR_WALK = (*_WALK, "angles", "initial_state", "disorder")
RUN_KINDS = {
    "hadamard": ((*_WALK, "coin_amps"), ("entropy", "distribution")),
    "single_split": (
        (*_WALK, "coin_amps", "angles", "disorder", "ensemble_size"), ("entropy", "distribution")
    ),
    "pair": ((*_PAIR_WALK, "ensemble_size"), ("entropy", "distribution", "joint")),
    "entropy_sweep": ((*_PAIR_WALK, "sweep_grid", "sweep_scalar"), ("heatmap",)),
    "phase_diagram": (("master_seed", "outputs", "k_points", "grid_n"), ("phase",)),
}
# The paper's names for the pair walk on plain and on boundary angles; a
# config's run_kind parses them as "pair".
RUN_KIND_ALIASES = {"tptpw": "pair", "tptbw": "pair"}
SWEEP_SCALARS = ("final", "longmean")

# Sweep axis name -> (particle, angle index, boundary side). Side None means the
# plain angle in a uniform field, or both sides of a boundary field.
SWEEP_PARAMETERS = {
    "theta1a": ("a", 0, None),
    "theta2a": ("a", 1, None),
    "theta1b": ("b", 0, None),
    "theta2b": ("b", 1, None),
    "theta1a_minus": ("a", 0, "minus"),
    "theta1a_plus": ("a", 0, "plus"),
    "theta2a_minus": ("a", 1, "minus"),
    "theta2a_plus": ("a", 1, "plus"),
    "theta1b_minus": ("b", 0, "minus"),
    "theta1b_plus": ("b", 0, "plus"),
    "theta2b_minus": ("b", 1, "minus"),
    "theta2b_plus": ("b", 1, "plus"),
}

_FLOAT_FMT = "{:.16e}"

# Largest array a config may ask for, in elements (512 MiB of float64).
MAX_ARRAY_ELEMENTS = 2**26


@dataclass(frozen=True)
class SweepAxis:
    name: str
    lo: float
    hi: float
    count: int

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


@dataclass
class RunConfig:
    run_kind: str = "hadamard"
    steps: int = 100
    window: int | None = None  # None means auto: steps + 1
    # Per-particle coin angles: (theta1, theta2) tuples, or BoundarySpec for
    # position-dependent two-phase walks. Walker b without an entry takes a's.
    angles: dict = field(
        default_factory=lambda: {"a": ANGLES_WINDING_1, "b": ANGLES_WINDING_0}
    )
    initial_state: InitialPairState = field(default_factory=InitialPairState)
    coin_amps: tuple = (1.0 + 0.0j, 0.0j)  # single-walker runs
    disorder: DisorderSpec = field(default_factory=DisorderSpec)
    ensemble_size: int = 1
    master_seed: int = 0
    sweep_grid: list = field(default_factory=list)  # [SweepAxis, SweepAxis]
    sweep_scalar: str = "final"
    outputs: list | None = None
    k_points: int = 1024
    grid_n: int = 64


@dataclass
class EntropySeries:
    steps: list[int] = field(default_factory=list)
    entropy_bits: list[float] = field(default_factory=list)


@dataclass
class HeatmapResult:
    axis_names: tuple[str, str]
    axis1_values: np.ndarray
    axis2_values: np.ndarray
    values: np.ndarray  # (len(axis1), len(axis2))
    scalar: str


@dataclass
class RunArtifacts:
    config: RunConfig
    positions: np.ndarray | None = None
    entropy: EntropySeries | None = None
    entropy_std: np.ndarray | None = None
    distributions: dict = field(default_factory=dict)  # label -> (size,) probs
    joint: np.ndarray | None = None
    heatmap: HeatmapResult | None = None
    phase: PhaseDiagram | None = None


def derive_seed(master_seed: int, *key: int) -> int:
    """Deterministic 64-bit child seed for a replicate or sweep cell."""
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


# -- config parsing and validation ------------------------------------------------


def _integer(value, field_name: str) -> int:
    """value as an int; a bool, a string or a number with a fractional part is an error."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(field_name, f"expected an integer, got {value!r}")
    return int(value)


def _check_keys(value, field_name: str, required: tuple, optional: tuple = ()) -> None:
    """Check that value is a mapping with every required key and no key outside both sets."""
    if not isinstance(value, dict):
        raise ConfigError(field_name, f"expected a mapping, got {value!r}")
    missing = [key for key in required if key not in value]
    unknown = [key for key in value if key not in (*required, *optional)]
    if missing or unknown:
        raise ConfigError(field_name, f"missing keys {missing}, unknown keys {unknown}")


def _parse_angle_entry(value, field_name: str):
    if isinstance(value, BoundarySpec):
        return value
    if isinstance(value, dict):
        _check_keys(value, field_name, ("minus", "plus"))
        minus, plus = value["minus"], value["plus"]
        if len(minus) != 2 or len(plus) != 2:
            raise ConfigError(field_name, "boundary angle pairs must have 2 entries")
        return BoundarySpec(
            (float(minus[0]), float(minus[1])), (float(plus[0]), float(plus[1]))
        )
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return (float(value[0]), float(value[1]))
    raise ConfigError(field_name, f"expected [theta1, theta2] or minus/plus mapping, got {value!r}")


def _parse_disorder(value, field_name: str) -> DisorderSpec:
    if isinstance(value, DisorderSpec):
        return value
    if isinstance(value, dict) and "seed" in value:
        raise ConfigError(
            field_name, "disorder takes no seed: every random draw derives from master_seed"
        )
    _check_keys(value, field_name, (), ("kind", "half_width", "target"))
    kind = value.get("kind", "none")
    target = value.get("target", "a")
    presets = {"weak": WEAK_HALF_WIDTH, "strong": STRONG_HALF_WIDTH}
    if kind not in presets:
        return DisorderSpec(kind, float(value.get("half_width", 0.0)), target)
    if "half_width" in value:
        raise ConfigError(field_name, f"the {kind} preset sets its own half_width")
    return DisorderSpec("uniform", presets[kind], target)


def _parse_initial_state(value, field_name: str) -> InitialPairState:
    if isinstance(value, InitialPairState):
        return value
    if isinstance(value, str):
        value = {"kind": value}
    _check_keys(value, field_name, (), ("kind", "positions"))
    positions = value.get("positions", (0, 0))
    if not isinstance(positions, (list, tuple)) or len(positions) != 2:
        raise ConfigError(field_name, f"positions must be two integers, got {positions!r}")
    positions = tuple(_integer(x, field_name) for x in positions)
    return InitialPairState(value.get("kind", "psi_plus"), positions)


def _parse_sweep_grid(value, field_name: str) -> list:
    axes = []
    for item in value:
        if not isinstance(item, SweepAxis):
            _check_keys(item, field_name, ("name", "min", "max", "count"))
            count = _integer(item["count"], field_name)
            item = SweepAxis(str(item["name"]), float(item["min"]), float(item["max"]), count)
        axes.append(item)
    return axes


def _parse_coin_amps(value, field_name: str) -> tuple:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        out = []
        for comp in value:
            if isinstance(comp, (list, tuple)) and len(comp) == 2:
                out.append(complex(float(comp[0]), float(comp[1])))
            else:
                out.append(complex(comp))
        return (out[0], out[1])
    raise ConfigError(field_name, "coin_amps must be two components, each [re, im] or a number")


def _dump_angle_entry(entry):
    if isinstance(entry, BoundarySpec):
        return {"minus": list(entry.theta_minus), "plus": list(entry.theta_plus)}
    return [entry[0], entry[1]]


# Config field -> (parse(value, field name), dump(value)), in RunConfig's order:
# config_from_dict parses a mapping's values, config_to_dict dumps them back.
_FIELDS = {
    "run_kind": (lambda v, f: RUN_KIND_ALIASES.get(str(v), str(v)), str),
    "steps": (_integer, int),
    "window": (lambda v, f: None if v in (None, "auto") else _integer(v, f), lambda w: w or "auto"),
    "angles": (
        lambda v, f: {p: _parse_angle_entry(e, f"{f}.{p}") for p, e in v.items()},
        lambda angles: {p: _dump_angle_entry(e) for p, e in angles.items()},
    ),
    "initial_state": (_parse_initial_state, lambda s: {"kind": s.kind, "positions": list(s.positions)}),
    "coin_amps": (_parse_coin_amps, lambda amps: [[c.real, c.imag] for c in amps]),
    "disorder": (_parse_disorder, asdict),
    "ensemble_size": (_integer, int),
    "master_seed": (_integer, int),
    "sweep_grid": (
        _parse_sweep_grid,
        lambda axes: [{"name": ax.name, "min": ax.lo, "max": ax.hi, "count": ax.count} for ax in axes],
    ),
    "sweep_scalar": (lambda v, f: str(v), str),
    "outputs": (lambda v, f: None if v is None else [str(x) for x in v], lambda outputs: outputs),
    "k_points": (_integer, int),
    "grid_n": (_integer, int),
}


def config_from_dict(data: dict) -> RunConfig:
    """Build and validate a RunConfig from a JSON-style mapping."""
    kwargs = {}
    for key, value in data.items():
        if key not in _FIELDS:
            raise ConfigError(key, "unknown config field")
        try:
            kwargs[key] = _FIELDS[key][0](value, key)
        except ConfigError:
            raise
        except (TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise ConfigError(key, str(exc))
    return validate_config(RunConfig(**kwargs))


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def config_to_dict(config: RunConfig) -> dict:
    """JSON-able mapping of run_kind and the fields that kind reads; it
    round-trips through config_from_dict."""
    reads = RUN_KINDS[config.run_kind][0]
    return {
        name: dump(getattr(config, name))
        for name, (_, dump) in _FIELDS.items()
        if name == "run_kind" or name in reads
    }


def validate_config(config: RunConfig) -> RunConfig:
    if config.run_kind not in RUN_KINDS:
        raise ConfigError("run_kind", f"must be one of {tuple(RUN_KINDS)}, got {config.run_kind!r}")
    reads, writes = RUN_KINDS[config.run_kind]
    defaults = RunConfig()
    for name in _FIELDS:
        # a value that the run kind would ignore is an error, not a silent no-op
        if name not in (*reads, "run_kind") and getattr(config, name) != getattr(defaults, name):
            raise ConfigError(name, f"{config.run_kind} runs do not read it; leave it out")
    minimums = {"steps": 0, "ensemble_size": 1, "master_seed": 0, "k_points": 64, "grid_n": 16}
    for name, least in minimums.items():
        if getattr(config, name) < least:
            raise ConfigError(name, f"must be >= {least}")
    if config.window is not None and config.window < 1:
        raise ConfigError("window", "must be >= 1 (or auto)")
    if not np.isfinite(config.disorder.half_width):
        raise ConfigError("disorder", "half_width must be finite")
    if not abs(float(np.sum(np.abs(config.coin_amps) ** 2)) - 1.0) <= NORM_TOL:
        raise ConfigError("coin_amps", "components must be finite and normalized")
    if config.sweep_scalar not in SWEEP_SCALARS:
        raise ConfigError("sweep_scalar", f"must be one of {SWEEP_SCALARS}")
    for particle, entry in config.angles.items():
        if particle not in ("a", "b"):
            raise ConfigError(f"angles.{particle}", "particles are 'a' and 'b'")
        if isinstance(entry, BoundarySpec):
            values = (*entry.theta_minus, *entry.theta_plus)
        else:
            values = tuple(entry)
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"angles.{particle}", f"angles must be finite, got {entry!r}")
    if "a" not in config.angles:  # walker b falls back to walker a's entry
        raise ConfigError("angles.a", "missing angles")
    if config.run_kind == "entropy_sweep":
        if len(config.sweep_grid) != 2:
            raise ConfigError("sweep_grid", "entropy_sweep needs exactly 2 axes")
        for ax in config.sweep_grid:
            if ax.name not in SWEEP_PARAMETERS:
                raise ConfigError(
                    "sweep_grid", f"unknown parameter {ax.name!r}; known: {sorted(SWEEP_PARAMETERS)}"
                )
            if ax.count < 1:
                raise ConfigError("sweep_grid", f"axis {ax.name!r} count must be >= 1")
            if not (np.isfinite(ax.lo) and np.isfinite(ax.hi)):
                raise ConfigError("sweep_grid", f"axis {ax.name!r} bounds must be finite")
    for name in config.outputs or ():
        if name not in writes:
            raise ConfigError("outputs", f"{config.run_kind} runs write {list(writes)}, not {name!r}")
    if "initial_state" in reads:  # pair walks
        half_width = _resolved_window(config).half_width
        if not all(abs(x) < half_width for x in config.initial_state.positions):
            raise ConfigError("initial_state", f"positions must satisfy |x| < {half_width}")
    if config.disorder.target == "b" and config.run_kind == "single_split":
        raise ConfigError("disorder", "a single walker is walker a; it has no walker b to target")
    draws = config.disorder.applies_to("a") or config.disorder.applies_to("b")
    if config.ensemble_size > 1 and not draws:
        raise ConfigError("ensemble_size", "replicates need disorder that draws random angles")
    _check_array_sizes(config)
    return config


def _check_array_sizes(config: RunConfig) -> None:
    """Reject a config whose largest array would exceed MAX_ARRAY_ELEMENTS, naming its field."""
    size = _resolved_window(config).size
    # walker arrays grow with the window, and a pair run's joint distribution with its square
    sites = size * size if config.run_kind == "pair" else size
    counts = (
        ("steps" if config.window is None else "window", sites),
        ("steps", size * config.steps),  # each angle field is (site, step)
        ("sweep_grid", math.prod(ax.count for ax in config.sweep_grid)),
        ("k_points", config.k_points),
        ("grid_n", config.grid_n**2),
    )
    for name, count in counts:
        if not count <= MAX_ARRAY_ELEMENTS:
            raise ConfigError(name, f"needs a {count}-element array; the limit is {MAX_ARRAY_ELEMENTS}")


# -- angle plumbing ---------------------------------------------------------------


def _particle_angles(config: RunConfig, particle: str):
    """One walker's angle entry: its own, else walker a's."""
    return config.angles.get(particle, config.angles["a"])


def _with_axis_value(angles: dict, name: str, value: float) -> dict:
    particle, component, side = SWEEP_PARAMETERS[name]
    entry = angles.get(particle, angles["a"])
    updated = dict(angles)
    if isinstance(entry, BoundarySpec):
        minus = list(entry.theta_minus)
        plus = list(entry.theta_plus)
        if side in (None, "minus"):
            minus[component] = value
        if side in (None, "plus"):
            plus[component] = value
        updated[particle] = BoundarySpec((minus[0], minus[1]), (plus[0], plus[1]))
    else:
        if side is not None:
            raise ConfigError(
                "sweep_grid", f"axis {name!r} needs boundary angles for particle {particle!r}"
            )
        pair = list(entry)
        pair[component] = value
        updated[particle] = (pair[0], pair[1])
    return updated


# -- run execution ----------------------------------------------------------------


def _resolved_window(config: RunConfig) -> LatticeWindow:
    return LatticeWindow(config.window if config.window is not None else config.steps + 1)


def _aggregate_entropy(series_list: list) -> tuple[EntropySeries, np.ndarray | None]:
    stacked = np.array(series_list, dtype=float)
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0) if stacked.shape[0] > 1 else None
    series = EntropySeries(list(range(stacked.shape[1])), [float(v) for v in mean])
    return series, std


def _run_single(config: RunConfig) -> RunArtifacts:
    window = _resolved_window(config)
    entropy_runs = []
    dist_sum = None
    for r in range(config.ensemble_size):
        if config.run_kind == "hadamard":
            stepper = lambda amps, step: hadamard_step(amps)
        else:
            entry, seed = _particle_angles(config, "a"), derive_seed(config.master_seed, r)
            fld = sample_angle_field(entry, config.disorder, config.steps, window, "a", seed)
            stepper = lambda amps, step: split_step(amps, fld, step)
        entropy = []
        for amps in trajectory(make_single_state(window, 0, config.coin_amps), stepper, config.steps):
            entropy.append(von_neumann_entropy(reduce_to_coin(amps)))
        entropy_runs.append(entropy)
        dist = position_distribution(amps)  # the loop leaves amps at the last step
        dist_sum = dist if dist_sum is None else dist_sum + dist
    entropy, std = _aggregate_entropy(entropy_runs)
    return RunArtifacts(
        config=config,
        positions=window.positions(),
        entropy=entropy,
        entropy_std=std,
        distributions={"walk": dist_sum / config.ensemble_size},
    )


def _pair_trajectory(config: RunConfig, seed: int):
    """Lone-walker trajectory (see iter_product_walkers) of one pair run,
    under the fields drawn from seed."""
    window = _resolved_window(config)
    field_a, field_b = (
        sample_angle_field(_particle_angles(config, p), config.disorder, config.steps, window, p, seed)
        for p in ("a", "b")
    )
    return iter_product_walkers(config.initial_state, window, field_a, field_b, config.steps)


def _run_pair(config: RunConfig) -> RunArtifacts:
    coefficients = coin_coefficients(config.initial_state)
    entropy_runs = []
    joint_sum = None
    for r in range(config.ensemble_size):
        entropy = []
        for amps_a, amps_b in _pair_trajectory(config, derive_seed(config.master_seed, r)):
            rho = pair_coin_density_from_singles(amps_a, amps_b, coefficients)
            entropy.append(von_neumann_entropy(rho))
        entropy_runs.append(entropy)
        # the loop leaves amps_a/b at the last step
        joint = joint_distribution_interference(amps_a, amps_b, coefficients)
        joint_sum = joint if joint_sum is None else joint_sum + joint
    entropy, std = _aggregate_entropy(entropy_runs)
    joint_mean = joint_sum / config.ensemble_size
    marg_a = joint_mean.sum(axis=1)
    marg_b = joint_mean.sum(axis=0)
    return RunArtifacts(
        config=config,
        positions=_resolved_window(config).positions(),
        entropy=entropy,
        entropy_std=std,
        distributions={"a": marg_a, "b": marg_b},
        joint=joint_mean,
    )


def _sweep_cell_scalar(config: RunConfig, cell_angles: dict, cell_seed: int) -> float:
    """Pair coin entropy for one sweep cell: the pair run under cell_angles,
    seeded as replicate 0 of cell_seed.

    "final" is the entropy after the last step; "longmean" its mean over the
    last 25% of steps.
    """
    coefficients = coin_coefficients(config.initial_state)
    tail = 1 if config.sweep_scalar == "final" else max(1, config.steps // 4)
    cell = _pair_trajectory(replace(config, angles=cell_angles), derive_seed(cell_seed, 0))
    samples = []
    for step, (amps_a, amps_b) in enumerate(cell):
        if step > config.steps - tail:
            rho = pair_coin_density_from_singles(amps_a, amps_b, coefficients)
            samples.append(von_neumann_entropy(rho))
    return float(np.mean(samples))


def entropy_sweep(config: RunConfig) -> RunArtifacts:
    """Scalar entropy over a 2-axis angle grid; cells are seeded independently."""
    config = validate_config(config)
    if config.run_kind != "entropy_sweep":
        raise ConfigError("run_kind", "entropy_sweep() needs run_kind == 'entropy_sweep'")
    ax1, ax2 = config.sweep_grid
    vals1, vals2 = ax1.values(), ax2.values()
    # walker a's axis goes in first: a walker b with no entry of its own then
    # follows a's cell angles, and a walker-b axis starts from them
    by_walker = lambda item: SWEEP_PARAMETERS[item[0]][0]
    grid = np.empty((len(vals1), len(vals2)), dtype=float)
    for i, v1 in enumerate(vals1):
        for j, v2 in enumerate(vals2):
            cell_angles = config.angles
            for name, value in sorted([(ax1.name, v1), (ax2.name, v2)], key=by_walker):
                cell_angles = _with_axis_value(cell_angles, name, float(value))
            grid[i, j] = _sweep_cell_scalar(
                config, cell_angles, derive_seed(config.master_seed, i, j)
            )
    heatmap = HeatmapResult(
        (ax1.name, ax2.name), vals1, vals2, grid, config.sweep_scalar
    )
    return RunArtifacts(config=config, heatmap=heatmap)


def run(config: RunConfig) -> RunArtifacts:
    """Execute any run kind; artifacts are deterministic in (config, master_seed)."""
    config = validate_config(config)
    if config.run_kind in ("hadamard", "single_split"):
        return _run_single(config)
    if config.run_kind == "pair":
        return _run_pair(config)
    if config.run_kind == "entropy_sweep":
        return entropy_sweep(config)
    diagram = phase_diagram(config.grid_n, config.k_points)
    return RunArtifacts(config=config, phase=diagram)


# -- artifact files ----------------------------------------------------------------


_COLUMN_KINDS = {"i": (np.int64, "{}"), "f": (float, _FLOAT_FMT)}


def _write_table(path: Path, header: str, kinds: str, *columns) -> None:
    """Write a CSV file in one call: the header, then one line per row.

    kinds has one letter per column: "i" writes an integer, "f" a float in
    _FLOAT_FMT. Columns are equal-length array-likes.
    """
    line = (",".join(_COLUMN_KINDS[k][1] for k in kinds) + "\n").format
    values = [
        np.ravel(np.asarray(c, dtype=_COLUMN_KINDS[k][0])).tolist() for k, c in zip(kinds, columns)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + "".join(map(line, *values)))


def write_artifacts(artifacts: RunArtifacts, out_dir) -> list[Path]:
    """Write selected CSV artifacts plus manifest.json; returns the paths written.

    Data files are byte-stable for a fixed (config, master_seed); wall-clock
    metadata lives only in the manifest.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = artifacts.config
    selected = config.outputs  # None means every computed artifact
    written: list[Path] = []

    def wanted(name: str) -> bool:
        return selected is None or name in selected

    def table(name: str, header: str, kinds: str, *columns) -> None:
        path = out / name
        _write_table(path, header, kinds, *columns)
        written.append(path)

    def grid(axis1, axis2, *values) -> list:
        """Row-major columns over a 2-D grid: axis1 value, axis2 value, then each grid's value."""
        return [*np.meshgrid(axis1, axis2, indexing="ij"), *values]

    if artifacts.entropy is not None and wanted("entropy"):
        series = artifacts.entropy
        if artifacts.entropy_std is None:
            table("entropy.csv", "step,entropy_bits", "if", series.steps, series.entropy_bits)
        else:
            table(
                "entropy.csv", "step,entropy_bits,std", "iff",
                series.steps, series.entropy_bits, artifacts.entropy_std,
            )

    if artifacts.distributions and wanted("distribution"):
        for label, dist in sorted(artifacts.distributions.items()):
            name = "distribution.csv" if label == "walk" else f"distribution_{label}.csv"
            table(name, "x,probability", "if", artifacts.positions, dist)

    if artifacts.joint is not None and wanted("joint"):
        columns = grid(artifacts.positions, artifacts.positions, artifacts.joint)
        table("joint.csv", "i,j,probability", "iif", *columns)

    if artifacts.heatmap is not None and wanted("heatmap"):
        hm = artifacts.heatmap
        columns = grid(hm.axis1_values, hm.axis2_values, hm.values)
        table("heatmap.csv", "axis1,axis2,scalar", "fff", *columns)

    if artifacts.phase is not None and wanted("phase"):
        ph = artifacts.phase
        columns = grid(ph.theta1_values, ph.theta2_values, ph.winding, ph.gap)
        table("phase.csv", "theta1,theta2,winding,gap", "ffif", *columns)

    import datetime

    manifest = {
        "config": config_to_dict(config),
        "master_seed": config.master_seed,
        "package_version": __version__,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "files": [p.name for p in written],
    }
    if artifacts.heatmap is not None:
        manifest["heatmap_axes"] = list(artifacts.heatmap.axis_names)
        manifest["heatmap_scalar"] = artifacts.heatmap.scalar
    manifest_path = out / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    written.append(manifest_path)
    return written
