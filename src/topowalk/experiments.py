"""Reproducible experiment driver: validated run configs, seeded ensembles, artifacts.

A RunConfig describes one experiment (walk kind, angles, disorder, seeding,
sweep axes); run() executes it deterministically and write_artifacts() emits
CSV data files plus a manifest that suffices to re-run the experiment.
"""

from __future__ import annotations

import datetime
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import lru_cache, partial
from itertools import islice
from pathlib import Path
from types import MappingProxyType

import numpy as np

from ._version import __version__
from .errors import ConfigError, as_float, as_integer
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
    von_neumann_entropy,
)
from .topology import PhaseDiagram, phase_diagram
from .walk import (
    BoundarySpec,
    DisorderSpec,
    STRONG_HALF_WIDTH,
    WEAK_HALF_WIDTH,
    hadamard_coins,
    sample_angle_field,
    split_coins,
    trajectory,
)

ANGLES_WINDING_1 = (-np.pi / 2.0, np.pi / 4.0)
ANGLES_WINDING_0 = (-np.pi / 2.0, 3.0 * np.pi / 4.0)

# Run kind -> (the config fields it reads, the artifact kinds it writes, the walkers it steps under
# angle fields). Every other field keeps its RunConfig default, and the manifest writes only these.
_WALK = ("steps", "window", "master_seed", "outputs")
_PAIR_WALK = (*_WALK, "angles", "initial_state", "disorder")
RUN_KINDS = {
    "hadamard": ((*_WALK, "coin_amps"), ("entropy", "distribution"), ""),
    "single_split": (
        (*_WALK, "coin_amps", "angles", "disorder", "ensemble_size"), ("entropy", "distribution"), "a"
    ),
    "pair": ((*_PAIR_WALK, "ensemble_size"), ("entropy", "distribution", "joint"), "ab"),
    "entropy_sweep": ((*_PAIR_WALK, "sweep_grid", "sweep_scalar"), ("heatmap",), "ab"),
    "phase_diagram": (("master_seed", "outputs", "k_points", "grid_n"), ("phase",), ""),
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

# The data files write_artifacts writes: the only files a previous run's manifest has it remove.
_DATA_FILES = frozenset({"entropy.csv", "distribution.csv", "distribution_a.csv", "distribution_b.csv", "joint.csv",
                         "heatmap.csv", "phase.csv"})

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


@dataclass(frozen=True)
class RunConfig:
    run_kind: str = "hadamard"
    steps: int = 100
    window: int | None = None  # None means auto: steps + 1 + the largest |x| a walker starts at
    # Per-particle coin angles: (theta1, theta2) tuples, or BoundarySpec for
    # position-dependent two-phase walks. Walker b without an entry takes a's.
    angles: MappingProxyType = field(
        default_factory=lambda: {"a": ANGLES_WINDING_1, "b": ANGLES_WINDING_0}
    )
    initial_state: InitialPairState = field(default_factory=InitialPairState)
    coin_amps: tuple = (1.0 + 0.0j, 0.0j)  # single-walker runs
    disorder: DisorderSpec = field(default_factory=DisorderSpec)
    ensemble_size: int = 1
    master_seed: int = 0
    sweep_grid: tuple = ()  # (SweepAxis, SweepAxis)
    sweep_scalar: str = "final"
    outputs: tuple | None = None
    k_points: int = 1024
    grid_n: int = 64

    def __post_init__(self):
        # every field goes through its _FIELDS parser, however the config was built, and is stored
        # in its normalized, read-only form, so that written files always match the config that ran
        for name, (parse, _) in _FIELDS.items():
            try:
                object.__setattr__(self, name, parse(getattr(self, name), name))
            except (TypeError, ValueError, AttributeError, OverflowError) as exc:
                raise ConfigError(name, str(exc)) from None
        validate_config(self)  # so every RunConfig that exists is valid

    def __reduce__(self):  # a mappingproxy does not pickle, so pickle and deepcopy rebuild from a dict
        return partial(RunConfig, **{**vars(self), "angles": dict(self.angles)}), ()


@dataclass
class RunArtifacts:
    """The arrays a run computed, each once; write_artifacts takes the window's positions, the step
    column and the heatmap axes from the config."""

    config: RunConfig
    entropy: np.ndarray | None = None  # (steps + 1,) bits, the mean over replicates
    entropy_std: np.ndarray | None = None
    distribution: np.ndarray | None = None  # a single walker's P(x)
    joint: np.ndarray | None = None
    heatmap: np.ndarray | None = None  # (count1, count2) over config.sweep_grid
    phase: PhaseDiagram | None = None


def derive_seed(master_seed: int, *key: int) -> int:
    """Deterministic 64-bit child seed for a replicate or sweep cell."""
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in key))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


# -- config parsing and validation ------------------------------------------------


def _check_keys(value, field_name: str, required: tuple, optional: tuple = ()) -> None:
    """Check that value is a mapping with every required key and no key outside both sets."""
    if not isinstance(value, dict):
        raise ConfigError(field_name, f"expected a mapping, got {value!r}")
    missing = [key for key in required if key not in value]
    unknown = [key for key in value if key not in (*required, *optional)]
    if missing or unknown:
        raise ConfigError(field_name, f"missing keys {missing}, unknown keys {unknown}")


def _parse_angle_entry(value, field_name: str):
    if isinstance(value, BoundarySpec):  # a typed entry gets the checks of its mapping form
        value = _dump_angle_entry(value)
    if isinstance(value, dict):
        _check_keys(value, field_name, ("minus", "plus"))
        minus, plus = value["minus"], value["plus"]
        if len(minus) != 2 or len(plus) != 2:
            raise ConfigError(field_name, "boundary angle pairs must have 2 entries")
        return BoundarySpec(
            (as_float(minus[0], field_name), as_float(minus[1], field_name)),
            (as_float(plus[0], field_name), as_float(plus[1], field_name)),
        )
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return (as_float(value[0], field_name), as_float(value[1], field_name))
    raise ConfigError(field_name, f"expected [theta1, theta2] or minus/plus mapping, got {value!r}")


def _parse_disorder(value, field_name: str) -> DisorderSpec:
    if isinstance(value, DisorderSpec):
        return value
    if isinstance(value, dict) and "seed" in value:
        raise ConfigError(field_name, "disorder takes no seed: every random draw derives from master_seed")
    _check_keys(value, field_name, (), ("kind", "half_width", "target"))
    kind = value.get("kind", "none")
    target = value.get("target", "a")
    presets = {"weak": WEAK_HALF_WIDTH, "strong": STRONG_HALF_WIDTH}
    if kind not in presets:
        return DisorderSpec(kind, as_float(value.get("half_width", 0.0), f"{field_name}.half_width"), target)
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
    if not isinstance(positions, (list, tuple)):
        raise ConfigError(field_name, f"positions must be two integers, got {positions!r}")
    return InitialPairState(value.get("kind", "psi_plus"), tuple(positions))  # checks the two integers


def _parse_sweep_grid(value, field_name: str) -> tuple:
    axes = []
    for item in value:
        if isinstance(item, SweepAxis):  # a typed axis gets the checks of its mapping form
            item = _dump_axis(item)
        _check_keys(item, field_name, ("name", "min", "max", "count"))
        count = as_integer(item["count"], f"{field_name}.count")
        lo, hi = (as_float(item[key], f"{field_name}.{key}") for key in ("min", "max"))
        axes.append(SweepAxis(str(item["name"]), lo, hi, count))
    return tuple(axes)


def _parse_outputs(value, field_name: str) -> tuple | None:
    if isinstance(value, str):  # a string would be read one letter at a time
        raise ConfigError(field_name, f"expected a list of file kinds, got the string {value!r}")
    return value if value is None else tuple(str(x) for x in value)


def _parse_coin_amps(value, field_name: str) -> tuple:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        out = []
        for comp in value:
            if isinstance(comp, (list, tuple)) and len(comp) == 2:
                out.append(complex(as_float(comp[0], field_name), as_float(comp[1], field_name)))
            elif isinstance(comp, (complex, np.complexfloating)):
                out.append(complex(comp))
            else:
                out.append(complex(as_float(comp, field_name)))
        return (out[0], out[1])
    raise ConfigError(field_name, "coin_amps must be two components, each [re, im] or a number")


def _dump_angle_entry(entry):
    if isinstance(entry, BoundarySpec):
        return {"minus": list(entry.theta_minus), "plus": list(entry.theta_plus)}
    return [entry[0], entry[1]]


def _dump_axis(ax: SweepAxis) -> dict:
    return {"name": ax.name, "min": ax.lo, "max": ax.hi, "count": ax.count}


# Config field -> (parse(value, field name), dump(value)), in RunConfig's order:
# RunConfig parses every value it is built with, config_to_dict dumps them back.
_FIELDS = {
    "run_kind": (lambda v, f: RUN_KIND_ALIASES.get(str(v), str(v)), str),
    "steps": (as_integer, int),
    "window": (lambda v, f: None if v in (None, "auto") else as_integer(v, f), lambda w: w or "auto"),
    "angles": (
        lambda v, f: MappingProxyType({p: _parse_angle_entry(e, f"{f}.{p}") for p, e in v.items()}),
        lambda angles: {p: _dump_angle_entry(e) for p, e in angles.items()},
    ),
    "initial_state": (_parse_initial_state, lambda s: {"kind": s.kind, "positions": list(s.positions)}),
    "coin_amps": (_parse_coin_amps, lambda amps: [[c.real, c.imag] for c in amps]),
    "disorder": (_parse_disorder, asdict),
    "ensemble_size": (as_integer, int),
    "master_seed": (as_integer, int),
    "sweep_grid": (_parse_sweep_grid, lambda axes: [_dump_axis(ax) for ax in axes]),
    "sweep_scalar": (lambda v, f: str(v), str),
    "outputs": (_parse_outputs, lambda o: o if o is None else list(o)),
    "k_points": (as_integer, int),
    "grid_n": (as_integer, int),
}
# RunConfig's defaults, which validation compares against without building (and validating) one
_DEFAULTS = {f.name: f.default if f.default_factory is MISSING else f.default_factory() for f in fields(RunConfig)}


def config_from_dict(data: dict) -> RunConfig:
    """RunConfig(**data) for a JSON-style mapping whose keys are all config fields; the
    RunConfig parses and validates each value, as it does when built in Python."""
    for key in data:
        if key not in _FIELDS:
            raise ConfigError(key, "unknown config field")
    return RunConfig(**data)


def _read_config_file(path) -> dict:
    """The JSON object in a config file; a file that cannot be read or holds none is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError("config", f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError("config", f"{path} is not a UTF-8 JSON file: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config", "config file must hold a JSON object")
    return data


def load_config(path) -> RunConfig:
    return config_from_dict(_read_config_file(path))


def config_to_dict(config: RunConfig) -> dict:
    """JSON-able mapping of run_kind and the fields that kind reads; it
    round-trips through config_from_dict."""
    reads, _, walkers = RUN_KINDS[config.run_kind]
    data = {
        name: dump(getattr(config, name))
        for name, (_, dump) in _FIELDS.items()
        if name == "run_kind" or name in reads
    }
    if "angles" in data:  # the entries of the walkers the kind steps
        data["angles"] = {p: entry for p, entry in data["angles"].items() if p in walkers}
    return data


def validate_config(config: RunConfig) -> RunConfig:
    if config.run_kind not in RUN_KINDS:
        raise ConfigError("run_kind", f"must be one of {tuple(RUN_KINDS)}, got {config.run_kind!r}")
    reads, writes, walkers = RUN_KINDS[config.run_kind]
    for name in _FIELDS:
        # a value that the run kind would ignore is an error, not a silent no-op
        if name not in (*reads, "run_kind") and getattr(config, name) != _DEFAULTS[name]:
            raise ConfigError(name, f"{config.run_kind} runs do not read it; leave it out")
    for particle in [p for p in "ab" if p not in walkers]:  # nor may a value name a walker the kind does not step
        if config.angles.get(particle, _DEFAULTS["angles"][particle]) != _DEFAULTS["angles"][particle]:
            raise ConfigError(f"angles.{particle}", f"{config.run_kind} runs step no walker {particle}; leave it out")
        if config.disorder.target == particle and config.disorder.applies_to(particle):
            raise ConfigError("disorder", f"{config.run_kind} runs step no walker {particle} to target")
    minimums = {"steps": 0, "ensemble_size": 1, "master_seed": 0, "k_points": 64, "grid_n": 16}
    for name, least in minimums.items():
        if getattr(config, name) < least:
            raise ConfigError(name, f"must be >= {least}")
    if config.k_points % 2:
        raise ConfigError("k_points", "must be even; an odd k grid skips k = 0, where the gap can close")
    if config.window is not None and config.window < 1:
        raise ConfigError("window", "must be >= 1 (or auto)")
    # |c| * |c| in Python floats: a huge finite component overflows to inf, and numpy's square would warn
    if not abs(sum(abs(c) * abs(c) for c in config.coin_amps) - 1.0) <= NORM_TOL:
        raise ConfigError("coin_amps", "components must be finite and normalized")
    if config.sweep_scalar not in SWEEP_SCALARS:
        raise ConfigError("sweep_scalar", f"must be one of {SWEEP_SCALARS}")
    for particle, entry in config.angles.items():
        if particle not in ("a", "b"):
            raise ConfigError(f"angles.{particle}", "particles are 'a' and 'b'")
        # the parsed entry: a BoundarySpec or a (theta1, theta2) tuple, of floats either way
        values = (*entry.theta_minus, *entry.theta_plus) if isinstance(entry, BoundarySpec) else entry
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
            # in Python floats, so that a span too wide for a float is rejected without a warning
            if not math.isfinite(ax.hi - ax.lo):
                raise ConfigError("sweep_grid", f"axis {ax.name!r} bounds and their span must be finite")
            particle, _, side = SWEEP_PARAMETERS[ax.name]
            if side is not None and not isinstance(_particle_angles(config.angles, particle), BoundarySpec):
                message = f"axis {ax.name!r} needs boundary angles for particle {particle!r}"
                raise ConfigError("sweep_grid", message)
        # a side of None writes both sides of a boundary, so it shares an angle with either side
        (walker1, angle1, side1), (walker2, angle2, side2) = (SWEEP_PARAMETERS[ax.name] for ax in config.sweep_grid)
        if (walker1, angle1) == (walker2, angle2) and (side1 == side2 or None in (side1, side2)):
            names = [ax.name for ax in config.sweep_grid]
            raise ConfigError("sweep_grid", f"axes {names} write the same angle; one would overwrite the other")
    for name in config.outputs or ():
        if name not in writes:
            raise ConfigError("outputs", f"{config.run_kind} runs write {list(writes)}, not {name!r}")
    if "initial_state" in reads:  # pair walks
        half_width = _resolved_window(config).half_width
        if not all(abs(x) < half_width for x in config.initial_state.positions):
            raise ConfigError("initial_state", f"positions must satisfy |x| < {half_width}")
    if config.ensemble_size > 1 and not _draws(config):
        raise ConfigError("ensemble_size", "replicates need disorder that draws random angles")
    _check_array_sizes(config)
    return config


def _check_array_sizes(config: RunConfig) -> None:
    """Reject a config whose largest array would exceed MAX_ARRAY_ELEMENTS, naming its field."""
    size = _resolved_window(config).size
    # walker arrays grow with the window, and a joint distribution with its square
    sites = size * size if "joint" in RUN_KINDS[config.run_kind][1] else size
    # an auto window grows with the steps and with the farthest start; name the larger
    start = max(abs(x) for x in config.initial_state.positions)
    auto_field = "initial_state" if start > config.steps else "steps"
    counts = (
        (auto_field if config.window is None else "window", sites),
        ("steps", _coin_table_size(config)),
        ("ensemble_size", config.ensemble_size * (config.steps + 1)),  # the entropy series of every replicate
        ("sweep_grid", math.prod(ax.count for ax in config.sweep_grid)),
        # e^{ik} and a one-point chunk of U(k)'s two diagonal entries over every k, which only the points
        # with a coin below the column rule's floor take; the others take k = 0 and k = -pi
        ("k_points", 3 * config.k_points),
        ("grid_n", config.grid_n**2),
    )
    for name, count in counts:
        if not count <= MAX_ARRAY_ELEMENTS:
            raise ConfigError(name, f"needs a {count}-element array; the limit is {MAX_ARRAY_ELEMENTS}")


def _particles(config: RunConfig) -> str:
    """The walkers that step under angle fields, as RUN_KINDS names them for the config's kind."""
    return RUN_KINDS[config.run_kind][2]


def _draws(config: RunConfig) -> bool:
    """Whether the disorder draws random angles for a walker that steps under an angle field."""
    return any(config.disorder.applies_to(p) for p in _particles(config))


def _coin_table_size(config: RunConfig) -> int:
    """Elements of one cell's coin table: rows (-s, c, s) of 2 angles per walker, site and stored step.
    The table stores every step if a stepped walker draws, else at most one, broadcast over the walk."""
    stored = config.steps if _draws(config) else min(config.steps, 1)
    return 3 * 2 * len(_particles(config)) * _resolved_window(config).size * stored


# -- angle plumbing ---------------------------------------------------------------


def _particle_angles(angles: dict, particle: str):
    """One walker's angle entry: its own, else walker a's."""
    return angles.get(particle, angles["a"])


def _with_axis_value(angles: dict, name: str, value: float) -> dict:
    particle, component, side = SWEEP_PARAMETERS[name]
    entry = _particle_angles(angles, particle)
    updated = dict(angles)
    if isinstance(entry, BoundarySpec):
        minus = list(entry.theta_minus)
        plus = list(entry.theta_plus)
        if side in (None, "minus"):
            minus[component] = value
        if side in (None, "plus"):
            plus[component] = value
        updated[particle] = BoundarySpec((minus[0], minus[1]), (plus[0], plus[1]))
    else:  # a plain pair: validate_config admits only axes without a side
        pair = list(entry)
        pair[component] = value
        updated[particle] = (pair[0], pair[1])
    return updated


# -- run execution ----------------------------------------------------------------


def _resolved_window(config: RunConfig) -> LatticeWindow:
    """The config's window; auto leaves the edge sites empty, as support grows one site per step."""
    if config.window is not None:
        return LatticeWindow(config.window)
    return LatticeWindow(config.steps + 1 + max(abs(x) for x in config.initial_state.positions))


def _walk_chunks(config: RunConfig, cells, first_step: int = 0):
    """Step cells (angles, seed) in chunks; yield each chunk's coin entropies and final walkers.

    A cell is the run under its angles, with fields drawn from its seed (None if the walk draws
    nothing); each walker's field stores every step only if the disorder draws its angles. A
    chunk's cells step together on a trailing cell axis; it yields a (cell, step) entropy array
    from first_step on and the walker array after the chunk's last step: a single walker's
    (site, coin, cell) array, or a pair's (site, coin, start coin, cell, particle) array.
    Coins are built on the light cone of the start only. A chunk holds at most 32
    cells (more ran slower), fewer if their coin tables would exceed MAX_ARRAY_ELEMENTS. A Hadamard
    walk has no angles to sample. A pair's block of steps is reduced over the light cone of its
    last step only: the sites outside it hold zeros, and the sums keep their bits without them.
    """
    window = _resolved_window(config)
    particles = _particles(config)
    coefficients = coin_coefficients(config.initial_state)
    chunk_size = max(1, min(32, MAX_ARRAY_ELEMENTS // max(_coin_table_size(config), 1)))
    # a walker's field stores every step if the disorder draws its angles, else one, broadcast
    steps = [config.steps if config.disorder.applies_to(p) else min(config.steps, 1) for p in particles]
    cells = iter(cells)
    while chunk := list(islice(cells, chunk_size)):
        # each angle is copied in once, each field to a contiguous block (strided writes ran ~10x slower)
        fields = [np.empty((len(chunk), 2, window.size, n)) for n in steps]
        for c, (angles, seed) in enumerate(chunk):
            for p, particle in enumerate(particles):
                fields[p][c] = sample_angle_field(
                    _particle_angles(angles, particle), config.disorder, steps[p], window, particle, seed
                )
        field = [np.broadcast_to(f.transpose(1, 2, 3, 0), (2, window.size, config.steps, len(chunk))) for f in fields]
        if len(particles) == 2:
            blocks = iter_product_walkers(config.initial_state, window, field)
            left, right = (window.index(x) for x in sorted(config.initial_state.positions))

            def reduce(block, last):  # the light cone of step last; the step axis as one more cell axis
                sites = slice(max(left - last, 0), right + last + 1)
                return pair_coin_density_from_singles(block[:, sites].transpose(1, 2, 3, 0, 4, 5), coefficients)
        else:
            origin = window.index(0)
            coins = split_coins(field[0], (origin, origin)) if particles else hadamard_coins(window.size, config.steps)
            start = make_single_state(window, 0, config.coin_amps)[..., None]
            start = start if start.imag.any() else start.real  # a real start steps in float64
            blocks = trajectory(np.broadcast_to(start, (*start.shape[:2], len(chunk))), coins)

            def reduce(block, last):  # the whole window: matmul's sums change bits with their length
                rows = block.transpose(0, 3, 2, 1).astype(complex, copy=False)  # (step, cell, coin, site)
                return np.matmul(rows, rows.conj().transpose(0, 1, 3, 2))

        rhos, step = [], 0
        for block in blocks:
            if step + len(block) > first_step:
                rhos.append(reduce(block[max(first_step - step, 0) :], step + len(block) - 1))
            step += len(block)
        yield von_neumann_entropy(np.concatenate(rhos)).T.copy(), block[-1]  # a contiguous row per cell


def _run_replicates(config: RunConfig) -> RunArtifacts:
    """Mean coin entropy over replicates, with its spread, and the mean final observable."""
    draws = _draws(config)  # a walk that draws nothing needs no seed
    seeds = (derive_seed(config.master_seed, r) if draws else None for r in range(config.ensemble_size))
    cells = ((config.angles, seed) for seed in seeds)
    pair = len(_particles(config)) == 2
    coefficients = coin_coefficients(config.initial_state)
    series, total = [], None
    for entropies, walkers in _walk_chunks(config, cells):
        series.append(entropies)
        for c in range(len(entropies)):  # summed one replicate at a time, in replicate order
            if pair:
                final = joint_distribution_interference(walkers[..., c, :], coefficients)
            else:
                final = position_distribution(walkers[..., c])
            total = final if total is None else total + final
    series = np.concatenate(series)
    return RunArtifacts(
        config=config,
        entropy=series.mean(axis=0),
        entropy_std=series.std(axis=0) if len(series) > 1 else None,
        **{"joint" if pair else "distribution": total / config.ensemble_size},
    )


def _run_sweep(config: RunConfig) -> RunArtifacts:
    """Scalar pair coin entropy over a 2-axis angle grid.

    Cell (i, j) is replicate 0 of the pair run seeded with derive_seed(master_seed,
    i, j). "final" is its entropy after the last step; "longmean" the mean over
    the last 25% of steps.
    """
    ax1, ax2 = config.sweep_grid
    vals1, vals2 = ax1.values(), ax2.values()
    # walker a's axis goes in first: a walker b with no entry of its own then
    # follows a's cell angles, and a walker-b axis starts from them
    by_walker = lambda item: SWEEP_PARAMETERS[item[0]][0]

    draws = _draws(config)  # a walk that draws nothing needs no seed

    def cell(i: int, j: int) -> tuple:
        angles = config.angles
        for name, value in sorted([(ax1.name, vals1[i]), (ax2.name, vals2[j])], key=by_walker):
            angles = _with_axis_value(angles, name, float(value))
        return angles, derive_seed(derive_seed(config.master_seed, i, j), 0) if draws else None

    shape = (len(vals1), len(vals2))
    tail = 1 if config.sweep_scalar == "final" else max(1, config.steps // 4)
    cells = (cell(i, j) for i, j in np.ndindex(shape))
    scalars = (
        np.mean(series)  # each cell's own 1-D series, so the sum runs as for a lone cell
        for entropies, _ in _walk_chunks(config, cells, config.steps + 1 - tail)
        for series in entropies
    )
    grid = np.fromiter(scalars, dtype=float, count=math.prod(shape)).reshape(shape)
    return RunArtifacts(config=config, heatmap=grid)


def run(config: RunConfig) -> RunArtifacts:
    """Execute any run kind; artifacts are deterministic in (config, master_seed)."""
    if config.run_kind == "entropy_sweep":
        return _run_sweep(config)
    if config.run_kind == "phase_diagram":
        return RunArtifacts(config=config, phase=phase_diagram(config.grid_n, config.k_points))
    return _run_replicates(config)


# -- artifact files ----------------------------------------------------------------


# A float cell is "%.16e" % v. For a normal nonzero v its 17 digits are N = round(|v| * 10^p),
# p = 16 - floor(log10|v|), which _decimal_digits forms as a double-double product and proves
# unless v is subnormal, nan or inf, the product lies within 1e-6 of a half-integer, or N is
# outside (10^16, 10^17): a misjudged decade (N = 10^16 may come from the decade below). A zero
# is proven as N = 0, k = 0. "%" formats every cell it does not prove.
_POW10_RANGE = (-310, 345)  # covers p = 16 - k for every normal double, k in [-308, 308]
_FLOAT_WIDTH = 24  # "-d.dddddddddddddddde+ddd"
_TABLE_BLOCK_ROWS = 2**14  # rows formatted per pass: a block's temporaries stay in cache


@lru_cache(maxsize=1)
def _pow10_table() -> tuple:
    """(hi, lo, E) arrays over p in _POW10_RANGE, (hi + lo) * 2^E = 10^p with hi in [1, 2): integer
    true division rounds correctly, so hi is 10^p / 2^E rounded and lo the rounded remainder."""
    rows = []
    for p in range(_POW10_RANGE[0], _POW10_RANGE[1] + 1):
        e = (10**p).bit_length() - 1 if p >= 0 else -(10**-p - 1).bit_length()  # 2^e <= 10^p < 2^(e+1)
        num, den = 10 ** max(p, 0) << max(-e, 0), 10 ** max(-p, 0) << max(e, 0)
        hi = num / den
        rows.append((hi, (num * 2**52 - int(hi * 2**52) * den) / (den * 2**52), e))
    hi, lo, e = zip(*rows)
    return np.array(hi), np.array(lo), np.array(e, np.int32)  # an int64 exponent sends ldexp down a slow loop


def _veltkamp(x: np.ndarray) -> tuple:
    """x = hi + lo with 26-bit hi, so that products of the halves are exact."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _decimal_digits(values: np.ndarray) -> tuple:
    """(N, k, proven) per value: where proven is set, "%.16e" % v is sign(v) times the
    17 digits of N times 10^(k - 16)."""
    hi_table, lo_table, exp_table = _pow10_table()
    mag = np.abs(values)
    proven = np.isfinite(mag) & (mag >= 2.2250738585072014e-308)  # the least normal double
    mag[~proven] = 1.0
    k = np.floor(np.log10(mag)).astype(np.int64)
    index = 16 - k - _POW10_RANGE[0]
    a = np.ldexp(mag, exp_table.take(index))  # |v| * 10^p = a * (hi + lo)
    hi, lo = hi_table.take(index), lo_table.take(index)
    (a_hi, a_lo), (h_hi, h_lo), product = _veltkamp(a), _veltkamp(hi), a * hi
    # a * (hi + lo) - fl(a * hi), with Dekker's exact product for a * hi
    tail = (((a_hi * h_hi - product) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo) + a * lo
    proven &= np.abs(tail - np.floor(tail) - 0.5) >= 1e-6
    digits = product.astype(np.int64) + np.rint(tail).astype(np.int64)  # fl(a * hi) >= 2^53 is whole
    proven &= (digits > 10**16) & (digits < 10**17)
    zero = values == 0  # k is already 0, from the stand-in magnitude 1.0
    digits[zero] = 0
    return digits, k, proven | zero


def _divmod(x: np.ndarray, d: int) -> tuple:
    """np.divmod(x, d) from one floor division, which takes numpy's faster loop."""
    q = x // d
    return q, x - q * d


@lru_cache(maxsize=1)
def _digit_words() -> np.ndarray:
    """uint32 views of the 4 bytes of "%04d" % g for g in [0, 10^4), then of "%4d" % g with NULs
    for spaces, then one all-NUL word."""
    place = 10 ** np.arange(3, -1, -1, dtype=np.uint16)  # int64 temporaries raised the peak RSS
    g = np.arange(10**4, dtype=np.uint16)[:, None]
    words = np.zeros((2 * 10**4 + 1, 4), np.uint8)
    words[: 10**4] = g // place % 10 + 48
    words[10**4 : -1] = np.where((g >= place) | (place == 1), words[: 10**4], 0)
    words = words.view(np.uint32).ravel()
    words.setflags(write=False)
    return words


@lru_cache(maxsize=1)
def _exponent_words() -> np.ndarray:
    """uint32 views of the 4 exponent bytes of "%.16e", "%+03d" % k for k in [-308, 308], with a
    NUL after the sign for the hundreds digit that |k| < 100 lacks."""
    text = ("%+03d" % k for k in range(-308, 309))
    words = np.array([(t[0] + t[1:].rjust(3, "\0")).encode() for t in text], dtype="S4").view(np.uint32)
    words.setflags(write=False)
    return words


def _float_cells(values: np.ndarray, cells: np.ndarray) -> None:
    """Write "%.16e" % v for each value into the NUL-padded rows of cells, whose first
    byte holds the sign."""
    digits, k, proven = _decimal_digits(values)
    high, low = (part.astype(np.int32) for part in _divmod(digits, 10**8))  # int32 divides faster
    lead, high = _divmod(high, 10**8)
    cells[:, 1] = lead + 48
    # the 16 digits after the point, one 4-digit group at a time (a stacked index array raised the
    # peak resident memory), each group's word stored into its 4 bytes at once through a uint32 view
    for start, group in zip(range(3, 19, 4), (*_divmod(high, 10**4), *_divmod(low, 10**4))):
        cells[:, start : start + 4].view(np.uint32)[:, 0] = _digit_words().take(group)
    cells[:, 2], cells[:, 19] = 46, 101  # ".", "e"
    cells[:, 20:24].view(np.uint32)[:, 0] = _exponent_words().take(k + 308)
    slow = np.flatnonzero(~proven)
    text = np.array(["%.16e" % v for v in values[slow].tolist()], dtype=f"S{_FLOAT_WIDTH}")
    cells[slow] = text.view(np.uint8).reshape(slow.size, _FLOAT_WIDTH)


def _int_cells(values: np.ndarray, cells: np.ndarray) -> None:
    """Write str(v) for each value into the NUL-padded rows of cells, after their sign byte."""
    part = np.abs(values).astype(np.uint64)  # exact for the int64 minimum too
    width = cells.shape[1] - 1
    if width <= 4:  # one NUL-padded digit group, as in every int column the program writes
        words = _digit_words().take(part + 10**4)
    else:
        words = np.empty((values.size, -(-width // 4)), np.uint32)
        for group in range(words.shape[1]):  # last 4 digits first
            index = np.where(part < 10**4, part + 10**4, part % 10**4)  # the leading group is NUL-padded
            if group:
                index[part == 0] = 2 * 10**4  # above the top digit: all NUL
            words[:, -1 - group] = _digit_words().take(index)
            part = part // 10**4
    if width == 3:  # a sign and 3 digits, as in every int column the figures write: one 4-byte word
        cells.view(np.uint32)[:, 0] |= words  # whose leading NUL keeps the sign byte
    else:
        cells[:, 1:] = words.view(np.uint8).reshape(values.size, -1)[:, -width:]


def _write_table(path: Path, header: str, kinds: str, *columns) -> None:
    """Write a CSV file: the header, then one line per row.

    kinds has one letter per column: "i" writes str(v) of an integer, "f" writes
    "%.16e" % v of a float. Columns are equal-length array-likes. Rows go to the file in
    blocks: each cell of a block fills a NUL-padded slot of one uint8 matrix, followed by its
    "," or "\n", and the block's bytes are written with every NUL deleted by bytes.translate,
    so lines end in "\n" on every platform.
    """
    arrays = [np.ravel(np.asarray(c, dtype=float if k == "f" else np.int64)) for k, c in zip(kinds, columns)]
    if len({a.size for a in arrays}) > 1:
        raise ValueError(f"table columns differ in length: {[a.size for a in arrays]}")
    widths = [
        _FLOAT_WIDTH if k == "f" else 1 + len(str(max(-int(a.min(initial=0)), int(a.max(initial=0)))))
        for k, a in zip(kinds, arrays)
    ]
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for first in range(0, arrays[0].size, _TABLE_BLOCK_ROWS):
            block = [a[first : first + _TABLE_BLOCK_ROWS] for a in arrays]
            table = np.zeros((block[0].size, sum(widths) + len(widths)), dtype=np.uint8)
            start = 0
            for kind, values, width in zip(kinds, block, widths):
                table[:, start] = np.signbit(values).view(np.uint8) * 45  # the sign: "-" or NUL; -0.0 has "-"
                (_float_cells if kind == "f" else _int_cells)(values, table[:, start : start + width])
                table[:, start + width] = 44  # ","
                start += width + 1
            table[:, -1] = 10  # "\n" in place of the last ","
            fh.write(table.tobytes().translate(None, b"\0"))


def write_artifacts(artifacts: RunArtifacts, out_dir) -> list[Path]:
    """Write selected CSV artifacts plus manifest.json; returns the paths written, manifest last.

    Data files are byte-stable for a fixed (config, master_seed); wall-clock
    metadata lives only in the manifest. The x, i and j columns are the positions of
    the config's window. A run owns out_dir: a previous run's files
    are removed, and the manifest is written last, so a failed write leaves none.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    try:  # a previous run's manifest goes first, then the data files it lists
        listed = {str(name) for name in json.loads(manifest_path.read_bytes())["files"]}
    except (FileNotFoundError, ValueError, TypeError, KeyError):  # none, or not a list of files: none listed
        listed = set()
    manifest_path.unlink(missing_ok=True)
    for name in listed & _DATA_FILES:  # this writer's names only: an edited manifest removes no other file
        (out / name).unlink(missing_ok=True)
    config = artifacts.config
    selected = config.outputs  # None means every computed artifact
    positions = _resolved_window(config).positions()
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
        columns = [np.arange(artifacts.entropy.size), artifacts.entropy]
        if artifacts.entropy_std is None:
            table("entropy.csv", "step,entropy_bits", "if", *columns)
        else:
            table("entropy.csv", "step,entropy_bits,std", "iff", *columns, artifacts.entropy_std)

    if wanted("distribution"):
        if artifacts.distribution is not None:
            table("distribution.csv", "x,probability", "if", positions, artifacts.distribution)
        if artifacts.joint is not None:  # each particle's marginal
            for name, axis in (("distribution_a.csv", 1), ("distribution_b.csv", 0)):
                table(name, "x,probability", "if", positions, artifacts.joint.sum(axis=axis))

    if artifacts.joint is not None and wanted("joint"):
        columns = grid(positions, positions, artifacts.joint)
        table("joint.csv", "i,j,probability", "iif", *columns)

    if artifacts.heatmap is not None and wanted("heatmap"):
        columns = grid(*(ax.values() for ax in config.sweep_grid), artifacts.heatmap)
        table("heatmap.csv", "axis1,axis2,scalar", "fff", *columns)

    if artifacts.phase is not None and wanted("phase"):
        ph = artifacts.phase
        columns = grid(ph.thetas, ph.thetas, ph.winding, ph.gap)
        table("phase.csv", "theta1,theta2,winding,gap", "ffif", *columns)

    manifest = {
        "config": config_to_dict(config),
        "package_version": __version__,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "files": [p.name for p in written],
    }
    partial = out / "manifest.json.tmp"
    partial.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    partial.replace(manifest_path)
    written.append(manifest_path)
    return written
