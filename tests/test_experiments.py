import copy
import hashlib
import importlib.util
import json
import os
import pickle
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from itertools import chain
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from topowalk import (
    BoundarySpec,
    ConfigError,
    DisorderSpec,
    InitialPairState,
    LatticeWindow,
    RunConfig,
    SweepAxis,
    WindowOverflowError,
    config_from_dict,
    config_to_dict,
    coin_coefficients,
    derive_seed,
    hadamard_coins,
    iter_product_walkers,
    joint_distribution_interference,
    load_config,
    make_single_state,
    pair_coin_density_from_singles,
    position_distribution,
    run,
    sample_angle_field,
    split_coins,
    trajectory,
    von_neumann_entropy,
    write_artifacts,
)
from topowalk import experiments, walk
from topowalk.experiments import (
    ANGLES_WINDING_0,
    ANGLES_WINDING_1,
    MAX_ARRAY_ELEMENTS,
    RUN_KINDS,
    _TABLE_BLOCK_ROWS,
    _decimal_digits,
    _digit_words,
    _exponent_words,
    _particle_angles,
    _particles,
    _pow10_table,
    _resolved_window,
    _with_axis_value,
    _write_table,
)
from oracles import (
    dense_hadamard_unitary,
    dense_split_unitary,
    evolve_pair,
    joint_distribution_direct,
    make_pair_state,
    reduce_pair_to_coin,
    reduce_to_coin,
)

PI = np.pi
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# A small valid config of each run kind, holding only fields that kind reads.
KIND_BASES = {
    "hadamard": {"run_kind": "hadamard", "steps": 10, "master_seed": 7},
    "single_split": {
        "run_kind": "single_split", "steps": 10, "angles": {"a": [-PI / 2, PI / 4]}, "master_seed": 7,
    },
    "pair": {
        "run_kind": "pair",
        "steps": 10,
        "angles": {"a": [-PI / 2, PI / 4], "b": [-PI / 2, 3 * PI / 4]},
        "initial_state": {"kind": "psi+"},
        "master_seed": 7,
    },
    "entropy_sweep": {
        "run_kind": "entropy_sweep",
        "steps": 4,
        "angles": {"a": [-PI / 2, PI / 4], "b": [-PI / 2, 3 * PI / 4]},
        "initial_state": {"kind": "psi+"},
        "master_seed": 7,
        "sweep_grid": [
            {"name": "theta1a", "min": 0, "max": 1, "count": 2},
            {"name": "theta2a", "min": 0, "max": 1, "count": 2},
        ],
    },
    "phase_diagram": {"run_kind": "phase_diagram", "grid_n": 16, "k_points": 64, "master_seed": 7},
}


def _bench_configs() -> list:
    """(label, config mapping) of every experiment of the benchmark's workloads, at seed 1."""
    path = CONFIG_DIR.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclass reads its module's namespace
    spec.loader.exec_module(workloads)
    return [
        (f"{name}-{label}", data)
        for name in workloads.WORKLOADS
        for label, data in workloads.make(name, 1).experiments.items()
    ]


# every figure config and every benchmark config, as a mapping
ONE_PATH_CONFIGS = [
    *((path.stem, json.loads(path.read_text())) for path in sorted(CONFIG_DIR.glob("*.json"))),
    *_bench_configs(),
]


def minimal_dict(kind, **overrides):
    return {**copy.deepcopy(KIND_BASES[kind]), **overrides}


def minimal_pair_dict(**overrides):
    return minimal_dict("pair", **overrides)


def sweep_axes(*names):
    """A sweep_grid of two-point axes over [0, 1] with the given names."""
    return [{"name": name, "min": 0, "max": 1, "count": 2} for name in names]


# config_to_dict(RunConfig()) as manifests wrote it before each run kind named
# the fields it reads: all 14 fields, the unread ones at their defaults.
EVERY_FIELD_AT_DEFAULT = {
    "run_kind": "hadamard",
    "steps": 100,
    "window": "auto",
    "angles": {"a": [-PI / 2, PI / 4], "b": [-PI / 2, 3 * PI / 4]},
    "initial_state": {"kind": "psi_plus", "positions": [0, 0]},
    "coin_amps": [[1.0, 0.0], [0.0, 0.0]],
    "disorder": {"kind": "none", "half_width": 0.0, "target": "a"},
    "ensemble_size": 1,
    "master_seed": 0,
    "sweep_grid": [],
    "sweep_scalar": "final",
    "outputs": None,
    "k_points": 1024,
    "grid_n": 64,
}


class TestConfigParsing:
    def test_minimal_round_trip(self):
        cfg = config_from_dict(minimal_pair_dict())
        again = config_from_dict(config_to_dict(cfg))
        assert config_to_dict(cfg) == config_to_dict(again)

    def test_unknown_field_names_the_field(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict({"run_kind": "hadamard", "stepz": 3})
        assert err.value.field == "stepz"

    def test_boundary_angles_parse(self):
        data = minimal_pair_dict(
            angles={"a": {"minus": [-PI / 2, PI / 4], "plus": [-PI / 2, 3 * PI / 4]}},
        )
        cfg = config_from_dict(data)
        assert isinstance(cfg.angles["a"], BoundarySpec)

    def test_disorder_presets(self):
        cfg = config_from_dict(
            minimal_pair_dict(disorder={"kind": "weak", "target": "a"})
        )
        assert cfg.disorder.kind == "uniform"
        assert_allclose(cfg.disorder.half_width, 0.1 * PI)
        cfg = config_from_dict(minimal_pair_dict(disorder={"kind": "strong"}))
        assert_allclose(cfg.disorder.half_width, 2 * PI)

    @pytest.mark.parametrize(
        "patch,field",
        [
            ({"run_kind": "bogus"}, "run_kind"),
            ({"steps": -1}, "steps"),
            ({"ensemble_size": 0}, "ensemble_size"),
            ({"window": 0}, "window"),
            ({"run_kind": "entropy_sweep", "sweep_scalar": "median"}, "sweep_scalar"),
            ({"run_kind": "phase_diagram", "k_points": 32}, "k_points"),
            ({"run_kind": "phase_diagram", "grid_n": 4}, "grid_n"),
            ({"outputs": ["entropy", "plots"]}, "outputs"),
            ({"disorder": {"kind": "gaussian"}}, "disorder"),
            ({"initial_state": {"kind": "bell"}}, "initial_state"),
            ({"angles": {"c": [0, 0]}}, "angles.c"),
            ({"angles": {"a": [float("nan"), PI / 4], "b": [0, 0]}}, "angles.a"),
            ({"angles": {"a": [0, 0], "b": [0, float("inf")]}}, "angles.b"),
            ({"angles": {"a": {"minus": [0, 0], "plus": [float("-inf"), 0]}}}, "angles.a"),
            ({"disorder": {"kind": "uniform", "half_width": float("nan")}}, "disorder"),
            ({"disorder": {"kind": "uniform", "half_width": float("inf")}}, "disorder"),
            # a disorder that draws no angles disorders no walker, so it names none
            ({"disorder": {"kind": "none", "target": "b"}}, "disorder"),
            ({"disorder": {"kind": "uniform", "half_width": 0.0, "target": "both"}}, "disorder"),
            ({"run_kind": "hadamard", "coin_amps": [float("nan"), 0]}, "coin_amps"),
            # finite, but its square overflows: the check must not warn (pytest makes warnings errors)
            ({"run_kind": "hadamard", "coin_amps": [[1e308, 1e308], 0]}, "coin_amps"),
            ({"run_kind": "hadamard", "coin_amps": [1, 1]}, "coin_amps"),
            ({"window": 11, "initial_state": {"kind": "psi+", "positions": [11, 0]}}, "initial_state"),
            ({"master_seed": -3}, "master_seed"),
            (
                {
                    "run_kind": "entropy_sweep",
                    "sweep_grid": [
                        {"name": "theta1a", "min": float("nan"), "max": 1, "count": 2},
                        {"name": "theta2a", "min": 0, "max": 1, "count": 2},
                    ],
                },
                "sweep_grid",
            ),
            # finite bounds whose span overflows a float: rejected before np.linspace warns
            (
                {
                    "run_kind": "entropy_sweep",
                    "sweep_grid": [
                        {"name": "theta1a", "min": -1e308, "max": 1e308, "count": 3},
                        {"name": "theta2a", "min": 0, "max": 1, "count": 2},
                    ],
                },
                "sweep_grid",
            ),
            ({"steps": float("inf")}, "steps"),
            ({"window": float("inf")}, "window"),
            (
                {
                    "run_kind": "entropy_sweep",
                    "sweep_grid": [
                        {"name": "theta1a", "min": 0, "max": 1, "count": float("inf")},
                        {"name": "theta2a", "min": 0, "max": 1, "count": 2},
                    ],
                },
                "sweep_grid",
            ),
            ({"initial_state": {"kind": "psi+", "positions": [float("inf"), 0]}}, "initial_state"),
            ({"ensemble_size": float("inf")}, "ensemble_size"),
            ({"run_kind": "phase_diagram", "k_points": float("inf")}, "k_points"),
            ({"run_kind": "phase_diagram", "grid_n": float("inf")}, "grid_n"),
            # arrays over MAX_ARRAY_ELEMENTS
            ({"steps": 10**11}, "steps"),
            ({"window": 10**11}, "window"),
            ({"window": 5000}, "window"),  # the pair joint distribution has 10001**2 entries
            # every replicate's entropy series of 101 steps: 101,000,000 floats
            ({"steps": 100, "ensemble_size": 10**6, "disorder": {"kind": "weak"}}, "ensemble_size"),
            ({"run_kind": "single_split", "steps": 100, "ensemble_size": 10**6, "disorder": {"kind": "weak"}},
             "ensemble_size"),
            ({"run_kind": "phase_diagram", "k_points": 10**30}, "k_points"),
            ({"run_kind": "phase_diagram", "grid_n": 10**9}, "grid_n"),
            (
                {
                    "run_kind": "entropy_sweep",
                    "sweep_grid": [
                        {"name": "theta1a", "min": 0, "max": 1, "count": 10**9},
                        {"name": "theta2a", "min": 0, "max": 1, "count": 2},
                    ],
                },
                "sweep_grid",
            ),
            # values the run kind would ignore
            ({"run_kind": "hadamard", "disorder": {"kind": "strong"}}, "disorder"),
            ({"run_kind": "phase_diagram", "disorder": {"kind": "weak"}}, "disorder"),
            # values for a walker the run kind does not step
            ({"run_kind": "single_split", "disorder": {"kind": "weak", "target": "b"}}, "disorder"),
            ({"run_kind": "single_split", "disorder": {"kind": "uniform", "half_width": 0.5, "target": "b"}},
             "disorder"),
            ({"run_kind": "phase_diagram", "ensemble_size": 2}, "ensemble_size"),
            (
                {
                    "run_kind": "entropy_sweep",
                    "ensemble_size": 5,
                    "sweep_grid": [
                        {"name": "theta1a", "min": 0, "max": 1, "count": 2},
                        {"name": "theta2a", "min": 0, "max": 1, "count": 2},
                    ],
                },
                "ensemble_size",
            ),
            # replicates of a run with no random angles are all the same walk
            ({"ensemble_size": 3}, "ensemble_size"),
            ({"run_kind": "hadamard", "ensemble_size": 3}, "ensemble_size"),
            ({"run_kind": "single_split", "ensemble_size": 2}, "ensemble_size"),
            (
                {"ensemble_size": 2, "disorder": {"kind": "uniform", "half_width": 0.0}},
                "ensemble_size",
            ),
            # the walk of a sweep cell follows from the angles alone
            ({"run_kind": "entropy_sweep", "sweep_kind": "tptbw"}, "sweep_kind"),
            # a pair walk needs walker a's angles, which walker b falls back to
            ({"angles": {"b": [0, 0]}}, "angles.a"),
            # integer fields take only integers
            ({"steps": 5.9}, "steps"),
            ({"steps": True}, "steps"),
            ({"steps": "5"}, "steps"),
            ({"window": 12.5}, "window"),
            ({"master_seed": False}, "master_seed"),
            ({"run_kind": "phase_diagram", "grid_n": 16.5}, "grid_n"),
            (
                {
                    "run_kind": "entropy_sweep",
                    "sweep_grid": [
                        {"name": "theta1a", "min": 0, "max": 1, "count": 2.5},
                        {"name": "theta2a", "min": 0, "max": 1, "count": 2},
                    ],
                },
                "sweep_grid",
            ),
            ({"initial_state": {"kind": "psi+", "positions": [1.5, 0]}}, "initial_state"),
            ({"initial_state": {"kind": "psi+", "positions": [True, 0]}}, "initial_state"),
            ({"initial_state": {"kind": "psi+", "positions": [0, 0, 1]}}, "initial_state"),
            # nested mappings take only the keys they read
            ({"disorder": {"kind": "weak", "targt": "b", "half_width": 2.0}}, "disorder"),
            ({"disorder": {"kind": "weak", "targt": "b"}}, "disorder"),
            ({"disorder": {"kind": "weak", "half_width": 2.0}}, "disorder"),
            ({"disorder": {"kind": "none", "half_width": 0.7}}, "disorder"),
            ({"initial_state": {"position": [1, 1]}}, "initial_state"),
            (
                {"run_kind": "single_split", "angles": {"a": {"minus": [0, 0], "plus": [1, 1], "zero": [2, 2]}}},
                "angles.a",
            ),
            (
                {
                    "run_kind": "entropy_sweep",
                    "sweep_grid": [
                        {"name": "theta1a", "min": 0, "max": 1, "count": 2, "side": "plus"},
                        {"name": "theta2a", "min": 0, "max": 1, "count": 2},
                    ],
                },
                "sweep_grid",
            ),
            # fields that the run kind does not read
            ({"coin_amps": [0, 1]}, "coin_amps"),
            ({"sweep_scalar": "longmean"}, "sweep_scalar"),
            ({"outputs": ["heatmap"]}, "outputs"),
            ({"run_kind": "tptpw", "outputs": ["heatmap"]}, "outputs"),
            ({"run_kind": "hadamard", "angles": {"a": [0.1, 0.2]}}, "angles"),
            ({"run_kind": "hadamard", "outputs": ["joint"]}, "outputs"),
            ({"run_kind": "single_split", "initial_state": "psi-"}, "initial_state"),
            ({"run_kind": "entropy_sweep", "ensemble_size": 1, "k_points": 99}, "k_points"),
            ({"run_kind": "phase_diagram", "steps": 5}, "steps"),
            ({"run_kind": "phase_diagram", "window": 12}, "window"),
            ({"run_kind": "single_split", "angles": {"a": [0.1, 0.2], "b": [0.3, 0.4]}}, "angles.b"),
            ({"run_kind": "single_split", "angles": {"a": [0.1, 0.2], "b": {"minus": [0.3, 0.4], "plus": [0, 0]}}},
             "angles.b"),
            # an odd k grid skips k = 0, where the gap closes on theta1 = -theta2
            ({"run_kind": "phase_diagram", "k_points": 65}, "k_points"),
            ({"run_kind": "phase_diagram", "k_points": 1023}, "k_points"),
            # the auto window grows with the farthest start, which oversizes the joint distribution
            ({"initial_state": {"kind": "psi+", "positions": [0, -(10**6)]}}, "initial_state"),
            # a sweep axis with a side needs boundary angles, checked before the run
            ({"run_kind": "entropy_sweep", "sweep_grid": sweep_axes("theta1a", "theta2b_minus")}, "sweep_grid"),
            # two axes that write the same angle: the one applied first would do nothing
            ({"run_kind": "entropy_sweep", "sweep_grid": sweep_axes("theta1a", "theta1a")}, "sweep_grid"),
            *(
                (
                    {
                        "run_kind": "entropy_sweep",
                        "angles": {"a": {"minus": [0, 1], "plus": [2, 3]}},
                        "sweep_grid": sweep_axes(*names),
                    },
                    "sweep_grid",
                )
                for names in (("theta1a_minus", "theta1a"), ("theta2a_plus", "theta2a_plus"))
            ),
        ],
    )
    def test_validation_errors_name_the_field(self, patch, field):
        # the base of the patch's run kind; a bogus kind or an alias takes the pair base
        base = patch.get("run_kind") if patch.get("run_kind") in KIND_BASES else "pair"
        with pytest.raises(ConfigError) as err:
            config_from_dict(minimal_dict(base, **patch))
        assert err.value.field == field

    @pytest.mark.parametrize(
        "base, patch, field, name",
        [
            ("hadamard", {"coin_amps": ["1", 0]}, "coin_amps", "coin_amps"),
            ("hadamard", {"coin_amps": [[1, "0"], 0]}, "coin_amps", "coin_amps"),
            ("hadamard", {"coin_amps": [True, 0]}, "coin_amps", "coin_amps"),
            ("pair", {"disorder": {"kind": "uniform", "half_width": "0.5"}}, "disorder", "disorder.half_width"),
            ("pair", {"disorder": {"kind": "uniform", "half_width": True}}, "disorder", "disorder.half_width"),
            ("pair", {"angles": {"a": ["0.1", "0.2"]}}, "angles", "angles.a"),
            ("pair", {"angles": {"a": {"minus": [0, False], "plus": [0, 0]}}}, "angles", "angles.a"),
            (
                "entropy_sweep",
                {"sweep_grid": [{"name": "theta1a", "min": "0", "max": 1, "count": 2}, *sweep_axes("theta2a")]},
                "sweep_grid",
                "sweep_grid.min",
            ),
        ],
    )
    def test_float_values_reject_strings_and_bools(self, base, patch, field, name):
        # the integer fields' rule: a number written as text, or a bool, is not a number
        with pytest.raises(ConfigError) as err:
            config_from_dict(minimal_dict(base, **patch))
        assert err.value.field == field
        assert f"{name} must be a number" in err.value.message

    def test_coin_table_over_the_limit_names_steps(self):
        # a disordered pair run's coin table holds 12 values per (site, step): rows (-s, c, s)
        # of 2 angles of 2 walkers; here 12 * 4001 * 1500 entries pass the limit
        weak = {"kind": "weak", "target": "a"}
        config_from_dict(minimal_pair_dict(steps=1300, window=2000, disorder=weak))
        with pytest.raises(ConfigError) as err:
            config_from_dict(minimal_pair_dict(steps=1500, window=2000, disorder=weak))
        assert err.value.field == "steps"

    @pytest.mark.parametrize("steps", [2000, 3000])
    def test_clean_coin_table_counts_one_stored_step(self, steps):
        # no walker draws, so the coin table stores one step, and a clean run is bound by its joint
        # distribution alone: at 3,000 steps the auto window's (6003, 6003) one fits the limit
        config = config_from_dict(minimal_pair_dict(steps=steps))
        assert experiments._coin_table_size(config) == 12 * (2 * steps + 3)
        with pytest.raises(ConfigError) as err:
            config_from_dict(minimal_pair_dict(steps=steps, disorder={"kind": "weak", "target": "a"}))
        assert err.value.field == "steps"

    def test_hadamard_runs_count_no_coin_table(self):
        # a Hadamard walk steps one (8003, 2, 1) walker and builds no coin table
        config = config_from_dict({"run_kind": "hadamard", "steps": 4000})
        assert experiments._coin_table_size(config) == 0
        # a disordered single walker's table at 4,000 steps would pass the limit, so that config is shorter
        single = config_from_dict({"run_kind": "single_split", "steps": 1000, "disorder": {"kind": "weak"}})
        assert experiments._coin_table_size(single) == 3 * 2 * 2003 * 1000
        # a clean single walker stores one step at any length, and a walk of no steps none
        for steps, stored in ((4000, 1), (0, 0)):
            clean = config_from_dict({"run_kind": "single_split", "steps": steps})
            assert experiments._coin_table_size(clean) == 3 * 2 * (2 * steps + 3) * stored

    @pytest.mark.parametrize("field, value", [("angles", "x"), ("angles", 5), ("sweep_grid", 5), ("outputs", 5)])
    def test_malformed_containers_name_the_field(self, field, value):
        # a RunConfig built in Python, not parsed from a mapping
        with pytest.raises(ConfigError) as err:
            RunConfig(**{field: value})
        assert err.value.field == field

    def test_a_config_built_in_python_is_validated(self):
        # every RunConfig validates itself, a copy with replaced fields included
        with pytest.raises(ConfigError) as err:
            RunConfig(steps=-1)
        assert err.value.field == "steps"
        with pytest.raises(ConfigError) as err:
            replace(RunConfig(), run_kind="phase_diagram", k_points=65)
        assert err.value.field == "k_points"

    def test_a_parsed_config_is_validated_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "validate_config", lambda config: calls.append(config))
        config = config_from_dict({"run_kind": "hadamard", "steps": 3})
        run(config)
        assert calls == [config]

    @pytest.mark.parametrize("name, data", ONE_PATH_CONFIGS, ids=[name for name, _ in ONE_PATH_CONFIGS])
    def test_a_python_built_config_equals_the_parsed_one(self, name, data):
        built = RunConfig(**copy.deepcopy(data))
        parsed = config_from_dict(data)
        assert built == parsed
        assert config_to_dict(built) == config_to_dict(parsed)

    @pytest.mark.parametrize(
        "kwargs, expected",
        [
            # integral floats in integer fields are the integers
            ({"steps": 10.0}, {"steps": 10}),
            ({"steps": 10, "window": 12.0}, {"window": 12}),
            ({"steps": 10, "master_seed": 3.0}, {"master_seed": 3}),
            (
                {"run_kind": "pair", "steps": 3, "ensemble_size": 2.0, "disorder": {"kind": "weak"}},
                {"ensemble_size": 2, "disorder": DisorderSpec("uniform", walk.WEAK_HALF_WIDTH, "a")},
            ),
            ({"steps": "10"}, "steps"),
            ({"run_kind": "pair", "steps": 5, "angles": {"a": (0.1, 0.2, 0.3)}}, "angles.a"),
            ({"run_kind": "pair", "steps": 5, "angles": {"a": BoundarySpec((1, 2, 3), (4, 5))}}, "angles.a"),
            (
                {"run_kind": "pair", "steps": 5, "angles": {"a": BoundarySpec((1, 2), (3, 4))}},
                {"angles": {"a": BoundarySpec((1.0, 2.0), (3.0, 4.0))}},
            ),
            (
                {"run_kind": "entropy_sweep", "steps": 3, "sweep_grid": sweep_axes("theta1a", "theta2a")},
                {"sweep_grid": (SweepAxis("theta1a", 0.0, 1.0, 2), SweepAxis("theta2a", 0.0, 1.0, 2))},
            ),
            (
                {
                    "run_kind": "entropy_sweep",
                    "steps": 3,
                    "sweep_grid": [SweepAxis("theta1a", 0, 1, 2.0), SweepAxis("theta2a", 0, 1, 2)],
                },
                {"sweep_grid": (SweepAxis("theta1a", 0.0, 1.0, 2), SweepAxis("theta2a", 0.0, 1.0, 2))},
            ),
            (
                {
                    "run_kind": "entropy_sweep",
                    "sweep_grid": [SweepAxis("theta1a", 0, 1, 2.5), SweepAxis("theta2a", 0, 1, 2)],
                },
                "sweep_grid",
            ),
            ({"run_kind": "tptpw", "steps": 5}, {"run_kind": "pair"}),
        ],
    )
    def test_a_python_built_config_is_parsed(self, kwargs, expected):
        # every value goes through the parser of its field, as a mapping's would: it is stored
        # normalized (repr tells 2 from 2.0), or it is a ConfigError naming the field
        if isinstance(expected, str):
            with pytest.raises(ConfigError) as err:
                RunConfig(**kwargs)
            assert err.value.field == expected
            return
        config = RunConfig(**kwargs)
        for name, value in expected.items():
            assert repr(getattr(config, name)) == repr(value if name != "angles" else MappingProxyType(value))
        run(config)

    def test_outputs_as_a_string_asks_for_a_list(self):
        # not read one letter at a time
        with pytest.raises(ConfigError) as err:
            config_from_dict({"run_kind": "hadamard", "outputs": "entropy"})
        assert err.value.field == "outputs"
        assert "list of file kinds" in err.value.message

    def test_k_points_counts_the_bloch_axes(self):
        # the limit is a third of the bound; k_points must be even, and MAX_ARRAY_ELEMENTS // 3 is odd
        config_from_dict(minimal_dict("phase_diagram", k_points=MAX_ARRAY_ELEMENTS // 3 - 1))
        for k_points in (MAX_ARRAY_ELEMENTS // 3 + 1, MAX_ARRAY_ELEMENTS):
            with pytest.raises(ConfigError) as err:
                config_from_dict(minimal_dict("phase_diagram", k_points=k_points))
            assert err.value.field == "k_points"

    def test_disorder_seed_key_is_rejected(self):
        # master_seed is the only root of randomness; a per-disorder seed had no effect
        with pytest.raises(ConfigError) as err:
            config_from_dict(minimal_pair_dict(disorder={"kind": "weak", "seed": 3}))
        assert err.value.field == "disorder"
        assert "master_seed" in err.value.message
        assert "seed" not in config_to_dict(config_from_dict(minimal_pair_dict()))["disorder"]

    def test_sweep_needs_two_axes(self):
        data = minimal_pair_dict(
            run_kind="entropy_sweep",
            sweep_grid=[{"name": "theta1a", "min": -1, "max": 1, "count": 4}],
        )
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert err.value.field == "sweep_grid"

    def test_sweep_rejects_unknown_parameter(self):
        data = minimal_pair_dict(
            run_kind="entropy_sweep",
            sweep_grid=[
                {"name": "theta1a", "min": -1, "max": 1, "count": 4},
                {"name": "gamma", "min": -1, "max": 1, "count": 4},
            ],
        )
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_load_config_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_pair_dict()))
        cfg = load_config(path)
        assert cfg.run_kind == "pair"
        assert cfg.steps == 10

    @pytest.mark.parametrize("kind", sorted(KIND_BASES))
    def test_every_field_at_its_default_loads(self, kind):
        # a manifest that wrote every field, the unread ones at their defaults
        cfg = config_from_dict({**EVERY_FIELD_AT_DEFAULT, **minimal_dict(kind)})
        assert cfg == config_from_dict(minimal_dict(kind))
        assert list(config_to_dict(cfg)) == [
            name for name in EVERY_FIELD_AT_DEFAULT if name == "run_kind" or name in RUN_KINDS[kind][0]
        ]

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_figure_configs_set_only_fields_their_kind_reads(self, path):
        data = json.loads(path.read_text())
        cfg = config_from_dict(data)
        assert set(data) - {"run_kind"} <= set(RUN_KINDS[cfg.run_kind][0])
        assert config_from_dict(config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize("stem", ["fig6c_single_weak", "fig6d_single_strong"])
    def test_single_walker_configs_round_trip_walker_a_only(self, stem):
        data = json.loads((CONFIG_DIR / f"{stem}.json").read_text())
        cfg = config_from_dict(data)
        assert config_to_dict(cfg)["angles"] == data["angles"] == {"a": [-PI / 2, PI / 4]}
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_single_walker_accepts_default_walker_b_and_drops_it(self):
        # walker b's RunConfig default, as a manifest written before this rule holds it
        cfg = config_from_dict(minimal_dict("single_split", angles={"a": [0.1, 0.2], "b": [-PI / 2, 3 * PI / 4]}))
        assert config_to_dict(cfg)["angles"] == {"a": [0.1, 0.2]}

    @pytest.mark.parametrize("kind, walkers", [("single_split", "a"), ("pair", "ab"), ("entropy_sweep", "ab")])
    def test_the_manifest_keeps_the_angles_of_the_walkers_the_kind_steps(self, kind, walkers):
        assert RUN_KINDS[kind][2] == walkers
        angles = {"a": [0.1, 0.2], "b": [-PI / 2, 3 * PI / 4]}  # walker b's default, which a single walker may give
        cfg = config_from_dict(minimal_dict(kind, angles=angles))
        assert config_to_dict(cfg)["angles"] == {p: angles[p] for p in walkers}

    def test_figure_config_dicts_are_pinned(self):
        # the config dicts the 16 figure configs' manifests hold, as json.dumps(..., sort_keys=True) in name order
        paths = sorted(CONFIG_DIR.glob("*.json"))
        digest = hashlib.sha256()
        for path in paths:
            digest.update(json.dumps(config_to_dict(load_config(path)), sort_keys=True).encode())
        assert len(paths) == 16
        assert digest.hexdigest() == "5e7173950df258a9ab56a3ddc869bd6de70660aa9f1a50903a51cd1f3058eaba"

    @pytest.mark.parametrize("stem", ["fig3a_4c_tptpw_strong", "fig3b_4f_tptbw_strong"])
    def test_paper_names_run_the_pair_kind(self, tmp_path, stem):
        data = json.loads((CONFIG_DIR / f"{stem}.json").read_text())
        assert data["run_kind"] in ("tptpw", "tptbw")
        write_artifacts(run(config_from_dict(data)), tmp_path / "alias")
        write_artifacts(run(config_from_dict({**data, "run_kind": "pair"})), tmp_path / "pair")
        names = sorted(p.name for p in (tmp_path / "alias").iterdir() if p.name != "manifest.json")
        assert names == ["distribution_a.csv", "distribution_b.csv", "entropy.csv", "joint.csv"]
        for name in names:
            assert (tmp_path / "alias" / name).read_bytes() == (tmp_path / "pair" / name).read_bytes()


class TestSeeding:
    def test_derived_seeds_are_distinct(self):
        seeds = {derive_seed(123, r) for r in range(100)}
        assert len(seeds) == 100

    def test_derived_seeds_are_deterministic(self):
        assert derive_seed(123, 4, 5) == derive_seed(123, 4, 5)
        assert derive_seed(123, 4, 5) != derive_seed(123, 5, 4)


class TestParticleAngles:
    def test_walker_b_shares_walker_a_entry_by_default(self):
        for run_kind in ("tptpw", "tptbw"):
            cfg = config_from_dict(minimal_pair_dict(run_kind=run_kind, angles={"a": [-PI / 2, PI / 4]}))
            assert _particle_angles(cfg.angles, "b") == _particle_angles(cfg.angles, "a") == (-PI / 2, PI / 4)

    def test_plain_b_beside_a_boundary_is_kept(self):
        cfg = config_from_dict(
            minimal_pair_dict(
                run_kind="tptbw",
                angles={"a": BOUNDARY_ANGLES, "b": [0.1, 0.2]},
            )
        )
        assert _particle_angles(cfg.angles, "b") == (0.1, 0.2)
        assert isinstance(_particle_angles(cfg.angles, "a"), BoundarySpec)

    def test_boundary_walk_shares_field_by_default(self):
        cfg = config_from_dict(
            minimal_pair_dict(
                run_kind="tptbw",
                angles={"a": {"minus": [-PI / 2, PI / 4], "plus": [-PI / 2, 3 * PI / 4]}},
            )
        )
        assert _particle_angles(cfg.angles, "b") == _particle_angles(cfg.angles, "a")

    def test_boundary_walk_per_particle_override(self):
        cfg = config_from_dict(
            minimal_pair_dict(
                run_kind="tptbw",
                angles={
                    "a": {"minus": [-PI / 2, PI / 4], "plus": [-PI / 2, 3 * PI / 4]},
                    "b": {"minus": [0.1, 0.2], "plus": [0.3, 0.4]},
                },
            )
        )
        assert _particle_angles(cfg.angles, "b").theta_minus == (0.1, 0.2)

    def test_tptpw_with_walker_a_only_matches_explicit_b(self):
        a_only = run(config_from_dict(minimal_pair_dict(angles={"a": [-PI / 2, PI / 4]})))
        both = run(
            config_from_dict(minimal_pair_dict(angles={"a": [-PI / 2, PI / 4], "b": [-PI / 2, PI / 4]}))
        )
        assert np.array_equal(a_only.entropy, both.entropy)
        assert np.array_equal(a_only.joint, both.joint)

    def test_axis_value_on_plain_angles(self):
        angles = {"a": (-1.0, 0.5), "b": (0.0, 0.0)}
        updated = _with_axis_value(angles, "theta2a", 0.9)
        assert updated["a"] == (-1.0, 0.9)
        assert updated["b"] == (0.0, 0.0)

    def test_axis_value_on_boundary_sides(self):
        spec = BoundarySpec((0.1, 0.2), (0.3, 0.4))
        updated = _with_axis_value({"a": spec}, "theta2a_plus", 0.9)
        assert updated["a"].theta_plus == (0.3, 0.9)
        assert updated["a"].theta_minus == (0.1, 0.2)
        updated = _with_axis_value({"a": spec}, "theta1a", 0.7)
        assert updated["a"].theta_minus == (0.7, 0.2)
        assert updated["a"].theta_plus == (0.7, 0.4)

    @pytest.mark.parametrize("name", ["theta2a_plus", "theta2b_minus"])
    def test_side_axis_requires_boundary(self, name):
        # checked when the config is built, not when it runs; walker b falls back to walker a's plain angles
        data = minimal_dict("entropy_sweep", angles={"a": [0.0, 0.0]}, sweep_grid=sweep_axes("theta1a", name))
        with pytest.raises(ConfigError, match=f"axis '{name}' needs boundary angles for particle '{name[6]}'"):
            config_from_dict(data)

    def test_axes_on_the_two_sides_of_one_angle_are_valid(self):
        axes = sweep_axes("theta1a_minus", "theta1a_plus")
        config = config_from_dict(minimal_dict("entropy_sweep", angles={"a": BOUNDARY_ANGLES}, sweep_grid=axes))
        grid = run(config).heatmap
        assert np.ptp(grid[:, 0]) > 0 and np.ptp(grid[0, :]) > 0  # each axis moves the entropy


class TestRunDeterminism:
    @pytest.mark.parametrize(
        "data",
        [
            {"run_kind": "hadamard", "steps": 30},
            {
                "run_kind": "single_split",
                "steps": 30,
                "angles": {"a": [-PI / 2, PI / 4]},
                "disorder": {"kind": "strong", "target": "a"},
                "master_seed": 11,
            },
            dict(
                minimal_pair_dict(steps=15),
                disorder={"kind": "weak", "target": "a"},
                ensemble_size=3,
            ),
        ],
    )
    def test_repeated_runs_identical(self, data):
        a = run(config_from_dict(data))
        b = run(config_from_dict(data))
        assert np.array_equal(a.entropy, b.entropy)
        if a.distribution is not None:
            assert np.array_equal(a.distribution, b.distribution)
        if a.joint is not None:  # a pair run's marginals are the joint's sums
            assert np.array_equal(a.joint, b.joint)

    def test_zero_steps_snapshot(self):
        art = run(config_from_dict({"run_kind": "hadamard", "steps": 0}))
        assert len(art.entropy) == 1  # step 0 only
        dist = art.distribution
        assert dist[_resolved_window(art.config).positions() == 0] == 1.0

    @pytest.mark.parametrize(
        "data",
        [
            minimal_dict("single_split", steps=0),
            minimal_pair_dict(steps=0),
            minimal_pair_dict(steps=0, disorder={"kind": "weak", "target": "a"}),
        ],
        ids=["single_split", "pair clean", "pair weak"],
    )
    def test_zero_steps_entropy_is_the_start(self, data):
        # a clean walk's field is one step broadcast over the walk's zero steps; a disordered one has none
        cfg = config_from_dict(data)
        art = run(cfg)
        dense_run = dense_single_run if cfg.run_kind == "single_split" else dense_pair_run
        start = dense_run(cfg)[0]
        assert art.entropy.shape == start.shape == (1,)
        assert np.abs(art.entropy - start).max() < 1e-12

    def test_zero_steps_sweep_is_the_start(self):
        cfg = config_from_dict(minimal_dict("entropy_sweep", steps=0))
        grid = run(cfg).heatmap
        start = dense_pair_run(config_from_dict(minimal_pair_dict(steps=0)))[0]
        assert grid.shape == (2, 2)
        assert np.abs(grid - start[0]).max() < 1e-12

    def test_ensemble_reports_std(self):
        data = minimal_pair_dict(steps=8, ensemble_size=3, disorder={"kind": "strong", "target": "a"})
        art = run(config_from_dict(data))
        assert art.entropy_std is not None
        assert len(art.entropy_std) == 9
        assert art.entropy_std.max() > 0

    def test_single_run_has_no_std(self):
        art = run(config_from_dict(minimal_pair_dict(steps=5)))
        assert art.entropy_std is None

    def test_window_too_small_overflows(self):
        # the walk from the origin fills the half-width-5 window in 5 steps; the sixth leaves it
        cfg = config_from_dict({"run_kind": "hadamard", "steps": 30, "window": 5})
        message = r"^coin-0 amplitude at the right edge at step 6; window too small$"
        with pytest.raises(WindowOverflowError, match=message):
            run(cfg)

    def test_pair_window_too_small_overflows(self):
        cfg = config_from_dict(minimal_pair_dict(steps=10, window=5))
        with pytest.raises(WindowOverflowError):
            run(cfg)

    @given(
        st.integers(0, 20),
        st.tuples(st.integers(-25, 25), st.integers(-25, 25)),
        st.sampled_from(["psi+", "psi-", "sep"]),
        st.lists(st.sampled_from([0.0, PI, -PI, PI / 2]) | st.floats(-2 * PI, 2 * PI), min_size=4, max_size=4),
        st.sampled_from(["none", "weak", "strong"]),
    )
    @example(100, (20, -20), "psi+", [-PI / 2, PI / 4, -PI / 2, 3 * PI / 4], "none")
    @settings(max_examples=40, deadline=None)
    def test_auto_window_fits_any_start(self, steps, positions, kind, angles, disorder):
        # the auto window grows with the farthest start, so no walker reaches its edge
        data = minimal_pair_dict(
            steps=steps,
            initial_state={"kind": kind, "positions": list(positions)},
            angles={"a": angles[:2], "b": angles[2:]},
            disorder={"kind": disorder},
        )
        art = run(config_from_dict(data))
        assert abs(art.joint.sum() - 1.0) < 1e-10

    def test_pair_marginals_sum_to_one(self, tmp_path):
        art = run(config_from_dict(minimal_pair_dict(steps=12)))
        write_artifacts(art, tmp_path)  # the marginals are written from the joint
        marginal = lambda name: np.loadtxt(tmp_path / name, delimiter=",", skiprows=1)[:, 1]
        assert abs(marginal("distribution_a.csv").sum() - 1.0) < 1e-10
        assert abs(marginal("distribution_b.csv").sum() - 1.0) < 1e-10
        assert abs(art.joint.sum() - 1.0) < 1e-10


BOUNDARY_ANGLES = {"minus": [-PI / 2, PI / 4], "plus": [-PI / 2, 3 * PI / 4]}
PAIR_SETUPS = {
    "clean": {},
    "weak_a": {"disorder": {"kind": "weak", "target": "a"}},
    "strong_both": {"disorder": {"kind": "strong", "target": "both"}},
    "tptbw_weak_b": {
        "run_kind": "tptbw",
        "angles": {"a": BOUNDARY_ANGLES},
        "disorder": {"kind": "weak", "target": "b"},
    },
    "tptbw_plain_b": {
        "run_kind": "tptbw",
        "angles": {"a": BOUNDARY_ANGLES, "b": [-PI / 2, 3 * PI / 4]},
        "disorder": {"kind": "weak", "target": "b"},
    },
}


def dense_pair_run(cfg):
    """Reference pair observables: the dense (x_a, c_a, x_b, c_b) tensor evolved
    under each replicate's derive_seed(master_seed, r) fields."""
    n = cfg.steps
    window = LatticeWindow(n + 1)
    entropy, joints = [], []
    for r in range(cfg.ensemble_size):
        seed = derive_seed(cfg.master_seed, r)
        fields = [
            sample_angle_field(cfg.angles.get(particle, cfg.angles["a"]), cfg.disorder, n, window, particle, seed)
            for particle in ("a", "b")
        ]
        final, records = evolve_pair(
            make_pair_state(cfg.initial_state, window), *fields, n,
            {"entropy": lambda s: von_neumann_entropy(reduce_pair_to_coin(s))},
        )
        entropy.append(records["entropy"])
        joints.append(joint_distribution_direct(final).values)
    entropy = np.array(entropy)
    std = entropy.std(axis=0) if len(entropy) > 1 else None
    return entropy.mean(axis=0), std, np.mean(joints, axis=0)


class TestPairRouteAgainstDenseOracle:
    @pytest.mark.parametrize("ensemble", [1, 3])
    @pytest.mark.parametrize("setup", sorted(PAIR_SETUPS))
    @pytest.mark.parametrize("state", ["separable", "psi+", "psi-"])
    def test_run_matches_dense_tensor(self, state, setup, ensemble):
        data = minimal_pair_dict(steps=12, master_seed=31, ensemble_size=ensemble)
        data.update(PAIR_SETUPS[setup], initial_state={"kind": state})
        if setup == "clean" and ensemble > 1:
            # a clean walk draws nothing, so its replicates would all be equal
            with pytest.raises(ConfigError) as err:
                config_from_dict(data)
            assert err.value.field == "ensemble_size"
            return
        cfg = config_from_dict(data)
        art = run(cfg)
        entropy, std, joint = dense_pair_run(cfg)
        assert np.abs(art.entropy - entropy).max() < 1e-12
        if ensemble == 1:
            assert art.entropy_std is None and std is None
        else:
            assert np.abs(art.entropy_std - std).max() < 1e-12
        assert np.abs(art.joint - joint).max() < 1e-12
        assert np.abs(art.joint.sum(axis=1) - joint.sum(axis=1)).max() < 1e-12
        assert np.abs(art.joint.sum(axis=0) - joint.sum(axis=0)).max() < 1e-12


class TestPairReplicates:
    def test_replicates_equal_the_lone_replicate_loop(self):
        # 33 replicates step in chunks of 32; each must keep the bits of a run on its own
        self.assert_equal_to_the_lone_replicate_loop("both")

    @pytest.mark.parametrize("target", ["a", "b"])
    def test_replicates_with_disorder_on_one_walker_equal_the_lone_replicate_loop(self, target):
        # the walker that draws nothing stores one step, the other every step, in one coin table
        self.assert_equal_to_the_lone_replicate_loop(target)

    @staticmethod
    def assert_equal_to_the_lone_replicate_loop(target):
        """A 33-replicate run under strong disorder on target equals a loop of lone replicates, each
        stepped under its two full fields."""
        cfg = config_from_dict(
            minimal_pair_dict(steps=12, ensemble_size=33, disorder={"kind": "strong", "target": target})
        )
        art = run(cfg)
        window = LatticeWindow(cfg.steps + 1)
        coefficients = coin_coefficients(cfg.initial_state)
        series, joint_sum = [], None
        for r in range(cfg.ensemble_size):
            seed = derive_seed(cfg.master_seed, r)
            fields = [
                sample_angle_field(cfg.angles.get(p, cfg.angles["a"]), cfg.disorder, cfg.steps, window, p, seed)
                for p in ("a", "b")
            ]
            rhos = []
            blocks = iter_product_walkers(cfg.initial_state, window, fields)
            for amps in chain.from_iterable(blocks):
                rhos.append(pair_coin_density_from_singles(amps, coefficients))
            series.append(von_neumann_entropy(np.array(rhos)))
            joint = joint_distribution_interference(amps, coefficients)
            joint_sum = joint if joint_sum is None else joint_sum + joint
        series = np.array(series)
        assert art.entropy.tobytes() == series.mean(axis=0).tobytes()
        assert art.entropy_std.tobytes() == series.std(axis=0).tobytes()
        assert art.joint.tobytes() == (joint_sum / cfg.ensemble_size).tobytes()

    @pytest.mark.parametrize("kind", ["single_split", "pair", "entropy_sweep"])
    def test_chunks_keep_the_coin_table_within_the_limit(self, kind, monkeypatch):
        # room for three cells' coin tables: 7 cells step as 3 + 3 + 1, with the same bits as one chunk
        target = "a" if kind == "single_split" else "both"
        data = minimal_dict(kind, steps=10, disorder={"kind": "weak", "target": target})
        if kind == "entropy_sweep":
            data["sweep_grid"] = [
                {"name": "theta1a", "min": -1, "max": 1, "count": 7},
                {"name": "theta2a", "min": 0, "max": 2, "count": 1},
            ]
        else:
            data["ensemble_size"] = 7
        whole = run(config_from_dict(data))
        walkers_per_cell = 1 if kind == "single_split" else 2
        cell_table = 3 * 2 * walkers_per_cell * LatticeWindow(11).size * 10
        monkeypatch.setattr(experiments, "MAX_ARRAY_ELEMENTS", 3 * cell_table + 2)
        chunks = []

        def walkers(init, window, field):
            (cells,) = {f.shape[-1] for f in field}  # each particle's field ends in the cell axis
            chunks.append(cells)
            return iter_product_walkers(init, window, field)

        def coins(field, occupied):
            chunks.append(field.shape[-1])  # a single walker's field ends in the cell axis
            return split_coins(field, occupied)

        monkeypatch.setattr(experiments, "iter_product_walkers", walkers)
        monkeypatch.setattr(experiments, "split_coins", coins)
        chunked = run(config_from_dict(data))
        assert chunks == [3, 3, 1]
        if kind == "entropy_sweep":
            assert chunked.heatmap.tobytes() == whole.heatmap.tobytes()
        else:
            assert np.array_equal(chunked.entropy, whole.entropy)
            assert chunked.entropy_std.tobytes() == whole.entropy_std.tobytes()
            observable = "distribution" if kind == "single_split" else "joint"
            assert getattr(chunked, observable).tobytes() == getattr(whole, observable).tobytes()

    @pytest.mark.parametrize("kind", ["single_split", "pair", "entropy_sweep"])
    @pytest.mark.parametrize("drawn", [False, True])
    def test_seeds_are_derived_only_for_walks_that_draw(self, kind, drawn, monkeypatch):
        # a walk that draws nothing derives no seed; one that draws derives each cell's as before
        data = minimal_dict(kind, disorder={"kind": "weak", "target": "a"} if drawn else {"kind": "none"})
        if drawn and kind != "entropy_sweep":
            data["ensemble_size"] = 3
        cfg = config_from_dict(data)
        expected = run(cfg)
        calls = []

        def counted(*key):
            calls.append(key)
            return derive_seed(*key)

        monkeypatch.setattr(experiments, "derive_seed", counted)
        art = run(cfg)
        # a replicate's seed is derive_seed(master_seed, r), a 2x2 sweep cell's derive_seed(derive_seed(...), 0)
        assert len(calls) == (0 if not drawn else 8 if kind == "entropy_sweep" else 3)
        for name in ("heatmap", "entropy", "joint", "distribution"):
            if getattr(expected, name) is not None:
                assert getattr(art, name).tobytes() == getattr(expected, name).tobytes()

    @pytest.mark.parametrize("kind", ["single_split", "pair", "entropy_sweep"])
    @pytest.mark.parametrize(
        "disorder", [{"kind": "none"}, {"kind": "weak", "target": "a"}, {"kind": "weak", "target": "both"}]
    )
    def test_a_walk_that_draws_nothing_stores_one_step(self, kind, disorder, monkeypatch):
        # the config says whether each stepped walker draws; the field of one that does not has its
        # step axis broadcast, whatever the other walker's field stores
        step_strides = []  # (particle, the step stride of its field)

        def walkers(init, window, field):
            step_strides.extend(zip("ab", (f.strides[2] for f in field), strict=True))
            return iter_product_walkers(init, window, field)

        def coins(field, occupied):
            step_strides.append(("a", field.strides[2]))
            return split_coins(field, occupied)

        monkeypatch.setattr(experiments, "iter_product_walkers", walkers)
        monkeypatch.setattr(experiments, "split_coins", coins)
        cfg = config_from_dict(minimal_dict(kind, disorder=disorder))
        assert cfg.steps > 1
        run(cfg)
        assert {p for p, _ in step_strides} == set(_particles(cfg))
        assert all((stride == 0) == (not cfg.disorder.applies_to(p)) for p, stride in step_strides)


class TestStepBlocks:
    """run() reduces each trajectory block of steps in one call; each step keeps the bits of a
    reduction of its own, whether it opens, closes or sits inside a block."""

    WINDOW = 100  # fixed, so that the block length does not grow with the steps

    @classmethod
    def block_length(cls, amplitudes_per_site: int) -> int:
        return walk._BLOCK_AMPLITUDES // (LatticeWindow(cls.WINDOW).size * amplitudes_per_site)

    @classmethod
    def lone_run(cls, cfg, kind, angles, seed):
        """(entropy at every step, final observable, block lengths) of one cell, one reduction per step."""
        window = LatticeWindow(cls.WINDOW)
        if kind == "single_split":
            field = sample_angle_field(angles["a"], cfg.disorder, cfg.steps, window, "a", seed)
            start = make_single_state(window, 0, cfg.coin_amps)
            blocks = list(trajectory(start, split_coins(field)))
        else:
            fields = [
                sample_angle_field(_particle_angles(angles, p), cfg.disorder, cfg.steps, window, p, seed)
                for p in "ab"
            ]
            blocks = list(iter_product_walkers(cfg.initial_state, window, fields))
        coefficients = coin_coefficients(cfg.initial_state)
        rhos = []
        for amps in chain.from_iterable(blocks):
            if kind == "single_split":
                rhos.append(reduce_to_coin(amps))
            else:
                rhos.append(pair_coin_density_from_singles(amps, coefficients))
        if kind == "single_split":
            final = position_distribution(amps)
        else:
            final = joint_distribution_interference(amps, coefficients)
        return von_neumann_entropy(np.array(rhos)), final, [len(block) for block in blocks]

    @pytest.mark.parametrize("blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
    @pytest.mark.parametrize("kind", ["pair", "single_split"])
    def test_steps_around_block_boundaries(self, kind, blocks, extra):
        # one cell: 8 amplitudes per site for a pair's four lone walkers, 2 for a single walker
        length = self.block_length(8 if kind == "pair" else 2)
        assert length > 1
        steps = blocks * length + extra
        target = "both" if kind == "pair" else "a"
        cfg = config_from_dict(
            minimal_dict(kind, steps=steps, window=self.WINDOW, disorder={"kind": "strong", "target": target})
        )
        art = run(cfg)
        series, final, lengths = self.lone_run(cfg, kind, cfg.angles, derive_seed(cfg.master_seed, 0))
        full, rest = divmod(steps + 1, length)
        assert lengths == [length] * full + [rest] * bool(rest)
        # the mean over one replicate, as run() reports it, turns the step-0 entropy -0.0 into 0.0
        assert art.entropy.tobytes() == np.mean([series], axis=0).tobytes()
        observable = "joint" if kind == "pair" else "distribution"
        assert getattr(art, observable).tobytes() == (final / cfg.ensemble_size).tobytes()

    def test_longmean_tail_starting_inside_a_block(self):
        cfg = config_from_dict(
            minimal_dict(
                "entropy_sweep",
                steps=40,
                window=self.WINDOW,
                sweep_scalar="longmean",
                disorder={"kind": "strong", "target": "both"},
                sweep_grid=[
                    {"name": "theta1a", "min": -1, "max": 1, "count": 2},
                    {"name": "theta2a", "min": 0.5, "max": 0.5, "count": 1},
                ],
            )
        )
        first_step = cfg.steps + 1 - cfg.steps // 4
        length = self.block_length(2 * 8)  # both cells step in one chunk
        assert length > 1 and first_step % length
        grid = run(cfg).heatmap
        for i, theta1 in enumerate(cfg.sweep_grid[0].values()):
            angles = {**cfg.angles, "a": (float(theta1), 0.5)}
            seed = derive_seed(derive_seed(cfg.master_seed, i, 0), 0)
            series, _, _ = self.lone_run(cfg, "pair", angles, seed)
            assert grid[i, 0].tobytes() == np.mean(series[first_step:]).tobytes()


class TestSingleReplicates:
    @pytest.mark.parametrize(
        "ensemble, extra",
        [
            (33, {"disorder": {"kind": "strong"}, "coin_amps": [0.6, [0, 0.8]]}),
            (65, {"disorder": {"kind": "weak"}, "angles": {"a": {"minus": [0.3, 1.2], "plus": [-PI / 2, 0.8]}}}),
        ],
    )
    def test_replicates_equal_the_lone_replicate_loop(self, ensemble, extra):
        # 33 and 65 replicates step in chunks of 32; each must keep the bits of a walker stepped alone
        cfg = config_from_dict(minimal_dict("single_split", steps=12, ensemble_size=ensemble, **extra))
        art = run(cfg)
        window = LatticeWindow(cfg.steps + 1)
        series, dist_sum = [], None
        for r in range(cfg.ensemble_size):
            field = sample_angle_field(
                cfg.angles["a"], cfg.disorder, cfg.steps, window, "a", derive_seed(cfg.master_seed, r)
            )
            rhos = []
            start = make_single_state(window, 0, cfg.coin_amps)
            for amps in chain.from_iterable(trajectory(start, split_coins(field))):
                rhos.append(reduce_to_coin(amps))
            series.append(von_neumann_entropy(np.array(rhos)))
            dist = position_distribution(amps)
            dist_sum = dist if dist_sum is None else dist_sum + dist
        series = np.array(series)
        assert art.entropy.tobytes() == series.mean(axis=0).tobytes()
        assert art.entropy_std.tobytes() == series.std(axis=0).tobytes()
        assert art.distribution.tobytes() == (dist_sum / cfg.ensemble_size).tobytes()


def dense_single_run(cfg):
    """Reference single-walker observables: the flattened (2 * size) state vector
    stepped by dense_hadamard_unitary or dense_split_unitary. Each replicate's
    disorder is drawn here as the package draws it: uniform noise on walker a's
    theta1 and theta2 from the streams (derive_seed(master_seed, r), spawn key
    (0, angle index))."""
    n = cfg.steps
    window = LatticeWindow(n + 1)
    size = window.size
    entropy, dists = [], []
    for r in range(cfg.ensemble_size):
        if cfg.run_kind == "hadamard":
            unitaries = [dense_hadamard_unitary(size)] * n
        else:
            thetas = []
            for index, base in enumerate(cfg.angles["a"]):
                theta = np.full((size, n), base)
                if cfg.disorder.kind == "uniform":
                    seq = np.random.SeedSequence(derive_seed(cfg.master_seed, r), spawn_key=(0, index))
                    w = cfg.disorder.half_width
                    theta = theta + np.random.default_rng(seq).uniform(-w, w, size=theta.shape)
                thetas.append(theta)
            unitaries = [dense_split_unitary(thetas[0][:, t], thetas[1][:, t]) for t in range(n)]
        vec = np.zeros(2 * size, dtype=complex)
        vec[2 * window.index(0) : 2 * window.index(0) + 2] = cfg.coin_amps
        series = []
        for u in [None, *unitaries]:
            if u is not None:
                vec = u @ vec
            m = vec.reshape(size, 2)
            series.append(von_neumann_entropy(np.einsum("ic,id->cd", m, m.conj())))
        entropy.append(series)
        dists.append((np.abs(vec.reshape(size, 2)) ** 2).sum(axis=1))
    entropy = np.array(entropy)
    std = entropy.std(axis=0) if len(entropy) > 1 else None
    return entropy.mean(axis=0), std, np.mean(dists, axis=0)


class TestSingleWalkerEntropy:
    @pytest.mark.parametrize("kind", ["hadamard", "single_split"])
    def test_stacked_entropy_equals_one_call_per_step(self, kind):
        # run() takes one stacked entropy call per chunk of replicates; each value keeps its bits
        cfg = config_from_dict(minimal_dict(kind, steps=40))
        window = LatticeWindow(41)
        if kind == "hadamard":
            coins = hadamard_coins(window.size, 40)
        else:
            coins = split_coins(sample_angle_field(cfg.angles["a"], cfg.disorder, 40, window, "a", 0))
        start = make_single_state(window, 0, cfg.coin_amps)
        blocks = trajectory(start, coins)
        per_step = [von_neumann_entropy(reduce_to_coin(amps)) for amps in chain.from_iterable(blocks)]
        # the mean over one replicate, as run() reports it, turns the step-0 entropy -0.0 into 0.0
        expected = np.mean([per_step], axis=0)
        assert run(cfg).entropy.tobytes() == expected.tobytes()


    @pytest.mark.parametrize("coin_amps, dtype", [([1, 0], float), ([0.6, -0.8], float), ([0.6, [0, 0.8]], complex)])
    @pytest.mark.parametrize("kind", ["hadamard", "single_split"])
    def test_a_start_steps_in_its_own_dtype(self, kind, coin_amps, dtype, monkeypatch):
        # a start with no imaginary part steps in float64, and its files keep the bits of the complex walk
        cfg = config_from_dict(minimal_dict(kind, steps=40, coin_amps=coin_amps))
        monkeypatch.setattr(experiments, "trajectory", lambda amps, coins: trajectory(amps.astype(complex), coins))
        expected = run(cfg)
        dtypes = []

        def walk(amps, coins):
            dtypes.append(amps.dtype)
            return trajectory(amps, coins)

        monkeypatch.setattr(experiments, "trajectory", walk)
        art = run(cfg)
        assert dtypes == [np.dtype(dtype)]
        assert art.entropy.tobytes() == expected.entropy.tobytes()
        assert art.distribution.tobytes() == expected.distribution.tobytes()


class TestSingleRouteAgainstDenseOracle:
    SETUPS = {
        "hadamard": {"run_kind": "hadamard"},
        "split_clean": {"run_kind": "single_split"},
        "split_weak": {"run_kind": "single_split", "disorder": {"kind": "weak"}},
        "split_strong": {"run_kind": "single_split", "disorder": {"kind": "strong"}},
    }

    @pytest.mark.parametrize("ensemble", [1, 3])
    @pytest.mark.parametrize("setup", sorted(SETUPS))
    def test_run_matches_dense_unitary(self, setup, ensemble):
        data = {"steps": 20, "master_seed": 31, "ensemble_size": ensemble, "coin_amps": [0.6, [0, 0.8]]}
        if setup in ("hadamard", "split_clean") and ensemble > 1:
            # a walk without disorder draws nothing, so its replicates would all be equal
            with pytest.raises(ConfigError) as err:
                config_from_dict({**data, **self.SETUPS[setup]})
            assert err.value.field == "ensemble_size"
            return
        cfg = config_from_dict({**data, **self.SETUPS[setup]})
        art = run(cfg)
        entropy, std, dist = dense_single_run(cfg)
        assert np.abs(art.entropy - entropy).max() < 1e-12
        if ensemble == 1:
            assert art.entropy_std is None and std is None
        else:
            assert np.abs(art.entropy_std - std).max() < 1e-12
        assert np.abs(art.distribution - dist).max() < 1e-12
        assert np.array_equal(_resolved_window(cfg).positions(), LatticeWindow(21).positions())


class TestEntropySweep:
    def sweep_config(self, **overrides):
        data = {
            "run_kind": "entropy_sweep",
            "steps": 10,
            "angles": {"a": [-PI / 2, PI / 4], "b": [-PI / 2, 3 * PI / 4]},
            "initial_state": {"kind": "psi+"},
            "master_seed": 5,
            "sweep_grid": [
                {"name": "theta1a", "min": -PI, "max": PI, "count": 3},
                {"name": "theta2a", "min": -PI, "max": PI, "count": 4},
            ],
        }
        data.update(overrides)
        return config_from_dict(data)

    def test_degenerate_grid_identical_values(self):
        cfg = self.sweep_config(
            sweep_grid=[
                {"name": "theta1a", "min": -PI / 2, "max": -PI / 2, "count": 2},
                {"name": "theta2a", "min": PI / 4, "max": PI / 4, "count": 2},
            ]
        )
        grid = run(cfg).heatmap
        assert np.ptp(grid) == 0.0

    def test_grid_shape_and_axes(self):
        art = run(self.sweep_config())
        assert art.heatmap.shape == (3, 4)
        assert tuple(ax.name for ax in art.config.sweep_grid) == ("theta1a", "theta2a")

    @pytest.mark.parametrize("scalar", ["final", "longmean"])
    @pytest.mark.parametrize("disorder", [{"kind": "none"}, {"kind": "strong", "target": "both"}])
    def test_each_cell_equals_its_lone_pair_run(self, disorder, scalar):
        # 36 cells step in chunks of 32, so cells past the first chunk are checked too
        axes = [
            {"name": "theta1a", "min": -PI, "max": PI, "count": 6},
            {"name": "theta2a", "min": -PI, "max": PI, "count": 6},
        ]
        cfg = self.sweep_config(sweep_grid=axes, disorder=disorder, sweep_scalar=scalar)
        grid = run(cfg).heatmap
        tail = 1 if scalar == "final" else cfg.steps // 4
        for i, t1 in enumerate(cfg.sweep_grid[0].values()):
            for j, t2 in enumerate(cfg.sweep_grid[1].values()):
                lone = config_from_dict({
                    "run_kind": "pair", "steps": 10, "initial_state": {"kind": "psi+"},
                    "angles": {"a": [t1, t2], "b": [-PI / 2, 3 * PI / 4]}, "disorder": disorder,
                    "master_seed": derive_seed(cfg.master_seed, i, j),
                })
                assert grid[i, j] == np.mean(run(lone).entropy[-tail:])

    def test_longmean_scalar(self):
        art = run(self.sweep_config(sweep_scalar="longmean"))
        assert art.config.sweep_scalar == "longmean"
        assert np.all(art.heatmap >= 0)

    def test_disordered_sweep_deterministic(self):
        cfg_data = dict(disorder={"kind": "strong", "target": "a"})
        a = run(self.sweep_config(**cfg_data)).heatmap
        b = run(self.sweep_config(**cfg_data)).heatmap
        assert np.array_equal(a, b)

    def test_run_dispatches_sweep(self):
        art = run(self.sweep_config())
        assert art.heatmap is not None

    def test_walker_b_axis_with_a_boundary_moves_the_heatmap(self):
        # walker b keeps its own plain angles beside walker a's boundary, so
        # sweeping them changes the cells
        cfg = self.sweep_config(
            angles={"a": BOUNDARY_ANGLES, "b": [-PI / 2, 3 * PI / 4]},
            sweep_grid=[
                {"name": "theta1b", "min": -PI, "max": PI, "count": 3},
                {"name": "theta2a_plus", "min": -PI, "max": PI, "count": 2},
            ],
        )
        grid = run(cfg).heatmap
        assert np.ptp(grid[:, 0]) > 1e-3 and np.ptp(grid[:, 1]) > 1e-3

    def test_walker_b_without_entry_follows_walker_a_axes(self):
        # the rule applies to each cell, so a walker b with no entry of its own
        # walks under walker a's swept angles
        cfg = self.sweep_config(
            angles={"a": BOUNDARY_ANGLES},
            disorder={"kind": "weak", "target": "both"},
            sweep_grid=[
                {"name": "theta1a_minus", "min": -1.0, "max": 1.0, "count": 2},
                {"name": "theta2a_plus", "min": 0.5, "max": 2.5, "count": 2},
            ],
        )
        grid = run(cfg).heatmap
        for i, t1 in enumerate((-1.0, 1.0)):
            for j, t2 in enumerate((0.5, 2.5)):
                swept = {"minus": [t1, PI / 4], "plus": [-PI / 2, t2]}
                pair = config_from_dict({
                    "run_kind": "tptbw", "steps": 10, "initial_state": {"kind": "psi+"},
                    "angles": {"a": swept, "b": swept}, "disorder": {"kind": "weak", "target": "both"},
                    "master_seed": derive_seed(cfg.master_seed, i, j),
                })
                assert grid[i, j] == run(pair).entropy[-1]

    def test_walker_b_axis_starts_from_walker_a_cell_entry(self):
        # walker a's axis goes in first whatever the axis order, and a walker-b
        # axis then moves only walker b
        cfg = self.sweep_config(
            angles={"a": [-PI / 2, PI / 4]},
            sweep_grid=[
                {"name": "theta2b", "min": 3 * PI / 4, "max": 3 * PI / 4, "count": 1},
                {"name": "theta1a", "min": 0.3, "max": 0.3, "count": 1},
            ],
        )
        explicit = self.sweep_config(
            angles={"a": [-PI / 2, PI / 4], "b": [0.3, 3 * PI / 4]},
            sweep_grid=cfg.sweep_grid,
        )
        assert np.array_equal(run(cfg).heatmap, run(explicit).heatmap)


class TestPhaseDiagramRun:
    def test_run_emits_grids(self):
        art = run(config_from_dict({"run_kind": "phase_diagram", "grid_n": 16, "k_points": 64}))
        assert art.phase.winding.shape == (16, 16)
        assert set(np.unique(art.phase.winding)).issubset({-1, 0, 1})

    def test_fig2_phase_csv_bytes_are_pinned(self, tmp_path):
        # pinned with numpy 2.4.6 on x86_64; a change to the topology arithmetic that
        # moves one gap bit or one winding verdict changes this digest
        write_artifacts(run(load_config(CONFIG_DIR / "fig2_phase_diagram.json")), tmp_path)
        digest = hashlib.sha256((tmp_path / "phase.csv").read_bytes()).hexdigest()
        assert digest == "9311599826eba9ac0c40df57f989de60807528a8677f5df4d7808c013aaf75be"


class TestPinnedFigureBytes:
    # pinned with numpy 2.4.6 on x86_64, as the fig2 pin: one changed bit in a clean or a
    # disordered sweep cell, or in any pair run's entropy, marginals or joint, changes a digest
    @pytest.mark.parametrize(
        "stem, digests",
        [
            ("fig5a_sweep_zb0", {"heatmap.csv": "a761aefbb7d156367546f03ebf0bc613a921b58417f13ccedae94dbb9bbcb040"}),
            (
                "fig5d_sweep_zb1_strong",
                {"heatmap.csv": "e899328e9381ebf0edfab9e01ef5b68b45a619d4aa7a82d831ab367d56263303"},
            ),
            (
                "fig3a_4a_tptpw_clean",
                {
                    "entropy.csv": "9f654c1ba112f3c411d321c92f5981531e9a3bcfd606991a7ac8045a6ba303fc",
                    "distribution_a.csv": "739d6ffc4d34ea8cd76ebadd75b43ce29313aacaf776ac93fdb588e4d2ede05c",
                    "distribution_b.csv": "ed331e4807e50119969d6a03b166ff8edc1198bb9438546066091125a6d6af4a",
                    "joint.csv": "ebbd6ef2636e1dc56a6d6eb0e0e7e1977f4975ad10c5dac8448bf48c9c7474d8",
                },
            ),
            (
                "fig3a_4c_tptpw_strong",
                {
                    "entropy.csv": "fe822eb620f4eec9c40c0119b5a3fdd38fb25dfa497fd48fb3ae3cf1a5af0b1a",
                    "distribution_a.csv": "85409e01a98e5d96411754fee0f39f7f94e01ead23d7b8a14e4abaa525f9a368",
                    "distribution_b.csv": "3880a574bcca51b5e18fcc52f88c25929dedb33ace011d410a17a9657e329906",
                    "joint.csv": "316fa5faada7a8ae0ab6df24e93344c194ad296d7a494ece02145f9f4770cd0b",
                },
            ),
            (
                "fig3b_4d_tptbw_clean",
                {
                    "entropy.csv": "ca01bc4ad764bd1abb5cacc961731e453b7e8c06b98e866e04d7886f40f06cc2",
                    "distribution_a.csv": "ed10816241b4079a057922db299f7098ce13493c1b37852158762beaf263bb5e",
                    "distribution_b.csv": "2472ba2acc8502de434a40832c0b634fab9175bc0eaba7dcf4adf7c43419df79",
                    "joint.csv": "dde921b2aace024e3f223cb8413e77ee52d979b7bdb6e72ff7e4b044f1d371d8",
                },
            ),
            (
                "fig3b_4f_tptbw_strong",
                {
                    "entropy.csv": "d85304f9e9b69119c331ff33b5a4d660733dd1506588cbb0bba6a0dfbb030ce9",
                    "distribution_a.csv": "989e3905cc1c0e496d66467f876d1035f0aa145dcdf5a0fe37e4e480946bb7ed",
                    "distribution_b.csv": "f669d879cb5f3065664393b30dd7ffa148211b695056b95bdd97e1c584ff4f6d",
                    "joint.csv": "69061cc9788f7aaf3177b38fac8ccde4d0f9c0951073534073a0e713c1795345",
                },
            ),
            (
                "fig4b_tptpw_weak",
                {
                    "entropy.csv": "7126b4e0a1fd0c79f3cdc8a59a7e1d00796792e44d92cebd7440bf826870a307",
                    "distribution_a.csv": "8019edf45f43d48693ae721935e7cb6471ad2fbff43027fb02e72b609862edba",
                    "distribution_b.csv": "db1d76e77881ee103266979799ccca27ac4a2f57225ac90c06a1d62331be34aa",
                    "joint.csv": "719b055dc19bde0d435e7827d42cb1287f4fa076e544ab9348114ed2d1829ad9",
                },
            ),
            (
                "fig4e_tptbw_weak",
                {
                    "entropy.csv": "08526920fd4ef1353028bbc4df4554aa0a41ebc7a459de2c8e5a99f23692acd5",
                    "distribution_a.csv": "a8122d89ef4c84c115457487d9a8e5668e505a247bc155f2d70bbc8b55fa0201",
                    "distribution_b.csv": "d712a183bf7bd4e988fec891c533855dcef7dbbd9c02a0885b372e9dbda00e4b",
                    "joint.csv": "c12fc007810895fe0c24c6ae7010e71b20ef11c2f427f40bee4ef6b7f2dc1c73",
                },
            ),
            ("fig5b_sweep_zb1", {"heatmap.csv": "0434bfd5e7188a12fac4b6c722bc834003b2a359e1faa4521a91883c9427031e"}),
            (
                "fig5c_sweep_zb1_weak",
                {"heatmap.csv": "0ef03eb9d0fc50fc4c31682a826ec598725ae1ec475e5ae4fbd49fb965b4261e"},
            ),
            (
                "fig5e_sweep_boundary",
                {"heatmap.csv": "eacbec2d4b023e7978cd5a6dfeec5ea7576ae7bcd49c457b6551d252b668ed1f"},
            ),
            (
                "fig5f_sweep_boundary",
                {"heatmap.csv": "6746786bd0924c12aebdd6bba0ebd9fa2d478428d9e3577d95fd16197bb695ae"},
            ),
        ],
    )
    def test_pair_and_sweep_csv_bytes_are_pinned(self, tmp_path, stem, digests):
        write_artifacts(run(load_config(CONFIG_DIR / f"{stem}.json")), tmp_path)
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    # with the pins above and fig2's, every data file that make_figure_data.py writes is pinned
    @pytest.mark.parametrize(
        "stem, entropy_digest, distribution_digest",
        [
            (
                "fig1_hadamard",
                "427c1a511ccf461220348e3bf45a5b5679e4e89a1f6dde87defb7ff80b54f2a1",
                "31d7f897999da3cb15c0bff7efc2af1e863f0f268cdc19b427475ba4ccdcf325",
            ),
            (
                "fig6c_single_weak",
                "af80ef4334c48d641c325020ca249d4484c355d04a0bbda8ad16d354ca182acb",
                "9d567d2923b44edb48a4a611d6d8e906d5e3cd34da72c23a086e321f1cd4d0f3",
            ),
            (
                "fig6d_single_strong",
                "9f9372e7735c926cb75ad71f0c65f5d94ef14c2d4a02c08ec9992dc145019d78",
                "28a5ebdb55c406e4ba531c833093e0da2312c8a85da0cd597d3b56c793164da7",
            ),
        ],
    )
    def test_single_walker_csv_bytes_are_pinned(self, tmp_path, stem, entropy_digest, distribution_digest):
        write_artifacts(run(load_config(CONFIG_DIR / f"{stem}.json")), tmp_path)
        assert hashlib.sha256((tmp_path / "entropy.csv").read_bytes()).hexdigest() == entropy_digest
        assert hashlib.sha256((tmp_path / "distribution.csv").read_bytes()).hexdigest() == distribution_digest


class TestHeatmapPhaseIndependence:
    def test_walker_b_phase_barely_moves_the_heatmap_peak(self):
        # sweeping walker A's angles against walker B held in either phase
        # reaches the same top entropy; bounds frozen from the reference run
        # (max diff 0.0135 bits at the peak, 0.455 pointwise)
        from pathlib import Path

        from topowalk import load_config

        config_dir = Path(__file__).resolve().parent.parent / "configs"
        zb0 = run(load_config(config_dir / "fig5a_sweep_zb0.json")).heatmap
        zb1 = run(load_config(config_dir / "fig5b_sweep_zb1.json")).heatmap
        assert abs(zb0.max() - zb1.max()) < 0.05
        assert np.abs(zb0 - zb1).max() < 0.5


class TestWriteArtifacts:
    def test_entropy_rows(self, tmp_path):
        art = run(config_from_dict({"run_kind": "hadamard", "steps": 12}))
        write_artifacts(art, tmp_path)
        lines = (tmp_path / "entropy.csv").read_text().strip().splitlines()
        assert lines[0] == "step,entropy_bits"
        assert len(lines) == 14  # header + 13 rows

    def test_joint_rows_and_normalization(self, tmp_path):
        art = run(config_from_dict(minimal_pair_dict(steps=6)))
        write_artifacts(art, tmp_path)
        lines = (tmp_path / "joint.csv").read_text().strip().splitlines()
        half = art.config.steps + 1  # window resolves to steps + 1
        assert len(lines) - 1 == (2 * half + 1) ** 2
        total = sum(float(line.split(",")[2]) for line in lines[1:])
        assert abs(total - 1.0) < 1e-8

    def test_joint_csv_lines_pin_the_format(self, tmp_path):
        art = run(config_from_dict(minimal_pair_dict(steps=4)))
        write_artifacts(art, tmp_path)
        lines = (tmp_path / "joint.csv").read_text().splitlines()
        positions = _resolved_window(art.config).positions()
        expected = [f"{i},{j},{art.joint[a, b]:.16e}" for a, i in enumerate(positions) for b, j in enumerate(positions)]
        assert lines == ["i,j,probability", *expected]
        art = run(config_from_dict({"run_kind": "phase_diagram", "grid_n": 16, "k_points": 64}))
        write_artifacts(art, tmp_path)
        ph = art.phase
        expected = [
            f"{t1:.16e},{t2:.16e},{ph.winding[a, b]},{ph.gap[a, b]:.16e}"
            for a, t1 in enumerate(ph.thetas)
            for b, t2 in enumerate(ph.thetas)
        ]
        lines = (tmp_path / "phase.csv").read_text().splitlines()
        assert lines == ["theta1,theta2,winding,gap", *expected]
        assert ph.thetas.min() < 0 and ph.winding.min() == -1
        art = run(config_from_dict(minimal_dict("entropy_sweep")))
        write_artifacts(art, tmp_path)
        ax1, ax2 = art.config.sweep_grid
        expected = [
            f"{v1:.16e},{v2:.16e},{art.heatmap[a, b]:.16e}"
            for a, v1 in enumerate(ax1.values())
            for b, v2 in enumerate(ax2.values())
        ]
        assert (tmp_path / "heatmap.csv").read_text().splitlines() == ["axis1,axis2,scalar", *expected]

    def test_manifest_echoes_seed_and_reruns(self, tmp_path):
        cfg = config_from_dict(minimal_pair_dict(steps=5, master_seed=99))
        write_artifacts(run(cfg), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["master_seed"] == 99
        rebuilt = config_from_dict(manifest["config"])
        assert config_to_dict(rebuilt) == config_to_dict(cfg)

    def test_config_cannot_change_between_run_and_write(self, tmp_path):
        # the data files and the manifest both describe the config that ran
        cfg = config_from_dict(minimal_dict("entropy_sweep", steps=2, outputs=["heatmap"]))
        art = run(cfg)
        with pytest.raises(FrozenInstanceError):
            cfg.steps = 7
        with pytest.raises(TypeError):
            cfg.sweep_grid[0] = SweepAxis("theta1a", 5.0, 6.0, 2)
        with pytest.raises(TypeError):
            cfg.angles["a"] = (0.1, 0.2)
        write_artifacts(art, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        axes = [{"name": name, "min": 0.0, "max": 1.0, "count": 2} for name in ("theta1a", "theta2a")]
        echo = {
            "run_kind": "entropy_sweep", "steps": 2, "window": "auto",
            "angles": {"a": [-PI / 2, PI / 4], "b": [-PI / 2, 3 * PI / 4]},
            "initial_state": {"kind": "psi_plus", "positions": [0, 0]},
            "disorder": {"kind": "none", "half_width": 0.0, "target": "a"},
            "master_seed": 7, "sweep_grid": axes, "sweep_scalar": "final", "outputs": ["heatmap"],
        }
        assert json.dumps(manifest["config"]) == json.dumps(echo)
        axis1 = [line.split(",")[0] for line in (tmp_path / "heatmap.csv").read_text().splitlines()[1:]]
        assert axis1 == ["0.0000000000000000e+00"] * 2 + ["1.0000000000000000e+00"] * 2

    def test_frozen_config_pickles_and_copies(self):
        # worker processes receive configs by pickle; the read-only angles must survive it
        cfg = config_from_dict(minimal_dict("entropy_sweep", outputs=["heatmap"]))
        for again in (pickle.loads(pickle.dumps(cfg)), copy.deepcopy(cfg)):
            assert again == cfg and config_to_dict(again) == config_to_dict(cfg)
            with pytest.raises(TypeError):
                again.angles["a"] = (0.1, 0.2)

    @pytest.mark.parametrize(
        "kind, files",
        [
            ("hadamard", ["entropy.csv", "distribution.csv"]),
            ("single_split", ["entropy.csv", "distribution.csv"]),
            ("pair", ["entropy.csv", "distribution_a.csv", "distribution_b.csv", "joint.csv"]),
            ("entropy_sweep", ["heatmap.csv"]),
            ("phase_diagram", ["phase.csv"]),
        ],
    )
    def test_manifest_holds_each_config_value_once(self, tmp_path, kind, files):
        # the seed and the sweep axes live under "config" only; files keep their write order
        written = write_artifacts(run(config_from_dict(minimal_dict(kind))), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert list(manifest) == ["config", "package_version", "created_at", "files"]
        assert manifest["files"] == files == [p.name for p in written[:-1]]
        assert manifest["config"] == config_to_dict(config_from_dict(minimal_dict(kind)))

    def test_float_format_has_17_significant_digits(self, tmp_path):
        art = run(config_from_dict({"run_kind": "hadamard", "steps": 3}))
        write_artifacts(art, tmp_path)
        value = (tmp_path / "entropy.csv").read_text().splitlines()[2].split(",")[1]
        mantissa = value.split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) == 17

    def test_byte_identical_reruns(self, tmp_path):
        data = minimal_pair_dict(steps=8, disorder={"kind": "weak", "target": "a"})
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        write_artifacts(run(config_from_dict(data)), out1)
        write_artifacts(run(config_from_dict(data)), out2)
        for path in out1.iterdir():
            if path.name == "manifest.json":
                continue  # timestamps live only here
            assert path.read_bytes() == (out2 / path.name).read_bytes()

    def test_outputs_selector_filters_files(self, tmp_path):
        data = minimal_pair_dict(steps=5, outputs=["entropy"])
        write_artifacts(run(config_from_dict(data)), tmp_path)
        assert (tmp_path / "entropy.csv").exists()
        assert not (tmp_path / "joint.csv").exists()
        assert (tmp_path / "manifest.json").exists()

    def test_ensemble_entropy_has_std_column(self, tmp_path):
        data = minimal_pair_dict(
            steps=5, ensemble_size=2, disorder={"kind": "weak", "target": "a"}
        )
        write_artifacts(run(config_from_dict(data)), tmp_path)
        header = (tmp_path / "entropy.csv").read_text().splitlines()[0]
        assert header == "step,entropy_bits,std"

    def test_phase_csv_columns(self, tmp_path):
        art = run(config_from_dict({"run_kind": "phase_diagram", "grid_n": 16, "k_points": 64}))
        write_artifacts(art, tmp_path)
        lines = (tmp_path / "phase.csv").read_text().strip().splitlines()
        assert lines[0] == "theta1,theta2,winding,gap"
        assert len(lines) - 1 == 256

    def test_heatmap_csv(self, tmp_path):
        cfg = config_from_dict(
            {
                "run_kind": "entropy_sweep",
                "steps": 5,
                "angles": {"a": [-PI / 2, PI / 4], "b": [-PI / 2, 3 * PI / 4]},
                "sweep_grid": [
                    {"name": "theta1a", "min": -1, "max": 1, "count": 2},
                    {"name": "theta2a", "min": -1, "max": 1, "count": 3},
                ],
            }
        )
        write_artifacts(run(cfg), tmp_path)
        lines = (tmp_path / "heatmap.csv").read_text().strip().splitlines()
        assert lines[0] == "axis1,axis2,scalar"
        assert len(lines) - 1 == 6
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert [ax["name"] for ax in manifest["config"]["sweep_grid"]] == ["theta1a", "theta2a"]


def table_cells(kind: str, values) -> list[str]:
    """The cells _write_table writes for a one-column table of values."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        _write_table(path, "v", kind, values)
        data = path.read_bytes()
    assert data.endswith(b"\n") and b"\r" not in data and b"\0" not in data
    return data.decode().splitlines()[1:]


EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1.7976931348623157e308, -1.7976931348623157e308, float("nan"), float("inf"), float("-inf"),
    *(10.0**e for e in range(-323, 309)), *(-(10.0**e) for e in (-5, 0, 5, 22, 23)),
    9.99999999999999999e-5, 9.9999999999999999e22, 0.5, 1.0, 1.5, 0.1, 1 / 3,
    123456789012345678.0, 2.0**53, 2.0**53 + 2, 2.0**-1074 * 3,
]


class TestTableCells:
    """Every float cell is "%.16e" % v and every int cell str(v), whichever path formats it."""

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(8).integers(0, 2**64, 200_000, dtype=np.uint64)
        values = bits.view(np.float64)
        assert table_cells("f", values) == ["%.16e" % v for v in values.tolist()]

    def test_edge_floats(self):
        values = np.array(EDGE_FLOATS)
        with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
            near = [np.nextafter(v, toward) for v in values for toward in (-np.inf, np.inf)]
        values = np.concatenate([values, near])
        assert table_cells("f", values) == ["%.16e" % v for v in values.tolist()]

    def test_edge_ints(self):
        values = [0, 1, -1, 9, -9, 10, -10, 99, -100, 123456, -2**63, 2**63 - 1, -(2**63 - 1)]
        assert table_cells("i", values) == [str(v) for v in values]

    @pytest.mark.parametrize("top", [9999, 10**4, 10**8 - 1, 10**8, 10**12, 2**63 - 1])
    def test_ints_at_group_boundaries(self, top):
        # the widest value sets the column's group count; narrower ones leave whole groups NUL
        values = [v for v in (0, 1, 9999, 10**4, 10**8 - 1, 10**8, 10**12 - 1, 10**12) if v < top]
        values = [*values, top, *(-v for v in values), -top]
        if top == 2**63 - 1:
            values.append(-(2**63))
        assert table_cells("i", values) == [str(v) for v in values]

    def test_floats_whose_groups_start_with_zeros(self):
        values = np.array(
            [1.0000000000000002, 1.0000000100000001, 1e-5, 1.0000000000010001, 1.0001, 9.0000500000000001]
        )
        near = [np.nextafter(v, toward) for v in values for toward in (-np.inf, np.inf)]
        values = np.concatenate([values, -values, near])
        assert table_cells("f", values) == ["%.16e" % v for v in values.tolist()]

    def test_signed_zeros_take_the_digit_path(self):
        # zeros are proven as N = 0, k = 0, so no "%" fallback formats them; -0.0 keeps its "-"
        near = [np.nextafter(z, toward) for z in (0.0, -0.0) for toward in (-np.inf, np.inf)]  # +-5e-324
        tiny = 2.2250738585072014e-308  # the least normal double
        values = np.array([0.0, -0.0, *near, 1e-323, tiny, -tiny, 1.0, -1.0])
        digits, k, proven = _decimal_digits(values)
        zero = values == 0
        assert proven[zero].all() and not digits[zero].any() and not k[zero].any()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            _write_table(path, "v", "f", values)
            data = path.read_bytes()
        assert data == b"v\n" + "".join("%.16e\n" % v for v in values.tolist()).encode()

    def test_digit_words_are_percent_formatted(self):
        expected = b"".join(b"%04d" % g for g in range(10**4))
        expected += b"".join((b"%4d" % g).replace(b" ", b"\0") for g in range(10**4)) + b"\0" * 4
        assert _digit_words().tobytes() == expected
        assert not _digit_words().flags.writeable

    def test_exponent_words_are_percent_formatted(self):
        # a NUL after the sign stands in for a hundreds digit; the writer deletes every NUL
        words = _exponent_words().view(np.uint8).reshape(-1, 4)
        text = [bytes(w).replace(b"\0", b"").decode() for w in words]
        assert text == ["%+03d" % k for k in range(-308, 309)]
        assert not _exponent_words().flags.writeable

    def test_import_builds_no_table(self):
        # the tables are built on the first write, so importing the package stays cheap
        code = (
            "import topowalk\n"
            "from topowalk.experiments import _digit_words, _pow10_table\n"
            "print(_digit_words.cache_info().currsize, _pow10_table.cache_info().currsize)"
        )
        package_root = str(Path(experiments.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]

    @given(st.lists(st.floats(), min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_any_floats(self, values):
        assert table_cells("f", values) == ["%.16e" % v for v in values]

    @given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_any_ints(self, values):
        assert table_cells("i", values) == [str(v) for v in values]

    def test_mixed_columns_and_header(self, tmp_path):
        _write_table(tmp_path / "t.csv", "a,b,c", "ifi", [-3, 0, 12], [0.25, -0.0, 2.0**1000], [7, -1, 0])
        assert (tmp_path / "t.csv").read_bytes() == (
            b"a,b,c\n-3,2.5000000000000000e-01,7\n0,-0.0000000000000000e+00,-1\n"
            b"12,1.0715086071862673e+301,0\n"
        )

    def test_an_empty_table_is_its_header(self, tmp_path):
        _write_table(tmp_path / "t.csv", "a,b", "if", [], [])
        assert (tmp_path / "t.csv").read_bytes() == b"a,b\n"

    @pytest.mark.parametrize("short", [[0.5], [0.5, 0.25]])
    def test_columns_of_unequal_length_are_refused(self, short, tmp_path):
        # refused before the file opens: a length-1 column would broadcast, a short one fail mid-file
        with pytest.raises(ValueError, match=rf"\[3, {len(short)}\]"):
            _write_table(tmp_path / "t.csv", "a,b", "if", [1, 2, 3], short)
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "rows", [_TABLE_BLOCK_ROWS - 1, _TABLE_BLOCK_ROWS, _TABLE_BLOCK_ROWS + 1, 2 * _TABLE_BLOCK_ROWS + 1]
    )
    def test_rows_across_block_boundaries(self, rows, tmp_path):
        rng = np.random.default_rng(rows)
        small = rng.integers(-99, 100, rows)
        wide = rng.integers(0, 10, rows)
        wide[-1] = -(10**12)  # the widest int, only in the last block, sets the column's width
        floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
        special = [float("nan"), float("inf"), float("-inf"), 5e-324, -1e-310, -0.0, 0.0]  # "%" and sign cells
        edges = [*range(0, rows, _TABLE_BLOCK_ROWS), rows]  # each block's first row, and the table's end
        near = sorted({r for e in edges for r in range(e - len(special), e + len(special)) if 0 <= r < rows})
        floats[near] = np.resize(special, len(near))  # every special on each side of each edge
        _write_table(tmp_path / "t.csv", "i,j,p", "iif", small, wide, floats)
        lines = [f"{i},{j},{'%.16e' % v}\n" for i, j, v in zip(small.tolist(), wide.tolist(), floats.tolist())]
        assert (tmp_path / "t.csv").read_bytes() == ("i,j,p\n" + "".join(lines)).encode()

    @pytest.mark.parametrize("digits", [(), (1,), (3,), (1, 1), (2,), (1, 2, 3)])  # 0, 3, 5, 6, 4, 12 bytes
    def test_word_stores_at_every_byte_offset(self, digits, tmp_path):
        # int columns of 1 to 4 characters, sign included, put the float column's five 4-byte word
        # stores and the width-4 int column's word store at each byte offset mod 4 across the cases
        rows = _TABLE_BLOCK_ROWS + 9
        rng = np.random.default_rng(len(digits) + sum(digits))
        ints = [rng.integers(1 - 10**d, 10**d, rows) for d in (*digits, 3)]
        for column, d in zip(ints, (*digits, 3)):
            column[rows // 2] = 1 - 10**d  # the widest value, with its sign
        floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
        near = np.arange(_TABLE_BLOCK_ROWS - 4, _TABLE_BLOCK_ROWS + 4)  # the "%" cells beside the block edge
        floats[near] = [float("nan"), float("-inf"), -5e-324, -0.0, 0.0, 1e-310, float("inf"), -1.0]
        kinds, columns = "i" * len(digits) + "fi", [*ints[:-1], floats, ints[-1]]
        _write_table(tmp_path / "t.csv", "h", kinds, *columns)
        text = [["%.16e" % v if k == "f" else str(v) for v in c.tolist()] for k, c in zip(kinds, columns)]
        expected = "h\n" + "".join(",".join(row) + "\n" for row in zip(*text))
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()


class TestWriterCost:
    @pytest.fixture(scope="class")
    def pair_100(self):
        return run(load_config(CONFIG_DIR / "fig3a_4a_tptpw_clean.json"))

    def test_few_joint_cells_take_the_fallback(self, pair_100):
        # an all-"%" writer would pass every byte test and lose the speed
        proven = _decimal_digits(np.ravel(pair_100.joint))[2]
        assert proven.size == 203**2
        assert np.mean(~proven) < 0.05

    def test_pow10_exponents_are_int32(self):
        # an int64 exponent table passes every byte test, but np.ldexp then takes a slow loop that
        # costs about 130 us more per block
        assert _pow10_table()[2].dtype == np.int32

    def test_peak_memory_of_a_pair_run(self):
        # the per-run coin table is about 2 MB of it
        config = load_config(CONFIG_DIR / "fig3a_4a_tptpw_clean.json")
        run(config)  # warm
        tracemalloc.start()
        try:
            run(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 2**20

    def test_peak_memory_of_write_artifacts(self, pair_100, tmp_path):
        write_artifacts(pair_100, tmp_path)  # warm: the power-of-ten and digit tables are built once
        tracemalloc.start()
        try:
            write_artifacts(pair_100, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 2**20

    def test_table_memory_is_flat_in_rows(self, tmp_path):
        # a block's temporaries are freed before the next block is formatted
        def peak(blocks: int) -> int:
            rows = blocks * _TABLE_BLOCK_ROWS
            columns = [np.arange(rows) // 203, np.arange(rows) % 203, np.random.default_rng(1).random(rows)]
            _write_table(tmp_path / "t.csv", "i,j,p", "iif", *columns)  # warm
            tracemalloc.start()
            try:
                _write_table(tmp_path / "t.csv", "i,j,p", "iif", *columns)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4) <= 1.5 * peak(1)
