import copy
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from topowalk import (
    BoundarySpec,
    ConfigError,
    InitialPairState,
    LatticeWindow,
    RunConfig,
    SweepAxis,
    WindowOverflowError,
    config_from_dict,
    config_to_dict,
    derive_seed,
    entropy_sweep,
    load_config,
    run,
    sample_angle_field,
    von_neumann_entropy,
    write_artifacts,
)
from topowalk.experiments import (
    ANGLES_WINDING_0,
    ANGLES_WINDING_1,
    RUN_KINDS,
    _particle_angles,
    _sweep_cell_scalar,
    _with_axis_value,
)
from oracles import (
    dense_hadamard_unitary,
    dense_split_unitary,
    evolve_pair,
    joint_distribution_direct,
    make_pair_state,
    reduce_pair_to_coin,
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


def minimal_dict(kind, **overrides):
    return {**copy.deepcopy(KIND_BASES[kind]), **overrides}


def minimal_pair_dict(**overrides):
    return minimal_dict("pair", **overrides)


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
            ({"run_kind": "hadamard", "coin_amps": [float("nan"), 0]}, "coin_amps"),
            ({"run_kind": "hadamard", "coin_amps": [1, 1]}, "coin_amps"),
            ({"initial_state": {"kind": "psi+", "positions": [11, 0]}}, "initial_state"),
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
            ({"run_kind": "single_split", "disorder": {"kind": "weak", "target": "b"}}, "disorder"),
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
        ],
    )
    def test_validation_errors_name_the_field(self, patch, field):
        # the base of the patch's run kind; a bogus kind or an alias takes the pair base
        base = patch.get("run_kind") if patch.get("run_kind") in KIND_BASES else "pair"
        with pytest.raises(ConfigError) as err:
            config_from_dict(minimal_dict(base, **patch))
        assert err.value.field == field

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
            assert _particle_angles(cfg, "b") == _particle_angles(cfg, "a") == (-PI / 2, PI / 4)

    def test_plain_b_beside_a_boundary_is_kept(self):
        cfg = config_from_dict(
            minimal_pair_dict(
                run_kind="tptbw",
                angles={"a": BOUNDARY_ANGLES, "b": [0.1, 0.2]},
            )
        )
        assert _particle_angles(cfg, "b") == (0.1, 0.2)
        assert isinstance(_particle_angles(cfg, "a"), BoundarySpec)

    def test_boundary_walk_shares_field_by_default(self):
        cfg = config_from_dict(
            minimal_pair_dict(
                run_kind="tptbw",
                angles={"a": {"minus": [-PI / 2, PI / 4], "plus": [-PI / 2, 3 * PI / 4]}},
            )
        )
        assert _particle_angles(cfg, "b") == _particle_angles(cfg, "a")

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
        assert _particle_angles(cfg, "b").theta_minus == (0.1, 0.2)

    def test_tptpw_with_walker_a_only_matches_explicit_b(self):
        a_only = run(config_from_dict(minimal_pair_dict(angles={"a": [-PI / 2, PI / 4]})))
        both = run(
            config_from_dict(minimal_pair_dict(angles={"a": [-PI / 2, PI / 4], "b": [-PI / 2, PI / 4]}))
        )
        assert a_only.entropy.entropy_bits == both.entropy.entropy_bits
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

    def test_side_axis_requires_boundary(self):
        with pytest.raises(ConfigError):
            _with_axis_value({"a": (0.0, 0.0)}, "theta2a_plus", 0.9)


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
        assert a.entropy.entropy_bits == b.entropy.entropy_bits
        for label in a.distributions:
            assert np.array_equal(a.distributions[label], b.distributions[label])
        if a.joint is not None:
            assert np.array_equal(a.joint, b.joint)

    def test_zero_steps_snapshot(self):
        art = run(config_from_dict({"run_kind": "hadamard", "steps": 0}))
        assert art.entropy.steps == [0]
        dist = art.distributions["walk"]
        assert dist[art.positions == 0] == 1.0

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
        cfg = config_from_dict({"run_kind": "hadamard", "steps": 30, "window": 5})
        with pytest.raises(WindowOverflowError):
            run(cfg)

    def test_pair_window_too_small_overflows(self):
        cfg = config_from_dict(minimal_pair_dict(steps=10, window=5))
        with pytest.raises(WindowOverflowError):
            run(cfg)

    def test_pair_marginals_sum_to_one(self):
        art = run(config_from_dict(minimal_pair_dict(steps=12)))
        assert abs(art.distributions["a"].sum() - 1.0) < 1e-10
        assert abs(art.distributions["b"].sum() - 1.0) < 1e-10
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
        assert np.abs(np.array(art.entropy.entropy_bits) - entropy).max() < 1e-12
        if ensemble == 1:
            assert art.entropy_std is None and std is None
        else:
            assert np.abs(art.entropy_std - std).max() < 1e-12
        assert np.abs(art.joint - joint).max() < 1e-12
        assert np.abs(art.distributions["a"] - joint.sum(axis=1)).max() < 1e-12
        assert np.abs(art.distributions["b"] - joint.sum(axis=0)).max() < 1e-12


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
        assert np.abs(np.array(art.entropy.entropy_bits) - entropy).max() < 1e-12
        if ensemble == 1:
            assert art.entropy_std is None and std is None
        else:
            assert np.abs(art.entropy_std - std).max() < 1e-12
        assert np.abs(art.distributions["walk"] - dist).max() < 1e-12
        assert np.array_equal(art.positions, LatticeWindow(21).positions())


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
        grid = entropy_sweep(cfg).heatmap.values
        assert np.ptp(grid) == 0.0

    def test_grid_shape_and_axes(self):
        art = entropy_sweep(self.sweep_config())
        assert art.heatmap.values.shape == (3, 4)
        assert art.heatmap.axis_names == ("theta1a", "theta2a")

    def test_cell_value_independent_of_evaluation_order(self):
        cfg = self.sweep_config()
        art = entropy_sweep(cfg)
        # recompute one cell in isolation with its derived seed
        i, j = 1, 2
        angles = _with_axis_value(cfg.angles, "theta1a", float(cfg.sweep_grid[0].values()[i]))
        angles = _with_axis_value(angles, "theta2a", float(cfg.sweep_grid[1].values()[j]))
        lone = _sweep_cell_scalar(cfg, angles, derive_seed(cfg.master_seed, i, j))
        assert_allclose(art.heatmap.values[i, j], lone, atol=1e-14)

    def test_longmean_scalar(self):
        art = entropy_sweep(self.sweep_config(sweep_scalar="longmean"))
        assert art.heatmap.scalar == "longmean"
        assert np.all(art.heatmap.values >= 0)

    def test_disordered_sweep_deterministic(self):
        cfg_data = dict(disorder={"kind": "strong", "target": "a"})
        a = entropy_sweep(self.sweep_config(**cfg_data)).heatmap.values
        b = entropy_sweep(self.sweep_config(**cfg_data)).heatmap.values
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
        grid = entropy_sweep(cfg).heatmap.values
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
        grid = entropy_sweep(cfg).heatmap.values
        for i, t1 in enumerate((-1.0, 1.0)):
            for j, t2 in enumerate((0.5, 2.5)):
                swept = {"minus": [t1, PI / 4], "plus": [-PI / 2, t2]}
                pair = config_from_dict({
                    "run_kind": "tptbw", "steps": 10, "initial_state": {"kind": "psi+"},
                    "angles": {"a": swept, "b": swept}, "disorder": {"kind": "weak", "target": "both"},
                    "master_seed": derive_seed(cfg.master_seed, i, j),
                })
                assert grid[i, j] == run(pair).entropy.entropy_bits[-1]

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
        assert np.array_equal(entropy_sweep(cfg).heatmap.values, entropy_sweep(explicit).heatmap.values)


class TestPhaseDiagramRun:
    def test_run_emits_grids(self):
        art = run(config_from_dict({"run_kind": "phase_diagram", "grid_n": 16, "k_points": 64}))
        assert art.phase.winding.shape == (16, 16)
        assert set(np.unique(art.phase.winding)).issubset({-1, 0, 1})


class TestHeatmapPhaseIndependence:
    def test_walker_b_phase_barely_moves_the_heatmap_peak(self):
        # sweeping walker A's angles against walker B held in either phase
        # reaches the same top entropy; bounds frozen from the reference run
        # (max diff 0.0135 bits at the peak, 0.455 pointwise)
        from pathlib import Path

        from topowalk import load_config

        config_dir = Path(__file__).resolve().parent.parent / "configs"
        zb0 = run(load_config(config_dir / "fig5a_sweep_zb0.json")).heatmap.values
        zb1 = run(load_config(config_dir / "fig5b_sweep_zb1.json")).heatmap.values
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
        expected = [
            f"{i},{j},{art.joint[a, b]:.16e}"
            for a, i in enumerate(art.positions)
            for b, j in enumerate(art.positions)
        ]
        assert lines == ["i,j,probability", *expected]

    def test_manifest_echoes_seed_and_reruns(self, tmp_path):
        cfg = config_from_dict(minimal_pair_dict(steps=5, master_seed=99))
        write_artifacts(run(cfg), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["master_seed"] == 99
        rebuilt = config_from_dict(manifest["config"])
        assert config_to_dict(rebuilt) == config_to_dict(cfg)

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
        assert manifest["heatmap_axes"] == ["theta1a", "theta2a"]
