import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import topowalk
from topowalk.cli import main
from topowalk.experiments import RUN_KIND_ALIASES, RUN_KINDS

PI = np.pi


def read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


class TestWalkCommand:
    def test_hadamard_run_writes_files(self, tmp_path):
        out = tmp_path / "run"
        assert main(["walk", "--steps", "20", "--out", str(out)]) == 0
        assert (out / "entropy.csv").exists()
        assert (out / "distribution.csv").exists()
        assert read_manifest(out)["config"]["run_kind"] == "hadamard"

    def test_split_kind_with_disorder(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "walk", "--kind", "split", "--steps", "15",
                "--theta1a", str(-PI / 2), "--theta2a", str(PI / 4),
                "--disorder", "strong", "--disorder-target", "a",
                "--seed", "42", "--out", str(out),
            ]
        )
        assert code == 0
        manifest = read_manifest(out)
        assert manifest["config"]["run_kind"] == "single_split"
        assert manifest["config"]["master_seed"] == 42

    def test_split_manifest_holds_walker_a_angles_only(self, tmp_path):
        out = tmp_path / "run"
        assert main(["walk", "--kind", "split", "--steps", "3", "--out", str(out)]) == 0
        assert read_manifest(out)["config"]["angles"] == {"a": [-PI / 2, PI / 4]}

    def test_split_config_with_walker_b_angles_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"run_kind": "single_split", "angles": {"a": [0.1, 0.2], "b": [0.3, 0.4]}}))
        out = tmp_path / "run"
        assert main(["walk", "--config", str(path), "--steps", "3", "--out", str(out)]) == 2
        assert "angles.b" in capsys.readouterr().err
        assert not out.exists()

    def test_disorder_width_flag(self, tmp_path):
        out = tmp_path / "run"
        argv = ["walk", "--kind", "split", "--steps", "5", "--disorder", "width=0.5", "--out", str(out)]
        assert main(argv) == 0
        assert read_manifest(out)["config"]["disorder"]["half_width"] == 0.5

    def test_bad_disorder_flag_is_config_error(self, tmp_path):
        assert main(["walk", "--disorder", "loud", "--out", str(tmp_path)]) == 2

    def test_window_too_small_is_runtime_error(self, tmp_path):
        assert main(["walk", "--steps", "30", "--window", "5", "--out", str(tmp_path)]) == 3


class TestBadPaths:
    """A config file that cannot be read or parsed, or an output directory that cannot be made,
    ends in one error line and exit code 2, not a traceback."""

    @staticmethod
    def config_path(tmp_path, case):
        path = tmp_path / "cfg.json"
        if case == "directory":
            return tmp_path
        if case == "invalid json":
            path.write_text('{"steps": 3,')
        elif case == "not utf-8":
            path.write_bytes(b'{"run_kind": "hadamard", "steps": 3, "master_seed": "\xff"}')
        return path  # "missing": never written

    @pytest.mark.parametrize("case", ["missing", "directory", "invalid json", "not utf-8"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, case):
        path = self.config_path(tmp_path, case)
        out = tmp_path / "run"
        assert main(["walk", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config field 'config': ") and str(path) in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_out_under_a_regular_file_is_an_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "run"
        assert main(["walk", "--steps", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write to {out}: Not a directory\n"

    def test_an_os_error_before_writing_is_not_a_write_error(self, tmp_path, monkeypatch):
        import topowalk.cli as cli

        def failing_run(config):
            raise OSError("raised while running")

        monkeypatch.setattr(cli, "run", failing_run)
        with pytest.raises(OSError, match="raised while running"):
            main(["walk", "--steps", "3", "--out", str(tmp_path / "run")])


class TestOutputDirectory:
    """A run owns its output directory: a previous run's manifest and the data files it lists go
    before the run writes, and the run's manifest comes last."""

    WALK = ["walk", "--steps", "5"]

    def test_a_run_leaves_only_its_own_files_beside_unknown_ones(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        assert main(["pair", "--steps", "5", "--out", str(out)]) == 0
        assert main([*self.WALK, "--out", str(out)]) == 0
        files = read_manifest(out)["files"]
        assert files == ["entropy.csv", "distribution.csv"]
        assert sorted(p.name for p in out.iterdir()) == sorted([*files, "manifest.json", "notes.txt"])
        assert (out / "notes.txt").read_text() == "kept"

    def test_an_edited_manifest_removes_only_the_writers_files(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        outside = tmp_path / "outside.csv"
        for path in (outside, out / "notes.txt", out / "joint.csv"):
            path.write_text("old")
        listed = ["notes.txt", "../outside.csv", str(outside), "joint.csv", "./phase.csv", ["x"], {"y": 1}]
        (out / "manifest.json").write_text(json.dumps({"files": listed}))
        assert main([*self.WALK, "--out", str(out)]) == 0
        assert not (out / "joint.csv").exists()
        assert outside.read_text() == (out / "notes.txt").read_text() == "old"

    @pytest.mark.parametrize("text", ["not json", "[1, 2]", '"files"', '{"files": 3}', '{"config": {}}'])
    def test_a_manifest_that_lists_no_files_is_replaced(self, tmp_path, text):
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text(text)
        (out / "joint.csv").write_text("old")
        assert main([*self.WALK, "--out", str(out)]) == 0
        assert read_manifest(out)["files"] == ["entropy.csv", "distribution.csv"]
        assert (out / "joint.csv").read_text() == "old"  # no manifest lists it

    def test_a_write_that_fails_partway_leaves_no_manifest(self, tmp_path, monkeypatch, capsys):
        import topowalk.experiments as experiments

        out = tmp_path / "out"
        assert main([*self.WALK, "--out", str(out)]) == 0
        write_table, names = experiments._write_table, []

        def failing(path, *args):
            names.append(path.name)
            if len(names) == 2:
                raise OSError(28, "No space left on device")
            write_table(path, *args)

        monkeypatch.setattr(experiments, "_write_table", failing)
        assert main(["pair", "--steps", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err.endswith("No space left on device\n")
        # the walk's files are gone, and the pair's first file has no manifest to describe it
        assert [p.name for p in out.iterdir()] == names[:1] == ["entropy.csv"]


class TestPairCommand:
    def test_two_phase_pair_run(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "pair", "--steps", "10", "--state", "psi+",
                "--theta1a", str(-PI / 2), "--theta2a", str(PI / 4),
                "--theta1b", str(-PI / 2), "--theta2b", str(3 * PI / 4),
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "joint.csv").exists()
        assert (out / "distribution_a.csv").exists()
        assert (out / "distribution_b.csv").exists()
        assert read_manifest(out)["config"]["run_kind"] == "pair"

    def test_boundary_flag_selects_boundary_walk(self, tmp_path):
        out = tmp_path / "run"
        boundary = f"--boundary={-PI/2},{PI/4},{-PI/2},{3*PI/4}"
        code = main(["pair", "--steps", "10", boundary, "--out", str(out)])
        assert code == 0
        manifest = read_manifest(out)
        assert manifest["config"]["run_kind"] == "pair"
        assert manifest["config"]["angles"]["a"]["plus"] == [-PI / 2, 3 * PI / 4]

    def test_malformed_boundary_is_config_error(self, tmp_path):
        assert main(["pair", "--boundary", "1,2,3", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("thetas", [["--theta1a", "1"], ["--theta1a", "1", "--theta2a", "2"]])
    def test_boundary_with_a_walker_a_theta_is_config_error(self, tmp_path, capsys, thetas):
        # the boundary and the theta flags both set walker a's angles; neither may silently win
        out = tmp_path / "run"
        assert main(["pair", "--steps", "5", "--boundary", "0.1,0.2,0.3,0.4", *thetas, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config field 'angles.a'" in err and "--boundary" in err
        assert not out.exists()

    def test_boundary_with_walker_b_thetas(self, tmp_path):
        out = tmp_path / "run"
        argv = ["pair", "--steps", "5", "--boundary", "0.1,0.2,0.3,0.4", "--theta1b", "1", "--theta2b", "2"]
        assert main([*argv, "--out", str(out)]) == 0
        angles = read_manifest(out)["config"]["angles"]
        assert angles == {"a": {"minus": [0.1, 0.2], "plus": [0.3, 0.4]}, "b": [1.0, 2.0]}

    def test_state_flag_psi_minus(self, tmp_path):
        out = tmp_path / "run"
        assert main(["pair", "--steps", "5", "--state", "psi-", "--out", str(out)]) == 0
        assert read_manifest(out)["config"]["initial_state"]["kind"] == "psi_minus"

    def test_ensemble_flag(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "pair", "--steps", "5", "--ensemble", "2",
                "--disorder", "weak", "--out", str(out),
            ]
        )
        assert code == 0
        header = (out / "entropy.csv").read_text().splitlines()[0]
        assert header == "step,entropy_bits,std"


class TestSweepCommand:
    def test_axis_flags(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "sweep", "--steps", "5",
                "--axis", f"theta1a:{-PI}:{PI}:3",
                "--axis", f"theta2a:{-PI}:{PI}:3",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "heatmap.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == 9

    def test_missing_axes_is_config_error(self, tmp_path):
        assert main(["sweep", "--steps", "5", "--out", str(tmp_path)]) == 2

    def test_malformed_axis_is_config_error(self, tmp_path):
        assert main(["sweep", "--axis", "theta1a:0:1", "--out", str(tmp_path)]) == 2

    def test_boundary_flag_sweeps_both_walkers(self, tmp_path):
        # --boundary gives the boundary to both walkers, so a walker-a axis
        # moves walker b too: each cell is the pair run under the swept boundary
        common = ["--steps", "6", "--disorder", "weak", "--disorder-target", "both"]
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep", *common, "--seed", "3", "--boundary=-1.5708,0.7854,-1.5708,2.3562",
                "--axis", "theta1a_minus:-1:1:2", "--axis", "theta2a_plus:0.5:2.5:2",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = (out / "heatmap.csv").read_text().strip().splitlines()[1:]
        cells = [(i, j, t1, t2) for i, t1 in enumerate((-1, 1)) for j, t2 in enumerate((0.5, 2.5))]
        for row, (i, j, t1, t2) in zip(rows, cells, strict=True):
            pair_out = tmp_path / f"pair{i}{j}"
            seed = str(topowalk.derive_seed(3, i, j))
            code = main(
                [
                    "pair", *common, "--seed", seed, f"--boundary={t1},0.7854,-1.5708,{t2}",
                    "--out", str(pair_out),
                ]
            )
            assert code == 0
            last = (pair_out / "entropy.csv").read_text().strip().splitlines()[-1]
            assert row.split(",")[2] == last.split(",")[1]

    def test_sweep_kind_flag_is_gone(self, tmp_path, capsys):
        # the angles alone set each cell's walk
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--sweep-kind", "tptbw", "--axis", "theta1a:0:1:2", "--axis", "theta2a:0:1:2",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --sweep-kind" in capsys.readouterr().err


class TestBadNumbers:
    @pytest.mark.parametrize(
        "argv",
        [
            ["walk", "--kind", "split", "--theta1a=nan", "--theta2a=0.78"],
            ["walk", "--kind", "split", "--theta1a=inf", "--theta2a=0.78"],
            ["pair", "--theta1a=nan", "--theta2a=0.78", "--theta1b=-1.57", "--theta2b=2.36"],
            ["pair", "--boundary=nan,0.78,-1.57,2.36"],
            ["walk", "--disorder=width=nan"],
            ["walk", "--disorder=width=inf"],
            ["walk", "--seed=-3"],
            ["sweep", "--axis", "theta1a:nan:1:2", "--axis", "theta2a:0:1:2"],
        ],
    )
    def test_config_error_and_no_data_files(self, tmp_path, argv):
        out = tmp_path / "run"
        assert main([*argv, "--steps", "5", "--out", str(out)]) == 2
        assert not out.exists() or not any(out.iterdir())

    def test_disorder_seed_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["walk", "--disorder-seed", "3", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestIgnoredOrOversizedValues:
    AXES = ["--axis", "theta1a:0:1:2", "--axis", "theta2a:0:1:2"]

    @pytest.mark.parametrize(
        "argv,field",
        [
            # values the run kind would ignore
            (["walk", "--disorder", "strong"], "disorder"),
            (["walk", "--kind", "split", "--disorder", "strong", "--disorder-target", "b"], "disorder"),
            (["walk", "--theta1a=0.3", "--theta2a=0.4"], "angles"),
            # a target for a disorder that draws no random angles
            (["pair", "--steps", "3", "--disorder-target", "b"], "disorder"),
            # arrays over MAX_ARRAY_ELEMENTS
            (["walk", "--steps", str(10**11)], "steps"),
            (["phase-diagram", "--k-points", str(10**30)], "k_points"),
            # replicates of a walk with no random angles
            (["walk", "--steps", "5", "--ensemble", "3"], "ensemble_size"),
            # k_points passes on its own, but one grid point's three k_points-long arrays would not
            (["phase-diagram", "--grid-n", "16", "--k-points", str(2**26)], "k_points"),
            # an odd k grid skips k = 0, where the gap closes on theta1 = -theta2
            (["phase-diagram", "--grid-n", "16", "--k-points", "257"], "k_points"),
            # finite bounds whose span is not: no numpy warning (an error under pytest), no NaN walk
            (["sweep", "--steps", "2", "--axis=theta1a:-1e308:1e308:3", "--axis", "theta2a:0:1:2"], "sweep_grid"),
        ],
    )
    def test_config_error_and_no_data_files(self, tmp_path, capsys, argv, field):
        out = tmp_path / "run"
        assert main([*argv, "--out", str(out)]) == 2
        assert f"config field '{field}'" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            # flags of fields that no run kind of the subcommand reads
            ["walk", "--kind", "split", "--steps", "5", "--state", "psi-", "--k-points", "99", "--theta1b=0.3"],
            ["walk", "--kind", "split", "--state", "psi-"],
            ["walk", "--k-points", "99"],
            ["walk", "--kind", "split", "--theta1b=0.3"],
            ["pair", "--axis", "theta1a:0:1:2"],
            ["pair", "--grid-n", "16"],
            ["sweep", *AXES, "--ensemble", "5"],
            ["phase-diagram", "--disorder", "strong"],
            ["phase-diagram", "--steps", "5"],
        ],
    )
    def test_flag_of_an_unread_field_is_unrecognized(self, tmp_path, capsys, argv):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,cfg",
        [
            ("walk", {"run_kind": "phase_diagram", "grid_n": 16, "k_points": 64}),
            ("pair", {"run_kind": "hadamard", "steps": 5}),
            ("sweep", {"run_kind": "tptbw", "steps": 5}),
            ("phase-diagram", {"run_kind": "entropy_sweep"}),
            ("walk", {"run_kind": []}),
            ("pair", {"run_kind": {"kind": "pair"}}),
        ],
    )
    def test_config_of_another_subcommand_is_config_error(self, tmp_path, capsys, command, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert "config field 'run_kind'" in capsys.readouterr().err
        assert not out.exists()

    def test_output_the_run_kind_does_not_write_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"run_kind": "tptpw", "steps": 5, "outputs": ["heatmap"]}))
        out = tmp_path / "run"
        assert main(["pair", "--config", str(path), "--out", str(out)]) == 2
        assert "config field 'outputs'" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFileValues:
    @pytest.mark.parametrize(
        "cfg,flags",
        [
            ({"disorder": -2}, []),
            ({"disorder": [1, 2]}, []),
            ({"angles": "psi+"}, []),
            ({"disorder": -2}, ["--disorder=weak"]),
            ({"disorder": [1, 2]}, ["--disorder-target=b"]),
            ({"angles": "psi+"}, ["--theta1a=0.5", "--theta2a=0.5"]),
            ({"angles": [1, 2]}, ["--boundary=0,0,1,1"]),
        ],
    )
    def test_malformed_mapping_is_config_error(self, tmp_path, cfg, flags):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert main(["pair", "--config", str(path), *flags, "--steps", "5", "--out", str(out)]) == 2
        assert not out.exists() or not any(out.iterdir())

    def test_walker_a_flags_keep_walker_b_default_angles(self, tmp_path):
        base = ["pair", "--theta1a=-1.57", "--theta2a=0.78", "--steps", "5"]
        out_a, out_ab = tmp_path / "a", tmp_path / "ab"
        assert main([*base, "--out", str(out_a)]) == 0
        explicit_b = [f"--theta1b={-PI / 2}", f"--theta2b={3 * PI / 4}"]
        assert main([*base, *explicit_b, "--out", str(out_ab)]) == 0
        names = sorted(p.name for p in out_a.iterdir() if p.name != "manifest.json")
        assert names == ["distribution_a.csv", "distribution_b.csv", "entropy.csv", "joint.csv"]
        for name in names:
            assert (out_a / name).read_bytes() == (out_ab / name).read_bytes()


# Any JSON object as a config file must end in exit 0, 2 or 3, never a raw
# exception. A draw picks a subcommand and one of the run_kind values its
# configs give, then a plausible config holding only fields that kind reads,
# with up to two fields replaced by arbitrary JSON values. Plain-int sizes are
# capped, in the plausible draws and the replacements alike, so that every run
# stays small: the runs are real, and a size below the MAX_ARRAY_ELEMENTS bound
# can still take long (the bound itself is tested in
# TestIgnoredOrOversizedValues and test_experiments).
_COMMAND_KINDS = {
    "walk": ["hadamard", "single_split"],
    "pair": ["pair", "tptpw", "tptbw"],
    "sweep": ["entropy_sweep"],
    "phase-diagram": ["phase_diagram"],
}
_SIZES = {
    "steps": st.integers(0, 12), "ensemble_size": st.integers(1, 3),
    "grid_n": st.integers(16, 18), "k_points": st.integers(32, 40).map(lambda n: 2 * n),  # even, as required
}
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)
_FINITE_ANGLE = st.floats(-10, 10)
_ANGLE_PAIR = st.lists(_FINITE_ANGLE, min_size=2, max_size=2)
_ANGLE_ENTRY = _ANGLE_PAIR | st.fixed_dictionaries({"minus": _ANGLE_PAIR, "plus": _ANGLE_PAIR})
_TARGET = st.sampled_from(["a", "b", "both"])
_PLAUSIBLE = {
    "window": st.just("auto") | st.integers(1, 14),
    "angles": st.fixed_dictionaries({"a": _ANGLE_ENTRY}, optional={"b": _ANGLE_ENTRY}),
    "initial_state": st.fixed_dictionaries(
        {"kind": st.sampled_from(["psi+", "psi-", "sep", "psi_plus"])},
        optional={"positions": st.lists(st.integers(-4, 4), min_size=2, max_size=2)},
    ),
    "coin_amps": st.sampled_from([[1, 0], [0, [0, 1]], [0.6, 0.8], [1, 1]]),
    # a preset sets its own half_width
    "disorder": st.fixed_dictionaries(
        {"kind": st.sampled_from(["none", "weak", "strong"])}, optional={"target": _TARGET}
    ) | st.fixed_dictionaries(
        {"kind": st.just("uniform")}, optional={"half_width": st.floats(0, 7), "target": _TARGET}
    ),
    "master_seed": st.integers(0, 2**70),
    "sweep_grid": st.lists(
        st.fixed_dictionaries({
            "name": st.sampled_from(["theta1a", "theta2a", "theta2b", "theta1a_plus"]),
            "min": _FINITE_ANGLE, "max": _FINITE_ANGLE, "count": st.integers(1, 3),
        }),
        min_size=2,
        max_size=2,
    ),
    "sweep_scalar": st.sampled_from(["final", "longmean"]),
}


def _replacement(key):
    if key not in _SIZES and key != "window":
        return _JSON_VALUES
    # sizes: out-of-range small numbers, non-finite floats and non-numbers
    return st.integers(-2, 3) | st.floats(-2, 3) | _JSON_VALUES.filter(
        lambda v: not isinstance(v, (int, float)) or not abs(v) < 1e6
    )


_REPLACEMENTS = st.lists(
    st.sampled_from([*_SIZES, *_PLAUSIBLE, "run_kind", "outputs", "bogus_field"]).flatmap(
        lambda key: st.tuples(st.just(key), _replacement(key))
    ),
    max_size=2,
).map(dict)


def _one_replicate_unless_random(cfg):
    # ensemble_size above 1 is valid only when the disorder draws angles
    disorder = cfg.get("disorder", {"kind": "none"})
    draws = disorder["kind"] in ("weak", "strong") or (
        disorder["kind"] == "uniform" and disorder.get("half_width", 0.0) > 0
    )
    if draws or "ensemble_size" not in cfg:
        return cfg
    return {**cfg, "ensemble_size": 1}


def _config(kind):
    """A config of run kind `kind`: only fields it reads, then up to two replaced."""
    reads, writes = RUN_KINDS[RUN_KIND_ALIASES.get(kind, kind)]
    # sizes are always drawn, and a sweep has no default axes
    required = {"run_kind": st.just(kind), **_SIZES, "sweep_grid": _PLAUSIBLE["sweep_grid"]}
    optional = {**_PLAUSIBLE, "outputs": st.none() | st.lists(st.sampled_from(writes), max_size=2)}
    plausible = st.fixed_dictionaries(
        {key: s for key, s in required.items() if key == "run_kind" or key in reads},
        optional={key: s for key, s in optional.items() if key in reads and key not in required},
    ).map(_one_replicate_unless_random)
    return st.builds(lambda drawn, replaced: {**drawn, **replaced}, plausible, _REPLACEMENTS)


def _draw(command):
    """(command, config, another command) for one of command's run kinds."""
    config = st.sampled_from(_COMMAND_KINDS[command]).flatmap(_config)
    return st.tuples(st.just(command), config, st.sampled_from([c for c in _COMMAND_KINDS if c != command]))


_DRAWS = st.sampled_from(list(_COMMAND_KINDS)).flatmap(_draw)


class TestAnyConfigFile:
    @given(draw=_DRAWS)
    @settings(max_examples=160, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_main_returns_an_exit_code(self, tmp_path, draw):
        # each config runs through its own subcommand and through another one
        command, cfg, other = draw
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        for name in (command, other):
            code = main([name, "--config", str(path), "--out", str(tmp_path / "run")])
            assert code in (0, 2, 3), name


class TestPhaseDiagramCommand:
    def test_writes_phase_csv(self, tmp_path):
        out = tmp_path / "run"
        code = main(["phase-diagram", "--grid-n", "16", "--k-points", "64", "--out", str(out)])
        assert code == 0
        lines = (out / "phase.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == 256


class TestConfigFile:
    def test_config_file_drives_run(self, tmp_path):
        cfg = {
            "run_kind": "tptpw",
            "steps": 8,
            "angles": {"a": [-PI / 2, PI / 4], "b": [-PI / 2, 3 * PI / 4]},
            "initial_state": {"kind": "psi+"},
            "master_seed": 3,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert main(["pair", "--config", str(path), "--out", str(out)]) == 0
        assert read_manifest(out)["config"]["steps"] == 8

    def test_flags_override_config_file(self, tmp_path):
        cfg = {"run_kind": "hadamard", "steps": 8}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert main(["walk", "--config", str(path), "--steps", "4", "--out", str(out)]) == 0
        assert read_manifest(out)["config"]["steps"] == 4

    def test_unknown_config_field_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"run_kind": "hadamard", "banana": 1}))
        assert main(["walk", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


class TestDeterminism:
    def test_identical_invocations_are_byte_identical(self, tmp_path):
        args = [
            "pair", "--steps", "10", "--disorder", "strong", "--disorder-target", "a",
            "--seed", "77",
        ]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for path in out1.iterdir():
            if path.name == "manifest.json":
                continue
            assert path.read_bytes() == (out2 / path.name).read_bytes()


def test_module_entry_point(tmp_path):
    # the child imports the package the tests import, installed or not
    package_root = str(Path(topowalk.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "topowalk", "walk", "--steps", "5", "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert (out / "entropy.csv").exists()


def test_figure_script_runs_from_a_checkout_that_is_not_installed(tmp_path):
    # the script finds the package under the checkout's src/, with no PYTHONPATH
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_figure_data.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(script), "--only", "fig1", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "fig1_hadamard" / "entropy.csv").exists()


def test_figure_script_prints_each_walkers_winding(tmp_path):
    # walker a's angles wind once and walker b's not at all; a boundary joins the two phases
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_figure_data.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--only", "fig3a_4a", "--only", "fig3b_4d", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("fig3a_4a_tptpw_clean") and " windings a=1 b=0 -> " in lines[0]
    assert lines[1].startswith("fig3b_4d_tptbw_clean") and " windings a=1|0 b=1|0 -> " in lines[1]


def test_cone_rows_scan_runs(tmp_path):
    # a small scan: one cell's 8 walker rows, both ways of stepping, one round
    script = Path(__file__).resolve().parent.parent / "scripts" / "cone_rows_scan.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--cells", "1", "--half-width", "8", "--steps", "4", "--rounds", "1"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and lines[0].startswith("rows    8:")
