import json
import subprocess
import sys

import numpy as np
import pytest

from topowalk.cli import main

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
        assert manifest["master_seed"] == 42

    def test_disorder_width_flag(self, tmp_path):
        out = tmp_path / "run"
        assert main(["walk", "--steps", "5", "--disorder", "width=0.5", "--out", str(out)]) == 0
        assert read_manifest(out)["config"]["disorder"]["half_width"] == 0.5

    def test_bad_disorder_flag_is_config_error(self, tmp_path):
        assert main(["walk", "--disorder", "loud", "--out", str(tmp_path)]) == 2

    def test_window_too_small_is_runtime_error(self, tmp_path):
        assert main(["walk", "--steps", "30", "--window", "5", "--out", str(tmp_path)]) == 3


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
        assert read_manifest(out)["config"]["run_kind"] == "tptpw"

    def test_boundary_flag_selects_boundary_walk(self, tmp_path):
        out = tmp_path / "run"
        boundary = f"--boundary={-PI/2},{PI/4},{-PI/2},{3*PI/4}"
        code = main(["pair", "--steps", "10", boundary, "--out", str(out)])
        assert code == 0
        manifest = read_manifest(out)
        assert manifest["config"]["run_kind"] == "tptbw"
        assert manifest["config"]["angles"]["a"]["plus"] == [-PI / 2, 3 * PI / 4]

    def test_malformed_boundary_is_config_error(self, tmp_path):
        assert main(["pair", "--boundary", "1,2,3", "--out", str(tmp_path)]) == 2

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
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "topowalk", "walk", "--steps", "5", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (out / "entropy.csv").exists()
