"""Command-line interface and its exit-code contract."""

import json
import math
import os

import numpy as np
import pytest

import wavebox.bem as bem
import wavebox.kernels as kernels
from wavebox.cli import main
from wavebox.runner import RunConfig, validate_bem

from conftest import reference_modes


def write_cfg(tmp_path, cfg_dict, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg_dict))
    return str(path)


class TestSimulateCommand:
    def test_still_fluid_run(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dict(modes=[], n_markers=16,
                                       wall_panels_per_side=8,
                                       record_dt=0.25, t_end_cap=0.5))
        out = str(tmp_path / "out")
        code = main(["simulate", "--config", cfg, "--out", out, "--quiet"])
        assert code == 0
        for artifact in ("config.json", "diagnostics.csv", "report.json",
                         os.path.join("snapshots", "0000.csv")):
            assert os.path.exists(os.path.join(out, artifact))
        report = json.load(open(os.path.join(out, "report.json")))
        assert report["all_passed"] is True

    def test_missing_config_is_exit_2(self, capsys):
        assert main(["simulate", "--config", "/no/such/file.json"]) == 2

    def test_unknown_key_is_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"n_markers": 16, "frobnicate": True})
        assert main(["simulate", "--config", cfg]) == 2

    def test_bad_mode_data_is_exit_2(self, tmp_path, capsys):
        # single odd mode violates the pinned-corner conditions
        cfg = write_cfg(tmp_path, {"modes": [[1, 1.0]], "n_markers": 16})
        assert main(["simulate", "--config", cfg]) == 2


    @pytest.mark.parametrize("coefficient", [math.inf, math.nan])
    def test_non_finite_mode_is_exit_2(self, tmp_path, capsys, coefficient):
        cfg = write_cfg(tmp_path, {"modes": [[1, coefficient]], "n_markers": 16})
        assert main(["simulate", "--config", cfg]) == 2

    def test_fractional_marker_count_is_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"n_markers": 16.5})
        assert main(["simulate", "--config", cfg]) == 2


class TestVerifyCommand:
    def test_round_trip(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dict(modes=reference_modes(), n_markers=24,
                                       wall_panels_per_side=8, record_dt=2e-4,
                                       t_end_cap=6e-4))
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out,
                     "--quiet"]) == 0
        assert main(["verify-identities", "--run", out, "--quiet"]) == 0

    def test_missing_run_dir_is_exit_2(self, tmp_path, capsys):
        assert main(["verify-identities", "--run",
                     str(tmp_path / "missing")]) == 2


class TestValidateBemCommand:
    def test_default_sweep_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"bem_panel_counts": [32, 64, 128],
                                   "bem_mode_ks": [1]})
        assert main(["validate-bem", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "constant data" in out and "order" in out

    def test_single_panel_count_is_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"bem_panel_counts": [32],
                                   "bem_mode_ks": [1]})
        assert main(["validate-bem", "--config", cfg]) == 2

    def test_broken_kernel_sign_fails(self, monkeypatch, capsys):
        # negative control: flip the single-layer sign and the sweep must fail
        original = kernels.influence_matrices

        def broken(mesh, targets):
            S, D = original(mesh, targets)
            return -S, D

        monkeypatch.setattr(bem.kernels, "influence_matrices", broken)
        cfg = RunConfig.from_dict({"bem_panel_counts": [32, 64],
                                   "bem_mode_ks": [1]})
        assert validate_bem(cfg, quiet=True) == 1


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_requires_config_flag(self):
        with pytest.raises(SystemExit):
            main(["simulate"])
