"""Configuration handling, artifact writers, and offline verification."""

import dataclasses
import json
import logging
import math
import os
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavebox.evolution as evolution
import wavebox.runner as runner
from wavebox.diagnostics import CSV_FIELDS, FINITE_FROM
from wavebox.errors import GeometryError
from wavebox.evolution import FlowState, StateDerivative
from wavebox.geometry import InterfaceCurve
from wavebox.runner import (ConfigError, RunConfig, evaluate_checks,
                            read_diagnostics_csv, run_simulation,
                            verify_identities, write_diagnostics_csv,
                            write_report)

from conftest import reference_config_dict, reference_modes


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.n_markers == 96
        assert cfg.modes == ()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration keys"):
            RunConfig.from_dict({"n_markers": 16, "wavelength": 2.0})

    @pytest.mark.parametrize("bad", [
        {"n_markers": 4},
        {"wall_panels_per_side": 2},
        {"cfl": 0.0},
        {"cfl": 1.5},
        {"t_end_cap": -1.0},
        {"record_dt": 0.0},
        {"t_end_cap": 1e-12},
        {"record_dt": 1e-12},
        {"dt_min": 0.1, "dt_max": 0.01},
        {"ident_tol": -1.0},
        {"lattice_n": 1},
        {"n_markers": 16.5},
        {"n_markers": True},
        {"lattice_n": "16"},
        {"cfl": math.nan},
        {"t_end_cap": math.inf},
        {"modes": [[1.5, 1.0]]},
        {"bem_panel_counts": [32]},
        {"bem_panel_counts": [4, 8]},
        {"bem_panel_counts": [32, 64.5]},
        {"bem_mode_ks": [0]},
        {"modes": [[0, 1.0]]},
        {"bem_panel_counts": [48, 16, 32]},
        {"bem_panel_counts": [32, 32]},
    ])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(bad)

    def test_integral_floats_become_ints(self):
        cfg = RunConfig.from_dict({"n_markers": 16.0, "modes": [[2.0, 0.0]],
                                   "bem_panel_counts": [32.0, 64]})
        assert cfg.n_markers == 16 and isinstance(cfg.n_markers, int)
        assert cfg.modes == ((2, 0.0),)
        assert cfg.bem_panel_counts == (32, 64)

    def test_round_trip(self, tmp_path):
        cfg = RunConfig.from_dict(reference_config_dict())
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        again = RunConfig.from_json(str(path))
        assert again == cfg

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            RunConfig.from_json("/nonexistent/cfg.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            RunConfig.from_json(str(path))

    def test_corner_violation_rejected(self):
        with pytest.raises(ConfigError, match="corner"):
            RunConfig.from_dict({"modes": [[1, 1.0]]})

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(8, 64), cfl=st.floats(0.01, 1.0),
           tol=st.floats(1e-6, 1.0))
    def test_valid_ranges_accepted(self, n, cfl, tol):
        cfg = RunConfig.from_dict({"n_markers": n, "cfl": cfl,
                                   "ident_tol": tol})
        assert cfg.n_markers == n


class TestCsvRoundTrip:
    def make_table(self):
        table = {name: np.full(4, math.nan) for name in CSV_FIELDS}
        table.update(t=np.array([0.1 * i for i in range(4)]),
                     L=np.array([1.0 + i for i in range(4)]),
                     volume_part=np.array([0.5 * i for i in range(4)]),
                     wall_part=np.array([0.25 * i for i in range(4)]),
                     energy=np.array([math.pi * (i + 1) for i in range(4)]),
                     area=np.ones(4), p_min=np.full(4, 2.0),
                     wall_p_integral=np.full(4, -0.5),
                     dt=np.array([math.nan, 0.1, 0.1, 0.1]))
        return table

    def test_round_trip_exact(self, tmp_path):
        path = str(tmp_path / "d.csv")
        write_diagnostics_csv(path, self.make_table())
        cols = read_diagnostics_csv(path)
        np.testing.assert_array_equal(cols["t"], [0.0, 0.1, 0.2, 0.30000000000000004])
        np.testing.assert_array_equal(cols["energy"],
                                      [math.pi * k for k in (1, 2, 3, 4)])
        assert np.isnan(cols["envelope"]).all()

    def test_header_frozen(self, tmp_path):
        path = str(tmp_path / "d.csv")
        write_diagnostics_csv(path, self.make_table())
        with open(path) as fh:
            header = fh.readline().strip()
        assert header == ("t,L,volume_part,wall_part,envelope,residual_26,"
                          "residual_27,slack_28,schwarz_vol,schwarz_wall,"
                          "riccati_slack,p_min,wall_p_integral,energy,area,dt")

    def test_writer_inverts_reader(self, ref_run, tmp_path):
        stored = os.path.join(ref_run["dir"], "diagnostics.csv")
        path = str(tmp_path / "d.csv")
        write_diagnostics_csv(path, read_diagnostics_csv(stored))
        with open(stored, "rb") as a, open(path, "rb") as b:
            assert a.read() == b.read()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t,L\n0,1\n")
        with pytest.raises(ValueError):
            read_diagnostics_csv(str(path))

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(",".join(CSV_FIELDS) + "\n")
        with pytest.raises(ValueError):
            read_diagnostics_csv(str(path))


class TestReportWriter:
    def test_serialization(self, tmp_path):
        path = str(tmp_path / "r.json")
        write_report(path, {"a": 1.0 / 3.0, "b": True, "c": None,
                            "d": float("nan"), "e": 7, "f": "text",
                            "g": math.inf, "h": np.float64("-inf")})
        with open(path) as fh:
            text = fh.read()
        assert '"a": 0.33333333333333331' in text
        assert '"b": true' in text
        assert '"c": null' in text
        assert '"d": null' in text
        loaded = json.loads(text, parse_constant=reject_constant)
        assert loaded["e"] == 7 and loaded["f"] == "text"
        assert loaded["g"] is None and loaded["h"] is None


class TestEvaluateChecks:
    def test_insufficient_records(self):
        cfg = RunConfig()
        cols = {name: np.array([v]) for name, v in zip(
            CSV_FIELDS,
            [0.0, 2.0, 1.0, 1.0, math.nan, math.nan, math.nan, math.nan,
             math.nan, math.nan, math.nan, 5.0, 0.0, 1.0, 1.0, math.nan])}
        out = evaluate_checks(cols, cfg, broke=False)
        assert not out["derivatives_checked"]
        assert out["identities_converged"] and out["inequality_28_held"]
        assert out["pressure_positive"]

    def test_negative_pressure_detected(self):
        cfg = RunConfig()
        n = 5
        cols = {name: np.zeros(n) for name in CSV_FIELDS}
        cols["t"] = np.linspace(0.0, 1.0, n)
        cols["energy"] = np.ones(n)
        cols["area"] = np.ones(n)
        cols["p_min"] = np.array([5.0, 4.0, -3.0, 4.0, 5.0])
        cols["envelope"] = np.full(n, math.nan)
        out = evaluate_checks(cols, cfg, broke=False)
        assert not out["pressure_positive"]

    def test_riccati_skipped_for_negative_A(self):
        cfg = RunConfig()
        n = 5
        cols = {name: np.zeros(n) for name in CSV_FIELDS}
        cols["t"] = np.linspace(0.0, 1.0, n)
        cols["L"] = np.full(n, -3.0)
        cols["energy"] = np.ones(n)
        cols["area"] = np.ones(n)
        cols["p_min"] = np.ones(n)
        cols["envelope"] = np.full(n, math.nan)
        out = evaluate_checks(cols, cfg, broke=False)
        assert not out["riccati_checked"]
        assert out["riccati_dominated"]
        assert math.isnan(out["margin_riccati"])


class TestVerifyIdentities:
    def test_fresh_run_matches(self, ref_run):
        assert verify_identities(ref_run["dir"]) == 0

    def test_corrupted_L_fails(self, ref_run, tmp_path):
        broken = tmp_path / "broken"
        shutil.copytree(ref_run["dir"], broken)
        path = broken / "diagnostics.csv"
        lines = path.read_text().splitlines()
        fields = lines[0].split(",")
        i_L = fields.index("L")
        # push L far below the envelope on every record
        for j in range(1, len(lines)):
            cells = lines[j].split(",")
            cells[i_L] = "0.001"
            lines[j] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        assert verify_identities(str(broken)) == 1

    @pytest.mark.parametrize("edit,code", [
        (None, 0), ("repeat", 2), ("inf", 2)])
    def test_corrupt_time_column_is_bad_input(self, ref_run, tmp_path, edit,
                                              code):
        # A repeated or infinite time made the derivative margins non-finite;
        # dropped as such, they let every check pass with exit 0.
        run = tmp_path / "run"
        shutil.copytree(ref_run["dir"], run)
        path = run / "diagnostics.csv"
        lines = path.read_text().splitlines()
        i_t = lines[0].split(",").index("t")
        rows = [line.split(",") for line in lines[1:]]
        if edit is not None:
            rows[3][i_t] = rows[2][i_t] if edit == "repeat" else "inf"
        path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert verify_identities(str(run)) == code

    def test_truncated_single_row(self, ref_run, tmp_path, caplog):
        # The first record alone: its CSV row, its snapshot and n_records = 1.
        # Its slacks and residuals were written from all the records, so they
        # are finite where a one-record run leaves NaN; set to NaN, the
        # row is what a one-record run writes.
        short = tmp_path / "short"
        shutil.copytree(ref_run["dir"], short)
        path = short / "diagnostics.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")
        (short / "report.json").write_text(
            json.dumps(dict(ref_run["report"], n_records=1)))
        for name in os.listdir(short / "snapshots"):
            if name != "0000.csv":
                os.remove(short / "snapshots" / name)
        with caplog.at_level(logging.INFO, logger="wavebox"):
            assert verify_identities(str(short)) == 1
            assert "recomputed values: riccati_slack" in caplog.text
            assert "leaves them NaN: " + ", ".join(FINITE_FROM) in caplog.text
            caplog.clear()
            row = lines[1].split(",")
            for name in ("riccati_slack", *FINITE_FROM):
                row[CSV_FIELDS.index(name)] = "nan"
            path.write_text(f"{lines[0]}\n{','.join(row)}\n")
            code = verify_identities(str(short))
        out = caplog.text
        assert code == 0
        assert "insufficient records" in out

    def test_missing_dir(self, tmp_path):
        assert verify_identities(str(tmp_path / "nope")) == 2

    def test_one_record_run(self, ref_run, tmp_path):
        # One record leaves no finite Schwarz slack: margin_schwarz is inf.
        # Runs too short for the derivative checks write the same keys in
        # the same order as a run with three or more records.
        keys = list(ref_run["report"])
        assert ref_run["report"]["n_records"] >= 3
        for n_records, t_end_cap in ((1, 1e-4), (2, 2e-4)):
            cfg = RunConfig.from_dict(reference_config_dict(t_end_cap=t_end_cap))
            out = str(tmp_path / f"records_{n_records}")
            assert runner.simulate(cfg, out_dir=out) == 0
            with open(os.path.join(out, "report.json")) as fh:
                report = json.load(fh, parse_constant=reject_constant)
            assert report["n_records"] == n_records
            assert list(report) == keys
            assert report["max_identity_residual"] is None
            assert verify_identities(out) == 0
            if n_records == 1:
                assert report["margin_schwarz"] is None


class TestRunSimulation:
    def test_still_fluid_reaches_cap(self, still_run):
        report = still_run["report"]
        assert still_run["code"] == 0
        assert report["breakdown_kind"] is None
        assert report["t_final"] == pytest.approx(1.0)
        assert report["all_passed"]
        assert not report["riccati_checked"]

    def test_record_grid_uniform(self, ref_run):
        cols = read_diagnostics_csv(os.path.join(ref_run["dir"],
                                                 "diagnostics.csv"))
        dt = np.diff(cols["t"])
        np.testing.assert_allclose(dt, dt[0], rtol=1e-9)

    def test_snapshots_written(self, ref_run):
        report = ref_run["report"]
        snaps = sorted(os.listdir(os.path.join(ref_run["dir"], "snapshots")))
        assert len(snaps) == report["n_records"]
        assert snaps[0] == "0000.csv"
        first = np.loadtxt(os.path.join(ref_run["dir"], "snapshots", snaps[0]),
                           delimiter=",", skiprows=1)
        assert first.shape == (report["n_markers"], 3)
        np.testing.assert_allclose(first[:, 2], 1.0)   # starts flat
        last = np.loadtxt(os.path.join(ref_run["dir"], "snapshots", snaps[-1]),
                          delimiter=",", skiprows=1)
        label = np.linspace(0.0, 1.0, report["n_markers"])   # i/(n-1)
        np.testing.assert_array_equal(first[:, 0], label)
        np.testing.assert_array_equal(last[:, 0], label)

    def test_progress_callback(self, caplog):
        # one progress line per record, its time the first argument
        cfg = RunConfig.from_dict(dict(modes=reference_modes(), n_markers=24,
                                       wall_panels_per_side=8, record_dt=2e-4,
                                       t_end_cap=4e-4))
        with caplog.at_level(logging.INFO, logger="wavebox"):
            run_simulation(cfg)
        seen = [record.args[0] for record in caplog.records]
        assert len(seen) >= 2
        assert seen[0] == 0.0


class TestRecordTimeBreakdown:
    def test_crossing_surface_on_a_record_time(self, monkeypatch):
        # A step lands exactly on a record time with a surface that bulges
        # through the right wall: the record cannot build a mesh, so the run
        # stops with the detector's verdict instead of raising.
        x = np.column_stack([np.linspace(0.0, 1.0, 24), np.ones(24)])
        x[22, 0] = 1.02

        def crossing_step(state, dt, *args, **kwargs):
            return FlowState(t=state.t + dt, curve=InterfaceCurve(x),
                             phi=state.phi,
                             wall_panels_per_side=state.wall_panels_per_side)

        monkeypatch.setattr(runner, "rk4_step", crossing_step)
        cfg = RunConfig.from_dict(dict(modes=[], n_markers=24,
                                       wall_panels_per_side=8, record_dt=0.05,
                                       t_end_cap=1.0, redistribute_every=0))
        result = run_simulation(cfg)
        assert result.n_steps == 1
        assert len(result.table["t"]) == 1
        assert result.breakdown.kind == "self_intersection"
        assert result.breakdown.t_break == result.t_final == 0.05
        assert "marker 22" in result.breakdown.detail
        # the outcome keeps no frame of the loop, nor the record's error
        assert result.breakdown.__traceback__ is None
        assert result.breakdown.__context__ is None

    def test_stage_breakdown_keeps_no_frame(self, monkeypatch):
        # A second RK4 stage pushes a marker through the bottom: the step
        # raises a BreakdownError from the stage's BottomContactError.
        def plunging(state):
            n = state.curve.n_markers
            _ = state.mesh
            u = np.zeros((n, 2))
            u[n // 2, 1] = -100.0
            return StateDerivative(velocity=u, dphi=np.zeros(n),
                                   corner_residual=0.0)

        monkeypatch.setattr(evolution, "state_derivative", plunging)
        cfg = RunConfig.from_dict(dict(modes=[], n_markers=24,
                                       wall_panels_per_side=8, record_dt=0.05))
        result = run_simulation(cfg)
        assert result.n_steps == 0
        assert result.breakdown.kind == "bottom_contact"
        assert result.breakdown.detail.startswith("stage 2: ")
        assert result.breakdown.__traceback__ is None
        assert result.breakdown.__cause__ is None

    def test_unclassified_failure_is_raised(self, monkeypatch):
        # A record that fails on a surface no detector flags is no
        # breakdown: the GeometryError reaches the caller.
        def failing_record(*args):
            raise GeometryError("degenerate panel")

        monkeypatch.setattr(runner, "_collect_record", failing_record)
        cfg = RunConfig.from_dict(dict(modes=[], n_markers=24,
                                       wall_panels_per_side=8))
        with pytest.raises(GeometryError, match="degenerate panel"):
            run_simulation(cfg)
