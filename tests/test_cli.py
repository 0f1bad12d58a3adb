"""Command-line interface and its exit-code contract."""

import dataclasses
import json
import math
import os
import pathlib
import platform
import shutil
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavebox.bem as bem
import wavebox.kernels as kernels
import wavebox.runner as runner
from wavebox.cli import main
from wavebox.diagnostics import CSV_FIELDS, DERIVED_FIELDS, FINITE_FROM
from wavebox.runner import RunConfig, read_diagnostics_csv, validate_bem

from conftest import (reference_config_dict, reference_modes, run_child,
                      still_config_dict, write_config)

# A valid config whose near-field band swallows every lattice point.
NO_LATTICE = dict(modes=reference_modes(), n_markers=24, wall_panels_per_side=8,
                  t_end_cap=1e-3, near_field_factor=50)


def bad_input_line(capsys, *argv):
    """Run ``main(argv + --quiet)``, which must exit 2 with an empty stdout
    and one stderr line, ``bad input: ...``; return that line's message."""
    assert main([*argv, "--quiet"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("bad input: ") and err.count("\n") == 1
    assert err.endswith("\n")
    return err[len("bad input: "):-1]


class TestSimulateCommand:
    def test_still_fluid_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(modes=[], n_markers=16,
                                          wall_panels_per_side=8,
                                          record_dt=0.25, t_end_cap=0.5))
        out = str(tmp_path / "out")
        code = main(["simulate", "--config", cfg, "--out", out, "--quiet"])
        assert code == 0
        for artifact in ("config.json", "diagnostics.csv", "report.json",
                         os.path.join("snapshots", "0000.csv")):
            assert os.path.exists(os.path.join(out, artifact))
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        assert report["all_passed"] is True

    def test_missing_config_is_exit_2(self, capsys):
        assert bad_input_line(capsys, "simulate", "--config", "/no/such/file.json") \
            .startswith("cannot read config /no/such/file.json: ")

    @pytest.mark.parametrize("key, shown", [("frobnicate", "frobnicate"),
                                            ("two\nlines", "two\\nlines")],
                             ids=["plain", "line-break"])
    def test_unknown_key_is_exit_2(self, tmp_path, capsys, key, shown):
        # a line break in a key is escaped: bad input is one stderr line
        cfg = write_config(tmp_path, {"n_markers": 16, key: True})
        assert bad_input_line(capsys, "simulate", "--config", cfg) == (
            f"unknown configuration keys: {shown}")

    def test_bad_mode_data_is_exit_2(self, tmp_path, capsys):
        # single odd mode violates the pinned-corner conditions
        cfg = write_config(tmp_path, {"modes": [[1, 1.0]], "n_markers": 16})
        assert bad_input_line(capsys, "simulate", "--config", cfg).startswith(
            "modes violate the corner conditions")

    @pytest.mark.parametrize("coefficient", [math.inf, math.nan])
    def test_non_finite_mode_is_exit_2(self, tmp_path, capsys, coefficient):
        cfg = write_config(tmp_path, {"modes": [[1, coefficient]], "n_markers": 16})
        assert bad_input_line(capsys, "simulate", "--config", cfg) == (
            f"mode coefficient must be finite, got {coefficient!r}")

    @pytest.mark.parametrize("overrides", [
        dict(t_end_cap=1e-13),
        dict(record_dt=1e-13, t_end_cap=1e-11),
        dict(modes=[[k, 1e100 * a] for k, a in reference_modes()], t_end_cap=4e-105),
    ])
    def test_times_within_the_record_slop_are_exit_2(self, tmp_path, capsys, overrides):
        # The loop compares times with an absolute slop of 1e-12: a cap at
        # or below it ended the run at t = 0 with exit 0, and such a record
        # interval recorded up to the cap with no step between records.
        cfg = write_config(tmp_path, reference_config_dict(**overrides))
        out = str(tmp_path / "out")
        assert "record-time slop" in bad_input_line(capsys, "simulate", "--config", cfg,
                                                    "--out", out)
        assert not os.path.exists(out)

    def test_fractional_marker_count_is_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n_markers": 16.5})
        assert bad_input_line(capsys, "simulate", "--config", cfg) == (
            "n_markers must be an integer, got 16.5")

    def test_numerical_failure_is_exit_3(self, tmp_path, capsys):
        # pressure_min raises a plain ValueError, which is no failed check
        cfg = write_config(tmp_path, NO_LATTICE)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out, "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver failure: ValueError: no admissible lattice")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_shorter_rerun_keeps_only_its_records(self, tmp_path, capsys):
        # An output directory holds one run: the rerun's 11 records replace
        # the first run's 21, and a file no run writes stays.
        out = tmp_path / "out"
        for t_end_cap, n_records in ((1.0, 21), (0.5, 11)):
            cfg = write_config(tmp_path, dict(still_config_dict(),
                                              t_end_cap=t_end_cap))
            assert main(["simulate", "--config", cfg, "--out", str(out),
                         "--quiet"]) == 0
            (out / "notes.txt").write_text("kept")
            assert len(os.listdir(out / "snapshots")) == n_records
        assert json.loads((out / "report.json").read_text())["n_records"] == 11
        assert (out / "notes.txt").read_text() == "kept"
        assert main(["verify-identities", "--run", str(out), "--quiet"]) == 0

    def test_failed_rerun_leaves_no_artifacts(self, tmp_path, capsys):
        # A run that exits 3 leaves no earlier run's report to verify.
        out = str(tmp_path / "out")
        cfg = write_config(tmp_path, still_config_dict())
        assert main(["simulate", "--config", cfg, "--out", out, "--quiet"]) == 0
        cfg = write_config(tmp_path, NO_LATTICE)
        assert main(["simulate", "--config", cfg, "--out", out, "--quiet"]) == 3
        assert os.listdir(out) == []
        capsys.readouterr()
        assert bad_input_line(capsys, "verify-identities", "--run", out).startswith(
            "cannot read config ")


# Each numeric config value, top level or inside a list, and whether it must
# be an integer.
SITES = {f.name: f.type == "int" for f in dataclasses.fields(RunConfig)
         if f.type in ("int", "float")}
SITES.update({"mode wavenumber": True, "mode coefficient": False,
              "bem_panel_counts entry": True, "bem_mode_ks entry": True})
WRONG_TYPES = st.one_of(st.text(max_size=4), st.booleans(), st.none(),
                        st.lists(st.integers(0, 9), max_size=2),
                        st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
# An integer beyond float64's range (JSON allows any) is as unusable.
NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan, 10**400, -10**400])
NON_INTEGRAL = st.floats(-1e6, 1e6).filter(lambda v: not v.is_integer())
SMALL_CONFIG = dict(modes=reference_modes(), n_markers=16,
                    wall_panels_per_side=8, t_end_cap=1e-4,
                    bem_panel_counts=[16, 32], bem_mode_ks=[1])


@st.composite
def malformed_configs(draw):
    """SMALL_CONFIG with one value non-finite, of the wrong type or, where an
    integer is due, non-integral."""
    site = draw(st.sampled_from(sorted(SITES)))
    bad = draw(st.one_of(NON_FINITE, WRONG_TYPES,
                         *([NON_INTEGRAL] if SITES[site] else [])))
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    if site == "mode wavenumber":
        cfg["modes"] = [[bad, cfg["modes"][0][1]], cfg["modes"][1]]
    elif site == "mode coefficient":
        cfg["modes"] = [[1, bad], cfg["modes"][1]]
    elif site.endswith(" entry"):
        key = site.split()[0]
        cfg[key] = cfg[key][:1] + [bad]
    else:
        cfg[site] = bad
    return cfg


# Bytes no JSON reader accepts: not UTF-8, or nested past the decoder's
# recursion limit.
BAD_BYTES = {"not-utf8": b"\xff\xfe{}", "too-deep": b"[" * 200000}


@pytest.mark.parametrize("bad", BAD_BYTES.values(), ids=BAD_BYTES.keys())
@pytest.mark.parametrize("command", ["simulate", "validate-bem"])
def test_unreadable_config_bytes_are_exit_2(tmp_path, capsys, command, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(bad)
    assert bad_input_line(capsys, command, "--config", str(cfg)).startswith(
        f"config {cfg} is not valid JSON: ")


def test_small_config_is_valid():
    RunConfig.from_dict(SMALL_CONFIG)


@settings(max_examples=40, deadline=None)
@given(cfg=malformed_configs())
def test_malformed_config_is_exit_2(cfg):
    # Rejected at load: neither command starts a run or a sweep.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = os.path.join(tmp, "out")
        assert main(["simulate", "--config", path, "--out", out, "--quiet"]) == 2
        assert main(["validate-bem", "--config", path, "--quiet"]) == 2
        assert not os.path.exists(out)


def scaled_reference_modes(factor):
    return [[k, factor * a] for k, a in reference_modes()]


@pytest.mark.parametrize("bad", [
    {"modes": [[0, 1.0]]}, {"n_markers": 4}, {"wall_panels_per_side": 2},
    {"cfl": 0.0}, {"cfl": 1.5}, {"bem_mode_ks": [1, 225]}, {"bem_mode_ks": [300]},
    {"modes": [[1, 1.0]]}, {"modes": [[1, -1.0], [300, 1e-300]]},
    {"modes": scaled_reference_modes(1e153)}, {"out_dir": 5}, {"out_dir": None},
    {"out_dir": ["a"]}, {"out_dir": True},
], ids=["mode_k0", "n_markers_4", "wall_panels_2", "cfl_0", "cfl_1.5",
        "bem_mode_225", "bem_mode_300", "corner_violation", "mode_300",
        "reference_x1e153", "out_dir_number", "out_dir_null", "out_dir_list",
        "out_dir_bool"])
def test_out_of_range_value_is_exit_2(tmp_path, capsys, still_run, bad):
    # RunConfig alone checks these rules, for every command; the numerics
    # trust them.  A run directory whose config.json says the same is bad
    # input too.  out_dir must be a string even when --out overrides it.
    path = write_config(tmp_path, {**SMALL_CONFIG, **bad})
    out = str(tmp_path / "out")
    message = bad_input_line(capsys, "simulate", "--config", path, "--out", out)
    assert bad_input_line(capsys, "validate-bem", "--config", path) == message
    assert not os.path.exists(out)
    run = tmp_path / "run"
    shutil.copytree(still_run["dir"], run)
    stored = json.loads((run / "config.json").read_text())
    (run / "config.json").write_text(json.dumps({**stored, **bad}))
    assert bad_input_line(capsys, "verify-identities", "--run", str(run)) == message


def test_largest_carried_datum_reaches_a_verdict(tmp_path, capsys):
    # The reference datum x 1.8e152 keeps its squared speed bound below
    # float64's largest value (x 1e153 does not), but its pressure solve
    # overflows at t = 0 and gives NaN: simulate refuses that record as a
    # solver failure and leaves no artifact, under the suite's
    # RuntimeWarning filter.
    path = write_config(tmp_path, {**SMALL_CONFIG,
                                   "modes": scaled_reference_modes(1.8e152)})
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out), "--quiet"]) == 3
    assert capsys.readouterr().err.startswith(
        "solver failure: FloatingPointError: non-finite p_min, wall_p_integral at t=0")
    assert os.listdir(out) == []


def tree(root):
    """Every path under root, symlinks unfollowed: a link's target, a
    file's bytes, or None for a directory."""
    found = {}
    for here, dirs, files in os.walk(root):
        for name in dirs + files:
            path = os.path.join(here, name)
            found[os.path.relpath(path, root)] = (
                ("link", os.readlink(path)) if os.path.islink(path)
                else None if os.path.isdir(path) else pathlib.Path(path).read_bytes())
    return found


@pytest.mark.parametrize("out, artifact, kind", [
    ("afile", None, None),
    (os.path.join("afile", "sub"), None, None),
    ("out", "config.json", "directory"),
    ("out", "diagnostics.csv", "directory"),
    ("out", "report.json", "directory"),
    ("out", "report.json", "symlink"),
    ("out", "snapshots", "symlink"),
    ("out", "snapshots", "file"),
], ids=["is_a_file", "under_a_file", "config_is_a_directory",
        "diagnostics_is_a_directory", "report_is_a_directory",
        "report_is_a_symlink", "snapshots_is_a_symlink", "snapshots_is_a_file"])
def test_unusable_out_is_exit_2(tmp_path, capsys, out, artifact, kind):
    # --out naming a file, or a path under one, is bad input, found before
    # any run starts.  So is an artifact path that holds what a run does not
    # write there: a directory for a file, a file for the snapshot
    # directory, or a symlink to either.  Nothing is deleted or followed.
    path = write_config(tmp_path, SMALL_CONFIG)
    (tmp_path / "afile").write_text("")
    target = tmp_path / "target"
    target.mkdir()
    (target / "0000.csv").write_text("kept")
    out = offending = str(tmp_path / out)
    if artifact is not None:
        os.mkdir(out)
        offending = os.path.join(out, artifact)
        if kind == "directory":
            os.mkdir(offending)
            with open(os.path.join(offending, "kept"), "w") as fh:
                fh.write("kept")
        elif kind == "file":
            with open(offending, "w") as fh:
                fh.write("kept")
        else:
            os.symlink(target if artifact == "snapshots" else target / "0000.csv",
                       offending)
    before = tree(tmp_path)
    message = bad_input_line(capsys, "simulate", "--config", path, "--out", out)
    if artifact is None:
        assert message.startswith(f"cannot create output directory {out}:")
    else:
        assert message.startswith(f"cannot write over {offending}: ")
    assert tree(tmp_path) == before


class TestVerifyCommand:
    def test_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(modes=reference_modes(), n_markers=24,
                                          wall_panels_per_side=8, record_dt=2e-4,
                                          t_end_cap=6e-4))
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out,
                     "--quiet"]) == 0
        assert main(["verify-identities", "--run", out, "--quiet"]) == 0

    def test_missing_run_dir_is_exit_2(self, tmp_path, capsys):
        assert main(["verify-identities", "--run",
                     str(tmp_path / "missing")]) == 2

    def test_quiet_keeps_the_error_line(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert bad_input_line(capsys, "verify-identities", "--run", str(missing)) \
            .startswith(f"cannot read config {missing / 'config.json'}: ")

    @pytest.mark.parametrize("report", [
        "[]", '"x"', {"energy_conserved": "false"}, {"area_conserved": 1},
        {"breakdown_kind": False}, {"breakdown_kind": 5},
        {"breakdown_kind": "banana"}, {"breakdown_kind": ""},
        {"all_passed": "true"}, {"a_consistent": None}, {"n_records": 11.0},
        {"n_records": True}, {"a_quadrature": "0"}, {"t_final": [1.0]},
        {"t_final": math.inf}, {"a_quadrature": 10 ** 400}, {"n_steps": "banana"},
        {"n_steps": 118.0}, {"p_absmax_max": "x"}, {"breakdown_detail": 5},
        {"max_corner_residual": True}, {"breakdown_detail": "x"},
        {"breakdown_kind": "self_intersection"}],
        ids=["list", "string", "check-as-string", "check-as-number",
             "breakdown-as-false", "breakdown-as-number",
             "breakdown-unknown", "breakdown-empty", "all-passed-as-string",
             "verdict-as-null", "records-as-float", "records-as-bool",
             "a-quadrature-as-string", "t-final-as-list", "t-final-as-infinity",
             "a-quadrature-beyond-float64", "steps-as-string", "steps-as-float",
             "p-absmax-as-string", "detail-as-number", "corner-residual-as-bool", "detail-without-kind",
             "kind-without-detail"])
    def test_malformed_report_is_exit_2(self, still_run, tmp_path, capsys,
                                        report):
        # The still fluid did not break down: both breakdown keys are null.
        run = tmp_path / "run"
        shutil.copytree(still_run["dir"], run)
        if isinstance(report, dict):
            report = json.dumps(dict(still_run["report"], **report))
        (run / "report.json").write_text(report)
        assert bad_input_line(capsys, "verify-identities", "--run", str(run)) \
            .startswith(str(run / "report.json"))

    @pytest.mark.parametrize("bad", BAD_BYTES.values(), ids=BAD_BYTES.keys())
    @pytest.mark.parametrize("name", ["config.json", "report.json"])
    def test_unreadable_run_file_bytes_are_exit_2(self, still_run, tmp_path,
                                                  capsys, name, bad):
        run = tmp_path / "run"
        shutil.copytree(still_run["dir"], run)
        (run / name).write_bytes(bad)
        assert str(run / name) in bad_input_line(capsys, "verify-identities",
                                                 "--run", str(run))

    @pytest.mark.parametrize("edit, mismatched", [
        ({"a_consistent": False, "blowup_bound_held": False, "t_star": 1e-9},
         "a_consistent, t_star, blowup_bound_held"),
        ({"all_passed": False}, "all_passed")],
        ids=["failed-verdicts", "passed-verdicts"])
    def test_all_passed_must_match_the_verdicts(self, ref_run, tmp_path, capsys,
                                                edit, mismatched):
        # all_passed is a_consistent and blowup_bound_held and every check,
        # each re-derived, so the keys edited are the keys named
        run = tmp_path / "run"
        shutil.copytree(ref_run["dir"], run)
        assert ref_run["report"]["all_passed"] is True
        (run / "report.json").write_text(json.dumps(dict(ref_run["report"], **edit)))
        assert main(["verify-identities", "--run", str(run), "--quiet"]) == 1
        assert capsys.readouterr().out == f"report mismatch: {mismatched}\n"

    @pytest.mark.parametrize("edit, out", [
        ({"blowup_bound_held": False, "all_passed": False},
         "report mismatch: blowup_bound_held, all_passed\n"),
        ({"a_consistent": False, "a_rel_diff": 0.5, "all_passed": False},
         "report mismatch: a_rel_diff, a_consistent, all_passed\n"),
        ({"t_star": 1e-9, "c1": 99}, "report mismatch: c1, t_star\n"),
        ({"a_virial": 7.0}, "report mismatch: a_virial\n"),
        ({"t_final": 1.0}, "failed checks: blowup_bound_held\n"
                           "report mismatch: blowup_bound_held, all_passed\n"),
        ({"a_quadrature": 7.0}, "failed checks: a_consistent\n"
                                "report mismatch: a_rel_diff, a_consistent, all_passed\n")],
        ids=["bound", "a-agreement", "t-star", "a-virial", "t-final", "a-quadrature"])
    def test_bound_verdicts_are_re_derived(self, small_run, tmp_path, capsys,
                                           edit, out):
        # A = L(0), c1 from area(0), T* = c1/A and the two verdicts on them
        # come from the CSV, the config and the report's a_quadrature,
        # breakdown_kind and t_final, by the rule simulate's report uses.  The
        # first three edits keep all_passed consistent with the stored
        # verdicts; the last two edit what the verdicts are derived from.
        run = tmp_path / "run"
        shutil.copytree(small_run, run)
        report = json.loads((run / "report.json").read_text())
        assert report["breakdown_kind"] is None and report["t_final"] < report["t_star"]
        (run / "report.json").write_text(json.dumps(dict(report, **edit)))
        assert main(["verify-identities", "--run", str(run), "--quiet"]) == 1
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize("key, value", [
        ("margin_pressure", -5), ("energy_drift_max", 1e9), ("area0", 99),
        ("riccati_checked", False)])
    def test_margins_and_metadata_are_re_derived(self, small_run, tmp_path, capsys,
                                                 key, value):
        # Every key outside RUN_KEYS is rebuilt from the run directory, so an
        # edited margin, resolution or flag is named though no verdict moves.
        run = tmp_path / "run"
        shutil.copytree(small_run, run)
        report = json.loads((run / "report.json").read_text())
        assert key not in runner.RUN_KEYS and report[key] != value
        (run / "report.json").write_text(json.dumps(dict(report, **{key: value})))
        assert main(["verify-identities", "--run", str(run), "--quiet"]) == 1
        assert capsys.readouterr().out == f"report mismatch: {key}\n"

    @pytest.mark.parametrize("name, edit", [
        ("still_run", {"t_break": 0.5}), ("still_run", {"t_break": True}),
        ("ref_run", {"t_break": 0.001}), ("still_run", {"extra_key": 1}),
        ("still_run", {"t_final": 0.5}), ("dense_run", {"t_final": 5e-5}),
        ("dense_run", {"n_steps": 9}), ("ref_run", {"n_steps": 3})],
        ids=["still-t-break", "t-break-as-bool", "blowup-t-break", "extra-key",
             "still-t-final", "dense-t-final", "dense-n-steps", "blowup-n-steps"])
    def test_edit_of_what_a_run_writes_is_named(self, request, tmp_path, capsys,
                                                name, edit):
        # t_break is t_final after a breakdown and null without one, and a
        # run writes exactly the keys build_report lays out.  A run ends at
        # or after its last record, and at the time cap unless it broke
        # down, and takes a step before every record but the first: the
        # still fluid stops at its cap, 1; the record-dense run after 10
        # steps at its last record, 1e-4; the blow-up run after 118 steps
        # and 15 records.
        source = request.getfixturevalue(name)
        run = tmp_path / "run"
        shutil.copytree(source["dir"], run)
        (run / "report.json").write_text(json.dumps(dict(source["report"], **edit)))
        assert main(["verify-identities", "--run", str(run), "--quiet"]) == 1
        assert capsys.readouterr().out == f"report mismatch: {', '.join(edit)}\n"

    @pytest.mark.parametrize("key", list(runner.RUN_KEYS))
    @pytest.mark.parametrize("name", ["still_run", "ref_run"])
    def test_deleted_run_key_is_a_mismatch(self, request, tmp_path, capsys, name,
                                           key):
        # A run writes every key of RUN_KEYS, so one missing is named, on a
        # run that broke down and on one that did not; without a_quadrature
        # the verdict a_consistent fails too.
        source = request.getfixturevalue(name)
        run = tmp_path / "run"
        shutil.copytree(source["dir"], run)
        report = dict(source["report"])
        del report[key]
        (run / "report.json").write_text(json.dumps(report))
        assert main(["verify-identities", "--run", str(run), "--quiet"]) == 1
        *failed, mismatched = capsys.readouterr().out.splitlines()
        assert failed == (["failed checks: a_consistent"] if key == "a_quadrature" else [])
        assert key in mismatched.removeprefix("report mismatch: ").split(", ")

    @pytest.mark.parametrize("edit, mismatched", [
        ("copied", "snapshots"), ("deleted", "snapshots"), ("n_records", "n_records")],
        ids=["copied", "deleted", "n_records"])
    def test_snapshots_must_match_the_records(self, tmp_path, capsys, edit,
                                              mismatched):
        # The still fluid's 11 records: snapshots/ must hold 0000.csv to
        # 0010.csv, and report.json must say 11.
        cfg = write_config(tmp_path, dict(still_config_dict(), t_end_cap=0.5))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        assert main(["verify-identities", "--run", str(out), "--quiet"]) == 0
        snapshots = out / "snapshots"
        if edit == "copied":
            shutil.copy(snapshots / "0010.csv", snapshots / "0011.csv")
        elif edit == "deleted":
            os.remove(snapshots / "0004.csv")
        else:
            report = json.loads((out / "report.json").read_text())
            (out / "report.json").write_text(json.dumps(dict(report, n_records=12)))
        assert main(["verify-identities", "--run", str(out), "--quiet"]) == 1
        assert f"report mismatch: {mismatched}" in capsys.readouterr().out


# The columns a run measures; every record has them finite, except dt at
# record 0, which no step precedes.
PRIMARY = tuple(name for name in CSV_FIELDS if name not in DERIVED_FIELDS)


@pytest.fixture(scope="module")
def dense_run(tmp_path_factory):
    """A run of the reference datum at 24/8 that records after every step:
    10 steps and 11 records, its final time its last record's, 1e-4."""
    out = tmp_path_factory.mktemp("dense_run") / "run"
    cfg = RunConfig.from_dict(reference_config_dict(
        n_markers=24, wall_panels_per_side=8, record_dt=1e-5, t_end_cap=1e-4))
    assert runner.simulate(cfg, str(out)) is True
    report = json.loads((out / "report.json").read_text())
    assert (report["n_steps"], report["n_records"]) == (10, 11)
    assert report["t_final"] == read_diagnostics_csv(str(out / "diagnostics.csv"))["t"][-1]
    return {"dir": str(out), "report": report}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A passing 48/16 run of the reference datum to t = 1.5e-3: 11 records."""
    tmp = tmp_path_factory.mktemp("small_run")
    cfg = write_config(tmp, reference_config_dict(n_markers=48, wall_panels_per_side=16,
                                                  t_end_cap=1.5e-3))
    out = tmp / "run"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "report.json").read_text())["n_records"] == 11
    return out


def edit_cell(run, row, name, value):
    """Set one cell of ``run``'s diagnostics.csv, as the writer prints it."""
    path = run / "diagnostics.csv"
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[CSV_FIELDS.index(name)] = format(value, ".17g")
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


class TestVerifyRejectsWhatNoRunWrites:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", PRIMARY)
    def test_non_finite_primary_cell_is_exit_2(self, small_run, tmp_path, capsys,
                                               name, value):
        run = tmp_path / "run"
        shutil.copytree(small_run, run)
        edit_cell(run, 2, name, value)
        assert bad_input_line(capsys, "verify-identities", "--run", str(run)) == (
            f"non-finite values in {run / 'diagnostics.csv'}: {name}")

    def test_dt_is_nan_at_record_0(self, small_run, capsys):
        # as simulate writes it: no step precedes the first record
        csv = (small_run / "diagnostics.csv").read_text().splitlines()
        assert csv[1].split(",")[CSV_FIELDS.index("dt")] == "nan"
        assert main(["verify-identities", "--run", str(small_run), "--quiet"]) == 0

    @pytest.mark.parametrize("value", [-7.299643448209582e-28, 5e-324])
    def test_first_record_off_t_0_is_exit_2(self, small_run, tmp_path, capsys,
                                            value):
        # Uniform steps within record_steps' tolerance, but every run's
        # first record is at t = 0, and a negative time has no envelope.
        run = tmp_path / "run"
        shutil.copytree(small_run, run)
        edit_cell(run, 0, "t", value)
        assert bad_input_line(capsys, "verify-identities", "--run", str(run)) == (
            f"the first record of {run / 'diagnostics.csv'} is not at t = 0")

    @pytest.mark.parametrize("name, message", [
        ("L", "could not convert string to float: 'x'"),
        ("t", "record times do not increase strictly")],
        ids=["non-numeric-L", "repeated-t"])
    def test_csv_error_names_the_file(self, small_run, tmp_path, capsys, name,
                                      message):
        # Row 2's L cell set to x, or its t cell to row 1's.
        run = tmp_path / "run"
        shutil.copytree(small_run, run)
        path = run / "diagnostics.csv"
        rows = [line.split(",") for line in path.read_text().splitlines()]
        j = CSV_FIELDS.index(name)
        rows[3][j] = "x" if name == "L" else rows[2][j]
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        assert bad_input_line(capsys, "verify-identities", "--run", str(run)) == (
            f"{path}: {message}")

    @pytest.mark.parametrize("value", [1e308, -1e308])
    def test_overflowing_L_squared_is_a_violation(self, small_run, tmp_path,
                                                  capsys, value):
        # L^2 exceeds float64's range: the Riccati margins it scales fail,
        # under the suite's RuntimeWarning filter.
        run = tmp_path / "run"
        shutil.copytree(small_run, run)
        edit_cell(run, 2, "L", value)
        assert main(["verify-identities", "--run", str(run), "--quiet"]) == 1
        failed = capsys.readouterr().out
        assert "failed checks: " in failed
        for check in ("derivative_inequality_held", "riccati_dominated"):
            assert check in failed


# The derived columns verify-identities recomputes rather than trusts.
RECOMPUTED = ("envelope", "riccati_slack")


class TestVerifyRecomputesTheRiccatiColumns:
    @pytest.mark.parametrize("edits", [
        {"envelope": lambda v: v * (1.0 + 1e-9), "riccati_slack": lambda v: v + 1e-9},
        {"envelope": lambda v: v * (1.0 + 1e-9)},
        {"riccati_slack": lambda v: v + 1e-9},
        {"envelope": lambda v: math.nan},
        {"riccati_slack": lambda v: -math.inf}],
        ids=["both", "envelope", "riccati_slack", "envelope-nan", "slack-inf"])
    def test_edited_cell_is_exit_1(self, small_run, tmp_path, capsys, edits):
        # Row 10 of a passing run, its cells off in their last bits or no
        # longer finite: every check still holds, so only the recomputation
        # of the two columns from t, L and area(0) can see the edit.
        run = tmp_path / "run"
        shutil.copytree(small_run, run)
        stored = read_diagnostics_csv(str(run / "diagnostics.csv"))
        for name, edit in edits.items():
            assert math.isfinite(stored[name][10])
            assert edit(stored[name][10]) != stored[name][10]
            edit_cell(run, 10, name, edit(stored[name][10]))
        assert main(["verify-identities", "--run", str(run), "--quiet"]) == 1
        assert ("stored columns differ from their recomputed values: "
                + ", ".join(edits)) in capsys.readouterr().out

    def test_finite_envelope_without_positive_A_is_exit_1(self, still_run, tmp_path,
                                                          capsys):
        # The still fluid has A = L(0) = 0, so no envelope: a finite cell
        # where the run writes NaN.
        run = tmp_path / "run"
        shutil.copytree(still_run["dir"], run)
        edit_cell(run, 3, "envelope", 0.0)
        assert main(["verify-identities", "--run", str(run), "--quiet"]) == 1
        assert ("stored columns differ from their recomputed values: envelope"
                in capsys.readouterr().out)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", FINITE_FROM)
    def test_non_finite_derived_cell_is_exit_1(self, small_run, tmp_path, capsys,
                                               name, value):
        # Row 5 of the passing 11-record run.  The slacks and residuals are
        # not recomputed (the CSV lacks their integrals), and the margins
        # skip a non-finite cell, so without the rule of where fill_derived
        # writes them finite a -inf slack would pass.
        run = tmp_path / "run"
        shutil.copytree(small_run, run)
        edit_cell(run, 5, name, value)
        assert main(["verify-identities", "--run", str(run), "--quiet"]) == 1
        assert ("derived columns not finite where a run writes them so, or not "
                f"NaN where it leaves them NaN: {name}") in capsys.readouterr().out

    @pytest.mark.parametrize("records, name, value", [
        (1, "slack_28", 0.0), (1, "schwarz_vol", -math.inf), (1, "residual_27", 1.0),
        (2, "schwarz_wall", math.nan), (2, "residual_26", 0.0),
        (2, "residual_27", math.inf)])
    def test_short_run_cell_is_exit_1(self, short_still_runs, tmp_path, capsys,
                                      records, name, value):
        # One record has no slack and two no residual: fill_derived leaves
        # those cells NaN and writes the two-record slacks finite.
        run = tmp_path / "run"
        shutil.copytree(short_still_runs[records], run)
        edit_cell(run, records - 1, name, value)
        assert main(["verify-identities", "--run", str(run), "--quiet"]) == 1
        assert ("derived columns not finite where a run writes them so, or not "
                f"NaN where it leaves them NaN: {name}") in capsys.readouterr().out


@pytest.fixture(scope="module")
def short_still_runs(tmp_path_factory):
    """Still-fluid runs of one and two records, each verified as written."""
    runs = {}
    for records, t_end_cap in ((1, 0.01), (2, 0.05)):
        tmp = tmp_path_factory.mktemp(f"still_{records}")
        cfg = write_config(tmp, dict(still_config_dict(), t_end_cap=t_end_cap))
        run = runs[records] = tmp / "run"
        assert main(["simulate", "--config", cfg, "--out", str(run), "--quiet"]) == 0
        assert json.loads((run / "report.json").read_text())["n_records"] == records
        assert main(["verify-identities", "--run", str(run), "--quiet"]) == 0
    return runs


# Cell values for the run-directory fuzzer: the non-finite ones, float64's
# extremes, and any finite float.
CELL_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -0.0, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False))
REPORT_VALUES = st.one_of(st.booleans(), st.none(), st.integers(-2, 20),
                          st.floats(), st.text(max_size=3))
# The JSON types a run writes for each type of RUN_KEYS: a whole float's 17
# digits read back as an int, a float that is not finite is written null,
# and so are the breakdown strings of a run that did not break down.
WRITTEN_TYPES = {float: (float, int, type(None)), str: (str, type(None)), int: (int,)}


@pytest.fixture(scope="module")
def fuzzed_runs(small_run, ref_run, tmp_path_factory):
    """Copies of a passing run that did not break down and of the blow-up
    run, which did, each with the directory it was copied from."""
    root = tmp_path_factory.mktemp("fuzzed")
    runs = {}
    for name, source in (("small", small_run), ("blowup", pathlib.Path(ref_run["dir"]))):
        shutil.copytree(source, root / name)
        runs[name] = (root / name, source)
    return runs


# Names a snapshot may be renamed or copied to: the next record's, others
# that write_snapshots never writes, and any short name.
SNAPSHOT_NAMES = st.one_of(
    st.sampled_from(["0011.csv", "0000.CSV", "11.csv", "00000.csv", "0003.csv.bak",
                     ".0003.csv", "0003"]),
    st.text(st.characters(whitelist_categories=("L", "N"), whitelist_characters=".-_"),
            min_size=1, max_size=9).filter(lambda name: name not in (".", "..")))


def edit_snapshots(directory, data):
    """Rename, delete or duplicate one snapshot file."""
    names = sorted(os.listdir(directory))
    name = data.draw(st.sampled_from(names), label="snapshot")
    edit = data.draw(st.sampled_from(["rename", "delete", "duplicate"]), label="edit")
    if edit == "delete":
        os.remove(directory / name)
        return
    if edit == "rename":
        # onto another snapshot's name it replaces that file
        target = data.draw(st.one_of(SNAPSHOT_NAMES, st.sampled_from(names))
                           .filter(lambda t: t != name), label="renamed to")
        os.replace(directory / name, directory / target)
    else:
        target = data.draw(SNAPSHOT_NAMES.filter(lambda t: t not in names),
                           label="copied to")
        shutil.copyfile(directory / name, directory / target)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_edited_run_directory_reaches_a_verdict(fuzzed_runs, data):
    # One CSV cell, one report key or one snapshot name edited, on a run
    # that did not break down or on one that did: verify-identities exits
    # 0, 1 or 2, never 3; a non-finite primary cell is always bad input, and
    # so is a run value of a type no run writes there; a recomputed cell
    # whose bits change always fails, and so does a non-finite slack or
    # residual; a snapshot edit never passes, nor does a report key added or
    # deleted, nor a report edit that changes what a key outside RUN_KEYS
    # reads back as, t_break included.
    fuzzed_run, source = fuzzed_runs[data.draw(st.sampled_from(sorted(fuzzed_runs)),
                                               label="run")]
    csv, report = fuzzed_run / "diagnostics.csv", fuzzed_run / "report.json"
    snapshots = fuzzed_run / "snapshots"
    originals = {path: path.read_text() for path in (csv, report)}
    target = data.draw(st.sampled_from(["csv", "report", "snapshots"]), label="edit")
    bad_input = altered = rejected = False
    try:
        if target == "csv":
            row = data.draw(st.integers(0, 10), label="row")
            name = data.draw(st.sampled_from(CSV_FIELDS), label="column")
            value = data.draw(CELL_VALUES, label="value")
            before = originals[csv].splitlines()[row + 1].split(",")[CSV_FIELDS.index(name)]
            edit_cell(fuzzed_run, row, name, value)
            bad_input = (name in PRIMARY and not math.isfinite(value)
                         and not (name == "dt" and row == 0))
            altered = ((name in RECOMPUTED and format(value, ".17g") != before)
                       or (name in FINITE_FROM and not math.isfinite(value)))
        elif target == "report":
            stored = json.loads(originals[report])
            edit = data.draw(st.sampled_from(["set", "delete", "add"]), label="report edit")
            if edit == "set":
                key = data.draw(st.sampled_from(sorted(stored)), label="key")
                value = data.draw(REPORT_VALUES, label="value")
                if key in runner.RUN_KEYS:
                    bad_input = type(value) not in WRITTEN_TYPES[runner.RUN_KEYS[key]]
                # after a breakdown, t_break reads back as t_final
                moves_t_break = key == "t_final" and stored["breakdown_kind"] is not None
                rejected = (key not in runner.RUN_KEYS or moves_t_break) and not (
                    type(value) is type(stored[key]) and value == stored[key])
                stored[key] = value
            elif edit == "delete":
                del stored[data.draw(st.sampled_from(sorted(stored)), label="key")]
                rejected = True
            else:
                stored[data.draw(st.text(max_size=9).filter(lambda k: k not in stored),
                                 label="added key")] = data.draw(REPORT_VALUES, label="value")
                rejected = True
            report.write_text(json.dumps(stored))
        else:
            edit_snapshots(snapshots, data)
            rejected = True
        code = main(["verify-identities", "--run", str(fuzzed_run), "--quiet"])
        assert code in (0, 1, 2)
        if bad_input:
            assert code == 2
        if altered:
            assert code == 1
        if rejected:
            assert code in (1, 2)
    finally:
        for path, text in originals.items():
            path.write_text(text)
        if target == "snapshots":
            shutil.rmtree(snapshots)
            shutil.copytree(source / "snapshots", snapshots)


class TestValidateBemCommand:
    def test_default_sweep_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"bem_panel_counts": [32, 64, 128],
                                      "bem_mode_ks": [1]})
        assert main(["validate-bem", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "constant data" in out and "order" in out

    def test_repeated_calls_print_once(self, tmp_path, capsys):
        # each call replaces the stdout handler of the last, not adds one
        cfg = write_config(tmp_path, {"bem_panel_counts": [32, 64],
                                      "bem_mode_ks": [1]})
        assert main(["validate-bem", "--config", cfg]) == 0
        first = capsys.readouterr().out
        assert first.count("validation passed") == 1
        assert main(["validate-bem", "--config", cfg]) == 0
        assert capsys.readouterr().out == first

    def test_single_panel_count_is_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"bem_panel_counts": [32],
                                      "bem_mode_ks": [1]})
        assert bad_input_line(capsys, "validate-bem", "--config", cfg).startswith(
            "bem_panel_counts needs at least two counts")

    def test_largest_float64_mode_runs_without_warning(self, tmp_path, capsys):
        # 224 pi cosh(224 pi) is 1.47e308, the last finite one (225 is
        # rejected at load): the sweep must reach a verdict without a
        # numpy warning.
        assert math.isfinite(224 * math.pi * math.cosh(224 * math.pi))
        cfg = write_config(tmp_path, {"bem_mode_ks": [224]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate-bem", "--config", cfg]) in (0, 1)
        assert "mode k=224:" in capsys.readouterr().out

    @pytest.mark.parametrize("k", [40, 60, 200])
    def test_unresolved_mode_fails(self, tmp_path, capsys, k):
        # Each error falls monotonically at order >= 1, yet at 256 panels it
        # is still 1.52, 3.92 or 2.45: above the bound, so not resolved.
        cfg = write_config(tmp_path, {"bem_mode_ks": [k]})
        assert main(["validate-bem", "--config", cfg]) == 1
        out = capsys.readouterr().out
        assert f"mode k={k}: error" in out and "validation FAILED" in out

    @pytest.mark.parametrize("config, solves, code", [
        ({}, [(32, (0, 1, 2)), (256, (1, 2)), (128, (1, 2)), (64, (1, 2))], 0),
        ({"bem_panel_counts": [48, 16, 32]}, [], 2),
        ({"bem_mode_ks": []}, [(32, (0,))], 0)],
        ids=["default", "unsorted", "no-modes"])
    def test_largest_count_is_solved_first(self, tmp_path, monkeypatch, capsys,
                                           config, solves, code):
        # The first count with the constant datum, so its line streams
        # first; then the largest count down, so the coarser solves reuse
        # its heap.  The table keeps the configured order.  Counts that do
        # not increase are bad input, refused before any solve.
        calls = []
        flat_mesh_errors = runner._flat_mesh_errors

        def recording(n_markers, ks):
            calls.append((n_markers, tuple(ks)))
            return flat_mesh_errors(n_markers, ks)

        monkeypatch.setattr(runner, "_flat_mesh_errors", recording)
        assert main(["validate-bem", "--config", write_config(tmp_path, config)]) == code
        assert calls == solves
        if code == 2:
            return
        out = capsys.readouterr().out
        cfg = RunConfig.from_dict(config)
        for k in cfg.bem_mode_ks:
            line = next(line for line in out.splitlines() if line.startswith(f"mode k={k}:"))
            assert [cell.split(":")[0] for cell in line.split()[2:-1]] == [
                str(n) for n in cfg.bem_panel_counts]

    def test_broken_kernel_sign_fails(self, monkeypatch, capsys):
        # negative control: flip the single-layer sign and the sweep must
        # fail.  The solver has S written into its system's surface
        # columns, so the sign is flipped there, in the view it passes.
        original = kernels.influence_matrices
        flipped = []

        def broken(mesh, targets, cols=None, out=None):
            S, D = original(mesh, targets, cols, out)
            np.negative(S, out=S)
            flipped.append(S.base is not None and not S.flags.c_contiguous)
            return S, D

        monkeypatch.setattr(bem.kernels, "influence_matrices", broken)
        cfg = RunConfig.from_dict({"bem_panel_counts": [32, 64],
                                   "bem_mode_ks": [1]})
        assert validate_bem(cfg) is False
        assert flipped == [True, True]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_requires_config_flag(self):
        with pytest.raises(SystemExit):
            main(["simulate"])


# Six 168 x 168 arrays stand for the m x n work arrays of one solve at the
# reference resolution.  By default glibc gives most of them back to the
# system when they are freed, so every round faults their pages in again.
CHURN = """
import resource
import numpy as np
from wavebox.cli import _keep_freed_heap

def churn():
    arrays = [np.ones((168, 168)) for _ in range(6)]
    del arrays

_keep_freed_heap()
churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="keeping freed memory needs glibc's mallopt")
def test_freed_solver_arrays_are_reused():
    # Without the call the 50 rounds take about 9,500 minor faults.
    assert int(run_child(["-c", CHURN], text=True)) < 1000


def test_cli_import_loads_no_scipy_interpolate():
    # scipy.interpolate pulls in scipy.optimize, sparse, spatial and special:
    # about 0.3 s and 23 MB of every process, for one PCHIP
    loaded = run_child(["-c",
        "import sys, wavebox.cli\n"
        "print(*(m for m in sys.modules\n"
        "        if m.split('.')[:2] in (['scipy', 'interpolate'],\n"
        "                                ['scipy', 'optimize'])))"], text=True)
    assert loaded.split() == []


# After ``import wavebox.cli`` nothing of scipy.linalg's Python package may be
# loaded; a later ``import scipy.linalg`` must still find its LAPACK
# extension and give solve_dense's bits.
LINALG_GUARD = """
import sys
import numpy as np
import wavebox.cli
from wavebox.kernels import DenseSystem, solve_dense
print(*(m for m in sys.modules
        if m.split('.')[:2] in (['scipy', 'linalg'], ['scipy', '_lib'],
                                ['numpy', 'f2py'], ['numpy', 'testing'])))
import scipy.linalg
rng = np.random.default_rng(3)
A, b = rng.standard_normal((60, 60)), rng.standard_normal(60)
want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), b)
got = solve_dense(DenseSystem(matrix=A, rhs=b))
print(scipy.linalg._flapack.__name__,
      np.array_equal(got.view(np.uint64), want.view(np.uint64)))
"""


def test_cli_import_loads_no_scipy_linalg_package():
    # scipy.linalg's package loads scipy._lib, numpy.f2py and numpy.testing:
    # about 0.3 s and 24 MB of every process, for dgetrf and dgetrs
    loaded, after = run_child(["-c", LINALG_GUARD], text=True).splitlines()
    assert loaded.split() == []
    assert after.split() == ["scipy.linalg._flapack", "True"]


# A run must load no second LAPACK beside SciPy's: leggauss would load
# numpy.polynomial and run its eigensolver through numpy's own.
RUN_GUARD = """
import sys
import wavebox.cli
code = wavebox.cli.main(["simulate", "--config", sys.argv[1],
                         "--out", sys.argv[2], "--quiet"])
print(code, *(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'polynomial']))
"""


def test_simulate_loads_no_numpy_polynomial(tmp_path):
    # initial_A's rule, built by leggauss(16), set the run's peak resident
    # set: 0.8 MB above anything else the blowup workload holds.
    cfg = write_config(tmp_path, reference_config_dict(t_end_cap=1e-4))
    out = run_child(["-c", RUN_GUARD, cfg, str(tmp_path / "out")], text=True)
    assert out.split() == ["0"]
