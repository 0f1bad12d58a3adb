"""Command-line interface and its exit-code contract."""

import dataclasses
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavebox.bem as bem
import wavebox.kernels as kernels
from wavebox.cli import main
from wavebox.runner import RunConfig, validate_bem

from conftest import reference_modes


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


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

    def test_numerical_failure_is_exit_3(self, tmp_path, capsys):
        # a valid config whose near-field band swallows every lattice point:
        # pressure_min raises a plain ValueError, which is no failed check
        cfg = write_cfg(tmp_path, dict(modes=reference_modes(), n_markers=24,
                                       wall_panels_per_side=8, t_end_cap=1e-3,
                                       near_field_factor=50))
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out, "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver failure: ValueError: no admissible lattice")
        assert "Traceback" not in err and err.count("\n") == 1


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


@pytest.mark.parametrize("bad", [
    {"modes": [[0, 1.0]]}, {"n_markers": 4}, {"wall_panels_per_side": 2},
    {"cfl": 0.0}, {"cfl": 1.5}, {"bem_mode_ks": [1, 225]}, {"bem_mode_ks": [300]},
], ids=["mode_k0", "n_markers_4", "wall_panels_2", "cfl_0", "cfl_1.5",
        "bem_mode_225", "bem_mode_300"])
def test_out_of_range_value_is_exit_2(tmp_path, capsys, bad):
    # RunConfig alone checks these ranges; the numerics trust them.
    path = write_cfg(tmp_path, {**SMALL_CONFIG, **bad})
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", path, "--out", out]) == 2
    assert main(["validate-bem", "--config", path]) == 2
    assert not os.path.exists(out)
    assert capsys.readouterr().err.count("configuration error") == 2


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

    def test_quiet_keeps_the_error_line(self, tmp_path, capsys):
        assert main(["verify-identities", "--run", str(tmp_path / "missing"),
                     "--quiet"]) == 2
        assert capsys.readouterr().out.startswith("error: cannot read config")

    @pytest.mark.parametrize("report", [
        "[]", '"x"', {"energy_conserved": "false"}, {"area_conserved": 1},
        {"breakdown_kind": False}, {"breakdown_kind": 5}],
        ids=["list", "string", "check-as-string", "check-as-number",
             "breakdown-as-false", "breakdown-as-number"])
    def test_malformed_report_is_exit_2(self, still_run, tmp_path, capsys,
                                        report):
        run = tmp_path / "run"
        shutil.copytree(still_run["dir"], run)
        if isinstance(report, dict):
            report = json.dumps(dict(still_run["report"], **report))
        (run / "report.json").write_text(report)
        assert main(["verify-identities", "--run", str(run), "--quiet"]) == 2
        assert "solver failure" not in capsys.readouterr().err


class TestValidateBemCommand:
    def test_default_sweep_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"bem_panel_counts": [32, 64, 128],
                                   "bem_mode_ks": [1]})
        assert main(["validate-bem", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "constant data" in out and "order" in out

    def test_repeated_calls_print_once(self, tmp_path, capsys):
        # each call replaces the stdout handler of the last, not adds one
        cfg = write_cfg(tmp_path, {"bem_panel_counts": [32, 64],
                                   "bem_mode_ks": [1]})
        assert main(["validate-bem", "--config", cfg]) == 0
        first = capsys.readouterr().out
        assert first.count("validation passed") == 1
        assert main(["validate-bem", "--config", cfg]) == 0
        assert capsys.readouterr().out == first

    def test_single_panel_count_is_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"bem_panel_counts": [32],
                                   "bem_mode_ks": [1]})
        assert main(["validate-bem", "--config", cfg]) == 2

    def test_largest_float64_mode_runs_without_warning(self, tmp_path, capsys):
        # 224 pi cosh(224 pi) is 1.47e308, the last finite one (225 is
        # rejected at load): the sweep must reach a verdict without a
        # numpy warning.
        assert math.isfinite(224 * math.pi * math.cosh(224 * math.pi))
        cfg = write_cfg(tmp_path, {"bem_mode_ks": [224]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate-bem", "--config", cfg]) in (0, 1)
        assert "mode k=224:" in capsys.readouterr().out

    def test_broken_kernel_sign_fails(self, monkeypatch, capsys):
        # negative control: flip the single-layer sign and the sweep must fail
        original = kernels.influence_matrices

        def broken(mesh, targets, **kwargs):
            S, D = original(mesh, targets, **kwargs)
            return -S, D

        monkeypatch.setattr(bem.kernels, "influence_matrices", broken)
        cfg = RunConfig.from_dict({"bem_panel_counts": [32, 64],
                                   "bem_mode_ks": [1]})
        assert validate_bem(cfg) == 1


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


def run_child(code):
    """Run ``code`` in a fresh interpreter on the source tree; return stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="keeping freed memory needs glibc's mallopt")
def test_freed_solver_arrays_are_reused():
    # Without the call the 50 rounds take about 9,500 minor faults.
    assert int(run_child(CHURN)) < 1000


def test_cli_import_loads_no_scipy_interpolate():
    # scipy.interpolate pulls in scipy.optimize, sparse, spatial and special:
    # about 0.3 s and 23 MB of every process, for one PCHIP
    loaded = run_child(
        "import sys, wavebox.cli\n"
        "print(*(m for m in sys.modules\n"
        "        if m.split('.')[:2] in (['scipy', 'interpolate'],\n"
        "                                ['scipy', 'optimize'])))")
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
    loaded, after = run_child(LINALG_GUARD).splitlines()
    assert loaded.split() == []
    assert after.split() == ["scipy.linalg._flapack", "True"]
