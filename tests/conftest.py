"""Shared fixtures and oracles: canned configurations, session-scoped runs.

The expensive simulations (reference blow-up run, negative control,
refinement pair) run once per session and are reused by every test that
inspects their artifacts.  The oracles below (reference data, interior
velocity, Poisson residual of the pressure, flux compatibility) serve only
the tests, so they live here rather than in the package, as do the helpers
more than one test module shares: the config writer, the child-process
runner and the bit-equality assertion.  ``perfbench`` goes on the import
path for its thread variables and artifact digests.
"""

import json
import logging
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from wavebox.bem import eval_interior
from wavebox.pressure import pressure_at
from wavebox.runner import RunConfig, simulate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from run import THREAD_VARS  # noqa: E402


def make_reference_data(amplitude):
    """Two-mode (k=1,3) potential satisfying both corner conditions.

    Odd modes give opposite-sign corner velocities at the two ends, so a
    single ratio cancels both simultaneously.  The sign convention makes
    the virial starting value positive for amplitude > 0.
    """
    if amplitude == 0.0:
        raise ValueError("amplitude must be nonzero")
    a1 = -float(amplitude)
    a3 = -a1 * np.sinh(np.pi) / (3.0 * np.sinh(3.0 * np.pi))
    # RunConfig raises ConfigError unless both corner conditions hold
    return RunConfig(modes=((1, a1), (3, a3))).potential()


def velocity_at(field, points):
    """Interior velocity grad phi of a PressureField at the given points."""
    _, grad = eval_interior(field.mesh, field.phi_cauchy, points,
                            field.near_field_factor)
    return grad


def pressure_poisson_residual(field, points, h):
    """Residual of -Lap p = (d1 u1)^2 + (d2 u2)^2 + 2 (d2 u1)^2 by finite differences.

    Five-point Laplacian of p with step h; velocity gradients by centered
    differences of the interior velocity with the same step.  Returns
    (residuals, rhs_values); the right-hand side must be nonnegative.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    e1 = np.array([h, 0.0])
    e2 = np.array([0.0, h])
    p0 = pressure_at(field, pts)
    pe = pressure_at(field, pts + e1)
    pw = pressure_at(field, pts - e1)
    pn = pressure_at(field, pts + e2)
    ps = pressure_at(field, pts - e2)
    lap_p = (pe + pw + pn + ps - 4.0 * p0) / (h * h)

    ue = velocity_at(field, pts + e1)
    uw = velocity_at(field, pts - e1)
    un = velocity_at(field, pts + e2)
    us = velocity_at(field, pts - e2)
    d1u = (ue - uw) / (2.0 * h)
    d2u = (un - us) / (2.0 * h)
    rhs = d1u[:, 0] ** 2 + d2u[:, 1] ** 2 + 2.0 * d2u[:, 0] ** 2
    return np.abs(-lap_p - rhs), rhs


def lattice_candidates(mesh, n_per_side):
    """The n_per_side**2 points that ``pressure.interior_lattice`` offers to
    ``bem.admissible_interior``, built with its arithmetic."""
    top = float(mesh.b[:, 1].max())
    xs = (np.arange(n_per_side) + 0.5) / n_per_side
    ys = (np.arange(n_per_side) + 0.5) / n_per_side * top
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel()])


def compatibility_residual(cauchy, lengths):
    """|sum flux*length| — zero for exact harmonic Cauchy data."""
    return float(abs(np.dot(cauchy.fluxes, lengths)))


def compatibility_scale(cauchy, lengths):
    return float(np.dot(np.abs(cauchy.fluxes), lengths) + 1e-30)


def reference_modes():
    """Two-mode initial data with positive starting virial value."""
    a1 = -1.0
    a3 = -a1 * math.sinh(math.pi) / (3.0 * math.sinh(3.0 * math.pi))
    return [[1, a1], [3, a3]]


def reference_config_dict(**overrides):
    cfg = dict(modes=reference_modes(), n_markers=96, wall_panels_per_side=24,
               cfl=0.15, record_dt=1.5e-4, redistribute_every=3,
               t_end_cap=1.0)
    cfg.update(overrides)
    return cfg


def neg_config_dict():
    """Sign-flipped data (negative starting virial value)."""
    modes = [[k, -a] for k, a in reference_modes()]
    # the criterion's cap: min(1, c1 / (2 |A|)) with c1 = 2, |A| = 7.7424...
    cap = min(1.0, 1.0 / 7.742373439628838)
    return reference_config_dict(modes=modes, n_markers=48,
                                 wall_panels_per_side=16, record_dt=5e-4,
                                 t_end_cap=cap)


def still_config_dict():
    """No initial motion."""
    return dict(modes=[], n_markers=24, wall_panels_per_side=8,
                record_dt=0.05, t_end_cap=1.0)


def _run(tmp_factory, name, cfg_dict):
    out = str(tmp_factory.mktemp(name))
    cfg = RunConfig.from_dict(cfg_dict)
    passed = simulate(cfg, out)
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    return {"cfg": cfg, "passed": passed, "report": report, "dir": out}


@pytest.fixture(scope="session")
def ref_run(tmp_path_factory):
    """The headline blow-up run: amplitude-1 data until breakdown."""
    return _run(tmp_path_factory, "ref", reference_config_dict())


@pytest.fixture(scope="session")
def neg_run(tmp_path_factory):
    """Sign-flipped data (negative starting virial value)."""
    return _run(tmp_path_factory, "neg", neg_config_dict())


@pytest.fixture(scope="session")
def still_run(tmp_path_factory):
    """No initial motion: must reach the time cap with every check green."""
    return _run(tmp_path_factory, "still", still_config_dict())


@pytest.fixture(scope="session")
def refine_runs(tmp_path_factory):
    """Short-horizon pair: baseline and (2x markers, record_dt/2) refinement."""
    base_cfg = reference_config_dict(t_end_cap=1.2e-3)
    fine_cfg = reference_config_dict(t_end_cap=1.2e-3, n_markers=192,
                                     wall_panels_per_side=48, record_dt=7.5e-5)
    return {"base": _run(tmp_path_factory, "refine_base", base_cfg),
            "fine": _run(tmp_path_factory, "refine_fine", fine_cfg)}


@pytest.fixture(scope="session")
def ladder_runs(tmp_path_factory, refine_runs):
    """Refinement ladder to t = 1.2e-3, coarse to fine: 64/16, 96/24, 128/32
    and 192/48 markers / wall panels per side; the middle rungs share the
    base record times, which the finest run's half-size record_dt includes."""
    rungs = [_run(tmp_path_factory, f"ladder_{n}",
                  reference_config_dict(t_end_cap=1.2e-3, n_markers=n,
                                        wall_panels_per_side=w))
             for n, w in ((64, 16), (128, 32))]
    return [rungs[0], refine_runs["base"], rungs[1], refine_runs["fine"]]


@pytest.fixture(scope="session")
def repeat_runs(tmp_path_factory):
    """The same short configuration run twice, for byte-level comparison."""
    cfg = reference_config_dict(t_end_cap=6e-4)
    return {"first": _run(tmp_path_factory, "repeat_a", cfg),
            "second": _run(tmp_path_factory, "repeat_b", cfg)}


@pytest.fixture(autouse=True)
def fresh_package_logger():
    """Drop the stdout handler and level ``cli.main`` leaves on the logger.

    The handler holds the stdout of the test that called ``main``; a later
    test's warnings must not go to that test's closed capture stream.
    """
    yield
    logger = logging.getLogger("wavebox")
    logger.handlers = []
    logger.setLevel(logging.NOTSET)


def write_config(directory, cfg_dict):
    """Write ``cfg_dict`` as ``directory/cfg.json``; return the path."""
    path = os.path.join(directory, "cfg.json")
    with open(path, "w") as fh:
        json.dump(cfg_dict, fh)
    return path


def run_child(args, **kwargs):
    """Stdout of ``python *args`` run with one BLAS thread and the package
    on its path; the child must exit 0."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, timeout=300, **kwargs)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def assert_same_bits(got, want):
    """Same shape, both float64, and the same bits: NaN payloads and the
    signs of zeros included."""
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.fixture
def ref_columns(ref_run):
    from wavebox.runner import read_diagnostics_csv
    return read_diagnostics_csv(os.path.join(ref_run["dir"], "diagnostics.csv"))
