"""Shared fixtures: canned configurations and session-scoped runs.

The expensive simulations (reference blow-up run, negative control,
refinement pair) run once per session and are reused by every test that
inspects their artifacts.
"""

import json
import math
import os

import numpy as np
import pytest

from wavebox.runner import RunConfig, simulate


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
    code, _ = simulate(cfg, out_dir=out, quiet=True)
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    return {"cfg": cfg, "code": code, "report": report, "dir": out}


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
def repeat_runs(tmp_path_factory):
    """The same short configuration run twice, for byte-level comparison."""
    cfg = reference_config_dict(t_end_cap=6e-4)
    return {"first": _run(tmp_path_factory, "repeat_a", cfg),
            "second": _run(tmp_path_factory, "repeat_b", cfg)}


def write_config(path, cfg_dict):
    with open(os.path.join(path, "config.json"), "w") as fh:
        json.dump(cfg_dict, fh)
    return os.path.join(path, "config.json")


@pytest.fixture
def ref_columns(ref_run):
    from wavebox.runner import read_diagnostics_csv
    return read_diagnostics_csv(os.path.join(ref_run["dir"], "diagnostics.csv"))
