"""Seeded workload generator for the wavebox benchmark.

Each workload is one configuration JSON handed to the ``wavebox`` command
line, plus the facts the correctness gate checks against.

Seed 0 reproduces the headline configuration of the README and of
``tests/conftest.py::reference_config_dict`` exactly.  Any other seed
scales the k=1 amplitude by a factor lam in [0.9, 1.1], recomputes the k=3
coefficient so that both corner conditions hold, and divides every time
parameter of the run (``record_dt``, and ``t_end_cap`` where it is reached)
by lam.  With no gravity and zero surface pressure the flow is
scale-invariant: velocities grow by lam and time shrinks by 1/lam, so the
step and record counts do not depend on the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("blowup", "record_dense", "bem_sweep")

# SHA-256 of the seed-0 outputs with one BLAS thread: the artifact tree of
# ``simulate`` (see ``run.tree_digest``), or the printed table of
# ``validate-bem``.  Other BLAS thread counts give other bytes.
GOLDEN_SHA256 = {
    "blowup": "5455bf50a6e4d170255e1e084ca15f40236c354cab6c444db532ad60fb9d4ef6",
    "record_dense": "69bfb20ebbd8e458d1f3fd323e6620b60758db231cb9bcd3e57263a7c8484572",
    "bem_sweep": "3bf033b69377f24ed40081af6186f9b5c6417146417867e3e424fba156dd0f8d",
}


@dataclass(frozen=True)
class Workload:
    """One generated workload: its config and what a correct run yields."""

    name: str
    seed: int
    amplitude: float
    config: dict
    command: str                # wavebox subcommand: simulate or validate-bem
    n_steps: int | None         # expected step count (simulate only)
    n_records: int | None       # expected record count (simulate only)
    n_solves: int | None        # one-shot solves of the sweep (validate-bem only)
    expect_breakdown: bool
    timed_verify: bool          # verify-identities counts towards wall_s
    golden_sha256: str | None   # digest of the outputs, seed 0 only


def amplitude_for_seed(seed: int) -> float:
    """Scale factor of the k=1 mode: exactly 1 at seed 0, else in [0.9, 1.1]."""
    if seed == 0:
        return 1.0
    return 0.9 + 0.2 * random.Random(seed).random()


def scaled_modes(lam: float) -> list[list]:
    """k=1 and k=3 modes with both corner conditions satisfied.

    Written with the arithmetic of ``tests/conftest.py::reference_modes`` so
    that lam = 1 yields the same floats.
    """
    a1 = -1.0 * lam
    a3 = -a1 * math.sinh(math.pi) / (3.0 * math.sinh(3.0 * math.pi))
    return [[1, a1], [3, a3]]


def reference_config(lam: float = 1.0, **overrides) -> dict:
    """The headline blow-up configuration, amplitude scaled by lam."""
    cfg = dict(modes=scaled_modes(lam), n_markers=96, wall_panels_per_side=24,
               cfl=0.15, record_dt=1.5e-4 / lam, redistribute_every=3,
               t_end_cap=1.0)
    cfg.update(overrides)
    return cfg


def generate(name: str, seed: int) -> Workload:
    """The workload ``name`` for ``seed``; same seed, same config."""
    lam = amplitude_for_seed(seed)
    golden = GOLDEN_SHA256.get(name) if seed == 0 else None
    if name == "blowup":
        return Workload(name, seed, lam, reference_config(lam), "simulate",
                        n_steps=118, n_records=15, n_solves=None,
                        expect_breakdown=True, timed_verify=False,
                        golden_sha256=golden)
    if name == "record_dense":
        cfg = reference_config(lam, record_dt=1e-5 / lam, t_end_cap=6e-4 / lam)
        return Workload(name, seed, lam, cfg, "simulate",
                        n_steps=60, n_records=61, n_solves=None,
                        expect_breakdown=False, timed_verify=True,
                        golden_sha256=golden)
    if name == "bem_sweep":
        # default sweep: one constant-data solve, then 4 panel counts x 2 modes
        return Workload(name, seed, lam, {}, "validate-bem",
                        n_steps=None, n_records=None, n_solves=9,
                        expect_breakdown=False, timed_verify=False,
                        golden_sha256=golden)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
