"""Acceptance gate: the ten end-to-end criteria with pinned tolerances.

Expensive runs come from session fixtures in conftest (reference blow-up
run, sign-flipped control, still fluid, refinement pair, repeated run).
"""

import filecmp
import math
import os

import numpy as np
import pytest

from wavebox.bem import solve_mixed_bvp
from wavebox.diagnostics import constant_c1
from wavebox.geometry import (InterfaceCurve, build_boundary_mesh,
                              flat_interface, polygon_area)
from wavebox.modes import sample_initial_state
from wavebox.pressure import PressureField
from wavebox.runner import (RunConfig, _flat_mesh_errors, read_diagnostics_csv,
                            run_simulation)

from conftest import (compatibility_residual, compatibility_scale,
                      make_reference_data, pressure_poisson_residual,
                      reference_config_dict, reference_modes)

REFERENCE_A = 7.742373439628838


def dipped_curve(n, depth):
    """Pinned curve whose polygon area is 1 - 2*depth/3 (parabolic dip)."""
    s = np.linspace(0.0, 1.0, n)
    x2 = 1.0 - 4.0 * depth * s * (1.0 - s)
    return InterfaceCurve(np.column_stack([s, x2]))


def columns_of(run):
    return read_diagnostics_csv(os.path.join(run["dir"], "diagnostics.csv"))


class TestCriterion1RiccatiConstant:
    """c1 = max(2 |domain|, 4/3), exact in both regimes."""

    def test_unit_square_gives_two(self):
        mesh = build_boundary_mesh(flat_interface(65), 16)
        assert constant_c1(polygon_area(mesh)) == 2.0

    def test_half_area_gives_four_thirds(self):
        # area 0.5 => max(2*0.5, 4/3) = 4/3 exactly
        mesh = build_boundary_mesh(dipped_curve(201, 0.75), 16)
        assert constant_c1(polygon_area(mesh)) == 4.0 / 3.0


class TestCriterion2BemConvergence:
    """Harmonic-mode errors decrease monotonically with order >= 1."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_mode_sweep(self, k):
        counts = (32, 64, 128, 256)
        errs = [_flat_mesh_errors(n, [k])[0] for n in counts]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert sum(orders) / len(orders) >= 1.0

    def test_constant_data(self):
        (err,) = _flat_mesh_errors(33, [0])      # mode 0 is the constant 1
        assert err <= 1e-8


class TestCriterion3FluxCompatibility:
    """Net boundary flux of every solve vanishes to 1e-8 of its scale."""

    def test_representative_solves(self):
        state = sample_initial_state(make_reference_data(1.0), 97, 48)
        mesh = state.mesh
        solves = [state.cauchy]
        for k in (1, 2):
            mid = mesh.midpoints[mesh.surface_slice]
            phi = np.cos(k * np.pi * mid[:, 0]) * np.cosh(k * np.pi * mid[:, 1])
            solves.append(solve_mixed_bvp(mesh, phi))
        for cd in solves:
            assert (compatibility_residual(cd, mesh.lengths)
                    <= 1e-8 * compatibility_scale(cd, mesh.lengths))


class TestCriterion4Conservation:
    """Area drift <= 1e-3 and energy drift <= 1e-2 on the reference run."""

    def test_drifts_within_budget(self, ref_run):
        report = ref_run["report"]
        assert report["area_drift_max"] <= 1e-3
        assert report["energy_drift_max"] <= 1e-2
        assert report["area_conserved"] and report["energy_conserved"]


class TestCriterion5PressurePositivity:
    """p stays positive; its Poisson residual is O(h^2) with nonnegative RHS."""

    def test_positive_at_every_record(self, ref_run):
        cols = columns_of(ref_run)
        scale = max(1.0, ref_run["report"]["p_absmax_max"])
        assert np.all(cols["p_min"] >= -1e-3 * scale)

    def test_poisson_residual_sweep(self):
        state = sample_initial_state(make_reference_data(1.0), 97, 48)
        field = PressureField.from_state(state, 2.0)
        pts = np.array([[0.35, 0.5], [0.5, 0.45], [0.68, 0.55]])
        residuals = []
        for h in (0.08, 0.04, 0.02):
            res, rhs = pressure_poisson_residual(field, pts, h)
            assert np.all(rhs >= 0.0)
            residuals.append(res.max())
        # ~O(h^2): each halving should cut the residual by ~4; allow slop
        assert residuals[1] < residuals[0] / 2.5
        assert residuals[2] < residuals[1] / 2.5


class TestCriterion6IdentityResiduals:
    """Growth-identity residuals are small and shrink under refinement."""

    def test_baseline_within_tolerance(self, ref_run):
        report = ref_run["report"]
        assert report["max_identity_residual"] <= 5e-2
        assert report["identities_converged"]

    def test_refinement_halves_residuals(self, refine_runs):
        base = columns_of(refine_runs["base"])
        fine = columns_of(refine_runs["fine"])
        for key in ("residual_26", "residual_27"):
            worst_base = np.nanmax(base[key][1:-1])
            worst_fine = np.nanmax(fine[key][1:-1])
            assert worst_fine <= worst_base / 2.0, key


class TestRefinementLadder:
    """L, energy and area converge on the 64/96/128/192-marker ladder."""

    # The lowest observed order over the shared records t > 0, measured on
    # this ladder; a bound below what the code shows would hide a loss.
    ORDER_FLOOR = {"L": 1.92, "energy": 1.98, "area": 0.65}

    @staticmethod
    def shared_records(ladder_runs):
        """Each key's values at the base record times t > 0, one row per rung.

        At t = 0 the surface is flat, so the area is 1 on every rung.
        """
        cols = [columns_of(run) for run in ladder_runs]
        t = cols[1]["t"][1:]
        rows = []
        for c in cols:
            idx = np.abs(c["t"][:, None] - t).argmin(axis=0)
            np.testing.assert_allclose(c["t"][idx], t, rtol=0.0, atol=1e-12)
            rows.append({key: c[key][idx] for key in TestRefinementLadder.ORDER_FLOOR})
        return {key: np.array([r[key] for r in rows])
                for key in TestRefinementLadder.ORDER_FLOOR}

    @staticmethod
    def observed_orders(values, ladder_runs):
        """p from |X64 - X128| / |X96 - X192| = (h64 / h96)**p, h = 1/(n - 1).

        Both pairs refine h by a factor of about 2, so their differences
        scale as h**p at the coarse end of each pair.
        """
        h = [1.0 / (run["cfg"].n_markers - 1) for run in ladder_runs]
        ratio = np.abs(values[0] - values[2]) / np.abs(values[1] - values[3])
        return np.log(ratio) / math.log(h[0] / h[1])

    def test_differences_shrink(self, ladder_runs):
        shared = self.shared_records(ladder_runs)
        for key in ("L", "energy"):
            step = np.abs(np.diff(shared[key], axis=0))
            assert np.all(step[1:] < step[:-1]), key
        # The area converges slowly (order below 1), and the 96 -> 128 step
        # refines less than 128 -> 192, so only equal refinements compare.
        for key, values in shared.items():
            assert np.all(np.abs(values[1] - values[3])
                          < np.abs(values[0] - values[2])), key

    def test_observed_orders(self, ladder_runs):
        shared = self.shared_records(ladder_runs)
        for key, floor in self.ORDER_FLOOR.items():
            orders = self.observed_orders(shared[key], ladder_runs)
            assert orders.min() >= floor, (key, orders)


class TestCriterion7Inequalities:
    """Growth inequality, both Schwarz bounds, and the derivative bound."""

    def test_slack_28(self, ref_run):
        cols = columns_of(ref_run)
        dL = np.gradient(cols["L"], cols["t"])
        scale = np.maximum(1.0, np.abs(dL))
        assert np.all(cols["slack_28"][1:-1] >= -1e-3 * scale[1:-1])

    def test_schwarz_bounds(self, ref_run):
        cols = columns_of(ref_run)
        scale_v = np.maximum(1.0, cols["schwarz_vol"] + cols["volume_part"] ** 2)
        scale_w = np.maximum(1.0, cols["schwarz_wall"] + cols["wall_part"] ** 2)
        assert np.all(cols["schwarz_vol"] >= -1e-3 * scale_v)
        assert np.all(cols["schwarz_wall"] >= -1e-3 * scale_w)

    def test_discrete_derivative_bound(self, ref_run):
        cols = columns_of(ref_run)
        L2 = cols["L"][1:-1] ** 2
        assert np.all(cols["riccati_slack"][1:-1] >= -1e-2 * L2)


class TestCriterion8RiccatiDomination:
    """L(t) dominates the comparison envelope; the two A evaluations agree."""

    def test_envelope_dominated(self, ref_run):
        cols = columns_of(ref_run)
        valid = np.isfinite(cols["envelope"])
        gap = cols["L"][valid] - cols["envelope"][valid]
        assert np.all(gap >= -1e-2 * np.maximum(1.0, cols["L"][valid] ** 2))

    def test_A_evaluations_agree(self, ref_run):
        report = ref_run["report"]
        assert report["a_quadrature"] == pytest.approx(REFERENCE_A, rel=1e-12)
        assert (abs(report["a_virial"] - report["a_quadrature"])
                <= 1e-3 * abs(report["a_quadrature"]))


class TestCriterion9BlowupBound:
    """Breakdown before c1/A * 1.05; sign-flipped control skips the bound."""

    def test_reference_breaks_before_bound(self, ref_run):
        report = ref_run["report"]
        assert report["breakdown_kind"] is not None
        assert report["t_break"] <= report["t_star"] * 1.05
        assert report["blowup_bound_held"]
        assert report["riccati_checked"]

    def test_negative_control_skips_riccati(self, neg_run):
        # A < 0: the comparison-ODE machinery must be skipped (and the
        # skipping recorded), and the run must still count as a success.
        # The pinned-corner breakdown occurs for either sign of the data,
        # so the control typically also ends in a recorded singularity
        # event before its cap — that is a success outcome by contract.
        report = neg_run["report"]
        assert neg_run["code"] == 0
        assert report["a_virial"] < 0.0
        assert report["riccati_checked"] is False
        assert report["riccati_dominated"] is True      # vacuous
        assert report["t_star"] is None
        assert report["all_passed"]
        cols = columns_of(neg_run)
        assert np.all(np.isnan(cols["envelope"]))

    def test_negative_control_cap_formula(self, neg_run):
        assert neg_run["cfg"].t_end_cap == pytest.approx(
            min(1.0, 0.5 * 2.0 / REFERENCE_A), rel=1e-6)


class TestMirrorSymmetry:
    """x1 -> 1 - x1 flips the sign of every odd mode, so the sign-flipped
    datum (A < 0) is the mirror image of the headline datum (A > 0)."""

    def test_sign_flip_runs_the_mirrored_surfaces(self, ref_run):
        twin = run_simulation(RunConfig.from_dict(reference_config_dict(
            modes=[[k, -a] for k, a in reference_modes()])))
        report = ref_run["report"]
        # The A < 0 twin stops with the A > 0 datum, at the mirrored fold.
        assert twin.a_quadrature < 0.0 < report["a_quadrature"]
        assert twin.n_steps == report["n_steps"]
        assert twin.breakdown.kind == report["breakdown_kind"]
        # measured 5 ulps apart with one BLAS thread, 7 with two
        t_break = report["t_break"]
        assert abs(twin.breakdown.t_break - t_break) <= 16 * np.spacing(t_break)
        snapshots = os.path.join(ref_run["dir"], "snapshots")
        names = sorted(os.listdir(snapshots))
        assert len(names) == len(twin.snapshots) == 15
        worst = 0.0
        for name, x in zip(names, twin.snapshots):
            ref_x = np.loadtxt(os.path.join(snapshots, name), delimiter=",",
                               skiprows=1)[:, 1:]
            mirrored = np.column_stack([1.0 - x[::-1, 0], x[::-1, 1]])
            worst = max(worst, float(np.abs(mirrored - ref_x).max()))
        # measured 4.0e-15 with one BLAS thread, 5.3e-15 with two
        assert worst <= 1e-14


class TestCriterion10Determinism:
    """Identical configurations produce byte-identical artifacts."""

    def test_byte_identical_outputs(self, repeat_runs):
        a, b = repeat_runs["first"]["dir"], repeat_runs["second"]["dir"]
        for name in ("diagnostics.csv", "report.json"):
            assert filecmp.cmp(os.path.join(a, name), os.path.join(b, name),
                               shallow=False), name
        snaps_a = sorted(os.listdir(os.path.join(a, "snapshots")))
        snaps_b = sorted(os.listdir(os.path.join(b, "snapshots")))
        assert snaps_a == snaps_b
        for name in snaps_a:
            assert filecmp.cmp(os.path.join(a, "snapshots", name),
                               os.path.join(b, "snapshots", name),
                               shallow=False)
