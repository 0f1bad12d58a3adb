"""Mixed boundary-value solver against closed-form harmonic modes."""

import math
import os

import numpy as np
import pytest

from wavebox import bem, kernels
from wavebox.bem import (CauchyData, admissible_interior, eval_interior,
                         solve_mixed_bvp)
from wavebox.errors import NearBoundaryError
from wavebox.geometry import (InterfaceCurve, build_boundary_mesh, flat_interface,
                              points_inside)
from wavebox.modes import sample_initial_state
from wavebox.runner import mode_errors, read_diagnostics_csv

from conftest import (assert_same_bits, compatibility_residual,
                      compatibility_scale, lattice_candidates,
                      make_reference_data)


def mode_data(mesh, k):
    """Exact midpoint values and fluxes of cos(k pi x1) cosh(k pi x2)."""
    mid = mesh.midpoints
    kp = k * np.pi
    phi = np.cos(kp * mid[:, 0]) * np.cosh(kp * mid[:, 1])
    grad = np.column_stack([-kp * np.sin(kp * mid[:, 0]) * np.cosh(kp * mid[:, 1]),
                            kp * np.cos(kp * mid[:, 0]) * np.sinh(kp * mid[:, 1])])
    q = np.einsum("ij,ij->i", grad, mesh.normals)
    return phi, q, grad


def solve_mode(mesh, k):
    phi, q, _ = mode_data(mesh, k)
    return solve_mixed_bvp(mesh, phi[mesh.surface_slice]), phi, q


def surface_mask(mesh):
    surf = np.zeros(mesh.n_panels, dtype=bool)
    surf[mesh.surface_slice] = True
    return surf


class TestMixedSolve:
    def test_constant_data_is_exact(self):
        mesh = build_boundary_mesh(flat_interface(33), 16)
        cd = solve_mixed_bvp(mesh, np.ones(32))
        assert np.abs(cd.values - 1.0).max() <= 1e-10
        assert np.abs(cd.fluxes).max() <= 1e-10

    def test_mode_solution_accuracy(self):
        mesh = build_boundary_mesh(flat_interface(129), 64)
        cd, phi, q = solve_mode(mesh, 1)
        scale = np.cosh(np.pi)
        assert np.abs(cd.values - phi).max() / scale < 2e-3
        # fluxes are least accurate on the corner-adjacent surface panels
        assert np.abs(cd.fluxes[mesh.surface_slice]
                      - q[mesh.surface_slice]).max() / scale < 5e-3

    def test_mode_convergence_order(self):
        errs = []
        for n in (32, 64, 128):
            mesh = build_boundary_mesh(flat_interface(n + 1), n // 2)
            cd, phi, q = solve_mode(mesh, 1)
            wall = ~surface_mask(mesh)
            err = max(np.abs(cd.values[wall] - phi[wall]).max(),
                      np.abs(cd.fluxes[mesh.surface_slice]
                             - q[mesh.surface_slice]).max())
            errs.append(err)
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.diff(errs) < 0.0)
        assert orders.mean() >= 1.0

    def test_flux_compatibility(self):
        # net flux of a harmonic function through a closed boundary is zero
        mesh = build_boundary_mesh(flat_interface(65), 32)
        for k in (1, 2):
            cd, _, _ = solve_mode(mesh, k)
            res = compatibility_residual(cd, mesh.lengths)
            assert res <= 1e-8 * compatibility_scale(cd, mesh.lengths)


def reference_solve(mesh, phi_s):
    """The collocation system as first assembled: D + I/2, mask-filled
    columns and an explicit zero wall flux."""
    surf = surface_mask(mesh)
    wall = ~surf
    q_w = np.zeros(int(wall.sum()))
    n = mesh.n_panels
    S, D = kernels.influence_matrices(mesh, mesh.midpoints)
    Dh = D + 0.5 * np.eye(n)
    A = np.empty((n + 1, n + 1))
    A[:n, :n][:, surf] = S[:, surf]
    A[:n, :n][:, wall] = -Dh[:, wall]
    A[:n, n] = 1.0
    A[n, :n] = np.where(surf, mesh.lengths, 0.0)
    A[n, n] = 0.0
    rhs = np.empty(n + 1)
    rhs[:n] = Dh[:, surf] @ phi_s - S[:, wall] @ q_w
    rhs[n] = -float(np.dot(mesh.lengths[wall], q_w))
    z = kernels.solve_dense(kernels.DenseSystem(matrix=A, rhs=rhs))[:n]
    values = np.where(surf, 0.0, z)
    values[surf] = phi_s
    fluxes = np.where(surf, z, 0.0)
    fluxes[wall] = q_w
    return values, fluxes


def bumped_box_mesh(n_markers, wall_panels, bump):
    x1 = np.linspace(0.0, 1.0, n_markers)
    x2 = 1.0 + bump * np.sin(np.pi * x1) ** 2
    return build_boundary_mesh(InterfaceCurve(np.column_stack([x1, x2])),
                               wall_panels)


def keep_systems(monkeypatch):
    """The list that gets a copy of each system ``solve_mixed_bvp`` solves.

    ``solve_dense`` factors a Fortran-ordered matrix in place, so each copy
    is taken before the solve, in the matrix's own order.
    """
    systems = []

    def keep_system(system):
        systems.append(kernels.DenseSystem(matrix=system.matrix.copy(order="K"),
                                           rhs=system.rhs.copy()))
        return kernels.solve_dense(system)

    monkeypatch.setattr(bem, "solve_dense", keep_system)
    return systems


class TestAssemblyBitEquality:
    """The slice-filled system solves to the same bits as the mask-filled one."""

    @pytest.mark.parametrize("n_markers,wall_panels,bump", [
        (24, 8, 0.0), (96, 24, 0.0), (33, 12, 0.2)])
    def test_same_bits(self, n_markers, wall_panels, bump):
        mesh = bumped_box_mesh(n_markers, wall_panels, bump)
        rng = np.random.default_rng(n_markers)
        phi_s = rng.standard_normal(n_markers - 1)
        cd = solve_mixed_bvp(mesh, phi_s)
        values, fluxes = reference_solve(mesh, phi_s)
        assert np.array_equal(cd.values, values)
        assert np.array_equal(cd.fluxes, fluxes)

    @pytest.mark.parametrize("n_markers,wall_panels,bump", [
        (16, 4, 0.0), (33, 12, 0.2), (96, 24, 0.1), (200, 40, 0.3)])
    def test_system_keeps_blas_layout(self, monkeypatch, n_markers,
                                      wall_panels, bump):
        # The diagonal through np.diag_indices and the right-hand side from
        # the mask-gathered (Fortran-ordered) columns: the layout fixes
        # which gemv BLAS runs, and so the bits of every right-hand side.
        mesh = bumped_box_mesh(n_markers, wall_panels, bump)
        phi_s = np.random.default_rng(n_markers).standard_normal(n_markers - 1)
        systems = keep_systems(monkeypatch)
        solve_mixed_bvp(mesh, phi_s)
        (system,) = systems
        assert system.matrix.flags.f_contiguous     # LAPACK's order: no copy
        n = mesh.n_panels
        surf = surface_mask(mesh)
        _, D = kernels.influence_matrices(mesh, mesh.midpoints)
        D[np.diag_indices(n)] += 0.5
        assert_same_bits(system.rhs[:n], D[:, surf] @ phi_s)
        assert_same_bits(system.matrix[:n, :n][:, ~surf], -D[:, ~surf])
        assert_same_bits(system.matrix[n, :n], np.where(surf, mesh.lengths, 0.0))


def reference_state_data():
    """The 96/24 reference state's curved mesh, with its own surface
    potential, a constant and a mode's trace as a stack of data."""
    state = sample_initial_state(make_reference_data(1.0), 96, 24)
    mesh = state.mesh
    phi, _, _ = mode_data(mesh, 1)
    sl = mesh.surface_slice
    return mesh, np.array([mesh.surface_panel_values(state.phi),
                           np.ones(sl.stop - sl.start), phi[sl]])


class TestStackedSolve:
    """A stack of data shares one assembly and LU, and each datum's solution
    has the bits of its own solve."""

    def check(self, monkeypatch, mesh, data):
        systems = keep_systems(monkeypatch)
        stacked = solve_mixed_bvp(mesh, data)
        singles = [solve_mixed_bvp(mesh, datum) for datum in data]
        stack_system, *single_systems = systems
        assert stacked.values.shape == stacked.fluxes.shape == (len(data), mesh.n_panels)
        for i, (single, system) in enumerate(zip(singles, single_systems)):
            assert_same_bits(stacked.values[i], single.values)
            assert_same_bits(stacked.fluxes[i], single.fluxes)
            assert_same_bits(stack_system.rhs[i], system.rhs)
            assert_same_bits(stack_system.matrix, system.matrix)
        # solve_dense alone: the stack against each of its rows
        x = kernels.solve_dense(stack_system)
        for row, system in zip(x, single_systems):
            assert_same_bits(row, kernels.solve_dense(system))

    @pytest.mark.parametrize("n", [32, 64, 128, 256])
    def test_sweep_sizes(self, monkeypatch, n):
        # validate-bem's meshes and data: the constant, then modes 1 and 2
        mesh = build_boundary_mesh(flat_interface(n), n // 2)
        sl = mesh.surface_slice
        data = np.array([np.ones(n - 1)] + [mode_data(mesh, k)[0][sl] for k in (1, 2)])
        self.check(monkeypatch, mesh, data)

    def test_reference_state_mesh(self, monkeypatch):
        self.check(monkeypatch, *reference_state_data())


class TestInteriorEvaluation:
    @pytest.fixture(scope="class")
    @staticmethod
    def solved():
        mesh = build_boundary_mesh(flat_interface(129), 48)
        cd, _, _ = solve_mode(mesh, 1)
        return mesh, cd

    def test_values_and_gradients(self, solved):
        mesh, cd = solved
        pts = np.array([[0.3, 0.5], [0.62, 0.71], [0.5, 0.2]])
        vals, grads = eval_interior(mesh, cd, pts, 2.0)
        kp = np.pi
        exact = np.cos(kp * pts[:, 0]) * np.cosh(kp * pts[:, 1])
        exact_grad = np.column_stack([
            -kp * np.sin(kp * pts[:, 0]) * np.cosh(kp * pts[:, 1]),
            kp * np.cos(kp * pts[:, 0]) * np.sinh(kp * pts[:, 1])])
        np.testing.assert_allclose(vals, exact, atol=5e-3)
        np.testing.assert_allclose(grads, exact_grad, atol=2e-2)

    def test_near_boundary_rejected(self, solved):
        mesh, cd = solved
        with pytest.raises(NearBoundaryError):
            eval_interior(mesh, cd, np.array([[0.5, 0.999], [0.5, 0.5]]), 2.0)

    def test_exterior_rejected(self, solved):
        mesh, cd = solved
        with pytest.raises(NearBoundaryError):
            eval_interior(mesh, cd, np.array([[1.4, 0.5]]), 2.0)

    def test_admissible_mask(self, solved):
        mesh, _ = solved
        pts = np.array([[0.5, 0.5], [0.5, 1.2], [0.5, 0.003]])
        np.testing.assert_array_equal(admissible_interior(mesh, pts, 2.0),
                                      [True, False, False])


def clamped_foot_distance(points, a, b):
    """Distances (m, n) from each point to each segment a -> b through the
    clamped foot point: the rule ``admissible_interior`` took its distances
    from before it read them from the panel frame."""
    pts = np.atleast_2d(points)
    dx = b[:, 0] - a[:, 0]
    dy = b[:, 1] - a[:, 1]
    t = np.subtract.outer(pts[:, 0], a[:, 0])
    t *= dx
    t += np.subtract.outer(pts[:, 1], a[:, 1]) * dy
    t /= np.maximum(dx * dx + dy * dy, 1e-300)
    np.clip(t, 0.0, 1.0, out=t)
    ex = t * dx
    ex += a[:, 0]
    np.subtract(pts[:, 0][:, None], ex, out=ex)
    ey = np.multiply(t, dy, out=t)
    ey += a[:, 1]
    np.subtract(pts[:, 1][:, None], ey, out=ey)
    ex *= ex
    ey *= ey
    ex += ey
    return np.sqrt(ex, out=ex)


def clamped_foot_mask(mesh, points, near_field_factor):
    dist = clamped_foot_distance(points, mesh.a, mesh.b)
    nearest = np.argmin(dist, axis=1)
    d_min = near_field_factor * mesh.lengths[nearest]
    inside = points_inside(mesh, points)
    return inside & (dist[np.arange(len(points)), nearest] >= d_min)


class TestAdmissibleInterior:
    def test_matches_the_clamped_foot_rule(self, ref_run):
        # Every mesh of the headline run, rebuilt from its 15 snapshots, at
        # its 16 x 16 lattice candidates and 1,000 random points.  The two
        # distances round differently, so the masks could part only at a
        # near tie: two panels equally near, or a distance on the band's edge.
        snapshots = os.path.join(ref_run["dir"], "snapshots")
        names = sorted(os.listdir(snapshots))
        assert len(names) == 15
        rng = np.random.default_rng(29)
        for name in names:
            x = np.loadtxt(os.path.join(snapshots, name), delimiter=",",
                           skiprows=1)[:, 1:]
            mesh = build_boundary_mesh(InterfaceCurve(x),
                                       ref_run["cfg"].wall_panels_per_side)
            pts = np.vstack([lattice_candidates(mesh, 16),
                             rng.uniform((0.0, 0.0), (1.0, 1.05), (1000, 2))])
            for factor in (1.0, 2.0, 3.0):
                np.testing.assert_array_equal(
                    admissible_interior(mesh, pts, factor),
                    clamped_foot_mask(mesh, pts, factor), err_msg=f"{name} {factor}")

    def test_row_blocks(self, monkeypatch):
        # The reference lattice's 256 candidates against 167 panels run in
        # three blocks (16,384 // 167 = 98 rows at most), with the mask of
        # one block.
        state = sample_initial_state(make_reference_data(1.0), 96, 24)
        mesh = state.mesh
        pts = lattice_candidates(mesh, 16)
        sizes = []
        local_coords = kernels.local_coords

        def recording(mesh, targets, *args, **kwargs):
            sizes.append(len(targets))
            return local_coords(mesh, targets, *args, **kwargs)

        monkeypatch.setattr(kernels, "local_coords", recording)
        blocked = admissible_interior(mesh, pts, 2.0)
        assert sizes == [85, 85, 86] and np.count_nonzero(blocked) == 194
        monkeypatch.setattr(kernels, "PAIR_BUDGET", 10**9)
        np.testing.assert_array_equal(admissible_interior(mesh, pts, 2.0), blocked)
        assert sizes[3:] == [256]
        assert admissible_interior(mesh, np.empty((0, 2)), 2.0).shape == (0,)


class TestExactModesOnTheRunsSurfaces:
    """The solver on the surfaces a run reaches: the k = 1 mode's surface-
    flux errors (``runner.mode_errors``) on the refinement ladder's meshes,
    64/16 to 192/48 markers / wall panels per side, at the nine record
    times they share from t = 0 to 1.2e-3."""

    # The lowest observed orders in h = 1/(n_markers - 1), measured on
    # this ladder: the median's from 64 to 192 markers over the shared
    # records (1.53, at 7.5e-4), and the largest error's at t = 0 over each
    # refinement step (1.42, 64 -> 96).  A bound below what the code shows
    # would hide a loss.
    MEDIAN_ORDER_FLOOR = 1.52
    T0_LARGEST_ORDER_FLOOR = 1.42

    @pytest.fixture(scope="class")
    @staticmethod
    def surface_errors(ladder_runs):
        """(h per rung, per rung a list of each shared record's errors)."""
        def times(run):
            return read_diagnostics_csv(os.path.join(run["dir"], "diagnostics.csv"))["t"]

        shared = times(ladder_runs[1])
        h, errors = [], []
        for run in ladder_runs:
            t = times(run)
            records = np.abs(t[:, None] - shared).argmin(axis=0)
            np.testing.assert_allclose(t[records], shared, rtol=0.0, atol=1e-12)
            snapshots = os.path.join(run["dir"], "snapshots")
            names = sorted(os.listdir(snapshots))
            rows = []
            for i in records:
                x = np.loadtxt(os.path.join(snapshots, names[i]), delimiter=",",
                               skiprows=1)[:, 1:]
                mesh = build_boundary_mesh(InterfaceCurve(x),
                                           run["cfg"].wall_panels_per_side)
                rows.append(mode_errors(mesh, (1,))[0, mesh.surface_slice])
            h.append(1.0 / (run["cfg"].n_markers - 1))
            errors.append(rows)
        return np.array(h), errors

    def test_median_falls_at_every_shared_record(self, surface_errors):
        h, errors = surface_errors
        medians = np.array([[np.median(e) for e in rows] for rows in errors])
        assert medians.shape == (4, 9)
        assert np.all(medians[1:] < medians[:-1]), medians
        orders = np.log(medians[0] / medians[-1]) / math.log(h[0] / h[-1])
        assert orders.min() >= self.MEDIAN_ORDER_FLOOR, orders

    def test_largest_error_at_t0_falls_with_h(self, surface_errors):
        # The largest error sits on a corner's first surface panel.  At
        # the fold it grows under refinement instead (see the README).
        h, errors = surface_errors
        largest = np.array([rows[0].max() for rows in errors])
        orders = np.log(largest[:-1] / largest[1:]) / np.log(h[:-1] / h[1:])
        assert orders.min() >= self.T0_LARGEST_ORDER_FLOOR, (largest, orders)


class TestCauchyData:
    def test_compatibility_residual(self):
        cd = CauchyData(values=np.zeros(3), fluxes=np.array([1.0, -2.0, 0.5]))
        lengths = np.array([1.0, 1.0, 2.0])
        assert compatibility_residual(cd, lengths) == pytest.approx(0.0)
        assert compatibility_scale(cd, lengths) == pytest.approx(4.0)
