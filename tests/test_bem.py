"""Mixed boundary-value solver against closed-form harmonic modes."""

import numpy as np
import pytest

from wavebox import kernels
from wavebox.bem import (CauchyData, admissible_interior, dtn_surface,
                         eval_interior, solve_mixed_bvp,
                         solve_surface_dirichlet)
from wavebox.errors import NearBoundaryError
from wavebox.geometry import (BC_DIRICHLET_SURFACE, BC_NEUMANN_WALL,
                              InterfaceCurve, build_boundary_mesh,
                              flat_interface)


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
    sl = mesh.surface_slice
    n_wall = int(np.sum(mesh.bc_kind == 1))
    return solve_mixed_bvp(mesh, phi[sl], np.zeros(n_wall)), phi, q


class TestMixedSolve:
    def test_constant_data_is_exact(self):
        mesh = build_boundary_mesh(flat_interface(33), 16)
        cd = solve_surface_dirichlet(mesh, np.ones(32))
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
            wall = mesh.bc_kind == 1
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
            res = cd.compatibility_residual(mesh.lengths)
            assert res <= 1e-8 * cd.compatibility_scale(mesh.lengths)

    def test_input_shape_checks(self):
        mesh = build_boundary_mesh(flat_interface(9), 4)
        with pytest.raises(ValueError):
            solve_mixed_bvp(mesh, np.ones(5), np.zeros(12))
        with pytest.raises(ValueError):
            solve_mixed_bvp(mesh, np.ones(8), np.zeros(3))

    def test_dtn_matches_full_solve(self):
        mesh = build_boundary_mesh(flat_interface(33), 16)
        phi, _, _ = mode_data(mesh, 1)
        sl = mesh.surface_slice
        full = solve_surface_dirichlet(mesh, phi[sl])
        np.testing.assert_array_equal(dtn_surface(mesh, phi[sl]),
                                      full.fluxes[sl])


def reference_solve(mesh, phi_s, q_w):
    """The collocation system as first assembled: D + I/2 and mask-filled columns."""
    surf = mesh.bc_kind == BC_DIRICHLET_SURFACE
    wall = mesh.bc_kind == BC_NEUMANN_WALL
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


class TestAssemblyBitEquality:
    """The slice-filled system solves to the same bits as the mask-filled one."""

    @pytest.mark.parametrize("n_markers,wall_panels,bump", [
        (24, 8, 0.0), (96, 24, 0.0), (33, 12, 0.2)])
    def test_same_bits(self, n_markers, wall_panels, bump):
        alpha = np.linspace(0.0, 1.0, n_markers)
        x2 = 1.0 + bump * np.sin(np.pi * alpha) ** 2
        mesh = build_boundary_mesh(
            InterfaceCurve(alpha, np.column_stack([alpha, x2])), wall_panels)
        rng = np.random.default_rng(n_markers)
        phi_s = rng.standard_normal(n_markers - 1)
        for q_w in (np.zeros(3 * wall_panels),
                    rng.standard_normal(3 * wall_panels)):
            cd = solve_mixed_bvp(mesh, phi_s, q_w)
            values, fluxes = reference_solve(mesh, phi_s, q_w)
            assert np.array_equal(cd.values, values)
            assert np.array_equal(cd.fluxes, fluxes)


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
        vals, grads = eval_interior(mesh, cd, pts)
        kp = np.pi
        exact = np.cos(kp * pts[:, 0]) * np.cosh(kp * pts[:, 1])
        exact_grad = np.column_stack([
            -kp * np.sin(kp * pts[:, 0]) * np.cosh(kp * pts[:, 1]),
            kp * np.cos(kp * pts[:, 0]) * np.sinh(kp * pts[:, 1])])
        np.testing.assert_allclose(vals, exact, atol=5e-3)
        np.testing.assert_allclose(grads, exact_grad, atol=2e-2)

    def test_near_boundary_rejected(self, solved):
        mesh, cd = solved
        with pytest.raises(NearBoundaryError) as info:
            eval_interior(mesh, cd, np.array([[0.5, 0.999], [0.5, 0.5]]))
        assert info.value.bad_indices == [0]

    def test_exterior_rejected(self, solved):
        mesh, cd = solved
        with pytest.raises(NearBoundaryError):
            eval_interior(mesh, cd, np.array([[1.4, 0.5]]))

    def test_admissible_mask(self, solved):
        mesh, _ = solved
        pts = np.array([[0.5, 0.5], [0.5, 1.2], [0.5, 0.003]])
        np.testing.assert_array_equal(admissible_interior(mesh, pts),
                                      [True, False, False])


class TestCauchyData:
    def test_compatibility_residual(self):
        cd = CauchyData(values=np.zeros(3), fluxes=np.array([1.0, -2.0, 0.5]),
                        value_prescribed=np.zeros(3, dtype=bool))
        lengths = np.array([1.0, 1.0, 2.0])
        assert cd.compatibility_residual(lengths) == pytest.approx(0.0)
        assert cd.compatibility_scale(lengths) == pytest.approx(4.0)
