"""Pressure reconstruction from the two harmonic solves."""

import numpy as np
import pytest

from wavebox.diagnostics import wall_tangential_speed
from wavebox.errors import NearBoundaryError
from wavebox.evolution import state_derivative
from wavebox.modes import sample_initial_state
from wavebox.pressure import (PressureField, interior_lattice, pressure_at,
                              pressure_min, solve_phi_t,
                              wall_pressure_integral, wall_pressure_values)

from conftest import (make_reference_data, pressure_poisson_residual,
                      velocity_at)


@pytest.fixture(scope="module")
def ref_field():
    state = sample_initial_state(make_reference_data(1.0), 97, 48)
    return PressureField.from_state(state, 2.0)


@pytest.fixture(scope="module")
def still_field():
    state = sample_initial_state(make_reference_data(1.0), 33, 16)
    still = state.replace(t=state.t, x=state.curve.x, phi=np.zeros(33))
    return PressureField.from_state(still, 2.0)


def wall_normal_pressure_gradient(field, offset, n_samples=9):
    """Max |n . grad p| at points offset from each side wall and the bottom.

    Central differences along the wall normal with a step of offset/4.
    """
    h = 0.25 * offset
    ys = np.linspace(0.15, 0.85, n_samples)
    near = np.full(n_samples, offset)
    worst = 0.0
    for pts, normal in ((np.column_stack([near, ys]), [-1.0, 0.0]),
                        (np.column_stack([1.0 - near, ys]), [1.0, 0.0]),
                        (np.column_stack([ys, near]), [0.0, -1.0])):
        step = h * np.array(normal)
        dpdn = (pressure_at(field, pts + step)
                - pressure_at(field, pts - step)) / (2.0 * h)
        worst = max(worst, float(np.abs(dpdn).max()))
    return worst


class TestPhiT:
    def test_surface_trace_is_minus_half_speed2(self, ref_field):
        state = sample_initial_state(make_reference_data(1.0), 97, 48)
        cd = solve_phi_t(state)
        u = state_derivative(state).velocity
        half_speed2 = 0.5 * np.einsum("ij,ij->i", u, u)
        sl = ref_field.mesh.surface_slice
        np.testing.assert_array_equal(
            cd.values[sl], -state.mesh.surface_panel_values(half_speed2))
        assert np.all(cd.values[sl] <= 0.0)

    def test_still_fluid_pressure_vanishes(self, still_field):
        pts = np.array([[0.5, 0.5], [0.3, 0.7]])
        np.testing.assert_allclose(pressure_at(still_field, pts), 0.0,
                                   atol=1e-10)


class TestPressureInterior:
    def test_positive_on_lattice(self, ref_field):
        p_min, p_absmax = pressure_min(ref_field, 16)
        assert p_min > 0.0
        assert p_absmax >= p_min

    def test_velocity_matches_modes(self, ref_field):
        pts = np.array([[0.31, 0.52], [0.74, 0.66]])
        u = velocity_at(ref_field, pts)
        u1, u2 = make_reference_data(1.0).velocity(pts[:, 0], pts[:, 1])
        np.testing.assert_allclose(u, np.column_stack([u1, u2]), rtol=5e-3,
                                   atol=5e-3)

    def test_poisson_residual_second_order(self, ref_field):
        pts = np.array([[0.4, 0.5], [0.6, 0.45], [0.5, 0.55]])
        res_coarse, rhs = pressure_poisson_residual(ref_field, pts, h=0.04)
        res_fine, _ = pressure_poisson_residual(ref_field, pts, h=0.02)
        assert np.all(rhs >= 0.0)
        assert res_fine.max() < res_coarse.max() / 2.5

    def test_poisson_rhs_nonnegative_everywhere(self, ref_field):
        pts = interior_lattice(ref_field, 10)
        # stay clear of the band so the five-point stencil is admissible
        keep = ((pts[:, 0] > 0.15) & (pts[:, 0] < 0.85)
                & (pts[:, 1] > 0.15) & (pts[:, 1] < 0.8))
        _, rhs = pressure_poisson_residual(ref_field, pts[keep], h=0.02)
        assert np.all(rhs >= 0.0)

    def test_h_validation(self, ref_field):
        with pytest.raises(ValueError):
            pressure_poisson_residual(ref_field, np.array([[0.5, 0.5]]), h=0.0)

    def test_lattice_respects_near_field(self, ref_field):
        pts = interior_lattice(ref_field, 16)
        assert pts.shape[0] > 100
        assert np.all((pts[:, 0] > 0.0) & (pts[:, 0] < 1.0))


class TestWallPressure:
    def test_wall_speed_matches_modes(self, ref_field):
        mesh = ref_field.mesh
        x2 = mesh.midpoints[mesh.right_slice, 1]
        _, u2 = make_reference_data(1.0).velocity(np.ones_like(x2), x2)
        got = wall_tangential_speed(mesh, ref_field.phi_cauchy)
        scale = np.abs(u2).max()
        # the few panels flanking the wall ends see one-sided differences
        assert np.abs(got[3:-3] - u2[3:-3]).max() / scale < 1e-2

    def test_wall_values_match_interior_extrapolation(self, ref_field):
        # dp/dn = 0 at the wall, so p extends quadratically in the offset;
        # fit p at three interior offsets and extrapolate to the wall
        ys = np.array([0.3, 0.5])
        offsets = np.array([0.10, 0.14, 0.18])
        wall_vals = wall_pressure_values(ref_field)
        mesh = ref_field.mesh
        x2_wall = mesh.midpoints[mesh.right_slice, 1]
        for y in ys:
            samples = [pressure_at(ref_field,
                                   np.array([[1.0 - d, y]]))[0]
                       for d in offsets]
            coef = np.polyfit(offsets, samples, 2)
            extrap = np.polyval(coef, 0.0)
            at_wall = np.interp(y, x2_wall, wall_vals)
            assert abs(extrap - at_wall) / abs(at_wall) < 2e-2

    def test_wall_integral_consistent_with_values(self, ref_field):
        mesh = ref_field.mesh
        sl = mesh.right_slice
        direct = float(np.dot(wall_pressure_values(ref_field),
                              mesh.lengths[sl]))
        assert wall_pressure_integral(ref_field) == pytest.approx(direct)

    def test_normal_gradient_decays_toward_walls(self, ref_field):
        # dp/dn vanishes at the walls; the sampled gradient must decay as
        # the probes approach them (the near-field band floors the offset)
        grads = [wall_normal_pressure_gradient(ref_field, offset)
                 for offset in (0.24, 0.18, 0.12)]
        assert grads[0] > grads[1] > grads[2]
        assert grads[2] < 0.75 * grads[0]


class TestNearField:
    def test_pressure_near_boundary_rejected(self, ref_field):
        with pytest.raises(NearBoundaryError):
            pressure_at(ref_field, np.array([[0.5, 0.995]]))
