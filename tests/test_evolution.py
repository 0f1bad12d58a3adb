"""Surface kinematics, the RK4 stepper, and marker maintenance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from wavebox import evolution
from wavebox.errors import BreakdownError
from wavebox.evolution import (FlowState, StateDerivative, _pchip, adaptive_dt,
                               kinetic_energy, redistribute_markers, rk4_step,
                               state_derivative)
from wavebox.geometry import InterfaceCurve, flat_interface
from wavebox.modes import sample_initial_state

from conftest import make_reference_data


def still_state(n=17, walls=8):
    return FlowState(t=0.0, curve=flat_interface(n), phi=np.zeros(n),
                     wall_panels_per_side=walls)


class TestFlowState:
    def test_replace_keeps_untouched_fields(self):
        state = still_state()
        moved = state.replace(t=1.5, x=state.curve.x, phi=state.phi)
        assert moved.t == 1.5
        assert moved.wall_panels_per_side == state.wall_panels_per_side
        np.testing.assert_array_equal(moved.curve.x, state.curve.x)
        np.testing.assert_array_equal(moved.phi, state.phi)

    def test_mesh_cached(self):
        state = still_state()
        assert state.mesh is state.mesh

    def test_derivative_cached_and_read_only(self):
        # every caller shares one derivative per state, so none may write it
        state = sample_initial_state(make_reference_data(1.0), 17, 8)
        deriv = state_derivative(state)
        assert state_derivative(state) is deriv
        with pytest.raises(ValueError):
            deriv.velocity[1, 0] = 0.0
        with pytest.raises(ValueError):
            deriv.dphi[1] = 0.0


class TestVelocities:
    def test_still_fluid_is_still(self):
        u = state_derivative(still_state(33, 16)).velocity
        assert np.abs(u).max() < 1e-10

    def test_reference_velocity_matches_modes(self):
        # at t=0 the solved surface velocity must reproduce grad(phi0)
        pot = make_reference_data(1.0)
        state = sample_initial_state(pot, 65, 32)
        u = state_derivative(state).velocity
        x1 = state.curve.x[1:-1, 0]
        u1, u2 = pot.velocity(x1, np.ones_like(x1))
        scale = np.abs(np.column_stack([u1, u2])).max()
        err = np.abs(u[1:-1] - np.column_stack([u1, u2])).max()
        assert err / scale < 2e-2

    def test_corners_projected_to_rest(self):
        state = sample_initial_state(make_reference_data(1.0), 33, 16)
        u = state_derivative(state).velocity
        np.testing.assert_array_equal(u[0], 0.0)
        np.testing.assert_array_equal(u[-1], 0.0)

    def test_bernoulli_rate(self):
        state = sample_initial_state(make_reference_data(1.0), 33, 16)
        deriv = state_derivative(state)
        np.testing.assert_allclose(
            deriv.dphi, 0.5 * np.einsum("ij,ij->i", deriv.velocity,
                                        deriv.velocity))


class TestKineticEnergy:
    def test_matches_dirichlet_energy_of_mode(self):
        # E = (1/2) int |grad phi|^2; for a1 cos(pi x1) cosh(pi x2) the
        # closed form is a1^2 pi sinh(2 pi) / 8.
        a1 = 0.3
        n = 129
        curve = flat_interface(n)
        phi = a1 * np.cos(np.pi * curve.x[:, 0]) * np.cosh(np.pi)
        state = FlowState(t=0.0, curve=curve, phi=phi, wall_panels_per_side=48)
        exact = a1**2 * np.pi * np.sinh(2.0 * np.pi) / 8.0
        assert kinetic_energy(state) == pytest.approx(exact, rel=2e-3)


class TestRK4:
    def test_exact_for_cubic_time_dependence(self, monkeypatch):
        # manufactured derivative: markers fixed, dphi = p'(t) with cubic p
        poly = np.polynomial.Polynomial([0.3, -1.2, 0.8, 2.0])
        rate = poly.deriv()

        def deriv(state):
            n = state.curve.n_markers
            return StateDerivative(velocity=np.zeros((n, 2)),
                                   dphi=np.full(n, rate(state.t)),
                                   corner_residual=0.0)

        monkeypatch.setattr(evolution, "state_derivative", deriv)
        out = rk4_step(still_state(), 0.7)
        expected = poly(0.7) - poly(0.0)
        np.testing.assert_allclose(out.phi, expected, atol=1e-12)

    def test_fourth_order_in_time(self, monkeypatch):
        def deriv(state):
            n = state.curve.n_markers
            return StateDerivative(velocity=np.zeros((n, 2)),
                                   dphi=np.full(n, np.exp(state.t)),
                                   corner_residual=0.0)

        monkeypatch.setattr(evolution, "state_derivative", deriv)
        errs = []
        for dt in (0.5, 0.25):
            out = rk4_step(still_state(), dt)
            errs.append(abs(out.phi[0] - (np.exp(dt) - 1.0)))
        assert errs[0] / errs[1] > 12.0   # ~2^4 with some slop

    def test_corners_repinned(self, monkeypatch):
        # interior markers drift upward; corners are at rest (as the real
        # dynamics guarantees) and must stay exactly pinned after the step
        def deriv(state):
            n = state.curve.n_markers
            u = np.zeros((n, 2))
            u[1:-1, 1] = 0.1
            return StateDerivative(velocity=u, dphi=np.zeros(n),
                                   corner_residual=0.0)

        monkeypatch.setattr(evolution, "state_derivative", deriv)
        out = rk4_step(still_state(), 1.0)
        np.testing.assert_array_equal(out.curve.x[0], [0.0, 1.0])
        np.testing.assert_array_equal(out.curve.x[-1], [1.0, 1.0])
        assert out.curve.x[5, 1] == pytest.approx(1.1)

    def test_stage_failure_becomes_breakdown(self, monkeypatch):
        # velocities that push a marker through the bottom within one stage;
        # touching state.mesh validates the geometry, as the real dynamics does
        def deriv(state):
            n = state.curve.n_markers
            _ = state.mesh
            u = np.zeros((n, 2))
            u[n // 2, 1] = -10.0
            return StateDerivative(velocity=u, dphi=np.zeros(n),
                                   corner_residual=0.0)

        monkeypatch.setattr(evolution, "state_derivative", deriv)
        with pytest.raises(BreakdownError) as info:
            rk4_step(still_state(), 1.0)
        assert info.value.kind == "bottom_contact"


class TestAdaptiveDt:
    def test_cfl_formula(self):
        dt = adaptive_dt(flat_interface(11), np.full(11, 2.0), cfl=0.4,
                         dt_min=1e-9, dt_max=0.05)
        assert dt == pytest.approx(0.4 * 0.1 / 2.0)

    def test_clamped_to_dt_max(self):
        dt = adaptive_dt(flat_interface(11), np.full(11, 1e-9), cfl=0.5,
                         dt_min=1e-9, dt_max=0.01)
        assert dt == 0.01

    def test_timestep_collapse(self):
        with pytest.raises(BreakdownError) as info:
            adaptive_dt(flat_interface(11), np.full(11, 1e6), cfl=0.5,
                        dt_min=1e-3, dt_max=0.05)
        assert info.value.kind == "timestep_collapse"
        assert info.value.detail == "dt 5.000e-08 below dt_min 1.000e-03"


class TestRedistribution:
    def test_uniformizes_spacing(self):
        s = np.linspace(0.0, 1.0, 21)
        x1 = s**2 * (3.0 - 2.0 * s)   # clustered toward the ends
        curve = InterfaceCurve(np.column_stack([x1, np.ones(21)]))
        state = FlowState(t=0.0, curve=curve, phi=np.sin(np.pi * x1),
                          wall_panels_per_side=8)
        out = redistribute_markers(state)
        ell = out.curve.segment_lengths()
        assert ell.max() / ell.min() < 1.0 + 1e-6

    def test_preserves_endpoints_and_phi(self):
        state = sample_initial_state(make_reference_data(1.0), 33, 8)
        out = redistribute_markers(state)
        np.testing.assert_array_equal(out.curve.x[0], [0.0, 1.0])
        np.testing.assert_array_equal(out.curve.x[-1], [1.0, 1.0])
        assert out.phi[0] == pytest.approx(state.phi[0])
        assert out.phi[-1] == pytest.approx(state.phi[-1])

    def test_identity_on_uniform_flat_curve(self):
        state = still_state(n=21)
        out = redistribute_markers(state)
        np.testing.assert_allclose(out.curve.x, state.curve.x, atol=1e-12)


def pchip_bits(s, y, x):
    """(numpy helper, SciPy) values of the interpolant of y at x, as raw bits."""
    ours = _pchip(s, y[:, None], x)[:, 0]
    theirs = PchipInterpolator(s, y)(x)
    return ours.view(np.uint64), theirs.view(np.uint64)


def sample_points(s):
    """An even grid, the knots themselves and both ends."""
    return np.concatenate([np.linspace(s[0], s[-1], len(s)), s, s[[0, -1]]])


@st.composite
def pchip_curves(draw):
    n = draw(st.integers(8, 200))
    kind = draw(st.sampled_from(["zero_runs", "monotone", "sign_change", "wide"]))
    scale = 10.0 ** draw(st.integers(-12, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = rng.exponential(size=n - 1) * 10.0 ** rng.uniform(-3.0, 3.0)
    if draw(st.booleans()):
        h[:] = h[0]                      # evenly spaced, as after redistribution
    s = rng.uniform(-10.0, 10.0) + np.concatenate([[0.0], np.cumsum(h)])
    if kind == "zero_runs":
        y = np.round(rng.normal(size=n))
        y[rng.random(n) < 0.4] = 0.0
        y[rng.random(n) < 0.1] = -0.0
    elif kind == "monotone":
        y = np.cumsum(np.abs(rng.normal(size=n)))
    elif kind == "sign_change":
        y = np.sin(rng.uniform(1.0, 60.0) * np.linspace(0.0, 1.0, n))
    else:
        y = rng.normal(size=n) * 10.0 ** rng.uniform(-12.0, 12.0, size=n)
    return s, scale * y * draw(st.sampled_from([1.0, -1.0]))


class TestPchipBits:
    """The numpy PCHIP gives SciPy's PchipInterpolator bits, and its errors."""

    @settings(max_examples=200, deadline=None)
    @given(pchip_curves())
    def test_matches_scipy(self, curve):
        s, y = curve
        ours, theirs = pchip_bits(s, y, sample_points(s))
        np.testing.assert_array_equal(ours, theirs)

    @pytest.mark.parametrize("y", [
        np.full(8, 2.5),                                      # flat
        np.array([0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, -1.0]),  # zero runs
        np.array([1.0, 3.0, -2.0, 5.0, -7.0, 0.5, 4.0, -1.0]),
        np.array([0.0, 1e-12, 2e-12, 3e12, 4e12, 4e12, 5e12, 6e12]),
        # PPoly sums from 0.0: the -0.0 knot value comes out +0.0
        np.array([4.5, 0.5, -0.0, -1.0, -4.0, -7.0, -10.0, -18.0]),
    ])
    def test_fixed_curves(self, y):
        s = np.cumsum([0.0, 1.0, 0.5, 2.0, 0.25, 1.0, 3.0, 1.0])
        for knots in (s, np.arange(8.0)):
            ours, theirs = pchip_bits(knots, y, sample_points(knots))
            np.testing.assert_array_equal(ours, theirs)

    def test_columns_share_one_call(self):
        rng = np.random.default_rng(7)
        s = np.cumsum(rng.uniform(0.1, 1.0, 40))
        y = rng.normal(size=(40, 3))
        x = sample_points(s)
        both = _pchip(s, y, x)
        for j in range(3):
            np.testing.assert_array_equal(both[:, j].view(np.uint64),
                                          PchipInterpolator(s, y[:, j])(x).view(np.uint64))

    @pytest.mark.parametrize("s, y", [
        (np.array([0.0, 1.0, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0]), np.arange(8.0)),
        (np.arange(8.0), np.array([0.0, 1.0, np.nan, 3.0, 4.0, 5.0, 6.0, 7.0])),
        (np.arange(8.0), np.array([0.0, 1.0, np.inf, 3.0, 4.0, 5.0, 6.0, 7.0])),
        (np.arange(8.0) * 1e-300, np.arange(8.0) * 1e10),      # slopes overflow
    ], ids=["repeated_knot", "nan_data", "inf_data", "infinite_slopes"])
    def test_raises_where_scipy_does(self, s, y):
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError):
                PchipInterpolator(s, y)
            with pytest.raises(ValueError):
                _pchip(s, y[:, None], s[[0, -1]])


def round_trip_error(remap_every):
    """max |x - x0| after 32 fixed steps of the 96/24 reference run to
    t1 = 9e-4, phi -> -phi, and 32 more steps.

    In the continuum flipping phi flips every velocity, so the surface
    retraces its path and returns to x0.  ``remap_every`` (0: never) remaps
    the markers after every so many steps of the round trip, as
    ``redistribute_every`` does in a run.
    """
    state = sample_initial_state(make_reference_data(1.0), 96, 24)
    x0 = state.curve.x
    for step in range(1, 65):
        state = rk4_step(state, 9e-4 / 32)
        if remap_every and step % remap_every == 0:
            state = redistribute_markers(state)
        if step == 32:
            state = state.replace(t=state.t, x=state.curve.x, phi=-state.phi)
    return float(np.abs(state.curve.x - x0).max())


class TestTimeReversal:
    def test_material_markers_return(self):
        # measured 2.53e-13 with one BLAS thread, 2.54e-13 with two, while
        # the surface moves 6.4e-2 on the way out
        assert round_trip_error(0) <= 4e-13

    def test_remap_level(self):
        # The remap slides markers along the surface, which flipping phi
        # does not undo: measured 2.04e-3 (2.8e-4 in x2 alone).  Markers
        # kept at equal arclength by a reversible tangential velocity must
        # bring this down to the remap-free level above.
        assert 1e-3 <= round_trip_error(3) <= 4e-3
