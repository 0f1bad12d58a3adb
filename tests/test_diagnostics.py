"""Virial functional, growth identities, comparison envelope, detectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavebox.bem import solve_surface_dirichlet
from wavebox.diagnostics import (DetectorConfig, DiagnosticsRecord,
                                 blowup_bound, boundary_domain_integral,
                                 boundary_velocity, constant_c1,
                                 detect_breakdown, fill_derived,
                                 identity_residual_26, inequality_checks,
                                 int_u1_squared, riccati_envelope,
                                 virial_parts, wall_u2_squared)
from wavebox.errors import SelfIntersectionError
from wavebox.evolution import FlowState
from wavebox.geometry import (InterfaceCurve, build_boundary_mesh,
                              flat_interface, self_intersects)
from wavebox.kernels import gauss_legendre
from wavebox.modes import initial_A, make_reference_data, sample_initial_state


def dipped_curve(n, depth):
    """Pinned curve whose polygon area is 1 - 2*depth/3 (parabolic dip)."""
    alpha = np.linspace(0.0, 1.0, n)
    x2 = 1.0 - 4.0 * depth * alpha * (1.0 - alpha)
    return InterfaceCurve(alpha, np.column_stack([alpha, x2]))


class TestConstantC1:
    def test_unit_square(self):
        mesh = build_boundary_mesh(flat_interface(65), 16)
        assert constant_c1(mesh) == 2.0

    def test_half_area_domain_floors_at_four_thirds(self):
        # area 0.5 => max(2*0.5, 4/3) = 4/3 exactly
        mesh = build_boundary_mesh(dipped_curve(201, 0.75), 16)
        assert constant_c1(mesh) == 4.0 / 3.0


class TestEnvelope:
    def test_initial_value_and_growth(self):
        assert riccati_envelope(2.0, 2.0, 0.0) == 2.0
        assert riccati_envelope(2.0, 2.0, 0.5) == pytest.approx(4.0)

    @settings(max_examples=50, deadline=None)
    @given(a=st.floats(0.1, 20.0), c1=st.floats(0.5, 5.0),
           frac=st.floats(0.0, 0.99))
    def test_satisfies_riccati_ode(self, a, c1, frac):
        t = frac * c1 / a
        h = 1e-6 * c1 / a
        if t + h >= c1 / a or t - h < 0.0:
            return
        lhs = (riccati_envelope(a, c1, t + h)
               - riccati_envelope(a, c1, t - h)) / (2.0 * h)
        rhs = riccati_envelope(a, c1, t) ** 2 / c1
        assert lhs == pytest.approx(rhs, rel=1e-4)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            riccati_envelope(-1.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            riccati_envelope(2.0, 2.0, 1.0)   # at the blow-up time

    def test_blowup_bound(self):
        assert blowup_bound(4.0, 2.0) == 0.5
        with pytest.raises(ValueError):
            blowup_bound(0.0, 2.0)


class TestBoundaryReductions:
    @pytest.fixture(scope="class")
    @staticmethod
    def solved():
        state = sample_initial_state(make_reference_data(1.0), 129, 48)
        return state, state.cauchy

    def test_domain_integral_of_harmonic(self, solved):
        # f = x1^2 - x2^2 is harmonic with int over the unit square = 0;
        # f = x1 gives 1/2.  Build exact Cauchy data per panel.
        state, _ = solved
        mesh = state.mesh
        mid, nrm = mesh.midpoints, mesh.normals
        from wavebox.bem import CauchyData
        f = mid[:, 0] ** 2 - mid[:, 1] ** 2
        q = 2.0 * mid[:, 0] * nrm[:, 0] - 2.0 * mid[:, 1] * nrm[:, 1]
        cd = CauchyData(values=f, fluxes=q,
                        value_prescribed=np.ones(mesh.n_panels, dtype=bool))
        assert boundary_domain_integral(mesh, cd) == pytest.approx(0.0, abs=1e-4)
        cd = CauchyData(values=mid[:, 0], fluxes=nrm[:, 0],
                        value_prescribed=np.ones(mesh.n_panels, dtype=bool))
        assert boundary_domain_integral(mesh, cd) == pytest.approx(0.5, abs=1e-4)

    def test_boundary_velocity_on_bottom(self, solved):
        # on the bottom wall u = (u1, 0) with u1 = -pi a_k sin(...) at x2=0
        state, cd = solved
        mesh = state.mesh
        u = boundary_velocity(mesh, cd)
        sl = mesh.bottom_slice
        x1 = mesh.midpoints[sl, 0]
        u1, _ = make_reference_data(1.0).velocity(x1, np.zeros_like(x1))
        interior = slice(sl.start + 2, sl.stop - 2)
        assert np.abs(u[interior, 0]
                      - u1[2:-2]).max() / np.abs(u1).max() < 3e-2

    def test_int_u1_squared_against_quadrature(self, solved):
        state, cd = solved
        pot = make_reference_data(1.0)
        rule = gauss_legendre(32)
        x = 0.5 * (rule.nodes + 1.0)
        w = 0.5 * rule.weights
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        u1, _ = pot.velocity(X1, X2)
        exact = float(np.einsum("i,j,ij->", w, w, u1 ** 2))
        got = int_u1_squared(state.mesh, cd)
        assert got == pytest.approx(exact, rel=5e-3)

    def test_wall_u2_squared_against_quadrature(self, solved):
        state, cd = solved
        pot = make_reference_data(1.0)
        rule = gauss_legendre(32)
        x2 = 0.5 * (rule.nodes + 1.0)
        _, u2 = pot.velocity(np.ones_like(x2), x2)
        exact = float(0.5 * np.dot(rule.weights, u2 ** 2))
        assert wall_u2_squared(state.mesh, cd) == pytest.approx(exact, rel=1e-2)

    def test_virial_matches_direct_quadrature(self, solved):
        state, cd = solved
        L, volume_part, wall_part = virial_parts(state)
        assert L == volume_part + wall_part
        assert L == pytest.approx(initial_A(make_reference_data(1.0)),
                                  rel=5e-4)


class TestRecordAlgebra:
    def make_record(self, t, L):
        return DiagnosticsRecord(t=t, L=L, volume_part=0.6 * L,
                                 wall_part=0.4 * L)

    def test_inequality_checks_formulas(self):
        rec = DiagnosticsRecord(t=0.0, L=3.0, volume_part=2.0, wall_part=1.0)
        rec.int_u1sq = 5.0
        rec.wall_u2sq = 4.0
        s28, sv, sw, rs = inequality_checks(rec, area=1.0, c1=2.0, dL_dt=8.0)
        assert s28 == pytest.approx(8.0 - (5.0 + 2.0))
        assert sv == pytest.approx(5.0 * 1.0 - 4.0)
        assert sw == pytest.approx(4.0 / 3.0 - 1.0)
        assert rs == pytest.approx(8.0 - 9.0 / 2.0)

    def test_identity_residual_requires_uniform_times(self):
        recs = [self.make_record(t, 1.0) for t in (0.0, 0.1, 0.3)]
        for r in recs:
            r.int_u1sq = r.int_p = r.wall_p_integral = 0.0
        with pytest.raises(ValueError):
            identity_residual_26(recs)

    def test_fill_derived_on_exact_envelope(self):
        # records tracing the envelope exactly: riccati slack ~ 0, and the
        # stored envelope matches L
        A, c1 = 4.0, 2.0
        t = np.linspace(0.0, 0.3, 31)
        recs = []
        for ti in t:
            r = self.make_record(ti, A / (1.0 - A * ti / c1))
            r.int_u1sq = r.int_p = r.wall_p_integral = r.wall_u2sq = 0.0
            recs.append(r)
        fill_derived(recs, area0=1.0, c1=c1, A=A)
        for r in recs[1:-1]:
            assert r.envelope == pytest.approx(r.L, rel=1e-12)
            assert abs(r.riccati_slack) < 1e-2 * r.L ** 2

    def test_fill_derived_skips_envelope_without_positive_A(self):
        recs = [self.make_record(t, -1.0) for t in (0.0, 0.1, 0.2)]
        for r in recs:
            r.int_u1sq = r.int_p = r.wall_p_integral = r.wall_u2sq = 0.0
        fill_derived(recs, area0=1.0, c1=2.0, A=None)
        assert all(np.isnan(r.envelope) for r in recs)


class TestDetectors:
    def make_state(self, curve):
        return FlowState(t=1.0, curve=curve, phi=np.zeros(curve.n_markers))

    def detectors(self, curv_max=1000.0, **kw):
        return DetectorConfig(initial_spacing=0.1, curv_max=curv_max, **kw)

    def test_quiet_state(self):
        state = self.make_state(flat_interface(11))
        assert detect_breakdown(state, self.detectors()) is None

    def test_bottom_contact(self):
        alpha = np.linspace(0.0, 1.0, 11)
        x2 = np.ones(11)
        x2[5] = -0.01
        state = self.make_state(InterfaceCurve(alpha, np.column_stack([alpha, x2])))
        sig = detect_breakdown(state, self.detectors())
        assert sig.kind == "bottom_contact" and sig.t_break == 1.0

    def test_self_intersection(self):
        alpha = np.linspace(0.0, 1.0, 6)
        x1 = np.array([0.0, 0.7, 0.7, 0.3, 0.3, 1.0])
        x2 = np.array([1.0, 1.2, 0.6, 0.6, 1.2, 1.0])
        state = self.make_state(InterfaceCurve(alpha, np.column_stack([x1, x2])))
        assert detect_breakdown(state, self.detectors()).kind == "self_intersection"

    def test_side_wall_crossing(self):
        # A simple polyline that bulges through the right wall: the mesh
        # builder rejects it as a self-intersection, and so must the detector,
        # which the runner consults before the next step builds a mesh.
        alpha = np.linspace(0.0, 1.0, 24)
        x = np.column_stack([alpha, np.ones(24)])
        x[22, 0] = 1.02
        state = self.make_state(InterfaceCurve(alpha, x))
        assert not self_intersects(state.curve)
        sig = detect_breakdown(state, self.detectors())
        assert sig.kind == "self_intersection" and sig.t_break == 1.0
        assert "marker 22" in sig.detail
        with pytest.raises(SelfIntersectionError):
            build_boundary_mesh(state.curve, 4)

    def test_marker_collision(self):
        alpha = np.linspace(0.0, 1.0, 11)
        x1 = alpha.copy()
        x1[5] = x1[4] + 1e-4    # nearly coincident pair
        state = self.make_state(InterfaceCurve(alpha, np.column_stack([x1, np.ones(11)])))
        assert detect_breakdown(state, self.detectors()).kind == "marker_collision"

    def test_curvature_blowup(self):
        alpha = np.linspace(0.0, 1.0, 11)
        x2 = np.ones(11)
        x2[5] = 1.4             # sharp spike
        state = self.make_state(InterfaceCurve(alpha, np.column_stack([alpha, x2])))
        sig = detect_breakdown(state, self.detectors(curv_max=5.0))
        assert sig.kind == "curvature_blowup"

    def test_L_overflow(self):
        state = self.make_state(flat_interface(11))
        sig = detect_breakdown(state, self.detectors(L_max=10.0), L=11.0)
        assert sig.kind == "L_overflow"

    def test_priority_bottom_before_collision(self):
        alpha = np.linspace(0.0, 1.0, 11)
        x = np.column_stack([alpha, np.ones(11)])
        x[5] = [x[4, 0] + 1e-4, -0.01]    # collides AND touches bottom
        state = self.make_state(InterfaceCurve(alpha, x))
        assert detect_breakdown(state, self.detectors()).kind == "bottom_contact"

    def test_curv_max_required(self):
        with pytest.raises(TypeError):
            DetectorConfig(initial_spacing=0.01)
