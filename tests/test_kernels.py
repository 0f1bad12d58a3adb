"""Quadrature, dense solves, and the closed-form Laplace panel integrals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavebox.errors import GeometryError, SingularMatrixError
from wavebox.geometry import (BC_NEUMANN_WALL, BoundaryMesh, InterfaceCurve,
                              build_boundary_mesh, flat_interface)
from wavebox.kernels import (TWO_PI, DenseSystem, gauss_legendre,
                             influence_gradients, influence_matrices,
                             solve_dense)
from wavebox.modes import make_reference_data, sample_initial_state


class TestGaussLegendre:
    def test_degree_bounds(self):
        for n in (0, 65, -3):
            with pytest.raises(ValueError):
                gauss_legendre(n)

    def test_low_order_values(self):
        rule = gauss_legendre(2)
        np.testing.assert_allclose(np.sort(rule.nodes),
                                   [-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)])
        np.testing.assert_allclose(rule.weights, [1.0, 1.0])

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 12), data=st.data())
    def test_polynomial_exactness(self, n, data):
        # exact for degree <= 2n-1 on an arbitrary interval
        degree = data.draw(st.integers(0, 2 * n - 1))
        coeffs = data.draw(st.lists(
            st.floats(-2.0, 2.0), min_size=degree + 1, max_size=degree + 1))
        lo, hi = -0.7, 1.3
        rule = gauss_legendre(n)
        poly = np.polynomial.Polynomial(coeffs)
        approx = rule.integrate(poly, lo, hi)
        exact = poly.integ()(hi) - poly.integ()(lo)
        assert approx == pytest.approx(exact, abs=1e-10)

    def test_integrate_transcendental(self):
        rule = gauss_legendre(24)
        assert rule.integrate(np.sin, 0.0, np.pi) == pytest.approx(2.0, abs=1e-12)


class TestSolveDense:
    def test_solves(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((12, 12)) + 12.0 * np.eye(12)
        x = rng.standard_normal(12)
        out = solve_dense(DenseSystem(matrix=A, rhs=A @ x))
        np.testing.assert_allclose(out, x, atol=1e-11)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_raises(self):
        A = np.ones((4, 4))
        with pytest.raises(SingularMatrixError):
            solve_dense(DenseSystem(matrix=A, rhs=np.ones(4)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DenseSystem(matrix=np.ones((3, 2)), rhs=np.ones(3))
        with pytest.raises(ValueError):
            DenseSystem(matrix=np.full((3, 3), np.nan), rhs=np.ones(3))


def panel_log_integrals(a, b, target):
    """S and D of the straight panel a -> b at one target, as floats."""
    mesh = BoundaryMesh(a=np.array([a], dtype=np.float64),
                        b=np.array([b], dtype=np.float64),
                        bc_kind=np.array([BC_NEUMANN_WALL]), n_markers=0,
                        wall_panels_per_side=0)
    S, D = influence_matrices(mesh, np.asarray(target, dtype=np.float64))
    return float(S[0, 0]), float(D[0, 0])


class TestPanelIntegrals:
    def test_single_layer_matches_quadrature(self):
        a, b = np.array([0.2, 0.1]), np.array([0.7, 0.4])
        target = np.array([0.3, 0.9])
        S, D = panel_log_integrals(a, b, target)
        rule = gauss_legendre(48)

        def green(t):
            y = a[None, :] + 0.5 * (t[:, None] + 1.0) * (b - a)[None, :]
            return -np.log(np.linalg.norm(y - target, axis=1)) / (2.0 * np.pi)

        ell = np.linalg.norm(b - a)
        expected = 0.5 * ell * np.dot(rule.weights, green(rule.nodes))
        assert S == pytest.approx(expected, abs=1e-12)

    def test_double_layer_matches_quadrature(self):
        a, b = np.array([0.2, 0.1]), np.array([0.7, 0.4])
        target = np.array([0.3, 0.9])
        _, D = panel_log_integrals(a, b, target)
        d = b - a
        ell = np.linalg.norm(d)
        normal = np.array([d[1], -d[0]]) / ell
        rule = gauss_legendre(48)

        def dgdn(t):
            # dG/dn_y of G = -(1/2pi) ln|x - y|
            y = a[None, :] + 0.5 * (t[:, None] + 1.0) * d[None, :]
            r = y - target
            return -(r @ normal) / (2.0 * np.pi * np.einsum("ij,ij->i", r, r))

        expected = 0.5 * ell * np.dot(rule.weights, dgdn(rule.nodes))
        assert D == pytest.approx(expected, abs=1e-12)

    def test_on_panel_principal_value(self):
        a, b = np.array([0.0, 0.0]), np.array([1.0, 0.0])
        S, D = panel_log_integrals(a, b, np.array([0.5, 0.0]))
        # int_0^1 -(1/2pi) ln|x-1/2| dx = (1 + ln 2) / (2 pi)
        assert D == 0.0
        assert S == pytest.approx((1.0 + np.log(2.0)) / (2.0 * np.pi), abs=1e-14)

    def test_degenerate_panel(self):
        with pytest.raises(GeometryError):
            panel_log_integrals([0.0, 0.0], [0.0, 0.0], [1.0, 1.0])


class TestJumpRelations:
    """Row sums of the double layer see the full boundary: the subtended
    angle is -1 inside, 0 outside, -1/2 on a smooth boundary point."""

    @pytest.fixture(scope="class")
    @staticmethod
    def mesh():
        return build_boundary_mesh(flat_interface(33), 16)

    def test_interior(self, mesh):
        pts = np.array([[0.5, 0.5], [0.1, 0.9], [0.93, 0.07]])
        _, D = influence_matrices(mesh, pts)
        np.testing.assert_allclose(D.sum(axis=1), -1.0, atol=1e-12)

    def test_exterior(self, mesh):
        pts = np.array([[1.5, 0.5], [-0.2, 1.4], [0.5, -0.3]])
        _, D = influence_matrices(mesh, pts)
        np.testing.assert_allclose(D.sum(axis=1), 0.0, atol=1e-12)

    def test_collocation_points(self, mesh):
        _, D = influence_matrices(mesh, mesh.midpoints)
        np.testing.assert_allclose(D.sum(axis=1), -0.5, atol=1e-12)


class TestInfluenceGradients:
    def test_matches_finite_differences(self):
        mesh = build_boundary_mesh(flat_interface(17), 8)
        pts = np.array([[0.37, 0.55], [0.81, 0.33]])
        gS, gD = influence_gradients(mesh, pts)
        h = 1e-6
        for axis in range(2):
            e = np.zeros(2)
            e[axis] = h
            Sp, Dp = influence_matrices(mesh, pts + e)
            Sm, Dm = influence_matrices(mesh, pts - e)
            np.testing.assert_allclose(gS[:, :, axis], (Sp - Sm) / (2.0 * h),
                                       atol=1e-8)
            np.testing.assert_allclose(gD[:, :, axis], (Dp - Dm) / (2.0 * h),
                                       atol=1e-7)

    def test_rejects_endpoint_target(self):
        mesh = build_boundary_mesh(flat_interface(9), 4)
        with pytest.raises(GeometryError):
            influence_gradients(mesh, mesh.a[3][None, :])


# ---------------------------------------------------------------------------
# Bit-equality against the kernels as first written: (m,n,2) offset arrays
# contracted by einsum, one arctan per use.  The production kernels reorder
# the work (component arrays, one shared arctan per endpoint, in-place
# ufuncs) and must still return the same bits, NaN positions and the sign of
# zero included.
# ---------------------------------------------------------------------------

def _ref_local_coords(a, b, lengths, tangents, normals, targets):
    rel = targets[:, None, :] - a[None, :, :]
    xi = np.einsum("mnj,nj->mn", rel, tangents)
    eta = np.einsum("mnj,nj->mn", rel, normals)
    return -xi, lengths[None, :] - xi, eta


def _ref_log_antiderivative(u, eta):
    r2 = u * u + eta * eta
    safe = r2 > 0.0
    out = np.zeros_like(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_term = np.where(safe, 0.5 * np.log(np.where(safe, r2, 1.0)), 0.0)
        atan_term = np.where(eta != 0.0, eta * np.arctan(u / np.where(eta != 0.0, eta, 1.0)), 0.0)
    out = u * log_term - u + atan_term
    return out


def _ref_influence_matrices(mesh, targets):
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    u1, u2, eta = _ref_local_coords(mesh.a, mesh.b, mesh.lengths, mesh.tangents,
                                    mesh.normals, targets)
    S = -(_ref_log_antiderivative(u2, eta) - _ref_log_antiderivative(u1, eta)) / TWO_PI
    with np.errstate(divide="ignore", invalid="ignore"):
        D = (np.arctan(u2 / eta) - np.arctan(u1 / eta)) / TWO_PI
    on_line = np.abs(eta) <= 1e-12 * mesh.lengths[None, :]
    D = np.where(on_line, 0.0, D)
    return S, D


def _ref_influence_gradients(mesh, targets):
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    u1, u2, eta = _ref_local_coords(mesh.a, mesh.b, mesh.lengths, mesh.tangents,
                                    mesh.normals, targets)
    r1sq = u1 * u1 + eta * eta
    r2sq = u2 * u2 + eta * eta
    if np.any(r1sq < 1e-28) or np.any(r2sq < 1e-28):
        raise GeometryError("influence_gradients: target coincides with a panel endpoint")
    t = mesh.tangents[None, :, :]
    n = mesh.normals[None, :, :]
    dlog = 0.5 * (np.log(r2sq) - np.log(r1sq))
    with np.errstate(divide="ignore", invalid="ignore"):
        dang = np.arctan(u2 / eta) - np.arctan(u1 / eta)
    dang = np.where(eta == 0.0, 0.0, dang)
    gradS = -(-dlog[:, :, None] * t + dang[:, :, None] * n) / TWO_PI
    term2 = (-eta[:, :, None] * t - u2[:, :, None] * n) / r2sq[:, :, None]
    term1 = (-eta[:, :, None] * t - u1[:, :, None] * n) / r1sq[:, :, None]
    gradD = (term2 - term1) / TWO_PI
    return gradS, gradD


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got, want, equal_nan=True)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def assert_matrices_match(mesh, targets):
    for got, want in zip(influence_matrices(mesh, targets),
                         _ref_influence_matrices(mesh, targets)):
        assert_same_bits(got, want)


def assert_gradients_match(mesh, targets):
    for got, want in zip(influence_gradients(mesh, targets),
                         _ref_influence_gradients(mesh, targets)):
        assert_same_bits(got, want)


def bumped_mesh(n_markers=33, wall_panels=12, amplitude=0.15):
    alpha = np.linspace(0.0, 1.0, n_markers)
    x1 = alpha + 0.02 * np.sin(2.0 * np.pi * alpha)
    x2 = 1.0 + amplitude * np.sin(np.pi * alpha) * np.cos(3.0 * alpha)
    x2[[0, -1]] = 1.0
    return build_boundary_mesh(InterfaceCurve(alpha, np.column_stack([x1, x2])),
                               wall_panels)


def line_targets(rng, k=12):
    """Points on the four box lines x1 = 0, x1 = 1, x2 = 0, x2 = 1."""
    s = rng.uniform(-0.5, 1.5, k)
    zero, one = np.zeros(k), np.ones(k)
    return np.vstack([np.column_stack([zero, s]), np.column_stack([one, s]),
                      np.column_stack([s, zero]), np.column_stack([s, one])])


class TestBitEquality:
    @pytest.fixture(scope="class")
    @staticmethod
    def meshes():
        reference = sample_initial_state(make_reference_data(1.0), 96, 24).mesh
        return {"flat": build_boundary_mesh(flat_interface(33), 16),
                "reference": reference,
                "bumped": bumped_mesh()}

    @pytest.mark.parametrize("name", ["flat", "reference", "bumped"])
    def test_midpoints(self, meshes, name):
        mesh = meshes[name]
        assert_matrices_match(mesh, mesh.midpoints)

    @pytest.mark.parametrize("name", ["flat", "reference", "bumped"])
    def test_random_interior_points(self, meshes, name):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.05, 0.95, (150, 2))
        assert_matrices_match(meshes[name], pts)
        assert_gradients_match(meshes[name], pts)

    @pytest.mark.parametrize("name", ["flat", "bumped"])
    def test_exterior_points(self, meshes, name):
        rng = np.random.default_rng(12)
        pts = np.vstack([rng.uniform(-1.0, 0.0, (40, 2)),
                         rng.uniform(1.2, 2.0, (40, 2))])
        assert_matrices_match(meshes[name], pts)
        assert_gradients_match(meshes[name], pts)

    @pytest.mark.parametrize("name", ["flat", "bumped"])
    def test_targets_on_panel_lines(self, meshes, name):
        mesh = meshes[name]
        rng = np.random.default_rng(13)
        # Box lines hit the wall (and flat surface) panel lines exactly;
        # points beyond a surface panel's end sit on its line up to roundoff.
        d = mesh.b - mesh.a
        pts = np.vstack([line_targets(rng), mesh.a - 0.5 * d, mesh.b + 0.5 * d])
        S, D = influence_matrices(mesh, pts)
        _, _, eta = _ref_local_coords(mesh.a, mesh.b, mesh.lengths,
                                      mesh.tangents, mesh.normals, pts)
        assert np.count_nonzero(eta == 0.0) > 0
        assert_matrices_match(mesh, pts)

    @pytest.mark.parametrize("name", ["flat", "reference", "bumped"])
    def test_targets_at_panel_endpoints(self, meshes, name):
        mesh = meshes[name]
        pts = np.vstack([mesh.a, mesh.b])
        u1, u2, eta = _ref_local_coords(mesh.a, mesh.b, mesh.lengths,
                                        mesh.tangents, mesh.normals, pts)
        assert np.count_nonzero(u1 * u1 + eta * eta == 0.0) >= mesh.n_panels
        assert_matrices_match(mesh, pts)

    def test_gradients_reject_endpoints_alike(self, meshes):
        mesh = meshes["bumped"]
        for pts in (mesh.a[5:6], mesh.b[-3:-2]):
            with pytest.raises(GeometryError):
                _ref_influence_gradients(mesh, pts)
            with pytest.raises(GeometryError):
                influence_gradients(mesh, pts)

    @settings(max_examples=60, deadline=None)
    @given(amplitude=st.floats(-0.3, 0.3), n_markers=st.integers(9, 24),
           wall_panels=st.integers(4, 8),
           cells=st.lists(st.tuples(st.integers(-8, 24), st.integers(-8, 24)),
                          min_size=1, max_size=12),
           jitter=st.sampled_from([0.0, 1e-13, 0.37]))
    def test_property(self, amplitude, n_markers, wall_panels, cells, jitter):
        # Targets on a 1/16 grid hit wall lines, corners and wall panel
        # endpoints exactly; the jitter moves them just off or well off.
        mesh = bumped_mesh(n_markers, wall_panels, amplitude)
        pts = np.vstack([np.array(cells, dtype=np.float64) / 16.0 + jitter,
                         mesh.midpoints[::3]])
        assert_matrices_match(mesh, np.vstack([pts, mesh.a[::5]]))
        u1, u2, eta = _ref_local_coords(mesh.a, mesh.b, mesh.lengths,
                                        mesh.tangents, mesh.normals, pts)
        if min((u1 * u1 + eta * eta).min(), (u2 * u2 + eta * eta).min()) >= 1e-28:
            assert_gradients_match(mesh, pts)
