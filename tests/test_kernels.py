"""Dense solves and the closed-form Laplace panel integrals."""

import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import wavebox.bem as bem
import wavebox.kernels as kernels
from wavebox.errors import GeometryError, SingularMatrixError
from wavebox.geometry import (BoundaryMesh, InterfaceCurve,
                              build_boundary_mesh, flat_interface, wall_mesh)
from wavebox.kernels import (TWO_PI, DenseSystem, influence_gradients,
                             influence_matrices, solve_dense)
from wavebox.modes import sample_initial_state

from conftest import make_reference_data


class TestSolveDense:
    def test_solves(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((12, 12)) + 12.0 * np.eye(12)
        x = rng.standard_normal(12)
        out = solve_dense(DenseSystem(matrix=A, rhs=A @ x))
        np.testing.assert_allclose(out, x, atol=1e-11)

    def test_singular_raises(self):
        # An exactly zero pivot: scipy.linalg.lu_factor would also warn.
        A = np.ones((4, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError):
                solve_dense(DenseSystem(matrix=A, rhs=np.ones(4)))

    def test_zero_matrix_raises(self):
        # Its pivot floor is 0 too, so only dgetrf's zero-pivot report
        # (info > 0) catches it.
        A = np.zeros((3, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError):
                solve_dense(DenseSystem(matrix=A, rhs=np.ones(3)))
        assert_solves_like_scipy(A, np.ones(3))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DenseSystem(matrix=np.ones((3, 2)), rhs=np.ones(3))

    @pytest.mark.parametrize("rhs", [np.ones((2, 4)), np.ones((2, 1, 3)), np.ones(())],
                             ids=["stack_of_wrong_length", "3d", "0d"])
    def test_stack_shape_validation(self, rhs):
        with pytest.raises(ValueError, match="length-n right-hand sides"):
            DenseSystem(matrix=np.eye(3), rhs=rhs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_datum_in_a_stack_is_rejected(self, bad):
        rhs = np.ones((3, 3))
        rhs[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite right-hand side"):
            DenseSystem(matrix=np.eye(3), rhs=rhs)

    def test_singular_stack_raises_once(self, monkeypatch):
        # One factorisation and one pivot check for the whole stack: the
        # error comes before any datum is solved.
        calls = []
        flapack = kernels._flapack

        class Counting:
            def __getattr__(self, name):
                calls.append(name)
                return getattr(flapack, name)

        monkeypatch.setattr(kernels, "_flapack", Counting())
        with pytest.raises(SingularMatrixError):
            solve_dense(DenseSystem(matrix=np.ones((4, 4)), rhs=np.ones((3, 4))))
        assert calls == ["dgetrf"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_raises_before_lu(self, monkeypatch, bad):
        A = np.eye(3)
        A[1, 2] = bad
        monkeypatch.setattr(kernels, "_flapack", None)   # no LAPACK call
        with pytest.raises(ValueError, match="not finite"):
            solve_dense(DenseSystem(matrix=A, rhs=np.ones(3)))


def scipy_solve(A, b):
    """solve_dense as written on scipy.linalg's lu_factor and lu_solve.

    An exactly zero pivot is dgetrf's ``info > 0``, which lu_factor only
    warns about; both count it as singular.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    pivot_floor = 1e-13 * np.max(np.sum(np.abs(A), axis=1))
    diag = np.abs(np.diag(lu))
    if np.any(diag == 0.0) or np.any(diag < pivot_floor):
        raise SingularMatrixError("pivot below threshold")
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def assert_solves_like_scipy(A, b):
    """Same uint64 bits as scipy.linalg, or SingularMatrixError from both."""
    try:
        want = scipy_solve(A, b)
    except SingularMatrixError:
        want = None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if want is None:
            with pytest.raises(SingularMatrixError):
                solve_dense(DenseSystem(matrix=A, rhs=b))
            return
        got = solve_dense(DenseSystem(matrix=A, rhs=b))
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def random_matrix(rng, n, kind, exponent):
    """An n x n matrix: well conditioned, graded by 10**exponent across its
    rows and columns, or one row a combination of the others plus a
    10**-exponent perturbation (exponent 16 makes it singular in exact
    arithmetic)."""
    A = rng.standard_normal((n, n))
    if kind == "well":
        A += n * np.eye(n)
    elif kind == "graded":
        scale = 10.0 ** np.linspace(-exponent / 2, exponent / 2, n)
        A *= np.outer(rng.permutation(scale), scale)
    else:
        weights = rng.standard_normal(n - 1)
        A[-1] = weights @ A[:-1]
        if exponent < 16:
            A[-1] += 10.0 ** -exponent * rng.standard_normal(n)
    return A


class TestSolveDenseBits:
    """solve_dense calls LAPACK's dgetrf/dgetrs directly; the bits must be
    those of scipy.linalg.lu_factor/lu_solve, which it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 400),
           kind=st.sampled_from(["well", "graded", "near-singular"]),
           exponent=st.integers(0, 16), seed=st.integers(0, 2**32 - 1),
           fortran=st.booleans())
    def test_property(self, n, kind, exponent, seed, fortran):
        rng = np.random.default_rng(seed)
        A = random_matrix(rng, n, kind, exponent)
        b = rng.standard_normal(n)
        assert_solves_like_scipy(np.asfortranarray(A) if fortran else A, b)

    def test_singular_cases_raise_alike(self):
        rng = np.random.default_rng(5)
        for n in (2, 17, 168):
            A, b = random_matrix(rng, n, "near-singular", 16), rng.standard_normal(n)
            with pytest.raises(SingularMatrixError):
                scipy_solve(A, b)
            assert_solves_like_scipy(A, b)

    def test_loader_reuses_a_loaded_extension(self):
        # This module imported scipy.linalg after wavebox.kernels; loading
        # again must hand back that package's module, not a second copy.
        loaded = sys.modules["scipy.linalg._flapack"]
        assert scipy.linalg._flapack is loaded
        assert kernels._load_flapack() is loaded
        assert sys.modules["scipy.linalg._flapack"] is loaded

    def test_reference_flow_system(self, monkeypatch):
        # The mixed system of the reference run's first state: 95 surface
        # and 72 wall panels plus the multiplier row.
        systems = []

        def record(system):
            systems.append(system)
            return solve_dense(system)

        monkeypatch.setattr(bem, "solve_dense", record)
        sample_initial_state(make_reference_data(1.0), 96, 24).cauchy
        (system,) = systems
        assert system.matrix.shape == (168, 168)
        assert_solves_like_scipy(system.matrix, system.rhs)


def panel_log_integrals(a, b, target):
    """S and D of the straight panel a -> b at one target, as floats."""
    mesh = BoundaryMesh(a=np.array([a], dtype=np.float64),
                        b=np.array([b], dtype=np.float64),
                        n_markers=0,
                        wall_panels_per_side=0)
    S, D = influence_matrices(mesh, np.asarray(target, dtype=np.float64))
    return float(S[0, 0]), float(D[0, 0])


class TestPanelIntegrals:
    def test_single_layer_matches_quadrature(self):
        a, b = np.array([0.2, 0.1]), np.array([0.7, 0.4])
        target = np.array([0.3, 0.9])
        S, D = panel_log_integrals(a, b, target)
        nodes, weights = np.polynomial.legendre.leggauss(48)

        def green(t):
            y = a[None, :] + 0.5 * (t[:, None] + 1.0) * (b - a)[None, :]
            return -np.log(np.linalg.norm(y - target, axis=1)) / (2.0 * np.pi)

        ell = np.linalg.norm(b - a)
        expected = 0.5 * ell * np.dot(weights, green(nodes))
        assert S == pytest.approx(expected, abs=1e-12)

    def test_double_layer_matches_quadrature(self):
        a, b = np.array([0.2, 0.1]), np.array([0.7, 0.4])
        target = np.array([0.3, 0.9])
        _, D = panel_log_integrals(a, b, target)
        d = b - a
        ell = np.linalg.norm(d)
        normal = np.array([d[1], -d[0]]) / ell
        nodes, weights = np.polynomial.legendre.leggauss(48)

        def dgdn(t):
            # dG/dn_y of G = -(1/2pi) ln|x - y|
            y = a[None, :] + 0.5 * (t[:, None] + 1.0) * d[None, :]
            r = y - target
            return -(r @ normal) / (2.0 * np.pi * np.einsum("ij,ij->i", r, r))

        expected = 0.5 * ell * np.dot(weights, dgdn(nodes))
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
    s = np.linspace(0.0, 1.0, n_markers)
    x1 = s + 0.02 * np.sin(2.0 * np.pi * s)
    x2 = 1.0 + amplitude * np.sin(np.pi * s) * np.cos(3.0 * s)
    x2[[0, -1]] = 1.0
    return build_boundary_mesh(InterfaceCurve(np.column_stack([x1, x2])),
                               wall_panels)


def line_targets(rng, k=12):
    """Points on the four box lines x1 = 0, x1 = 1, x2 = 0, x2 = 1."""
    s = rng.uniform(-0.5, 1.5, k)
    zero, one = np.zeros(k), np.ones(k)
    return np.vstack([np.column_stack([zero, s]), np.column_stack([one, s]),
                      np.column_stack([s, zero]), np.column_stack([s, one])])


def copy_at_offset(a, offset):
    """Copy of ``a`` whose data starts ``offset`` bytes past a 64-byte boundary."""
    buf = np.empty(a.nbytes + 64 + offset, dtype=np.uint8)
    start = -buf.ctypes.data % 64 + offset
    out = buf[start:start + a.nbytes].view(a.dtype).reshape(a.shape)
    out[...] = a
    return out


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

    @pytest.mark.parametrize("offset", [8, 16, 24, 32, 40, 48, 56])
    @pytest.mark.parametrize("name", ["flat", "reference", "bumped"])
    def test_target_alignment(self, meshes, name, offset):
        # Where malloc places an array (mmap or heap) moves its address mod
        # 64, and SIMD loops may split work at alignment boundaries; the
        # bits must not depend on it.
        mesh = meshes[name]
        interior = np.random.default_rng(14).uniform(0.05, 0.95, (300, 2))
        for kernel, pts in ((influence_matrices,
                             np.vstack([interior, mesh.midpoints])),
                            (influence_gradients, interior)):
            aligned, moved = copy_at_offset(pts, 0), copy_at_offset(pts, offset)
            assert (aligned.ctypes.data % 64, moved.ctypes.data % 64) == (0, offset)
            for g, w in zip(kernel(mesh, moved), kernel(mesh, aligned)):
                assert_same_bits(g, w)

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


# ---------------------------------------------------------------------------
# The solver's collocation mode: S against the surface panels only, and the
# walls' fixed wall x wall block of D from a cache per wall count.  Both must
# carry the default mode's bits.
# ---------------------------------------------------------------------------

class TestCollocationMode:
    @staticmethod
    def mesh(name, w):
        if name == "flat":
            return build_boundary_mesh(flat_interface(33), w)
        if name == "reference":
            return sample_initial_state(make_reference_data(1.0), 96, w).mesh
        return bumped_mesh(33, w)

    @pytest.mark.parametrize("w", [16, 24, 32, 64, 128])
    @pytest.mark.parametrize("name", ["flat", "reference", "bumped"])
    def test_matches_default_mode(self, name, w):
        mesh = self.mesh(name, w)
        S, D = influence_matrices(mesh, mesh.midpoints)
        kernels._wall_double_layer.cache_clear()
        for _ in ("cold", "warm"):
            S_c, D_c = influence_matrices(mesh, mesh.midpoints, collocation=True)
            assert_same_bits(S_c, S[:, mesh.surface_slice])
            assert_same_bits(D_c, D)

    def test_cached_arrays_are_read_only(self):
        # The wall block, and the wall panel ends it is built from.
        walls = wall_mesh(8)
        D = kernels._wall_double_layer(8)
        assert kernels._wall_double_layer(8) is D
        assert D.shape == (24, 24)
        for array in (D, walls.a, walls.b):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_two_solves_in_a_row_agree(self):
        # A solver that wrote D + I/2 into the cached block would change the
        # second solve.
        mesh = bumped_mesh(33, 12)
        phi_s = np.random.default_rng(5).standard_normal(mesh.n_markers - 1)
        kernels._wall_double_layer.cache_clear()
        first = bem.solve_mixed_bvp(mesh, phi_s)
        second = bem.solve_mixed_bvp(mesh, phi_s)
        assert_same_bits(second.values, first.values)
        assert_same_bits(second.fluxes, first.fluxes)
