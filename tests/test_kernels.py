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
from wavebox.pressure import PressureField, interior_lattice

from conftest import assert_same_bits, make_reference_data


@pytest.fixture
def lapack_calls(monkeypatch):
    """The names of the LAPACK routines ``solve_dense`` looks up, in order."""
    calls = []
    flapack = kernels._flapack

    class Counting:
        def __getattr__(self, name):
            calls.append(name)
            return getattr(flapack, name)

    monkeypatch.setattr(kernels, "_flapack", Counting())
    return calls


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

    def test_singular_stack_raises_once(self, lapack_calls):
        # One factorisation and one pivot check for the whole stack: the
        # error comes before any datum is solved.
        with pytest.raises(SingularMatrixError):
            solve_dense(DenseSystem(matrix=np.ones((4, 4)), rhs=np.ones((3, 4))))
        assert lapack_calls == ["dlange", "dgetrf"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_raises_before_lu(self, lapack_calls, bad):
        # The row-sum norm (dlange) is the only LAPACK call: no
        # factorisation, in either storage order, and -inf alike.
        for order in ("C", "F"):
            for value in (bad, -bad):
                A = np.eye(3, order=order)
                A[1, 2] = value
                with pytest.raises(ValueError, match="not finite"):
                    solve_dense(DenseSystem(matrix=A, rhs=np.ones(3)))
        assert lapack_calls == ["dlange"] * 4

    def test_fortran_matrix_is_factored_in_place(self):
        # The system's own storage takes the LU factors; a C-ordered
        # matrix is copied and left as it was.
        rng = np.random.default_rng(9)
        A = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
        b = rng.standard_normal(6)
        lu, _ = scipy.linalg.lu_factor(A)
        F, C = np.asfortranarray(A), A.copy()
        assert_same_bits(solve_dense(DenseSystem(matrix=F, rhs=b)),
                         solve_dense(DenseSystem(matrix=C, rhs=b)))
        assert_same_bits(F, lu)
        assert_same_bits(C, A)


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
            # a copy, taken before solve_dense factors the matrix in place
            systems.append(DenseSystem(matrix=system.matrix.copy(order="K"),
                                       rhs=system.rhs.copy()))
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


def unit_densities(mesh):
    """(surface fluxes, values, surface slice) arguments that pick one
    panel's gradients each: e_j's surface part and 0, then 0 and e_j.  The
    contracted gradient is then grad S[:, j] and -grad D[:, j] exactly,
    since every other product is a zero.  A wall panel's flux is always
    zero, so its first triple is None."""
    n, sl = mesh.n_panels, mesh.surface_slice
    zero = np.zeros(n)
    for j, e in enumerate(np.eye(n)):
        yield ((e[sl], zero, sl) if sl.start <= j < sl.stop else None,
               (zero[sl], e, sl))


def zero_wall_fluxes(mesh, q):
    """q with its wall entries set to zero, as every solve gives them."""
    sl = mesh.surface_slice
    q[:sl.start] = 0.0
    q[sl.stop:] = 0.0
    return q


class TestInfluenceGradients:
    @staticmethod
    def mesh_and_points():
        mesh = build_boundary_mesh(flat_interface(17), 8)
        return mesh, np.array([[0.37, 0.55], [0.81, 0.33]])

    @staticmethod
    def differences(mesh, pts, axis, h):
        e = np.zeros(2)
        e[axis] = h
        Sp, Dp = influence_matrices(mesh, pts + e)
        Sm, Dm = influence_matrices(mesh, pts - e)
        return (Sp - Sm) / (2.0 * h), (Dp - Dm) / (2.0 * h)

    def test_matches_finite_differences(self):
        # Each panel's grad S and grad D, picked out by unit densities,
        # against central differences of S and D.
        mesh, pts = self.mesh_and_points()
        h = 1e-6
        for axis in range(2):
            dS, dD = self.differences(mesh, pts, axis, h)
            for j, (pick_S, pick_D) in enumerate(unit_densities(mesh)):
                if pick_S is not None:
                    np.testing.assert_allclose(
                        influence_gradients(mesh, pts, *pick_S)[:, axis], dS[:, j],
                        atol=1e-8)
                np.testing.assert_allclose(
                    -influence_gradients(mesh, pts, *pick_D)[:, axis], dD[:, j], atol=1e-7)

    def test_contracted_gradient_matches_finite_differences(self):
        # The gradient of S q - D phi against central differences of it;
        # each panel's term carries the per-panel tolerance above.
        mesh, pts = self.mesh_and_points()
        q, phi = np.random.default_rng(21).uniform(-1.0, 1.0, (2, mesh.n_panels))
        zero_wall_fluxes(mesh, q)
        h = 1e-6
        grad = influence_gradients(mesh, pts, q[mesh.surface_slice], phi, mesh.surface_slice)
        for axis in range(2):
            dS, dD = self.differences(mesh, pts, axis, h)
            np.testing.assert_allclose(
                grad[:, axis], dS @ q - dD @ phi,
                rtol=0, atol=1e-8 * np.abs(q).sum() + 1e-7 * np.abs(phi).sum())

    def test_rejects_endpoint_target(self):
        mesh = build_boundary_mesh(flat_interface(9), 4)
        ones, sl = np.ones(mesh.n_panels), mesh.surface_slice
        with pytest.raises(GeometryError):
            influence_gradients(mesh, mesh.a[3][None, :], ones[sl], ones, sl)

    def test_takes_one_flux_per_flux_column(self):
        # A flux per panel, walls included, is not a second form of the
        # call when the flux columns are the surface's.
        mesh, pts = self.mesh_and_points()
        ones, sl = np.ones(mesh.n_panels), mesh.surface_slice
        for fluxes in (ones, ones[:-1], ones[sl][None, :]):
            with pytest.raises(ValueError, match="one per panel of flux_cols"):
                influence_gradients(mesh, pts, fluxes, ones, sl)

    def test_any_flux_columns(self):
        # The kernel knows no surface: fluxes on the walls' first block, or
        # on every panel, contract as S q - D phi with q zero elsewhere.
        mesh, pts = self.mesh_and_points()
        q, phi = np.random.default_rng(22).uniform(-1.0, 1.0, (2, mesh.n_panels))
        h = 1e-6
        for cols in (slice(0, mesh.wall_panels_per_side), slice(0, mesh.n_panels)):
            full = np.zeros(mesh.n_panels)
            full[cols] = q[cols]
            grad = influence_gradients(mesh, pts, q[cols], phi, cols)
            for axis in range(2):
                dS, dD = self.differences(mesh, pts, axis, h)
                np.testing.assert_allclose(
                    grad[:, axis], dS @ full - dD @ phi,
                    rtol=0, atol=1e-8 * np.abs(full).sum() + 1e-7 * np.abs(phi).sum())


# ---------------------------------------------------------------------------
# Bit-equality against the kernels as first written: (m,n,2) offset arrays
# contracted by einsum, one arctan per use.  The production kernels reorder
# the work (component arrays, one shared arctan per endpoint, in-place
# ufuncs) and must still return the same bits, NaN positions and the sign of
# zero included.
# ---------------------------------------------------------------------------

def _ref_frame(mesh):
    """C-ordered copies of the mesh's (n, 2) tangents and normals.

    The mesh serves them as strided views of its panel table, and einsum
    sums a contraction of strided arrays in another order.
    """
    return np.ascontiguousarray(mesh.tangents), np.ascontiguousarray(mesh.normals)


def _ref_local_coords(mesh, targets):
    tangents, normals = _ref_frame(mesh)
    rel = targets[:, None, :] - mesh.a[None, :, :]
    xi = np.einsum("mnj,nj->mn", rel, tangents)
    eta = np.einsum("mnj,nj->mn", rel, normals)
    return -xi, mesh.lengths[None, :] - xi, eta


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
    u1, u2, eta = _ref_local_coords(mesh, targets)
    S = -(_ref_log_antiderivative(u2, eta) - _ref_log_antiderivative(u1, eta)) / TWO_PI
    with np.errstate(divide="ignore", invalid="ignore"):
        D = (np.arctan(u2 / eta) - np.arctan(u1 / eta)) / TWO_PI
    on_line = np.abs(eta) <= 1e-12 * mesh.lengths[None, :]
    D = np.where(on_line, 0.0, D)
    return S, D


def _ref_influence_gradients(mesh, targets):
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    u1, u2, eta = _ref_local_coords(mesh, targets)
    r1sq = u1 * u1 + eta * eta
    r2sq = u2 * u2 + eta * eta
    if np.any(r1sq < 1e-28) or np.any(r2sq < 1e-28):
        raise GeometryError("influence_gradients: target coincides with a panel endpoint")
    t, n = (v[None, :, :] for v in _ref_frame(mesh))
    dlog = 0.5 * (np.log(r2sq) - np.log(r1sq))
    with np.errstate(divide="ignore", invalid="ignore"):
        dang = np.arctan(u2 / eta) - np.arctan(u1 / eta)
    dang = np.where(eta == 0.0, 0.0, dang)
    gradS = -(-dlog[:, :, None] * t + dang[:, :, None] * n) / TWO_PI
    term2 = (-eta[:, :, None] * t - u2[:, :, None] * n) / r2sq[:, :, None]
    term1 = (-eta[:, :, None] * t - u1[:, :, None] * n) / r1sq[:, :, None]
    gradD = (term2 - term1) / TWO_PI
    return gradS, gradD


def assert_matrices_match(mesh, targets):
    for got, want in zip(influence_matrices(mesh, targets),
                         _ref_influence_matrices(mesh, targets)):
        assert_same_bits(got, want)


def contract(gradients, fluxes, values):
    """einsum's contraction of (m, n, 2) gradient arrays with densities:
    the oracle of ``influence_gradients``' bits."""
    gS, gD = gradients
    return (np.einsum("mnj,n->mj", gS, fluxes)
            - np.einsum("mnj,n->mj", gD, values))


def density_pairs(mesh, seed=0):
    """(fluxes, values) pairs, the fluxes zero on the walls as every solve
    gives them: standard normal; with about half the surface fluxes zero
    too; and spread over sixteen decades."""
    n = mesh.n_panels
    rng = np.random.default_rng(seed)
    q, phi = rng.standard_normal((2, n))
    half_zero = np.where(rng.random(n) < 0.5, 0.0, q)
    spread = rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-8, 8, (2, n))
    pairs = [(q, phi), (half_zero, phi), tuple(spread)]
    return [(zero_wall_fluxes(mesh, q), phi) for q, phi in pairs]


def assert_contracts_alike(mesh, targets, oracle, seed=0):
    """``influence_gradients`` has, for several density pairs, the bits of
    ``oracle``'s (m, n, 2) gradient arrays contracted by einsum, given the
    surface part of the fluxes; and unit densities recover every element
    of them that a flux or value can reach on a small mesh."""
    want, sl = oracle(mesh, targets), mesh.surface_slice
    for q, phi in density_pairs(mesh, seed):
        assert_same_bits(influence_gradients(mesh, targets, q[sl], phi, sl),
                         contract(want, q, phi))
    if mesh.n_panels <= 64:
        gS, gD = want
        for j, (pick_S, pick_D) in enumerate(unit_densities(mesh)):
            if pick_S is not None:
                np.testing.assert_array_equal(influence_gradients(mesh, targets, *pick_S),
                                              gS[:, j])
            np.testing.assert_array_equal(-influence_gradients(mesh, targets, *pick_D),
                                          gD[:, j])


def assert_gradients_match(mesh, targets):
    assert_contracts_alike(mesh, targets, _ref_influence_gradients)


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
        _, _, eta = _ref_local_coords(mesh, pts)
        assert np.count_nonzero(eta == 0.0) > 0
        assert_matrices_match(mesh, pts)

    @pytest.mark.parametrize("name", ["flat", "reference", "bumped"])
    def test_targets_at_panel_endpoints(self, meshes, name):
        mesh = meshes[name]
        pts = np.vstack([mesh.a, mesh.b])
        u1, u2, eta = _ref_local_coords(mesh, pts)
        assert np.count_nonzero(u1 * u1 + eta * eta == 0.0) >= mesh.n_panels
        assert_matrices_match(mesh, pts)

    def test_gradients_reject_endpoints_alike(self, meshes):
        mesh = meshes["bumped"]
        q, phi = density_pairs(mesh)[0]
        for pts in (mesh.a[5:6], mesh.b[-3:-2]):
            with pytest.raises(GeometryError):
                _ref_influence_gradients(mesh, pts)
            with pytest.raises(GeometryError):
                influence_gradients(mesh, pts, q[mesh.surface_slice], phi, mesh.surface_slice)

    @pytest.mark.parametrize("offset", [8, 16, 24, 32, 40, 48, 56])
    @pytest.mark.parametrize("name", ["flat", "reference", "bumped"])
    def test_target_alignment(self, meshes, name, offset):
        # Where malloc places an array (mmap or heap) moves its address mod
        # 64, and SIMD loops may split work at alignment boundaries; the
        # bits must not depend on it.
        mesh = meshes[name]
        interior = np.random.default_rng(14).uniform(0.05, 0.95, (300, 2))
        q, phi = density_pairs(mesh)[0]
        sl = mesh.surface_slice
        q = q[sl]
        for kernel, pts in ((influence_matrices,
                             np.vstack([interior, mesh.midpoints])),
                            (lambda mesh, pts: [influence_gradients(mesh, pts, q, phi, sl)],
                             interior)):
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
        u1, u2, eta = _ref_local_coords(mesh, pts)
        if min((u1 * u1 + eta * eta).min(), (u2 * u2 + eta * eta).min()) >= 1e-28:
            assert_gradients_match(mesh, pts)


# ---------------------------------------------------------------------------
# The solver's blocks: S against the surface panels only, and D of every
# block but the walls' fixed wall x wall block, written by the panel
# kernels into the solver's Fortran-ordered storage.  Every block they
# write must carry the default path's bits.  The wall x wall block is the
# solver's, kept finished, -(D + I/2), in a cache per wall count
# (bem._wall_block).
# ---------------------------------------------------------------------------

def wall_x_wall(mesh):
    """Index of the n x n system's wall x wall block, its rows and columns
    bottom, right, left, as in ``geometry.wall_mesh``."""
    sl = mesh.surface_slice
    walls = np.r_[:sl.start, sl.stop:mesh.n_panels]
    return np.ix_(walls, walls)


def solver_blocks(mesh):
    """(S against the surface panels, D) as ``bem.solve_mixed_bvp``'s two
    kernel calls write them.

    The storage is the solver's: the leading n x n view of an (n+1) x
    (n+1) Fortran-ordered system, whose surface columns take S and wall
    columns D, and a Fortran-ordered D_surface for D's surface columns.
    It starts as NaN, so an entry left unwritten cannot match, and the
    multiplier's row and column and the wall x wall entries, which the
    kernels never write, must stay so.
    """
    n, sl = mesh.n_panels, mesh.surface_slice
    A = np.full((n + 1, n + 1), np.nan, order="F")
    D_surface = np.full((n, sl.stop - sl.start), np.nan, order="F")
    S_view, D_view = influence_matrices(mesh, mesh.midpoints, sl, (A[:n, sl], D_surface))
    assert D_view is D_surface and S_view.base is A
    kernels.double_layer(wall_mesh(mesh.wall_panels_per_side), mesh.midpoints[sl],
                         A[sl, :sl.start], A[sl, sl.stop:n])
    assert np.isnan(A[n]).all() and np.isnan(A[:, n]).all()
    assert np.isnan(A[:n, :n][wall_x_wall(mesh)]).all()
    D = A[:n, :n].copy()
    D[:, sl] = D_surface
    return A[:n, sl].copy(), D


class TestSolverBlocks:
    @staticmethod
    def mesh(name, w):
        if name == "flat":
            return build_boundary_mesh(flat_interface(33), w)
        if name == "reference":
            return sample_initial_state(make_reference_data(1.0), 96, w).mesh
        return bumped_mesh(33, w)

    @pytest.mark.parametrize("w", [16, 24, 32, 64, 128])
    @pytest.mark.parametrize("name", ["flat", "reference", "bumped"])
    def test_matches_default_path(self, name, w):
        mesh = self.mesh(name, w)
        S, D = influence_matrices(mesh, mesh.midpoints)
        D[wall_x_wall(mesh)] = np.nan
        S_c, D_c = solver_blocks(mesh)
        assert_same_bits(S_c, S[:, mesh.surface_slice])
        assert_same_bits(D_c, D)

    @pytest.mark.parametrize("name", ["flat", "reference", "bumped"])
    def test_column_blocks_into_new_arrays(self, name):
        # Any contiguous block of panels, written into new C-ordered arrays,
        # has the bits of those columns of the whole.
        mesh = self.mesh(name, 16)
        S, D = influence_matrices(mesh, mesh.midpoints)
        for cols in (mesh.surface_slice, slice(0, 16), slice(5, 40)):
            blocks = influence_matrices(mesh, mesh.midpoints, cols)
            for got, whole in zip(blocks, (S, D)):
                assert got.flags.c_contiguous
                assert_same_bits(got, whole[:, cols])

    @pytest.mark.parametrize("w", [16, 24, 32, 64, 128])
    def test_solver_keeps_the_finished_wall_block(self, w):
        # The default path's wall x wall D, gathered into the wall mesh's
        # order, with the half added on its diagonal and then negated.
        mesh = self.mesh("bumped", w)
        _, D = influence_matrices(mesh, mesh.midpoints)
        want = D[wall_x_wall(mesh)]
        np.einsum("ii->i", want)[...] += 0.5
        want = -want
        bem._wall_block.cache_clear()
        for _ in ("cold", "warm"):
            assert_same_bits(bem._wall_block(w), want)

    def test_cached_arrays_are_read_only(self):
        # The finished wall block, one object per wall count, and the
        # shared wall mesh it is built from.
        walls = wall_mesh(8)
        assert wall_mesh(8) is walls
        block = bem._wall_block(8)
        assert bem._wall_block(8) is block and bem._wall_block(9) is not block
        assert block.shape == (24, 24)
        for array in (block, walls.a, walls.b, walls.midpoints, walls.tangents,
                      walls.lengths, walls.panel_rows):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_two_solves_in_a_row_agree(self):
        # A solver that filled the cached block on its first solve and read
        # it on its second must give both the same bits.
        mesh = bumped_mesh(33, 12)
        phi_s = np.random.default_rng(5).standard_normal(mesh.n_markers - 1)
        bem._wall_block.cache_clear()
        first = bem.solve_mixed_bvp(mesh, phi_s)
        second = bem.solve_mixed_bvp(mesh, phi_s)
        assert_same_bits(second.values, first.values)
        assert_same_bits(second.fluxes, first.fluxes)


# ---------------------------------------------------------------------------
# Row blocks: every kernel runs over kernels.row_blocks of its target rows,
# written in place: _layers on the solver's surface columns and on all
# panels, the surface rows against the wall panels, the wall x wall block
# and influence_gradients.  The
# one split gives the fewest near-equal blocks, in order, of at most
# PAIR_BUDGET (target, panel) pairs and at least two rows.  Blocks of two
# sizes must leave every bit as one block gives it.
# ---------------------------------------------------------------------------

def assert_blocks_match(monkeypatch, mesh, budget, solver):
    n_cols = mesh.n_markers - 1 if solver else mesh.n_panels

    def matrices():
        if solver:
            # the wall block as the solver's cache fills it, uncached
            return (*solver_blocks(mesh),
                    bem._wall_block.__wrapped__(mesh.wall_panels_per_side))
        return influence_matrices(mesh, mesh.midpoints)

    monkeypatch.setattr(kernels, "PAIR_BUDGET", budget)
    blocks = kernels.row_blocks(mesh.n_panels, n_cols)
    assert len({rows.stop - rows.start for rows in blocks}) == 2
    blocked = matrices()
    monkeypatch.setattr(kernels, "PAIR_BUDGET", 10**9)
    whole = matrices()
    for got, want in zip(blocked, whole):
        assert_same_bits(got, want)


class TestRowBlocks:
    @pytest.mark.parametrize("budget", [2, 100, 1000, kernels.PAIR_BUDGET])
    def test_split(self, monkeypatch, budget):
        # Budget 2 is under two rows for every n, and 100 from n = 51 on;
        # under three rows, an odd m needs one block of three.
        monkeypatch.setattr(kernels, "PAIR_BUDGET", budget)
        for m in (0, 1, 2, 3, 4, 5, 7, 97, 194, 639):
            for n in (1, 2, 3, 95, 167, 255):
                blocks = kernels.row_blocks(m, n)
                if m == 0:
                    assert blocks == []
                    continue
                # they tile 0..m in order
                assert ([0, *(rows.stop for rows in blocks)]
                        == [*(rows.start for rows in blocks), m])
                sizes = [rows.stop - rows.start for rows in blocks]
                assert min(sizes) >= min(m, 2)
                assert max(sizes) - min(sizes) <= 1
                assert max(sizes) * n <= max(budget, min(m, 3) * n)
                # the fewest blocks: one fewer would need a longer one
                assert (len(blocks) == 1
                        or -(-m // (len(blocks) - 1)) * n > max(budget, 2 * n))

    def test_no_targets(self):
        mesh = TestSolverBlocks.mesh("reference", 24)
        S, D = influence_matrices(mesh, np.empty((0, 2)))
        assert S.shape == D.shape == (0, mesh.n_panels)
        ones, sl = np.ones(mesh.n_panels), mesh.surface_slice
        assert influence_gradients(mesh, np.empty((0, 2)), ones[sl], ones,
                                   sl).shape == (0, 2)

    @pytest.mark.parametrize("solver", [True, False], ids=["solver", "default"])
    @pytest.mark.parametrize("w", [16, 24])
    @pytest.mark.parametrize("name", ["flat", "reference", "bumped"])
    def test_ragged_blocks(self, monkeypatch, name, w, solver):
        # Budgets at which every one of these meshes gets blocks of two
        # sizes, against its surface panels or against all its panels.
        assert_blocks_match(monkeypatch, TestSolverBlocks.mesh(name, w),
                            500 if solver else 1000, solver)

    @pytest.mark.parametrize("budget", [kernels.PAIR_BUDGET, 2000])
    def test_sweep_mesh(self, monkeypatch, budget):
        # validate-bem's finest mesh: 639 rows against 255 surface panels,
        # by default ten blocks of 63 or 64 rows
        mesh = build_boundary_mesh(flat_interface(256), 128)
        sizes = [rows.stop - rows.start for rows in kernels.row_blocks(639, 255)]
        assert mesh.n_markers - 1 == 255 and sizes == [63] + [64] * 9
        assert_blocks_match(monkeypatch, mesh, budget, solver=True)

    def test_reference_lattice(self, monkeypatch):
        # The default path, as eval_interior calls it: 194 lattice points x
        # 167 panels in two blocks of 97 rows (16,384 // 167 = 98 at most),
        # not in one block of 32,398 pairs, with the bits of one block.
        mesh, pts = reference_lattice()
        sizes = []
        layers = kernels._layers

        def recording(mesh, targets, *args):
            sizes.append(len(targets))
            return layers(mesh, targets, *args)

        monkeypatch.setattr(kernels, "_layers", recording)
        blocked = influence_matrices(mesh, pts)
        assert sizes == [97, 97]
        monkeypatch.setattr(kernels, "PAIR_BUDGET", 10**9)
        whole = influence_matrices(mesh, pts)
        assert sizes == [97, 97, 194]
        for got, want in zip(blocked, whole):
            assert_same_bits(got, want)


def _gradS_first_gradients(mesh, targets):
    """influence_gradients with gradS formed before gradD and every log and
    arctangent in a fresh array, as it was written before gradD moved
    first.  The oracle of the reordered kernel's bits."""
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    u1, u2, eta = kernels.local_coords(mesh, targets)
    eta2 = eta * eta
    r1sq = u1 * u1
    r1sq += eta2
    r2sq = u2 * u2
    r2sq += eta2
    if r1sq.min() < 1e-28 or r2sq.min() < 1e-28:
        raise GeometryError("influence_gradients: target coincides with a panel endpoint")
    neg_dlog = np.log(r2sq)
    neg_dlog -= np.log(r1sq)
    neg_dlog *= 0.5
    np.negative(neg_dlog, out=neg_dlog)
    with np.errstate(divide="ignore", invalid="ignore"):
        dang = kernels._arctan_ratio(u2, eta)
        dang -= kernels._arctan_ratio(u1, eta)
    dang[eta == 0.0] = 0.0
    neg_eta = np.negative(eta, out=eta)
    gradS = np.empty(eta.shape + (2,))
    gradD = np.empty(eta.shape + (2,))
    for c, (t, n) in enumerate(zip(mesh.tangents.T.copy(), mesh.normals.T.copy())):
        gs = neg_dlog * t
        gs += dang * n
        np.negative(gs, out=gs)
        gs /= TWO_PI
        gradS[..., c] = gs
        base = np.multiply(neg_eta, t, out=gs)
        term2 = base - u2 * n
        term2 /= r2sq
        term1 = np.subtract(base, u1 * n, out=base)
        term1 /= r1sq
        term2 -= term1
        term2 /= TWO_PI
        gradD[..., c] = term2
    return gradS, gradD


def assert_gradients_keep_their_bits(mesh, targets, seed=0):
    assert_contracts_alike(mesh, targets, _gradS_first_gradients, seed)


def reference_lattice():
    """The reference mesh at t = 0 and its 194-point pressure lattice."""
    state = sample_initial_state(make_reference_data(1.0), 96, 24)
    return state.mesh, interior_lattice(PressureField.from_state(state, 2.0), 16)


class TestGradientOrder:
    @pytest.mark.parametrize("name", ["flat", "reference", "bumped"])
    def test_lattice_points(self, name):
        mesh = TestSolverBlocks.mesh(name, 24)
        if name == "reference":
            mesh, pts = reference_lattice()
        else:
            xs = (np.arange(16) + 0.5) / 16
            pts = np.column_stack([np.repeat(xs, 16), np.tile(xs, 16)])
        assert_gradients_keep_their_bits(mesh, pts)

    @pytest.mark.parametrize("name", ["flat", "bumped"])
    def test_collinear_targets(self, name):
        mesh = TestSolverBlocks.mesh(name, 16)
        d = mesh.b - mesh.a
        pts = np.vstack([line_targets(np.random.default_rng(15)),
                         mesh.a - 0.5 * d, mesh.b + 0.5 * d])
        _, _, eta = _ref_local_coords(mesh, pts)
        assert np.count_nonzero(eta == 0.0) > 0
        assert_gradients_keep_their_bits(mesh, pts)


# ---------------------------------------------------------------------------
# Target blocks of influence_gradients: the row blocks above, each summed
# over the panels in einsum's order; a lone target is summed sequentially.
# ---------------------------------------------------------------------------

class TestTargetBlocks:
    @pytest.fixture
    @staticmethod
    def block_sizes(monkeypatch):
        sizes = []
        block = kernels._contracted_gradients

        def recording(mesh, targets, *args):
            sizes.append(len(targets))
            return block(mesh, targets, *args)

        monkeypatch.setattr(kernels, "_contracted_gradients", recording)
        return sizes

    @pytest.mark.parametrize("budget, sizes", [
        (kernels.PAIR_BUDGET, [97, 97]),   # the default: 16,384 // 167 = 98 a block
        (80 * 167, [64, 65, 65]),          # three blocks, of uneven size
        (60 * 167, [48, 49, 48, 49]),      # four, the last one longer
    ], ids=["two", "three", "four"])
    def test_reference_lattice(self, monkeypatch, block_sizes, budget, sizes):
        mesh, pts = reference_lattice()
        assert pts.shape == (194, 2) and mesh.n_panels == 167
        monkeypatch.setattr(kernels, "PAIR_BUDGET", budget)
        assert_gradients_keep_their_bits(mesh, pts, seed=budget)
        assert block_sizes == sizes * 3       # one call per density pair

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_few_targets(self, block_sizes, m):
        # One target alone, summed pairwise as a contiguous column, drifts
        # from einsum's sequential sum on the 167-panel mesh.
        mesh, pts = reference_lattice()
        for start in range(0, 12, m):
            block_sizes.clear()
            assert_gradients_keep_their_bits(mesh, pts[start:start + m], seed=start)
            assert block_sizes == [m] * 3

    def test_blocks_keep_two_targets(self, monkeypatch, block_sizes):
        # A budget of under two targets a block still gives every block two
        # or more, of near-equal size.
        mesh, pts = reference_lattice()
        monkeypatch.setattr(kernels, "PAIR_BUDGET", 2)
        assert_gradients_keep_their_bits(mesh, pts[:7])
        assert block_sizes == [2, 2, 3] * 3
