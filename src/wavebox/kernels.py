"""Shared numerics: dense solves and Laplace panel integrals.

The 2D Laplace free-space kernel is G(x,y) = -(1/2pi) ln|x-y|.  All panel
integrals below are closed-form for straight panels with constant density,
so assembly needs no near-singular quadrature.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import GeometryError, SingularMatrixError
from .geometry import wall_mesh

FloatArray = NDArray[np.float64]

TWO_PI = 2.0 * np.pi
# (target, panel) pairs per row block of every panel kernel; see row_blocks.
PAIR_BUDGET = 16384


def _load_flapack():
    """SciPy's compiled LAPACK wrappers, loaded without scipy.linalg's package.

    The package would also load scipy._lib, numpy.f2py and numpy.testing
    (about 0.3 s and 24 MB per process).  Loading registers the extension
    in sys.modules; the entry is dropped, or a later ``import scipy.linalg``
    would find it there and never set the ``_flapack`` attribute.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("wavebox needs SciPy's compiled LAPACK (scipy.linalg._flapack)")
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(d, "linalg") for d in scipy_spec.submodule_search_locations])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module


_flapack = _load_flapack()


@dataclass(frozen=True)
class DenseSystem:
    """An n x n matrix and one right-hand side (n,), or a stack (k, n) of
    them, one per row.

    ``solve_dense`` consumes the matrix: a Fortran-ordered one is factored
    in place and holds its LU factors afterwards.  Copy it first to read
    the system after the solve.
    """

    matrix: FloatArray
    rhs: FloatArray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        r = np.asarray(self.rhs, dtype=np.float64)
        if (m.ndim != 2 or m.shape[0] != m.shape[1] or r.ndim not in (1, 2)
                or r.shape[-1] != m.shape[0]):
            raise ValueError("DenseSystem: matrix must be n x n with length-n "
                             "right-hand sides")
        if not np.isfinite(r).all():
            raise ValueError("DenseSystem: non-finite right-hand side")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "rhs", r)


def solve_dense(system: DenseSystem) -> FloatArray:
    """LU with partial pivoting; raises SingularMatrixError on tiny pivots.

    The LAPACK calls of ``scipy.linalg.lu_factor``/``lu_solve``, so the
    bits are theirs.  A Fortran-ordered matrix is factored in place, with
    no copy: the system's matrix is consumed.  Any other matrix is first
    copied to Fortran order, the copy lu_factor's dgetrf would make.
    An exactly zero pivot (dgetrf's ``info > 0``) is singular too; it is the
    only sign of an all-zero matrix, whose pivot floor is itself zero.
    The pivot floor scales with the row-sum norm, LAPACK's ``dlange``, which
    needs no n x n temporary and is non-finite when any entry is; that
    rejects the matrix with ValueError, before the factorisation.

    A stack of right-hand sides shares the one factorisation and pivot
    check, and each row gets its own ``dgetrs`` call, so each solution has
    the bits of a single-datum solve (one call with all rows as columns
    would not).  The solutions keep the stack's shape.
    """
    A, b = np.asfortranarray(system.matrix), system.rhs
    norm = _flapack.dlange("I", A)
    if not np.isfinite(norm):
        raise ValueError("solve_dense: matrix row sums are not finite")
    lu, piv, info = _flapack.dgetrf(A, overwrite_a=1)
    pivot_floor = 1e-13 * norm
    diag = np.abs(np.diag(lu))
    if info > 0 or np.any(diag < pivot_floor):
        raise SingularMatrixError(
            f"pivot {diag.min():.3e} below threshold {pivot_floor:.3e}")
    x = np.empty_like(b)
    for row, rhs in zip(np.atleast_2d(x), np.atleast_2d(b)):
        row[:] = _flapack.dgetrs(lu, piv, rhs)[0]
    return x


def local_coords(mesh, targets, cols=slice(None), panel_major=False):
    """Panel-local coordinates of targets against the contiguous panel block cols.

    Shapes: targets (m,2) and the n panels of cols; returns (m,n) arrays
    u1, u2, eta, or (n,m) arrays if ``panel_major``.  With a, t, n and l a
    panel's start, tangent, outward normal and length and p a target,
    u1 = (a - p).t and u2 = l + u1 are the panel ends' offsets from p's
    foot point, and eta = (a - p).(-n) is p's height above the panel line.
    They are bitwise -xi, l - xi and (p - a).n with xi = (p - a).t, since
    negations are exact, except that an exactly zero u1 or eta may carry
    the other sign.  Each element takes the same operations in either
    orientation, so it has the same bits.
    The panels are slices of ``mesh.panel_rows``, and the target
    components are copied out of their (m,2) array once, so every pass
    reads contiguous rows and no (m,n,2) temporary is formed.
    """
    px, py = targets.T.copy()
    panels = mesh.panel_rows[:, cols]
    if panel_major:
        panels = panels[:, :, None]
    else:
        px, py = px[:, None], py[:, None]
    ax, ay, tx, ty, neg_nx, neg_ny, lengths = panels
    rx = ax - px
    ry = ay - py
    u1 = rx * tx
    eta = ry * neg_ny
    ry *= ty
    u1 += ry
    rx *= neg_nx
    eta += rx               # IEEE addition commutes: rx*(-nx) + ry*(-ny)
    return u1, np.add(lengths, u1, out=rx), eta


def _zero_where(array: FloatArray, mask) -> None:
    """array[mask] = 0, skipped when the mask selects nothing."""
    if mask.any():
        array[mask] = 0.0


# The panel kernels divide by eta == 0 and take log(0) on purpose, and mask
# those elements afterwards; each enters this error state once per call.
_masked_errors = np.errstate(divide="ignore", invalid="ignore")


def _arctan_ratio(u: FloatArray, eta: FloatArray, out=None) -> FloatArray:
    """atan(u/eta), +-pi/2 or nan where eta == 0 (callers mask those and
    hold ``_masked_errors``)."""
    # Plain arctan of the ratio: arctan2 would wrap to +-pi for eta < 0
    # (targets on the interior side) and corrupt the subtended angle.
    out = np.divide(u, eta, out=out)
    return np.arctan(out, out=out)


def _u_log_r_minus_u(u: FloatArray, eta2: FloatArray, out: FloatArray) -> FloatArray:
    """u ln sqrt(u^2 + eta^2) - u into out, with ln r taken as 0 at r = 0
    (under ``_masked_errors``)."""
    np.multiply(u, u, out=out)
    out += eta2
    at_endpoint = out == 0.0
    np.log(out, out=out)
    _zero_where(out, at_endpoint)
    out *= 0.5
    out *= u
    out -= u
    return out


@_masked_errors
def _layers(mesh, targets: FloatArray, cols, S: FloatArray, D: FloatArray):
    """(S, D) of every target against the contiguous panel block cols,
    written into the given (m, n_cols) arrays.

    In panel-local coordinates S = -(F(u2) - F(u1)) / 2pi with the
    antiderivative F(u) = u ln sqrt(u^2+eta^2) - u + eta atan(u/eta),
    continuous at eta = 0, and D = (atan(u2/eta) - atan(u1/eta)) / 2pi.
    Each arctan is evaluated once and shared by S and D, and each spent
    array's storage takes the next value, so besides S and D at most four
    (m,n) arrays are live at once.  S and D may be strided views (blocks of
    a Fortran-ordered system), but every ufunc works on contiguous arrays:
    a C-contiguous S holds F(u2) while it is formed, a strided S gets a
    fifth array for it, and each result is copied in once.
    """
    u1, u2, eta = local_coords(mesh, targets, cols)
    F2 = S if S.flags.c_contiguous else np.empty(eta.shape)
    on_axis = eta == 0.0
    # Targets on the panel line (self-panel midpoints in particular) get the
    # principal value 0; without the mask, roundoff-scale eta would make the
    # subtended angle flip to +-pi and D to +-1/2.  |eta| takes F2's storage
    # until F(u2) does.
    on_line = np.abs(eta, out=F2) <= 1e-12 * mesh.panel_rows[6, cols]

    # F(u2) into F2; u2's storage then takes atan(u2/eta), and a fourth
    # array eta*atan(u2/eta), 0 at eta = 0, and next atan(u1/eta).
    _u_log_r_minus_u(u2, eta * eta, out=F2)
    atan2 = _arctan_ratio(u2, eta, out=u2)
    eta_atan = np.multiply(eta, atan2)
    _zero_where(eta_atan, on_axis)
    F2 += eta_atan
    atan1 = _arctan_ratio(u1, eta, out=eta_atan)
    D_block = np.subtract(atan2, atan1, out=atan2)
    D_block /= TWO_PI
    _zero_where(D_block, on_line)
    D[...] = D_block
    eta_atan = np.multiply(eta, atan1, out=atan1)
    _zero_where(eta_atan, on_axis)
    # eta's storage takes F(u1).
    F1 = _u_log_r_minus_u(u1, np.multiply(eta, eta, out=D_block), out=eta)
    F1 += eta_atan
    # -(F(u2) - F(u1)) in one pass: the same bits, except that an exact
    # tie F(u1) == F(u2) gives +0 where the negation gave -0.
    np.subtract(F1, F2, out=F2)
    F2 /= TWO_PI
    if F2 is not S:
        S[...] = F2


@_masked_errors
def _double_layer(mesh, targets: FloatArray, cols, *D: FloatArray):
    """D alone, with ``_layers``' arithmetic for D, so with its bits.

    Written into the given arrays, each (m, k), which take the block's
    panel columns in turn: the first the first k, the next the next.
    """
    u1, u2, eta = local_coords(mesh, targets, cols)
    D_block = _arctan_ratio(u2, eta, out=u2)
    D_block -= _arctan_ratio(u1, eta, out=u1)
    D_block /= TWO_PI
    _zero_where(D_block, np.abs(eta, out=eta) <= 1e-12 * mesh.panel_rows[6, cols])
    start = 0
    for out in D:
        out[...] = D_block[:, start:start + out.shape[1]]
        start += out.shape[1]


def row_blocks(m: int, n: int) -> list[slice]:
    """The one split of m target rows against n panels: the fewest
    near-equal blocks, in order, of at most ``PAIR_BUDGET`` pairs and at
    least two rows, unless m == 1; none if m == 0.

    Two rows is the floor that ``influence_gradients`` needs for its bits,
    so a budget under three rows can give blocks of three.
    """
    per_block = max(2, PAIR_BUDGET // n)
    n_blocks = min(-(-m // per_block), max(1, m // 2))
    return [slice(i * m // n_blocks, (i + 1) * m // n_blocks) for i in range(n_blocks)]


def _by_row_blocks(kernel, mesh, targets: FloatArray, cols, *out: FloatArray):
    """``kernel`` over ``row_blocks`` of the targets against the panels
    cols, each block written into its rows of ``out``."""
    for rows in row_blocks(len(targets), cols.stop - cols.start):
        kernel(mesh, targets[rows], cols, *(o[rows] for o in out))


def wall_double_layer(w: int) -> FloatArray:
    """D of the 3w wall midpoints against the 3w wall panels, a new array.

    Rows and columns run bottom, right, left, as in ``geometry.wall_mesh``.
    The walls never move, and D[i,j] depends on target i and panel j
    alone, so this block has the bits of every mesh's wall x wall block.
    It is filled in row blocks, as every other block of D is.
    """
    walls = wall_mesh(w)
    D = np.empty((3 * w, 3 * w))
    _by_row_blocks(_double_layer, walls, walls.midpoints, slice(0, 3 * w), D)
    return D


def influence_matrices(mesh, targets: FloatArray, collocation=None):
    """Single- and double-layer panel integrals for all (target, panel) pairs.

    Returns (S, D), C-ordered, of shape (m, n):
      S[i,j] = int_panel_j G(x_i, y) ds(y)
      D[i,j] = int_panel_j dG/dn_y(x_i, y) ds(y)   (principal value on-panel)

    ``collocation=(A, D_surface)`` is the solver's mode, for targets that
    are ``mesh.midpoints``.  It returns nothing and writes only the blocks
    that the geometry changes, with the bits of the default mode, into the
    given arrays: S against the surface panels into A's surface columns,
    D of the surface midpoints against the walls into A's wall columns,
    and D against the surface panels into D_surface.  A is (n, n) and
    D_surface (n, n_surface), and either may be a strided view.  The walls
    carry zero flux, so S against them is never formed.  A's wall x wall
    entries are not written: that block never changes, and ``bem`` keeps
    it finished.  The surface rows meet all 3w wall panels at once, on
    ``geometry.wall_mesh``, whose panel rows have this mesh's wall bits.

    Every kernel runs over ``row_blocks`` of the targets, written in place.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    n, w, sl = mesh.n_panels, mesh.wall_panels_per_side, mesh.surface_slice
    if collocation is None:
        S = np.empty((len(targets), n))
        D = np.empty((len(targets), n))
        _by_row_blocks(_layers, mesh, targets, slice(0, n), S, D)
        return S, D
    A, D_surface = collocation
    _by_row_blocks(_layers, mesh, targets, sl, A[:, sl], D_surface)
    # The wall mesh's panels run bottom, right, left: A's columns before
    # and after the surface's.
    _by_row_blocks(_double_layer, wall_mesh(w), targets[sl], slice(0, 3 * w),
                   A[sl, :sl.start], A[sl, sl.stop:])
    return None


def _sum_over_panels(products: FloatArray) -> FloatArray:
    """Column sums of (n, m) products, each added row by row from the
    first, in the order ``influence_gradients`` explains."""
    if products.shape[1] == 1:
        return np.add.accumulate(products[:, 0])[-1:]
    return np.add.reduce(products, axis=0)


@_masked_errors
def _contracted_gradients(mesh, targets: FloatArray, surface_fluxes: FloatArray,
                          values: FloatArray, out: FloatArray):
    """``influence_gradients`` of one block of targets, written into out.

    The double layer's components come first, while u1, u2 and eta are
    intact; the logs and arctangents of the single layer's then take the
    storage of the arrays they have spent.  The single layer is formed on
    the surface rows of the panel-major arrays only: the walls' flux is
    zero, so each of their products would be an exact +-0.
    """
    u1, u2, eta = local_coords(mesh, targets, panel_major=True)
    eta2 = eta * eta
    r1sq = u1 * u1
    r1sq += eta2
    r2sq = u2 * u2
    r2sq += eta2
    del eta2
    if r1sq.min() < 1e-28 or r2sq.min() < 1e-28:
        raise GeometryError("influence_gradients: target coincides with a panel endpoint")
    panels = mesh.panel_rows[:, :, None]
    tangents, neg_normals = panels[2:4], panels[4:6]
    values = values[:, None]
    # grad of int dG/dn ds, from d/dx atan(u/eta) = (eta*grad u - u*grad eta)/r^2
    # with grad u = -t, grad eta = n; u*n enters as -(u*(-n)), bit for bit.
    for c, (neg_t, neg_n) in enumerate(zip(-tangents, neg_normals)):
        base = eta * neg_t
        term2 = base + u2 * neg_n
        term2 /= r2sq
        term1 = np.add(base, u1 * neg_n, out=base)
        term1 /= r1sq
        term2 -= term1
        term2 /= TWO_PI
        term2 *= values
        out[:, c] = _sum_over_panels(term2)
        del base, term1, term2
    # grad of int G ds = -(1/2pi) [ t*(-(1/2)ln r^2) + n*atan(u/eta) ] between
    # limits; the two negations ride, exactly, on -0.5 and -TWO_PI.
    sl = mesh.surface_slice
    neg_dlog = np.log(r2sq[sl], out=r2sq[sl])
    neg_dlog -= np.log(r1sq[sl], out=r1sq[sl])
    neg_dlog *= -0.5
    eta = eta[sl]
    dang = _arctan_ratio(u2[sl], eta, out=u2[sl])
    dang -= _arctan_ratio(u1[sl], eta, out=u1[sl])
    # eta == 0 only for collinear off-panel targets; they subtend zero angle.
    _zero_where(dang, eta == 0.0)
    del u1, r1sq, eta
    fluxes = surface_fluxes[:, None]
    for c, (t, neg_n) in enumerate(zip(tangents[:, sl], neg_normals[:, sl])):
        gs = neg_dlog * t
        gs -= dang * neg_n
        gs /= -TWO_PI
        gs *= fluxes
        out[:, c] = _sum_over_panels(gs) - out[:, c]


def influence_gradients(mesh, targets: FloatArray, surface_fluxes: FloatArray,
                        values: FloatArray) -> FloatArray:
    """Gradient (w.r.t. target) of S @ q - D @ values, shape (m, 2).

    S and D are ``influence_matrices``' integrals, values (n,) panel
    values, and q the panel fluxes: ``surface_fluxes`` (n_surface,) on the
    surface panels and zero on the walls, as every solve gives them.
    Targets must be off every panel (interior evaluation only).  Each
    component of grad S and grad D is contracted as it is formed, so no
    (m, n, 2) array exists.  The targets run in ``row_blocks``, of two
    targets or more.  In a block each component is an (n, m_block) array,
    multiplied in place by its density column and summed by
    ``np.add.reduce(..., axis=0)``, which adds the rows in turn, left to
    right: the order and rounding of
    ``np.einsum("mnj,n->mj", grad, density)``, so the bits are einsum's.
    A one-target block would make the reduction contiguous, which numpy
    sums pairwise, so a lone target (m == 1) is summed by
    ``np.add.accumulate`` instead.  The single layer's sum runs over the
    surface panels alone, since a wall's product is an exact +-0.  One
    difference remains: the sum starts from the first product, einsum from
    +0, so a component whose every product is zero may give -0 where
    einsum gives +0.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    sl = mesh.surface_slice
    surface_fluxes = np.asarray(surface_fluxes, dtype=np.float64)
    if surface_fluxes.shape != (sl.stop - sl.start,):
        raise ValueError(f"influence_gradients: {surface_fluxes.shape} fluxes given, "
                         f"one per surface panel ({sl.stop - sl.start}) expected")
    gradients = np.empty((len(targets), 2))
    for rows in row_blocks(len(targets), mesh.n_panels):
        _contracted_gradients(mesh, targets[rows], surface_fluxes, values, gradients[rows])
    return gradients
