"""Shared numerics: dense solves and Laplace panel integrals.

The 2D Laplace free-space kernel is G(x,y) = -(1/2pi) ln|x-y|.  All panel
integrals below are closed-form for straight panels with constant density,
so assembly needs no near-singular quadrature.
"""

from __future__ import annotations

import functools
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
    them, one per row."""

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

    The LAPACK calls of ``scipy.linalg.lu_factor``/``lu_solve``, with their
    defaults (dgetrf factors a Fortran-ordered copy), so the bits are theirs.
    An exactly zero pivot (dgetrf's ``info > 0``) is singular too; it is the
    only sign of an all-zero matrix, whose pivot floor is itself zero.
    A non-finite entry makes the row-sum norm behind the pivot floor
    non-finite, so that one pass also rejects it, with ValueError, before
    the factorisation.

    A stack of right-hand sides shares the one factorisation and pivot
    check, and each row gets its own ``dgetrs`` call, so each solution has
    the bits of a single-datum solve (one call with all rows as columns
    would not).  The solutions keep the stack's shape.
    """
    A, b = system.matrix, system.rhs
    norm = np.max(np.sum(np.abs(A), axis=1))
    if not np.isfinite(norm):
        raise ValueError("solve_dense: matrix row sums are not finite")
    lu, piv, info = _flapack.dgetrf(A)
    pivot_floor = 1e-13 * norm
    diag = np.abs(np.diag(lu))
    if info > 0 or np.any(diag < pivot_floor):
        raise SingularMatrixError(
            f"pivot {diag.min():.3e} below threshold {pivot_floor:.3e}")
    x = np.empty_like(b)
    for row, rhs in zip(np.atleast_2d(x), np.atleast_2d(b)):
        row[:] = _flapack.dgetrs(lu, piv, rhs)[0]
    return x


def _local_coords(mesh, targets, cols=slice(None)):
    """Panel-local coordinates of targets: (xi along tangent from a, eta along normal).

    Shapes: targets (m,2), the n panels of the contiguous block cols of the
    mesh; returns (m,n) arrays u1, u2, eta with u1 = -xi, u2 = length - xi
    (endpoint offsets from the foot point).
    Built from x/y component arrays, so no (m,n,2) temporary is formed; the
    components are copied out of their (k,2) arrays once, so that every
    (m,n) pass reads contiguous rows.
    """
    px, py = targets.T.copy()
    ax, ay = mesh.a[cols].T.copy()
    tx, ty = mesh.tangents[cols].T.copy()
    nx, ny = mesh.normals[cols].T.copy()
    rx = px[:, None] - ax
    ry = py[:, None] - ay
    xi = rx * tx
    xi += ry * ty
    eta = np.multiply(rx, nx, out=rx)
    ry *= ny
    eta += ry
    del ry                  # u2 can then take its storage
    u2 = np.subtract(mesh.lengths[cols], xi)
    return np.negative(xi, out=xi), u2, eta


def _arctan_ratio(u: FloatArray, eta: FloatArray, out=None) -> FloatArray:
    """atan(u/eta), +-pi/2 or nan where eta == 0 (callers mask those)."""
    # Plain arctan of the ratio: arctan2 would wrap to +-pi for eta < 0
    # (targets on the interior side) and corrupt the subtended angle.
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.divide(u, eta, out=out)
    return np.arctan(out, out=out)


def _u_log_r_minus_u(u: FloatArray, eta2: FloatArray, out: FloatArray) -> FloatArray:
    """u ln sqrt(u^2 + eta^2) - u into out, with ln r taken as 0 at r = 0."""
    np.multiply(u, u, out=out)
    out += eta2
    at_endpoint = out == 0.0
    with np.errstate(divide="ignore"):
        np.log(out, out=out)
    out[at_endpoint] = 0.0
    out *= 0.5
    out *= u
    out -= u
    return out


def _layers(mesh, targets: FloatArray, cols=slice(None)):
    """(S, D) of every target against the contiguous panel block cols.

    In panel-local coordinates S = -(F(u2) - F(u1)) / 2pi with the
    antiderivative F(u) = u ln sqrt(u^2+eta^2) - u + eta atan(u/eta),
    continuous at eta = 0, and D = (atan(u2/eta) - atan(u1/eta)) / 2pi.
    Each arctan is evaluated once and shared by S and D, and each spent
    array's storage takes the next value, so at most six (m,n) arrays are
    live at once.
    """
    u1, u2, eta = _local_coords(mesh, targets, cols)
    on_axis = eta == 0.0
    eta2 = eta * eta

    # F(u2) into S; u2's storage then takes eta*atan(u2/eta), 0 at eta = 0,
    # and next atan(u1/eta).
    D = _arctan_ratio(u2, eta)
    S = _u_log_r_minus_u(u2, eta2, out=np.empty_like(eta))
    eta_atan = np.multiply(eta, D, out=u2)
    eta_atan[on_axis] = 0.0
    S += eta_atan
    atan1 = _arctan_ratio(u1, eta, out=u2)
    D -= atan1
    eta_atan = np.multiply(eta, atan1, out=atan1)
    eta_atan[on_axis] = 0.0
    # Targets on the panel line (self-panel midpoints in particular) get the
    # principal value 0; without the mask, roundoff-scale eta would make the
    # subtended angle flip to +-pi and D to +-1/2.  eta's storage then takes
    # F(u1).
    on_line = np.abs(eta, out=eta) <= 1e-12 * mesh.lengths[cols]
    F1 = _u_log_r_minus_u(u1, eta2, out=eta)
    F1 += eta_atan
    # -(F(u2) - F(u1)) in one pass: the same bits, except that an exact
    # tie F(u1) == F(u2) gives +0 where the negation gave -0.
    np.subtract(F1, S, out=S)
    S /= TWO_PI
    D /= TWO_PI
    D[on_line] = 0.0
    return S, D


def _double_layer(mesh, targets: FloatArray, cols=slice(None)) -> FloatArray:
    """D alone, with ``_layers``' arithmetic for D, so with its bits."""
    u1, u2, eta = _local_coords(mesh, targets, cols)
    D = _arctan_ratio(u2, eta)
    D -= _arctan_ratio(u1, eta, out=u2)
    D /= TWO_PI
    D[np.abs(eta, out=eta) <= 1e-12 * mesh.lengths[cols]] = 0.0
    return D


@functools.lru_cache(maxsize=8)
def _wall_double_layer(w: int) -> FloatArray:
    """Read-only D of the 3w wall midpoints against the 3w wall panels.

    Rows and columns run bottom, right, left, as in ``geometry.wall_mesh``.
    The walls never move, and D[i,j] depends on target i and panel j
    alone, so this block has the bits of every mesh's wall x wall block.
    """
    walls = wall_mesh(w)
    D = _double_layer(walls, walls.midpoints)
    D.flags.writeable = False
    return D


def influence_matrices(mesh, targets: FloatArray, collocation: bool = False):
    """Single- and double-layer panel integrals for all (target, panel) pairs.

    Returns (S, D) of shape (m, n):
      S[i,j] = int_panel_j G(x_i, y) ds(y)
      D[i,j] = int_panel_j dG/dn_y(x_i, y) ds(y)   (principal value on-panel)

    ``collocation=True`` is for targets that are ``mesh.midpoints``, where
    the solver needs S only against the surface panels (the walls carry
    zero flux).  S then has shape (n, n_surface).  D is still (n, n), with
    the same bits, but its wall x wall block comes from a per-wall-count
    cache, and only surface midpoints are evaluated against wall panels.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if not collocation:
        return _layers(mesh, targets)
    n, w, sl = mesh.n_panels, mesh.wall_panels_per_side, mesh.surface_slice
    S, D_surface = _layers(mesh, targets, sl)
    D = np.empty((n, n))
    D[:, sl] = D_surface
    D_walls = _wall_double_layer(w)
    # The walls as two contiguous blocks, bottom and right, then left, each
    # with its rows and columns in the cached block.
    blocks = ((slice(0, 2 * w), slice(0, 2 * w)), (mesh.left_slice, slice(2 * w, None)))
    for cols, wall_cols in blocks:
        D[sl, cols] = _double_layer(mesh, targets[sl], cols)
        for rows, wall_rows in blocks:
            D[rows, cols] = D_walls[wall_rows, wall_cols]
    return S, D


def influence_gradients(mesh, targets: FloatArray):
    """Gradients (w.r.t. target) of the single/double layer panel integrals.

    Returns (gradS, gradD), each of shape (m, n, 2).  Targets must be off
    every panel (interior evaluation only).
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    u1, u2, eta = _local_coords(mesh, targets)
    eta2 = eta * eta
    r1sq = u1 * u1
    r1sq += eta2
    r2sq = u2 * u2
    r2sq += eta2
    if r1sq.min() < 1e-28 or r2sq.min() < 1e-28:
        raise GeometryError("influence_gradients: target coincides with a panel endpoint")
    # grad of int G ds = -(1/2pi) [ t*(-(1/2)ln r^2) + n*atan(u/eta) ] between limits
    neg_dlog = np.log(r2sq)
    neg_dlog -= np.log(r1sq)
    neg_dlog *= 0.5
    np.negative(neg_dlog, out=neg_dlog)
    dang = _arctan_ratio(u2, eta)
    dang -= _arctan_ratio(u1, eta)
    # eta == 0 only for collinear off-panel targets; they subtend zero angle.
    dang[eta == 0.0] = 0.0
    # grad of int dG/dn ds, from d/dx atan(u/eta) = (eta*grad u - u*grad eta)/r^2
    # with grad u = -t, grad eta = n.  Each component is formed in
    # contiguous (m,n) arrays and written into the (m,n,2) output once.
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
