"""Laplace solver on the panelized fluid boundary of the fixed box.

Direct (Green's identity) collocation at panel midpoints with piecewise-
constant Cauchy data.  The box poses one problem: the potential value is
given on each free-surface panel and its flux solved, while the fixed
walls carry zero flux and their values are solved.  This module owns that
problem: which panels carry flux, the system's layout and its fixed wall
block.  ``kernels`` only integrates over the panel blocks it is given.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import kernels
from .errors import NearBoundaryError
from .geometry import BoundaryMesh, points_inside, wall_mesh
from .kernels import DenseSystem, solve_dense

FloatArray = NDArray[np.float64]


@dataclass(frozen=True)
class CauchyData:
    """Per-panel (value, flux) pair on the whole boundary.

    Each array is (n,), or (k, n) for a stack of k solves, one per row.
    """

    values: FloatArray
    fluxes: FloatArray


@functools.lru_cache(maxsize=8)
def _wall_block(w: int) -> FloatArray:
    """Read-only -(D + I/2) of the 3w walls against themselves: the
    system's fixed block, finished by each solve's operations in their
    order.  Rows and columns run bottom, right, left, as in ``wall_mesh``,
    and D[i,j] depends on target i and panel j alone, so the block has the
    bits of every mesh's wall x wall block."""
    walls = wall_mesh(w)
    block = np.empty((3 * w, 3 * w))
    kernels.double_layer(walls, walls.midpoints, block)
    np.einsum("ii->i", block)[...] += 0.5
    np.negative(block, out=block)
    block.flags.writeable = False
    return block


def solve_mixed_bvp(mesh: BoundaryMesh, surface_potential: FloatArray) -> CauchyData:
    """Cauchy data for given surface values and zero wall flux.

    Collocation equation at panel midpoint i (flat-panel coefficient 1/2):

        sum_j S_ij q_j - sum_j D_ij phi_j - phi_i / 2 = 0

    The unknowns are the surface fluxes and the wall values.  The walls
    carry zero flux, so S is formed against the surface panels only:
    ``kernels.influence_matrices`` writes it into A's surface columns and
    D's surface columns into ``D_surface``, both Fortran-ordered, and
    ``kernels.double_layer`` on ``wall_mesh`` writes D of the surface rows
    against all 3w wall panels into A's wall columns.  The walls never
    move, so their own block is copied in from ``_wall_block`` once
    ``D_surface`` is freed, and its first fill at a wall count reuses those
    pages.  ``solve_dense`` factors the matrix in place: the solve holds
    one (n+1) x (n+1) array and never copies it.

    ``surface_potential`` is one datum (n_surface,) or a stack
    (k, n_surface), one datum per row.  A stack is assembled and factored
    once, and each datum's solution has the bits of its own solve.
    """
    n = mesh.n_panels
    sl = mesh.surface_slice
    phi_s = np.asarray(surface_potential, dtype=np.float64)
    # Fortran order is LAPACK's, so dgetrf factors A without a copy, and
    # the right-hand-side columns in it pick BLAS's column-sweeping gemv.
    A = np.empty((n + 1, n + 1), order="F")
    D_surface = np.empty((n, sl.stop - sl.start), order="F")
    # The walls' columns of A, which are also their rows, each with the
    # matching panels of wall_mesh and _wall_block.  Those run bottom,
    # right, left: in A, bottom and right come before the surface, left after.
    walls = ((slice(0, sl.start), slice(0, sl.start)),
             (slice(sl.stop, n), slice(sl.start, None)))
    kernels.influence_matrices(mesh, mesh.midpoints, sl, (A[:n, sl], D_surface))
    kernels.double_layer(wall_mesh(mesh.wall_panels_per_side), mesh.midpoints[sl],
                         *(A[sl, cols] for cols, _ in walls))
    # D + I/2 on D_surface's surface rows, through a writeable view of its
    # diagonal; the surface rows of the wall values' columns are -D.
    np.einsum("ii->i", D_surface[sl])[...] += 0.5
    for cols, _ in walls:
        np.negative(A[sl, cols], out=A[sl, cols])
    # Each datum gets its own gemv on its row as given, so it sums as a
    # solve of that row alone; one matrix product over the stack would not.
    rhs = np.empty(phi_s.shape[:-1] + (n + 1,))
    for datum, b in zip(np.atleast_2d(phi_s), np.atleast_2d(rhs)):
        b[:n] = D_surface @ datum
    del D_surface                            # at the LU only A is live
    rhs[..., n] = 0.0
    block = _wall_block(mesh.wall_panels_per_side)
    for rows, block_rows in walls:
        for cols, block_cols in walls:
            A[rows, cols] = block[block_rows, block_cols]
    # Exact discrete compatibility: the net boundary flux of a harmonic
    # function vanishes, but midpoint collocation only gets it to truncation
    # error.  A Lagrange multiplier spread over all collocation equations
    # enforces sum(length * flux) = 0 without degrading the solve.
    A[:n, n] = 1.0
    A[n, :n] = 0.0
    A[n, sl] = mesh.lengths[sl]
    A[n, n] = 0.0

    z = solve_dense(DenseSystem(matrix=A, rhs=rhs))[..., :n]

    values = z.copy()
    values[..., sl] = phi_s
    fluxes = np.zeros(z.shape)
    fluxes[..., sl] = z[..., sl]
    return CauchyData(values=values, fluxes=fluxes)


def admissible_interior(mesh: BoundaryMesh, points: FloatArray,
                        near_field_factor: float):
    """Mask of points strictly inside and outside the near-field band.

    The band width is near_field_factor times the length of the closest panel.
    A point's distance to a panel is taken in the panel frame of
    ``kernels.local_coords``: eta is its height above the panel line and
    max(u1, 0) + min(u2, 0) its offset along the line past the nearer end,
    0 beside the panel.  The points run in ``kernels.row_blocks``.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    ok = np.empty(len(pts), dtype=bool)
    for rows in kernels.row_blocks(len(pts), mesh.n_panels):
        block = pts[rows]
        u1, u2, eta = kernels.local_coords(mesh, block)
        along = np.maximum(u1, 0.0, out=u1)
        along += np.minimum(u2, 0.0, out=u2)
        along *= along
        eta *= eta
        eta += along
        dist = np.sqrt(eta, out=eta)
        nearest = np.argmin(dist, axis=1)
        d_min = near_field_factor * mesh.lengths[nearest]
        ok[rows] = points_inside(mesh, block)
        ok[rows] &= dist[np.arange(len(block)), nearest] >= d_min
        del u1, u2, eta, along, dist    # freed before the next block's
    return ok


def eval_interior(mesh: BoundaryMesh, cauchy: CauchyData, points: FloatArray,
                  near_field_factor: float):
    """Representation-formula potential and gradient at interior points.

        phi(x) = sum_j S_j(x) q_j - sum_j D_j(x) phi_j

    S and D are formed in row blocks but kept whole, so that each sum is
    one gemv over the whole matrix.  A gemv per row block would not keep
    the bits: BLAS unrolls over rows, so a row's sum depends on the rows
    it is given with (blocks of 2 to 97 rows changed bits in 4-98% of
    random cases).
    The gradient comes from ``kernels.influence_gradients``, which
    contracts grad S and grad D with q and phi block by block as it forms
    them, so the (m, n, 2) gradient arrays never exist.
    Raises NearBoundaryError if any point is outside the domain or inside
    the near-field exclusion band.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    ok = admissible_interior(mesh, pts, near_field_factor)
    if not ok.all():
        raise NearBoundaryError(f"{np.count_nonzero(~ok)} point(s) outside "
                                "the domain or in the near-field band")
    S, D = kernels.influence_matrices(mesh, pts)
    values = S @ cauchy.fluxes - D @ cauchy.values
    del S, D                    # released before the gradients' arrays
    sl = mesh.surface_slice
    gradients = kernels.influence_gradients(mesh, pts, cauchy.fluxes[sl], cauchy.values, sl)
    return values, gradients
