"""Moving-domain geometry: interface polyline, boundary panels, polygon measures.

The fluid occupies the region bounded by the walls x1=0, x1=1, x2=0 and a
moving free surface pinned at the two top corners (0,1) and (1,1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import BottomContactError, GeometryError, SelfIntersectionError

FloatArray = NDArray[np.float64]

CORNER_LEFT = (0.0, 1.0)
CORNER_RIGHT = (1.0, 1.0)

# Free-surface panels carry prescribed potential values; wall panels carry
# prescribed (zero) normal flux.
BC_DIRICHLET_SURFACE = 0
BC_NEUMANN_WALL = 1

_PIN_TOL = 1e-12
_WALL_CLAMP = 1e-10


@dataclass(frozen=True)
class InterfaceCurve:
    """Ordered marker polyline for the free surface, pinned at both ends.

    ``alpha`` is the Lagrangian label in [0,1]; ``x`` has shape (n, 2).
    Markers run left corner -> right corner.
    """

    alpha: FloatArray
    x: FloatArray

    def __post_init__(self):
        alpha = np.ascontiguousarray(self.alpha, dtype=np.float64)
        x = np.ascontiguousarray(self.x, dtype=np.float64)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "x", x)
        if x.ndim != 2 or x.shape[1] != 2 or x.shape[0] != alpha.shape[0]:
            raise GeometryError("markers must be (n,2) with matching alpha")
        if alpha.shape[0] < 2:
            raise GeometryError("need at least 2 markers")
        if not (np.isfinite(alpha).all() and np.isfinite(x).all()):
            raise GeometryError("non-finite marker data")
        if np.any(np.diff(alpha) <= 0.0) or abs(alpha[0]) > _PIN_TOL or abs(alpha[-1] - 1.0) > _PIN_TOL:
            raise GeometryError("alpha must increase strictly from 0 to 1")
        if not (abs(x[0, 0]) <= _PIN_TOL and abs(x[0, 1] - 1.0) <= _PIN_TOL):
            raise GeometryError(f"left endpoint not pinned at {CORNER_LEFT}: {x[0]}")
        if not (abs(x[-1, 0] - 1.0) <= _PIN_TOL and abs(x[-1, 1] - 1.0) <= _PIN_TOL):
            raise GeometryError(f"right endpoint not pinned at {CORNER_RIGHT}: {x[-1]}")

    @property
    def n_markers(self) -> int:
        return self.x.shape[0]

    def segment_lengths(self) -> FloatArray:
        return np.linalg.norm(np.diff(self.x, axis=0), axis=1)

    def arclength(self) -> FloatArray:
        """Cumulative arclength coordinate per marker (starts at 0)."""
        s = np.zeros(self.n_markers)
        s[1:] = np.cumsum(self.segment_lengths())
        return s

    def turning_curvature(self) -> FloatArray:
        """Discrete curvature at interior markers: turning angle / mean spacing."""
        d = np.diff(self.x, axis=0)
        ell = np.linalg.norm(d, axis=1)
        t = d / np.maximum(ell, 1e-300)[:, None]
        cross = t[:-1, 0] * t[1:, 1] - t[:-1, 1] * t[1:, 0]
        dot = np.einsum("ij,ij->i", t[:-1], t[1:])
        theta = np.arctan2(cross, dot)
        return np.abs(theta) / (0.5 * (ell[:-1] + ell[1:]))


def flat_interface(n_markers: int) -> InterfaceCurve:
    """Flat surface x2=1 with uniformly spaced markers."""
    alpha = np.linspace(0.0, 1.0, n_markers)
    x = np.column_stack([alpha, np.ones(n_markers)])
    return InterfaceCurve(alpha, x)


def self_intersects(curve: InterfaceCurve) -> bool:
    """True iff any two non-adjacent segments of the polyline meet.

    Vectorised over all n^2/2 non-adjacent segment pairs at once, so time
    and memory are O(n^2) in the marker count.  A pair meets when its
    crossing parameters t, s both lie in the closed interval [0, 1]; a
    parallel pair meets only when it is collinear and its spans overlap
    along the dominant axis of the first segment.
    """
    x = curve.x
    n_seg = x.shape[0] - 1
    i, j = np.triu_indices(n_seg, 2)
    d = np.diff(x, axis=0)
    ell = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
    d1x, d1y = d[i, 0], d[i, 1]
    d2x, d2y = d[j, 0], d[j, 1]
    rx = x[j, 0] - x[i, 0]
    ry = x[j, 1] - x[i, 1]
    denom = d1x * d2y - d1y * d2x
    num_t = rx * d2y - ry * d2x
    num_s = rx * d1y - ry * d1x
    parallel = np.abs(denom) < 1e-14 * (ell[i] * ell[j] + 1e-300)

    with np.errstate(divide="ignore", invalid="ignore"):
        t = num_t / denom
        s = num_s / denom
    crosses = ~parallel & (0.0 <= t) & (t <= 1.0) & (0.0 <= s) & (s <= 1.0)

    # Parallel pairs: overlap only if collinear with overlapping spans.
    k = np.flatnonzero(parallel)
    ik, jk = i[k], j[k]
    norm_r = np.sqrt(rx[k] * rx[k] + ry[k] * ry[k])
    collinear = np.abs(num_t[k]) <= 1e-12 * (ell[ik] + norm_r + 1e-300)
    axis = (np.abs(d1x[k]) < np.abs(d1y[k])).astype(np.intp)
    a1, a2 = x[ik, axis], x[ik + 1, axis]
    b1, b2 = x[jk, axis], x[jk + 1, axis]
    lo = np.maximum(np.minimum(a1, a2), np.minimum(b1, b2))
    hi = np.minimum(np.maximum(a1, a2), np.maximum(b1, b2))
    overlaps = collinear & (lo <= hi)
    return bool(crosses.any() or overlaps.any())


def side_wall_crossing(curve: InterfaceCurve) -> int | None:
    """First marker outside the strip 0 <= x1 <= 1 beyond roundoff, or None.

    A surface that leaves the strip has crossed a side wall of the box, so
    both the mesh builder and the breakdown detector treat it as a
    self-intersection of the closed boundary.
    """
    x1 = curve.x[:, 0]
    outside = np.flatnonzero((x1 < -_WALL_CLAMP) | (x1 > 1.0 + _WALL_CLAMP))
    return int(outside[0]) if outside.size else None


@dataclass(frozen=True)
class BoundaryMesh:
    """Closed, counterclockwise panel decomposition of the fluid boundary.

    Panel order: bottom wall, right wall, free surface (reversed marker
    order), left wall. Outward normals, midpoint collocation.
    """

    a: FloatArray          # (n,2) panel start points
    b: FloatArray          # (n,2) panel end points
    bc_kind: NDArray[np.int64]
    n_markers: int
    wall_panels_per_side: int

    midpoints: FloatArray = field(init=False)
    tangents: FloatArray = field(init=False)
    normals: FloatArray = field(init=False)
    lengths: FloatArray = field(init=False)

    def __post_init__(self):
        d = self.b - self.a
        lengths = np.linalg.norm(d, axis=1)
        if np.any(lengths <= 1e-14):
            raise GeometryError("degenerate (zero-length) panel")
        tangents = d / lengths[:, None]
        normals = np.column_stack([tangents[:, 1], -tangents[:, 0]])
        object.__setattr__(self, "midpoints", 0.5 * (self.a + self.b))
        object.__setattr__(self, "tangents", tangents)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "lengths", lengths)

    @property
    def n_panels(self) -> int:
        return self.a.shape[0]

    @property
    def surface_slice(self) -> slice:
        w = self.wall_panels_per_side
        return slice(2 * w, 2 * w + self.n_markers - 1)

    @property
    def surface_index(self) -> FloatArray:
        return np.arange(self.n_panels)[self.surface_slice]

    @property
    def wall_index(self) -> FloatArray:
        mask = self.bc_kind == BC_NEUMANN_WALL
        return np.arange(self.n_panels)[mask]

    @property
    def bottom_slice(self) -> slice:
        return slice(0, self.wall_panels_per_side)

    @property
    def right_slice(self) -> slice:
        w = self.wall_panels_per_side
        return slice(w, 2 * w)

    @property
    def left_slice(self) -> slice:
        w = self.wall_panels_per_side
        return slice(2 * w + self.n_markers - 1, 3 * w + self.n_markers - 1)

    def surface_panel_values(self, marker_values: FloatArray) -> FloatArray:
        """Marker data -> surface-panel midpoint values, in mesh panel order."""
        mv = np.asarray(marker_values, dtype=np.float64)
        mid = 0.5 * (mv[:-1] + mv[1:])     # marker-order panels
        return mid[::-1]                   # mesh traverses the surface reversed

    def marker_panel_from_surface(self, surface_panel_values: FloatArray) -> FloatArray:
        """Surface-panel data in mesh order -> marker-order panel data."""
        return np.asarray(surface_panel_values, dtype=np.float64)[::-1]


def build_boundary_mesh(curve: InterfaceCurve, wall_panels_per_side: int) -> BoundaryMesh:
    """Panelize the closed boundary: walls uniformly subdivided, surface from markers.

    Raises SelfIntersectionError for a non-simple curve (including a curve
    that leaves the strip 0 <= x1 <= 1 beyond roundoff) and GeometryError
    for bottom contact.
    """
    if wall_panels_per_side < 4:
        raise ValueError("wall_panels_per_side must be >= 4")
    if side_wall_crossing(curve) is not None:
        raise SelfIntersectionError("interface crosses a side wall (x1 outside [0,1])")
    x = curve.x.copy()
    np.clip(x[:, 0], 0.0, 1.0, out=x[:, 0])
    if np.any(x[:, 1] <= 0.0):
        raise BottomContactError("interface touches the bottom wall (x2 <= 0)")
    if self_intersects(curve):
        raise SelfIntersectionError("interface polyline self-intersects")

    w = wall_panels_per_side
    tb = np.linspace(0.0, 1.0, w + 1)
    # Side walls are graded quadratically toward the top corners, where the
    # Dirichlet surface meets the Neumann walls: with uniform walls the
    # collocation error at those corners is mesh-independent, with grading
    # it decays at better than first order.
    side = 1.0 - (1.0 - tb) ** 2
    bottom_a = np.column_stack([tb[:-1], np.zeros(w)])
    bottom_b = np.column_stack([tb[1:], np.zeros(w)])
    right_a = np.column_stack([np.ones(w), side[:-1]])
    right_b = np.column_stack([np.ones(w), side[1:]])
    surf = x[::-1]
    surf_a, surf_b = surf[:-1], surf[1:]
    left_down = side[::-1]
    left_a = np.column_stack([np.zeros(w), left_down[:-1]])
    left_b = np.column_stack([np.zeros(w), left_down[1:]])

    a = np.vstack([bottom_a, right_a, surf_a, left_a])
    b = np.vstack([bottom_b, right_b, surf_b, left_b])
    n_surf = surf_a.shape[0]
    bc = np.full(a.shape[0], BC_NEUMANN_WALL, dtype=np.int64)
    bc[2 * w:2 * w + n_surf] = BC_DIRICHLET_SURFACE
    mesh = BoundaryMesh(a=a, b=b, bc_kind=bc, n_markers=curve.n_markers,
                        wall_panels_per_side=w)
    if polygon_area(mesh) <= 0.0:
        raise GeometryError("boundary polygon is not positively oriented")
    return mesh


def polygon_area(mesh: BoundaryMesh) -> float:
    """Shoelace area of the closed panel polygon."""
    a, b = mesh.a, mesh.b
    return float(0.5 * np.sum(a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1]))


def point_segment_distance(points: FloatArray, a: FloatArray, b: FloatArray) -> FloatArray:
    """Distances from each point (m,2) to each segment (n,2)->(n,2); (m,n)."""
    pts = np.atleast_2d(points)
    dx = b[:, 0] - a[:, 0]
    dy = b[:, 1] - a[:, 1]
    # Clamped foot-point parameter t of each point on each segment's line.
    t = np.subtract.outer(pts[:, 0], a[:, 0])
    t *= dx
    t += np.subtract.outer(pts[:, 1], a[:, 1]) * dy
    t /= np.maximum(dx * dx + dy * dy, 1e-300)
    np.clip(t, 0.0, 1.0, out=t)
    # Offset from the foot point a + t*d, one component at a time.
    ex = t * dx
    ex += a[:, 0]
    np.subtract(pts[:, 0][:, None], ex, out=ex)
    ey = np.multiply(t, dy, out=t)
    ey += a[:, 1]
    np.subtract(pts[:, 1][:, None], ey, out=ey)
    ex *= ex
    ey *= ey
    ex += ey
    return np.sqrt(ex, out=ex)


def points_inside(mesh: BoundaryMesh, points: FloatArray) -> NDArray[np.bool_]:
    """Crossing-number inside test against the closed panel polygon."""
    pts = np.atleast_2d(points)
    a, b = mesh.a, mesh.b
    ax, ay = a[:, 0][None, :], a[:, 1][None, :]
    bx, by = b[:, 0][None, :], b[:, 1][None, :]
    px, py = pts[:, 0][:, None], pts[:, 1][:, None]
    straddles = (ay > py) != (by > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = ax + (py - ay) * (bx - ax) / (by - ay)
    hits = straddles & (px < x_cross)
    return np.sum(hits, axis=1) % 2 == 1
