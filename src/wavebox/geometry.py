"""Moving-domain geometry: interface polyline, boundary panels, polygon measures.

The fluid occupies the region bounded by the walls x1=0, x1=1, x2=0 and a
moving free surface pinned at the two top corners (0,1) and (1,1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import BottomContactError, GeometryError, SelfIntersectionError

FloatArray = NDArray[np.float64]

CORNER_LEFT = (0.0, 1.0)
CORNER_RIGHT = (1.0, 1.0)

_PIN_TOL = 1e-12
_WALL_CLAMP = 1e-10


def row_norms(d: FloatArray) -> FloatArray:
    """Euclidean norm of each row of an (n,2) array.

    ``np.linalg.norm(d, axis=1)`` sums the two squares and takes the root,
    so this gives its bits without its dispatch.
    """
    x, y = d[:, 0], d[:, 1]
    return np.sqrt(x * x + y * y)


def gradient_1d(f: FloatArray, s: FloatArray) -> FloatArray:
    """``np.gradient(f, s)`` for float64 values f on knots s, bit for bit.

    The same arithmetic in the same order: second-order differences inside,
    one-sided at the two ends (``edge_order=1``), and numpy's uniform-knot
    form when every spacing ``np.diff(s)`` is equal.  Needs two or more
    points; it skips numpy's generic per-axis set-up.
    """
    dx = np.diff(s)
    out = np.empty_like(f)
    if (dx == dx[0]).all():
        dx_0 = dx_n = dx[0]
        out[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx_0)
    else:
        dx_0, dx_n = dx[0], dx[-1]
        dx1, dx2 = dx[:-1], dx[1:]
        a = -dx2 / (dx1 * (dx1 + dx2))
        b = (dx2 - dx1) / (dx1 * dx2)
        c = dx1 / (dx2 * (dx1 + dx2))
        out[1:-1] = a * f[:-2] + b * f[1:-1] + c * f[2:]
    out[0] = (f[1] - f[0]) / dx_0
    out[-1] = (f[-1] - f[-2]) / dx_n
    return out


@dataclass(frozen=True)
class InterfaceCurve:
    """Ordered marker polyline for the free surface, pinned at both ends.

    ``x`` has shape (n, 2); markers run left corner -> right corner.  The
    curve owns its segment table, ``segments`` (formed once, read-only), and
    every fact read from it, the marker frame too; x is never mutated.
    """

    x: FloatArray

    def __post_init__(self):
        x = np.ascontiguousarray(self.x, dtype=np.float64)
        object.__setattr__(self, "x", x)
        if not np.isfinite(x).all():
            raise GeometryError("non-finite marker data")
        if not (abs(x[0, 0]) <= _PIN_TOL and abs(x[0, 1] - 1.0) <= _PIN_TOL):
            raise GeometryError(f"left endpoint not pinned at {CORNER_LEFT}: {x[0]}")
        if not (abs(x[-1, 0] - 1.0) <= _PIN_TOL and abs(x[-1, 1] - 1.0) <= _PIN_TOL):
            raise GeometryError(f"right endpoint not pinned at {CORNER_RIGHT}: {x[-1]}")

    @property
    def n_markers(self) -> int:
        return self.x.shape[0]

    @functools.cached_property
    def segments(self) -> tuple[FloatArray, FloatArray]:
        """Segment vectors x[i+1] - x[i], shape (n-1, 2), and their lengths."""
        d = np.diff(self.x, axis=0)
        ell = row_norms(d)
        d.flags.writeable = ell.flags.writeable = False
        return d, ell

    def segment_lengths(self) -> FloatArray:
        return self.segments[1]

    def arclength(self) -> FloatArray:
        """Cumulative arclength coordinate per marker (starts at 0)."""
        return cumulative_arclength(self.segments[1])

    def turning_curvature(self) -> FloatArray:
        """Discrete curvature at interior markers: turning angle / mean spacing."""
        d, ell = self.segments
        t = d / np.maximum(ell, 1e-300)[:, None]
        cross = t[:-1, 0] * t[1:, 1] - t[:-1, 1] * t[1:, 0]
        dot = np.einsum("ij,ij->i", t[:-1], t[1:])
        theta = np.arctan2(cross, dot)
        return np.abs(theta) / (0.5 * (ell[:-1] + ell[1:]))

    def marker_frame(self) -> tuple[FloatArray, FloatArray]:
        """Unit tangents and upward normals at markers, from adjacent segments."""
        d, ell = self.segments
        seg_t = d / ell[:, None]
        t = np.concatenate([seg_t[:1], seg_t[:-1] + seg_t[1:], seg_t[-1:]])
        t /= row_norms(t)[:, None]
        return t, np.column_stack([-t[:, 1], t[:, 0]])   # left of travel = out of the fluid


def cumulative_arclength(lengths: FloatArray) -> FloatArray:
    """Arclength at the nodes of a polyline with these segment lengths, from 0."""
    return np.concatenate([[0.0], np.cumsum(lengths)])


def flat_interface(n_markers: int) -> InterfaceCurve:
    """Flat surface x2=1 with uniformly spaced markers."""
    return InterfaceCurve(np.column_stack([np.linspace(0.0, 1.0, n_markers),
                                           np.ones(n_markers)]))


def _monotone_margin(x: FloatArray) -> float:
    """x-increment delta above which no segment pair can pass the pair test.

    ``delta**2 = 4e-12 E + 4e-14 E**2``, where E is the sum of the x- and
    y-extents of the markers; ``self_intersects`` gives the derivation.
    """
    span = x.max(axis=0) - x.min(axis=0)
    extent = float(span[0] + span[1])
    return math.sqrt(4e-12 * extent + 4e-14 * extent * extent)


def self_intersects(curve: InterfaceCurve) -> bool:
    """True iff any two non-adjacent segments of the polyline meet.

    A curve whose x-increments all exceed ``_monotone_margin`` returns False
    in O(n).  Every other curve goes to the pair test, vectorised over all
    n^2/2 non-adjacent segment pairs at once, so time and memory are O(n^2)
    in the marker count.  A pair meets when its crossing parameters t, s
    both lie in the closed interval [0, 1]; a parallel pair meets only when
    it is collinear and its spans overlap along the dominant axis of the
    first segment.

    Why the short-cut is sound.  Let E bound every segment length and
    every marker distance (the sum of the two extents does), and let every
    x-increment exceed delta.  A pair i, j >= i + 2 then lies at least
    x[i+2] - x[i+1] > delta apart in x, so it cannot meet, and the pair
    test agrees branch by branch:

    * Parallel pair, x-dominant first segment: the overlap test compares
      stored coordinates, and x[j] <= x[i+1] is false.
    * Parallel pair, y-dominant first segment d1, with overlapping y-spans
      (else the overlap test fails): points at equal height on the two
      segments lie more than delta apart in x.  The second segment d2 is
      parallel to the first, so it is steep too: |d2_y| > d2_x > delta, up
      to a relative 1e-14 that the margin below absorbs.
      Hence ``|num_t| = |r x d2| >= delta |d2_y| - |d1 x d2| > delta**2 -
      1e-14 E**2``, while the collinear test accepts only ``|num_t| <=
      1e-12 (|d1| + |r|) <= 2e-12 E``.  delta**2 is at least twice the sum
      of those two terms; the margin covers the O(1e-16 E**2) rounding of
      num_t.
    * Crossing pair: in exact arithmetic the meeting point of the two lines
      lies outside one of the segments.  In floating point the pair test
      can still accept a nearly parallel pair on nearly one line, with
      ``|d1 x d2|`` within about two orders of the 1e-14 cutoff, where
      cancellation sets t and s; a tent of two straight ramps is such a
      curve.  There the short-cut returns the exact answer, False.
    """
    x = curve.x
    d, ell = curve.segments
    if d[:, 0].min() > _monotone_margin(x):
        return False
    i, j = np.triu_indices(d.shape[0], 2)
    d1x, d1y = d[i, 0], d[i, 1]
    d2x, d2y = d[j, 0], d[j, 1]
    rx = x[j, 0] - x[i, 0]
    ry = x[j, 1] - x[i, 1]
    denom = d1x * d2y - d1y * d2x
    num_t = rx * d2y - ry * d2x
    num_s = rx * d1y - ry * d1x
    parallel = np.abs(denom) < 1e-14 * (ell[i] * ell[j] + 1e-300)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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

    ``panel_rows`` is the one store of the panel starts, tangents, normals
    and lengths, and the one table the panel kernels read: a read-only,
    C-contiguous (7, n) array whose rows are a_x, a_y, t_x, t_y, -n_x,
    -n_y and the length, so a block of panels is a slice of contiguous
    rows.  ``a``, ``tangents`` and ``lengths`` are views of it, and
    ``normals`` is its rows 4-5 negated, exactly.
    """

    a: FloatArray          # (n,2) panel start points
    b: FloatArray          # (n,2) panel end points
    n_markers: int
    wall_panels_per_side: int

    midpoints: FloatArray = field(init=False)
    panel_rows: FloatArray = field(init=False)

    def __post_init__(self):
        rows = np.empty((7, len(self.a)))
        rows[0:2] = self.a.T
        np.subtract(self.b.T, rows[0:2], out=rows[2:4])
        rows[6] = row_norms(rows[2:4].T)
        if np.any(rows[6] <= 1e-14):
            raise GeometryError("degenerate (zero-length) panel")
        rows[2:4] /= rows[6]
        np.negative(rows[3], out=rows[4])
        rows[5] = rows[2]
        rows.flags.writeable = False
        object.__setattr__(self, "midpoints", 0.5 * (self.a + self.b))
        object.__setattr__(self, "a", rows[0:2].T)
        object.__setattr__(self, "panel_rows", rows)

    @property
    def tangents(self) -> FloatArray:
        return self.panel_rows[2:4].T

    @property
    def normals(self) -> FloatArray:
        return -self.panel_rows[4:6].T

    @property
    def lengths(self) -> FloatArray:
        return self.panel_rows[6]

    @property
    def n_panels(self) -> int:
        return self.a.shape[0]

    @property
    def surface_slice(self) -> slice:
        w = self.wall_panels_per_side
        return slice(2 * w, 2 * w + self.n_markers - 1)

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


@functools.lru_cache(maxsize=8)
def wall_mesh(w: int) -> BoundaryMesh:
    """The 3w wall panels alone (bottom, right, left), one shared mesh per w.

    The walls never move, so every mesh with w panels per side copies its
    wall ends from this one, the mesh of a one-marker curve, which has no
    surface panel.  Each panel's midpoint and ``panel_rows`` column come
    from its own ends, so they have the bits of the same wall panel in
    every mesh.  Callers share it, so every array of it is read-only.

    The bottom wall is uniform.  Side walls are graded quadratically toward
    the top corners, where the Dirichlet surface meets the Neumann walls:
    with uniform walls the collocation error at those corners is
    mesh-independent, with grading it decays at better than first order.
    """
    tb = np.linspace(0.0, 1.0, w + 1)
    side = 1.0 - (1.0 - tb) ** 2
    left_down = side[::-1]
    a = np.zeros((3 * w, 2))
    b = np.zeros((3 * w, 2))
    a[:w, 0], b[:w, 0] = tb[:-1], tb[1:]
    a[w:2 * w, 0] = b[w:2 * w, 0] = 1.0
    a[w:2 * w, 1], b[w:2 * w, 1] = side[:-1], side[1:]
    a[2 * w:, 1], b[2 * w:, 1] = left_down[:-1], left_down[1:]
    walls = BoundaryMesh(a=a, b=b, n_markers=1, wall_panels_per_side=w)
    walls.b.flags.writeable = False
    walls.midpoints.flags.writeable = False
    return walls


def build_boundary_mesh(curve: InterfaceCurve, wall_panels_per_side: int) -> BoundaryMesh:
    """Panelize the closed boundary: fixed wall panels, surface from markers.

    Raises SelfIntersectionError for a non-simple curve (including a curve
    that leaves the strip 0 <= x1 <= 1 beyond roundoff) and GeometryError
    for bottom contact.
    """
    if side_wall_crossing(curve) is not None:
        raise SelfIntersectionError("interface crosses a side wall (x1 outside [0,1])")
    x = curve.x
    if np.any(x[:, 1] <= 0.0):
        raise BottomContactError("interface touches the bottom wall (x2 <= 0)")
    if self_intersects(curve):
        raise SelfIntersectionError("interface polyline self-intersects")

    w = wall_panels_per_side
    n_surf = curve.n_markers - 1
    walls = wall_mesh(w)
    a = np.empty((3 * w + n_surf, 2))
    b = np.empty_like(a)
    a[:2 * w], b[:2 * w] = walls.a[:2 * w], walls.b[:2 * w]
    # The surface runs right corner -> left corner, x1 clamped to the strip.
    surf = slice(2 * w, 2 * w + n_surf)
    a[surf], b[surf] = x[:0:-1], x[-2::-1]
    np.clip(a[surf, 0], 0.0, 1.0, out=a[surf, 0])
    np.clip(b[surf, 0], 0.0, 1.0, out=b[surf, 0])
    a[surf.stop:], b[surf.stop:] = walls.a[2 * w:], walls.b[2 * w:]
    mesh = BoundaryMesh(a=a, b=b, n_markers=curve.n_markers,
                        wall_panels_per_side=w)
    if polygon_area(mesh) <= 0.0:
        raise GeometryError("boundary polygon is not positively oriented")
    return mesh


def polygon_area(mesh: BoundaryMesh) -> float:
    """Shoelace area of the closed panel polygon."""
    a, b = mesh.a, mesh.b
    return float(0.5 * np.sum(a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1]))


def points_inside(mesh: BoundaryMesh, points: FloatArray) -> NDArray[np.bool_]:
    """Crossing-number inside test against the closed panel polygon.

    Only the (point, panel) pairs whose panel straddles the point's height
    get a crossing abscissa, with the same arithmetic per pair as an
    all-pairs form.  A straddling panel has by != ay, so no division is
    by zero.
    """
    pts = np.atleast_2d(points)
    a, b = mesh.a, mesh.b
    py = pts[:, 1][:, None]
    i, j = np.nonzero((a[:, 1] > py) != (b[:, 1] > py))
    ax, ay, bx, by = a[j, 0], a[j, 1], b[j, 0], b[j, 1]
    x_cross = ax + (pts[i, 1] - ay) * (bx - ax) / (by - ay)
    crossings = np.bincount(i[pts[i, 0] < x_cross], minlength=len(pts))
    return crossings % 2 == 1
