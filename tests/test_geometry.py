"""Interface curve, boundary mesh, and polygon utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavebox.errors import (BottomContactError, GeometryError,
                            SelfIntersectionError)
from wavebox.geometry import (BC_DIRICHLET_SURFACE, BC_NEUMANN_WALL,
                              InterfaceCurve, build_boundary_mesh,
                              flat_interface, point_segment_distance,
                              points_inside, polygon_area, self_intersects,
                              side_wall_crossing)


def bumped_interface(n, amplitude=0.1):
    alpha = np.linspace(0.0, 1.0, n)
    x2 = 1.0 + amplitude * np.sin(np.pi * alpha) ** 2
    return InterfaceCurve(alpha, np.column_stack([alpha, x2]))


class TestInterfaceCurve:
    def test_flat_interface(self):
        curve = flat_interface(11)
        assert curve.n_markers == 11
        np.testing.assert_allclose(curve.x[:, 1], 1.0)
        np.testing.assert_allclose(curve.segment_lengths(), 0.1)
        np.testing.assert_allclose(curve.arclength()[-1], 1.0)

    def test_requires_pinned_endpoints(self):
        alpha = np.linspace(0.0, 1.0, 5)
        x = np.column_stack([alpha, np.ones(5)])
        x[0, 0] = 0.01
        with pytest.raises(GeometryError):
            InterfaceCurve(alpha, x)
        x = np.column_stack([alpha, np.ones(5)])
        x[-1, 1] = 1.02
        with pytest.raises(GeometryError):
            InterfaceCurve(alpha, x)

    def test_requires_increasing_alpha(self):
        alpha = np.array([0.0, 0.5, 0.4, 1.0])
        x = np.column_stack([np.array([0.0, 0.5, 0.6, 1.0]), np.ones(4)])
        with pytest.raises(GeometryError):
            InterfaceCurve(alpha, x)

    def test_rejects_nonfinite(self):
        alpha = np.linspace(0.0, 1.0, 4)
        x = np.column_stack([alpha, np.ones(4)])
        x[1, 1] = np.nan
        with pytest.raises(GeometryError):
            InterfaceCurve(alpha, x)

    def test_turning_curvature_flat_is_zero(self):
        curve = flat_interface(9)
        np.testing.assert_allclose(curve.turning_curvature(), 0.0, atol=1e-12)

    def test_turning_curvature_of_circle_arc(self):
        # markers on a circular bump: discrete curvature approaches 1/R
        theta = np.linspace(np.pi, 0.0, 101)
        radius = 0.5
        x1 = 0.5 + radius * np.cos(theta)
        x2 = 1.0 + radius * np.sin(theta)
        curve = InterfaceCurve(np.linspace(0.0, 1.0, 101),
                               np.column_stack([x1, x2]))
        np.testing.assert_allclose(curve.turning_curvature(), 1.0 / radius,
                                   rtol=1e-3)


def marker_curve(points):
    """Pinned curve through (0,1), the given interior points, and (1,1)."""
    x = np.vstack([[0.0, 1.0], np.reshape(points, (-1, 2)), [1.0, 1.0]])
    return InterfaceCurve(np.linspace(0.0, 1.0, x.shape[0]), x)


def _segments_intersect_reference(p, p2, q, q2):
    """Scalar test of one segment pair: the reference the predicate must match."""
    d1 = p2 - p
    d2 = q2 - q
    r = q - p
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    num_t = r[0] * d2[1] - r[1] * d2[0]
    num_s = r[0] * d1[1] - r[1] * d1[0]
    if abs(denom) < 1e-14 * (np.linalg.norm(d1) * np.linalg.norm(d2) + 1e-300):
        if abs(num_t) > 1e-12 * (np.linalg.norm(d1) + np.linalg.norm(r) + 1e-300):
            return False
        axis = int(np.argmax(np.abs(d1)))
        lo1, hi1 = sorted((p[axis], p2[axis]))
        lo2, hi2 = sorted((q[axis], q2[axis]))
        return max(lo1, lo2) <= min(hi1, hi2)
    t = num_t / denom
    s = num_s / denom
    return 0.0 <= t <= 1.0 and 0.0 <= s <= 1.0


def self_intersects_reference(curve):
    """Pairwise loop over non-adjacent segments."""
    x = curve.x
    n_seg = x.shape[0] - 1
    for i in range(n_seg):
        for j in range(i + 2, n_seg):
            if _segments_intersect_reference(x[i], x[i + 1], x[j], x[j + 1]):
                return True
    return False


# Interior markers on a coarse dyadic grid make collinear, parallel and
# touching segment pairs common; the offsets then push some of them just
# off parallel or just off touching, on both sides of the tolerances.
_grid_x = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
_grid_y = st.sampled_from([0.5, 0.75, 1.0, 1.25, 1.5])
_offset = st.sampled_from([0.0, 0.0, 1e-17, -1e-15, 1e-15, 3e-15, -1e-13, 1e-13, 1e-11])
_grid_point = st.tuples(_grid_x, _offset, _grid_y, _offset).map(
    lambda v: (v[0] + v[1], v[2] + v[3]))
_free_point = st.tuples(st.floats(-0.2, 1.2), st.floats(0.2, 1.8))
_curves = st.lists(st.one_of(_grid_point, _free_point), min_size=1, max_size=8)


class TestSelfIntersection:
    def test_simple_curve(self):
        assert not self_intersects(bumped_interface(33))

    def test_crossing_curve(self):
        alpha = np.linspace(0.0, 1.0, 6)
        x1 = np.array([0.0, 0.7, 0.7, 0.3, 0.3, 1.0])
        x2 = np.array([1.0, 1.2, 0.6, 0.6, 1.2, 1.0])
        curve = InterfaceCurve(alpha, np.column_stack([x1, x2]))
        assert self_intersects(curve)

    def test_collinear_fold_back_overlaps(self):
        # Segments [0, 0.6] and [0.3, 1] of the line x2 = 1 overlap.
        curve = marker_curve([[0.6, 1.0], [0.3, 1.0]])
        assert self_intersects(curve)

    def test_flat_curve_is_simple(self):
        # Every pair is collinear; non-adjacent spans are disjoint.
        assert not self_intersects(flat_interface(9))
        assert not self_intersects(flat_interface(257))

    def test_endpoint_touch(self):
        # A diamond loop that returns to the marker it left: the segments
        # around it meet only at that shared endpoint (t = s = 1 exactly).
        curve = marker_curve([[0.5, 0.75], [0.75, 1.0], [0.5, 1.25],
                              [0.25, 1.0], [0.5, 0.75]])
        assert self_intersects(curve)

    @pytest.mark.parametrize("rise_right, rise_left, expected", [
        (1e-13, 1e-13, True),    # parallel, offset within the collinear tolerance
        (1e-11, 1e-11, False),   # parallel, offset beyond it
        (1e-13, 1.01e-13, True),  # off parallel within the parallel tolerance
        (1e-13, 2e-13, False),   # off parallel beyond it: lines meet outside both spans
    ])
    def test_stacked_segments_a_hair_apart(self, rise_right, rise_left, expected):
        # Segment 1 runs along x2 = 1.5 over [0.2, 0.8]; segment 3 runs back
        # over [0.4, 0.8] just above it; the rest of the curve stays clear.
        curve = marker_curve([[0.2, 1.5], [0.8, 1.5], [0.8, 1.5 + rise_right],
                              [0.4, 1.5 + rise_left], [0.4, 1.8], [0.9, 1.8]])
        assert self_intersects(curve) is expected
        assert self_intersects_reference(curve) is expected

    def test_two_segments_never_intersect(self):
        # Adjacent segments are never tested, even when one folds back
        # along the other.
        assert not self_intersects(marker_curve([[0.5, 1.3]]))
        assert not self_intersects(marker_curve([[1.5, 1.0]]))

    @settings(max_examples=150, deadline=None)
    @given(_curves)
    def test_matches_pairwise_reference(self, points):
        curve = marker_curve(points)
        assert self_intersects(curve) == self_intersects_reference(curve)


class TestBoundaryMesh:
    def test_panel_counts_and_kinds(self):
        mesh = build_boundary_mesh(flat_interface(17), 8)
        assert mesh.n_panels == 16 + 3 * 8
        assert np.all(mesh.bc_kind[mesh.surface_slice] == BC_DIRICHLET_SURFACE)
        for sl in (mesh.bottom_slice, mesh.right_slice, mesh.left_slice):
            assert np.all(mesh.bc_kind[sl] == BC_NEUMANN_WALL)

    def test_closed_and_ccw(self):
        mesh = build_boundary_mesh(bumped_interface(25), 8)
        np.testing.assert_allclose(np.roll(mesh.a, -1, axis=0), mesh.b,
                                   atol=1e-15)
        assert polygon_area(mesh) > 1.0   # bumped surface adds area

    def test_normals_point_outward(self):
        mesh = build_boundary_mesh(bumped_interface(25), 8)
        centroid = mesh.midpoints.mean(axis=0)
        outward = np.einsum("ij,ij->i", mesh.normals,
                            mesh.midpoints - centroid)
        assert np.all(outward > 0.0)

    def test_side_walls_graded_toward_corners(self):
        mesh = build_boundary_mesh(flat_interface(17), 8)
        right = mesh.lengths[mesh.right_slice]
        assert np.all(np.diff(right) < 0.0)       # finer approaching (1,1)
        left = mesh.lengths[mesh.left_slice]
        assert np.all(np.diff(left) > 0.0)        # runs (0,1) -> (0,0)
        np.testing.assert_allclose(right.sum(), 1.0)

    def test_surface_value_round_trip(self):
        mesh = build_boundary_mesh(flat_interface(9), 4)
        marker_values = np.arange(9.0)
        panels = mesh.surface_panel_values(marker_values)
        np.testing.assert_allclose(mesh.marker_panel_from_surface(panels),
                                   0.5 * (marker_values[:-1] + marker_values[1:]))

    def test_wall_crossing_rejected(self):
        alpha = np.linspace(0.0, 1.0, 9)
        x1 = alpha.copy()
        x1[4] = 1.2
        x2 = np.ones(9)
        x2[3:6] = [1.1, 1.2, 1.1]   # keep the polyline simple
        curve = InterfaceCurve(alpha, np.column_stack([x1, x2]))
        assert side_wall_crossing(curve) == 4
        with pytest.raises(SelfIntersectionError):
            build_boundary_mesh(curve, 4)

    def test_wall_roundoff_tolerated(self):
        alpha = np.linspace(0.0, 1.0, 9)
        x = np.column_stack([alpha, np.ones(9)])
        x[1] = [-5e-11, 1.1]
        x[7] = [1.0 + 5e-11, 1.1]
        curve = InterfaceCurve(alpha, x)
        assert side_wall_crossing(curve) is None
        mesh = build_boundary_mesh(curve, 4)
        assert np.all((mesh.a[:, 0] >= 0.0) & (mesh.a[:, 0] <= 1.0))

    def test_bottom_contact_rejected(self):
        alpha = np.linspace(0.0, 1.0, 9)
        x2 = np.ones(9)
        x2[4] = -0.05
        curve = InterfaceCurve(alpha, np.column_stack([alpha, x2]))
        with pytest.raises(BottomContactError):
            build_boundary_mesh(curve, 4)

    def test_too_few_wall_panels(self):
        with pytest.raises(ValueError):
            build_boundary_mesh(flat_interface(9), 3)


class TestPolygonMeasures:
    def test_unit_square_area(self):
        mesh = build_boundary_mesh(flat_interface(33), 8)
        assert polygon_area(mesh) == pytest.approx(1.0, abs=1e-14)

    def test_bump_area_matches_quadrature(self):
        curve = bumped_interface(401, amplitude=0.2)
        mesh = build_boundary_mesh(curve, 8)
        # area = 1 + 0.2 * int sin^2(pi a) da = 1.1
        assert polygon_area(mesh) == pytest.approx(1.1, abs=1e-5)

    def test_points_inside(self):
        mesh = build_boundary_mesh(flat_interface(17), 8)
        pts = np.array([[0.5, 0.5], [0.01, 0.99], [1.2, 0.5],
                        [0.5, 1.01], [-0.1, 0.2]])
        np.testing.assert_array_equal(points_inside(mesh, pts),
                                      [True, True, False, False, False])

    def test_point_segment_distance(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[1.0, 0.0]])
        pts = np.array([[0.5, 0.3], [2.0, 0.0], [-1.0, 1.0]])
        d = point_segment_distance(pts, a, b)
        np.testing.assert_allclose(d[:, 0], [0.3, 1.0, np.sqrt(2.0)])

    def test_point_segment_distance_matches_reference_bits(self):
        # The (m,n,2) einsum/norm form it replaced, kept as the reference.
        def reference(pts, a, b):
            d = b - a
            ell2 = np.einsum("ij,ij->j", d.T, d.T)
            rel = pts[:, None, :] - a[None, :, :]
            t = np.einsum("mnj,nj->mn", rel, d) / np.maximum(ell2, 1e-300)
            t = np.clip(t, 0.0, 1.0)
            proj = a[None, :, :] + t[:, :, None] * d[None, :, :]
            return np.linalg.norm(pts[:, None, :] - proj, axis=2)

        rng = np.random.default_rng(5)
        mesh = build_boundary_mesh(bumped_interface(33), 12)
        a = np.vstack([mesh.a, [[0.3, 0.3]]])
        b = np.vstack([mesh.b, [[0.3, 0.3]]])          # a degenerate segment
        pts = np.vstack([rng.uniform(-0.5, 1.5, (200, 2)), mesh.a, mesh.midpoints,
                         np.column_stack([np.zeros(20), rng.uniform(-1, 2, 20)])])
        assert np.array_equal(point_segment_distance(pts, a, b),
                              reference(pts, a, b))
