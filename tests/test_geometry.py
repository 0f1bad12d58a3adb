"""Interface curve, boundary mesh, and polygon utilities."""

import dataclasses
import math
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavebox.diagnostics import detect_breakdown
from wavebox.errors import (BottomContactError, GeometryError,
                            SelfIntersectionError)
from wavebox.evolution import adaptive_dt, redistribute_markers, rk4_step
from wavebox.geometry import (BoundaryMesh, InterfaceCurve,
                              _monotone_margin, build_boundary_mesh,
                              flat_interface, gradient_1d, points_inside,
                              row_norms, self_intersects, side_wall_crossing,
                              wall_mesh)
from wavebox.modes import sample_initial_state
from wavebox.runner import RunConfig

from conftest import make_reference_data
from test_kernels import assert_same_bits


def bumped_interface(n, amplitude=0.1):
    s = np.linspace(0.0, 1.0, n)
    x2 = 1.0 + amplitude * np.sin(np.pi * s) ** 2
    return InterfaceCurve(np.column_stack([s, x2]))


class TestInterfaceCurve:
    def test_flat_interface(self):
        curve = flat_interface(11)
        assert curve.n_markers == 11
        np.testing.assert_allclose(curve.x[:, 1], 1.0)
        np.testing.assert_allclose(curve.segment_lengths(), 0.1)
        np.testing.assert_allclose(curve.arclength()[-1], 1.0)

    def test_requires_pinned_endpoints(self):
        s = np.linspace(0.0, 1.0, 5)
        x = np.column_stack([s, np.ones(5)])
        x[0, 0] = 0.01
        with pytest.raises(GeometryError):
            InterfaceCurve(x)
        x = np.column_stack([s, np.ones(5)])
        x[-1, 1] = 1.02
        with pytest.raises(GeometryError):
            InterfaceCurve(x)

    def test_rejects_nonfinite(self):
        s = np.linspace(0.0, 1.0, 4)
        x = np.column_stack([s, np.ones(4)])
        x[1, 1] = np.nan
        with pytest.raises(GeometryError):
            InterfaceCurve(x)

    def test_turning_curvature_flat_is_zero(self):
        curve = flat_interface(9)
        np.testing.assert_allclose(curve.turning_curvature(), 0.0, atol=1e-12)

    def test_turning_curvature_of_circle_arc(self):
        # markers on a circular bump: discrete curvature approaches 1/R
        theta = np.linspace(np.pi, 0.0, 101)
        radius = 0.5
        x1 = 0.5 + radius * np.cos(theta)
        x2 = 1.0 + radius * np.sin(theta)
        curve = InterfaceCurve(np.column_stack([x1, x2]))
        np.testing.assert_allclose(curve.turning_curvature(), 1.0 / radius,
                                   rtol=1e-3)


def segment_facts_reference(x):
    """Segment lengths, arclength, turning curvature, marker tangents and
    normals, each formed from the markers on its own, as before the curve
    owned one segment table."""
    lengths = row_norms(np.diff(x, axis=0))
    s = np.zeros(len(x))
    s[1:] = np.cumsum(row_norms(np.diff(x, axis=0)))

    d = np.diff(x, axis=0)
    ell = row_norms(d)
    t = d / np.maximum(ell, 1e-300)[:, None]
    cross = t[:-1, 0] * t[1:, 1] - t[:-1, 1] * t[1:, 0]
    dot = np.einsum("ij,ij->i", t[:-1], t[1:])
    curvature = np.abs(np.arctan2(cross, dot)) / (0.5 * (ell[:-1] + ell[1:]))

    d = np.diff(x, axis=0)
    seg_t = d / row_norms(d)[:, None]
    tangents = np.empty((len(x), 2))
    tangents[0] = seg_t[0]
    tangents[-1] = seg_t[-1]
    tangents[1:-1] = seg_t[:-1] + seg_t[1:]
    tangents /= row_norms(tangents)[:, None]
    normals = np.column_stack([-tangents[:, 1], tangents[:, 0]])
    return lengths, s, curvature, tangents, normals


class TestSegmentTable:
    def test_formed_once_per_curve_and_read_only(self, monkeypatch):
        # Everything one loop state of the run asks of its curve: the mesh
        # predicate, the marker velocity, the CFL step, the detectors and
        # the remap.
        state = rk4_step(sample_initial_state(make_reference_data(1.0), 96, 24), 2e-5)
        curve = state.curve
        formed = []
        diff = np.diff

        def counting_diff(a, *args, **kwargs):
            formed.append(a is curve.x)
            return diff(a, *args, **kwargs)

        monkeypatch.setattr(np, "diff", counting_diff)
        speeds = row_norms(state.derivative.velocity)
        adaptive_dt(curve, speeds, 0.15, 1e-12, 1.0)
        detect_breakdown(curve, RunConfig())
        redistribute_markers(state)
        curve.turning_curvature()
        curve.marker_frame()
        assert formed.count(True) == 1
        d, ell = curve.segments
        assert curve.segments[0] is d and curve.segment_lengths() is ell
        for array in (d, ell):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            ell[0] = 1.0

    def test_facts_match_their_own_formulas_on_the_headline_run(self, ref_run):
        snapshots = os.path.join(ref_run["dir"], "snapshots")
        names = sorted(os.listdir(snapshots))
        assert len(names) == 15
        for name in names:
            curve = InterfaceCurve(np.loadtxt(os.path.join(snapshots, name),
                                              delimiter=",", skiprows=1)[:, 1:])
            got = (curve.segment_lengths(), curve.arclength(),
                   curve.turning_curvature(), *curve.marker_frame())
            for g, want in zip(got, segment_facts_reference(curve.x), strict=True):
                assert_same_bits(g, want)


def marker_curve(points):
    """Pinned curve through (0,1), the given interior points, and (1,1)."""
    x = np.vstack([[0.0, 1.0], np.reshape(points, (-1, 2)), [1.0, 1.0]])
    return InterfaceCurve(x)


def _segments_intersect_reference(p, p2, q, q2):
    """Scalar test of one segment pair: the reference the predicate must match."""
    spans = [max(min(p[k], p2[k]), min(q[k], q2[k]))
             <= min(max(p[k], p2[k]), max(q[k], q2[k])) for k in (0, 1)]
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
    # A crossing point lies in both spans; segments that lie apart never meet.
    if not all(spans):
        return False
    # A near-parallel pair can overflow to +-inf, which fails 0 <= t <= 1.
    with np.errstate(over="ignore"):
        t = num_t / denom
        s = num_s / denom
    return 0.0 <= t <= 1.0 and 0.0 <= s <= 1.0


def self_intersects_reference(curve, meet=_segments_intersect_reference):
    """Pairwise loop over non-adjacent segments."""
    x = curve.x
    n_seg = x.shape[0] - 1
    for i in range(n_seg):
        for j in range(i + 2, n_seg):
            if meet(x[i], x[i + 1], x[j], x[j + 1]):
                return True
    return False


def _orientation(a, b, c):
    """Sign of (b - a) x (c - a), in exact rational arithmetic."""
    (ax, ay), (bx, by), (cx, cy) = ([Fraction(v) for v in point] for point in (a, b, c))
    cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (cross > 0) - (cross < 0)


def _segments_meet_exactly(p, p2, q, q2):
    """Whether two closed segments share a point, by exact orientations."""
    def on_segment(a, b, c):        # c is on the line through a and b
        return all(min(a[k], b[k]) <= c[k] <= max(a[k], b[k]) for k in (0, 1))

    o1, o2 = _orientation(p, p2, q), _orientation(p, p2, q2)
    o3, o4 = _orientation(q, q2, p), _orientation(q, q2, p2)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    return ((o1 == 0 and on_segment(p, p2, q)) or (o2 == 0 and on_segment(p, p2, q2))
            or (o3 == 0 and on_segment(q, q2, p)) or (o4 == 0 and on_segment(q, q2, p2)))


def self_intersects_exactly(curve):
    """The exact answer, which the tolerances of the pair test may miss."""
    return self_intersects_reference(curve, meet=_segments_meet_exactly)


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

# Strictly x-monotone curves on a 2**-24 grid.  There every coordinate,
# difference and product of the crossing test is exact, so the pair test's
# crossing branch answers exactly and only its tolerance branch, the one
# the margin delta is sized against, can disagree with the short-cut.
# Segments of equal slope are exactly parallel whatever their widths.  A
# "ladder" is a long steep segment, a flat step and a short segment
# parallel to the first beside it in height: the pair the collinear
# tolerance reaches furthest, when step and short segment are narrow.
# Their "near" width is one per curve: a grid step, an eighth of delta, or
# within two grid steps of delta.
_UNIT = 2.0 ** -24
_SLOPES = [0, 1, -1, 2, -2, 3, -3]


@st.composite
def _monotone_curves(draw):
    segments = []                   # (width in grid steps or None for near, slope)
    for kind in draw(st.lists(st.sampled_from(["free", "steep", "ladder"]),
                              min_size=1, max_size=6)):
        if kind == "free":
            width = draw(st.integers(1, 2**20))
            segments.append((width, draw(st.integers(-2**22, 2**22)) / width))
        elif kind == "steep":
            segments.append((draw(st.integers(1, 2**18) | st.none()),
                             draw(st.sampled_from(_SLOPES))))
        else:
            slope = draw(st.sampled_from([2, -2, 3, -3]))
            segments += [(draw(st.integers(2**10, 2**21)), slope), (None, 0), (None, slope)]

    def markers(near):
        widths = [near if w is None else w for w, _ in segments]
        rises = [round(w * k) for w, (_, k) in zip(widths, segments)]
        x = np.cumsum([0] + widths + [2**24 - sum(widths)])
        y = 2**24 + np.cumsum([0] + rises + [-sum(rises)])
        return np.column_stack([x, y]) * _UNIT

    # The near widths move the extent, so delta, by far under a grid step.
    above = int(_monotone_margin(markers(0)) / _UNIT) + 1
    near = draw(st.sampled_from([1, above // 8] + [above + k for k in range(-2, 3)]))
    return InterfaceCurve(markers(near))


@st.composite
def _near_collinear_folds(draw):
    """A folded curve whose segments 1 and 4 lie on nearly one line, apart
    along it, with a spike between them that the fold may cross.

    Segment 4 is tilted from segment 1 by a relative 3e-15 to 1e-12, on
    both sides of the pair test's parallel cutoff, and starts 1e-4 to 1e-2
    past segment 1's end.  Every other pair stays 0.1 or more from meeting,
    or crosses by as much: the fold (segment 5) passes 0.1 above or below
    the spike's top.
    """
    theta = draw(st.floats(0.2, 1.2))
    tilt = draw(st.sampled_from([-1, 1])) * 10.0 ** draw(
        st.floats(math.log10(3e-15), -12.0))
    gap = 10.0 ** draw(st.floats(-4.0, -2.0))
    crosses = draw(st.booleans())
    along = np.array([math.cos(theta), math.sin(theta)])
    tilted = np.array([math.cos(theta + tilt), math.sin(theta + tilt)])
    m1 = np.array([0.2, 0.9])
    m2 = m1 + draw(st.floats(0.05, 0.15)) * along
    m4 = m2 + gap * along
    m5 = m4 + draw(st.floats(0.02, 0.1)) * tilted
    m6 = np.array([m2[0] - 0.02, m5[1] + 2.0])
    spike_x = 0.5 * (m2[0] + m4[0])
    fold_y = m5[1] + (m6[1] - m5[1]) * (m5[0] - spike_x) / (m5[0] - m6[0])
    m3 = [spike_x, fold_y + (0.1 if crosses else -0.1)]
    x = np.array([[0.0, 1.0], m1, m2, m3, m4, m5, m6, [1.0, 1.0]])
    return InterfaceCurve(x), crosses


class TestSelfIntersection:
    def test_simple_curve(self):
        assert not self_intersects(bumped_interface(33))

    def test_crossing_curve(self):
        x1 = np.array([0.0, 0.7, 0.7, 0.3, 0.3, 1.0])
        x2 = np.array([1.0, 1.2, 0.6, 0.6, 1.2, 1.0])
        curve = InterfaceCurve(np.column_stack([x1, x2]))
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

    def test_subnormal_cross_product_warns_nothing(self):
        # Segments 1 and 3 are parallel with a subnormal cross product,
        # 6e-311, so their crossing parameters overflow; the pair is judged
        # by the parallel branch, and the overflow must not warn.
        curve = marker_curve([[0.5, 1.2], [0.5, 0.6], [0.0, 0.6],
                              [1e-310, 1.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self_intersects(curve)
        with np.errstate(over="ignore"):
            assert self_intersects_reference(curve)

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

    @settings(max_examples=300, deadline=None)
    @given(_monotone_curves())
    def test_monotone_curves_match_pairwise_reference(self, curve):
        assert self_intersects(curve) == self_intersects_reference(curve)

    @pytest.mark.parametrize("width, expected", [
        (1.0e-6, True),     # within the collinear tolerance: the pair test accepts
        (2.4e-6, False),    # below delta, so the pair test runs, and rejects
        (2.8e-6, False),    # above delta: the short-cut
    ])
    def test_steep_parallel_pair_near_the_margin(self, width, expected):
        # A long segment of slope 1.25 ends at x2 = 1; a flat step and a
        # short segment parallel to the first follow, at its top height.
        # Step and short segment are `width` wide, so the two parallel
        # segments lie that far apart in x.  The collinear tolerance reaches
        # widths up to 1.13e-6 here; delta is 2.57e-6.
        width = round(width / _UNIT / 4) * 4 * _UNIT    # 1.25 * width stays exact
        x = np.array([[0.0, 1.0], [0.125, 0.375], [0.625, 1.0],
                      [0.625 + width, 1.0], [0.625 + 2 * width, 1.0 + 1.25 * width],
                      [1.0, 1.0]])
        curve = InterfaceCurve(x)
        assert (width > _monotone_margin(x)) is (width > 2.6e-6)
        assert self_intersects(curve) is expected
        assert self_intersects_reference(curve) is expected

    def test_straight_ramp_false_positive_of_the_pair_test(self):
        # Four markers on one straight ramp, as a tent of two ramps places
        # them.  Segments 1 and 3 are parallel to 2e-14 relative, just above
        # the parallel cutoff, so cancellation sets their crossing
        # parameters, which pass 0 <= t, s <= 1.  They lie 3.4e-5 apart in
        # x, like every pair of an x-monotone curve, so their x-spans fail
        # the span test: the oracle, which tests every pair, and the
        # package's short-cut both give the exact answer, False.
        s = np.array([0.29916016437005555, 0.3578177514580465,
                      0.3578519381530927, 0.3604054754898329])
        curve = marker_curve(np.column_stack(
            [s, 1.0 + 1.0146563222824532 * (s / 0.7743719413734328)]))
        assert not self_intersects_exactly(curve)
        assert not self_intersects_reference(curve)
        assert not self_intersects(curve)

    def test_nearly_collinear_segments_apart_on_a_folded_curve(self):
        # Segments 1 and 4 lie on nearly one line, 5.9e-4 apart along it,
        # with a spike between them; the fold at marker 6 sends the curve
        # to the pair test.  Cancellation gives the pair t = 1 and s = 0,
        # but its spans do not overlap, so it does not meet.
        curve = InterfaceCurve(np.array([
            [0.0, 1.0], [0.2, 0.9], [0.2941525007421269, 0.9941390568456931],
            [0.2943610733191333, 1.2943475996409295],
            [0.29456964589613965, 0.9945561424361659],
            [0.33545853983419555, 1.035439197909487],
            [0.28545853983419556, 1.4354391979094872], [1.0, 1.0]]))
        assert curve.segments[0][:, 0].min() < 0.0
        assert not self_intersects_exactly(curve)
        assert not self_intersects_reference(curve)
        assert not self_intersects(curve)

    @settings(max_examples=300, deadline=None)
    @given(_near_collinear_folds())
    def test_near_collinear_folds_match_exact_arithmetic(self, case):
        curve, crosses = case
        assert self_intersects_exactly(curve) is crosses
        assert self_intersects_reference(curve) is crosses
        assert self_intersects(curve) is crosses


class _PairTestReached(Exception):
    pass


class TestMonotoneShortCut:
    @pytest.fixture(autouse=True)
    def no_pair_test(self, monkeypatch):
        # The pair test starts by listing the segment pairs with
        # np.triu_indices, which nothing else on these paths calls.
        def refuse(n, k=0, m=None):
            raise _PairTestReached
        monkeypatch.setattr(np, "triu_indices", refuse)

    def test_reference_surface_takes_it(self):
        state = sample_initial_state(make_reference_data(1.0), 96, 24)
        assert not self_intersects(state.curve)
        for _ in range(4):          # every stage mesh goes through the predicate
            state = rk4_step(state, 2e-5)
        assert np.ptp(state.curve.x[:, 1]) > 1e-3
        assert not self_intersects(state.curve)

    def test_folded_curve_reaches_the_pair_test(self):
        curve = marker_curve([[0.7, 1.2], [0.7, 0.6], [0.3, 0.6], [0.3, 1.2]])
        with pytest.raises(_PairTestReached):
            self_intersects(curve)

    def test_one_narrow_increment_reaches_the_pair_test(self):
        x = flat_interface(9).x.copy()
        x[4, 0] = x[3, 0] + 0.5 * _monotone_margin(x)
        with pytest.raises(_PairTestReached):
            self_intersects(InterfaceCurve(x))


class TestBoundaryMesh:
    def test_panel_counts_and_kinds(self):
        mesh = build_boundary_mesh(flat_interface(17), 8)
        assert mesh.n_panels == 16 + 3 * 8
        # the four side slices tile the panels in boundary order
        sides = (mesh.bottom_slice, mesh.right_slice, mesh.surface_slice,
                 mesh.left_slice)
        assert [sl.start for sl in sides] == [0] + [sl.stop for sl in sides[:-1]]
        assert sides[-1].stop == mesh.n_panels
        mid = mesh.midpoints
        assert np.all(mid[mesh.bottom_slice, 1] == 0.0)
        assert np.all(mid[mesh.right_slice, 0] == 1.0)
        assert np.all(mid[mesh.surface_slice, 1] == 1.0)
        assert np.all(mid[mesh.left_slice, 0] == 0.0)

    @pytest.mark.parametrize("n, w", [(None, 4), (None, 24), (9, 4), (96, 24)])
    def test_derived_slices_partition_the_panels(self, n, w):
        # Bottom, right, surface, left, in order, from the panel count and
        # w alone: w wall panels a side, and the n - 1 surface panels run
        # right corner -> left corner; the wall mesh has no surface panel.
        if n is None:
            mesh, n_surface = wall_mesh(w), 0
        else:
            curve = bumped_interface(n)
            mesh, n_surface = build_boundary_mesh(curve, w), n - 1
        sides = (mesh.bottom_slice, mesh.right_slice, mesh.surface_slice,
                 mesh.left_slice)
        panels = [range(mesh.n_panels)[sl] for sl in sides]
        assert [len(p) for p in panels] == [w, w, n_surface, w]
        assert [i for p in panels for i in p] == list(range(mesh.n_panels))
        assert np.all(mesh.a[mesh.bottom_slice, 1] == 0.0)
        assert np.all(mesh.a[mesh.right_slice, 0] == 1.0)
        assert np.all(mesh.a[mesh.left_slice, 0] == 0.0)
        if n_surface:
            assert np.array_equal(mesh.a[mesh.surface_slice], curve.x[:0:-1])

    def test_panel_rows(self):
        # The kernels' one read-only table: rows 0-1 are the starts ``a``
        # themselves, and the tangent, negated-normal and length rows are
        # re-derived here from the panel ends.
        mesh = build_boundary_mesh(bumped_interface(33), 12)
        rows = mesh.panel_rows
        assert rows.shape == (7, mesh.n_panels) and rows.flags.c_contiguous
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0
        d = mesh.b - mesh.a
        lengths = row_norms(d)
        t = d / lengths[:, None]
        want = [mesh.a[:, 0], mesh.a[:, 1], t[:, 0], t[:, 1],
                -t[:, 1], t[:, 0], lengths]
        for got, expected in zip(rows, want):
            assert_same_bits(got, np.ascontiguousarray(expected))
        assert_same_bits(mesh.normals, np.column_stack([t[:, 1], -t[:, 0]]))

    def test_panel_rows_is_the_one_store(self):
        mesh = build_boundary_mesh(bumped_interface(33), 12)
        for view in (mesh.a, mesh.tangents, mesh.lengths):
            assert np.shares_memory(view, mesh.panel_rows)
        assert [f.name for f in dataclasses.fields(BoundaryMesh)] == [
            "a", "b", "wall_panels_per_side", "midpoints", "panel_rows"]
        walls = wall_mesh(12)
        assert wall_mesh(12) is walls
        for array in (walls.a, walls.b, walls.midpoints, walls.panel_rows,
                      walls.tangents, walls.lengths):
            assert not array.flags.writeable

    def test_closed_and_ccw(self):
        mesh = build_boundary_mesh(bumped_interface(25), 8)
        np.testing.assert_allclose(np.roll(mesh.a, -1, axis=0), mesh.b,
                                   atol=1e-15)
        assert mesh.area > 1.0   # bumped surface adds area

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
        s = np.linspace(0.0, 1.0, 9)
        x1 = s.copy()
        x1[4] = 1.2
        x2 = np.ones(9)
        x2[3:6] = [1.1, 1.2, 1.1]   # keep the polyline simple
        curve = InterfaceCurve(np.column_stack([x1, x2]))
        assert side_wall_crossing(curve) == 4
        with pytest.raises(SelfIntersectionError):
            build_boundary_mesh(curve, 4)

    def test_wall_roundoff_tolerated(self):
        s = np.linspace(0.0, 1.0, 9)
        x = np.column_stack([s, np.ones(9)])
        x[1] = [-5e-11, 1.1]
        x[7] = [1.0 + 5e-11, 1.1]
        curve = InterfaceCurve(x)
        assert side_wall_crossing(curve) is None
        mesh = build_boundary_mesh(curve, 4)
        assert np.all((mesh.a[:, 0] >= 0.0) & (mesh.a[:, 0] <= 1.0))

    def test_bottom_contact_rejected(self):
        s = np.linspace(0.0, 1.0, 9)
        x2 = np.ones(9)
        x2[4] = -0.05
        curve = InterfaceCurve(np.column_stack([s, x2]))
        with pytest.raises(BottomContactError):
            build_boundary_mesh(curve, 4)

    @pytest.mark.parametrize("n_markers, w", [(9, 4), (17, 8), (96, 24), (33, 7)])
    def test_wall_panels_match_closed_form(self, n_markers, w):
        mesh = build_boundary_mesh(bumped_interface(n_markers), w)
        k = np.arange(w) / w
        k1 = np.arange(1, w + 1) / w
        zero, one = np.zeros(w), np.ones(w)
        walls = [  # uniform bottom; sides graded by 1 - (1 - t)**2 toward the top
            (mesh.bottom_slice, (k, zero), (k1, zero)),
            (mesh.right_slice, (one, 1 - (1 - k) ** 2), (one, 1 - (1 - k1) ** 2)),
            (mesh.left_slice, (zero, 1 - k ** 2), (zero, 1 - k1 ** 2)),
        ]
        for sl, a, b in walls:
            np.testing.assert_allclose(mesh.a[sl], np.column_stack(a), atol=1e-15)
            np.testing.assert_allclose(mesh.b[sl], np.column_stack(b), atol=1e-15)
        surf = bumped_interface(n_markers).x[::-1]
        np.testing.assert_array_equal(mesh.a[mesh.surface_slice], surf[:-1])
        np.testing.assert_array_equal(mesh.b[mesh.surface_slice], surf[1:])

    def test_wall_mesh_shared_and_read_only(self):
        walls = wall_mesh(8)
        with pytest.raises(ValueError):
            walls.a[0, 0] = 1.0
        with pytest.raises(ValueError):
            walls.b[0, 0] = 1.0
        first = build_boundary_mesh(flat_interface(17), 8)
        expected_b = first.b.copy()
        with pytest.raises(ValueError):
            first.a[:] = np.nan
        first.b[:] = np.nan
        second = build_boundary_mesh(flat_interface(17), 8)
        assert np.array_equal(second.b, expected_b)


class TestPolygonMeasures:
    def test_unit_square_area(self):
        mesh = build_boundary_mesh(flat_interface(33), 8)
        assert mesh.area == pytest.approx(1.0, abs=1e-14)

    def test_bump_area_matches_quadrature(self):
        curve = bumped_interface(401, amplitude=0.2)
        mesh = build_boundary_mesh(curve, 8)
        # area = 1 + 0.2 * int sin^2(pi a) da = 1.1
        assert mesh.area == pytest.approx(1.1, abs=1e-5)

    def test_points_inside(self):
        mesh = build_boundary_mesh(flat_interface(17), 8)
        pts = np.array([[0.5, 0.5], [0.01, 0.99], [1.2, 0.5],
                        [0.5, 1.01], [-0.1, 0.2]])
        np.testing.assert_array_equal(points_inside(mesh, pts),
                                      [True, True, False, False, False])


def points_inside_reference(mesh, points):
    """The all-pairs crossing-number test that ``points_inside`` replaced:
    a crossing abscissa for every (point, panel) pair, masked by the
    straddle test afterwards."""
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


class TestPointsInsideOracle:
    """``points_inside`` forms a crossing only where a panel straddles the
    point's height; its mask must be the all-pairs form's."""

    @staticmethod
    def random_mesh(rng):
        # Strictly increasing x1, so the curve is simple; runs of equal
        # heights give horizontal surface panels, as the walls' bottom has.
        n = int(rng.integers(4, 40))
        x1 = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n - 2)), [1.0]])
        x2 = 1.0 + rng.uniform(-0.6, 0.6, n)
        for k in rng.integers(0, n - 1, n // 3):
            x2[k + 1] = x2[k]
        x2[[0, -1]] = 1.0
        return build_boundary_mesh(InterfaceCurve(np.column_stack([x1, x2])),
                                   int(rng.integers(2, 12)))

    @staticmethod
    def probe_points(rng, mesh):
        ends = np.vstack([mesh.a, mesh.b])
        k = len(ends)
        return np.vstack([
            rng.uniform(-0.5, 1.5, (300, 2)),                     # in and beyond the box
            ends,                                                 # the vertices themselves
            np.column_stack([rng.uniform(-0.5, 1.5, k), ends[:, 1]]),   # at vertex heights
            np.column_stack([rng.choice([0.0, 1.0], k), ends[:, 1]]),   # on the side walls
            np.column_stack([rng.uniform(-0.5, 1.5, 40),
                             rng.choice([0.0, 1.0], 40)]),       # on the bottom and top lines
            [[-10.0, 0.5], [10.0, 0.5], [0.5, -10.0], [0.5, 10.0], [1e6, 1e6]],
        ])

    @pytest.mark.parametrize("seed", range(25))
    def test_random_meshes(self, seed):
        rng = np.random.default_rng(seed)
        mesh = self.random_mesh(rng)
        pts = self.probe_points(rng, mesh)
        assert np.count_nonzero(mesh.a[:, 1] == mesh.b[:, 1]) >= mesh.wall_panels_per_side
        got = points_inside(mesh, pts)
        assert got.dtype == np.bool_ and got.shape == (len(pts),)
        np.testing.assert_array_equal(got, points_inside_reference(mesh, pts))

    def test_reference_and_flat_meshes(self):
        rng = np.random.default_rng(40)
        for mesh in (sample_initial_state(make_reference_data(1.0), 96, 24).mesh,
                     build_boundary_mesh(flat_interface(17), 8)):
            pts = self.probe_points(rng, mesh)
            np.testing.assert_array_equal(points_inside(mesh, pts),
                                          points_inside_reference(mesh, pts))


# Any float64 but NaN, with the signed zeros, the infinities and the largest
# finite values drawn often.  NaNs still come out (inf - inf, 0/0, inf * 0),
# all with the platform's default sign.  NaN inputs are left out: when both
# operands of an add are NaNs of opposite sign, numpy's loops return either
# one, by loop and alignment, so no form has fixed bits there.
_ANY_FLOAT = st.one_of(st.floats(allow_nan=False), st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, 1.7976931348623157e308,
     -1.7976931348623157e308, 5e-324]))


@st.composite
def _knots(draw, n):
    """Knots whose spacings span many decades, are equal, or are arbitrary."""
    kind = draw(st.sampled_from(["decades", "equal", "linspace", "any"]))
    if kind == "decades":
        exponents = np.array(draw(st.lists(st.integers(-40, 40),
                                           min_size=n - 1, max_size=n - 1)))
        mantissas = np.array(draw(st.lists(st.floats(1.0, 10.0),
                                           min_size=n - 1, max_size=n - 1)))
        start = draw(st.floats(-1e6, 1e6))
        return start + np.concatenate([[0.0], np.cumsum(mantissas * 10.0 ** exponents)])
    if kind == "equal":      # a step of few significant bits: spacings exact
        step = draw(st.integers(1, 2 ** 20)) * 2.0 ** draw(st.integers(-60, 60))
        return step * np.arange(n, dtype=np.float64)
    if kind == "linspace":   # nearly equal spacings, as record times have
        return np.linspace(0.0, draw(st.floats(1e-9, 1e9)), n)
    return np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                  min_size=n, max_size=n)))


class TestNumpyBits:
    """The package's own forms give numpy's bits, NaN results and signed zeros included."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), n=st.integers(2, 12))
    def test_gradient_1d_is_np_gradient(self, data, n):
        s = data.draw(_knots(n))
        f = np.array(data.draw(st.lists(_ANY_FLOAT, min_size=n, max_size=n)))
        with np.errstate(all="ignore"):
            want = np.gradient(f, s)
            got = gradient_1d(f, s)
        assert_same_bits(got, want)

    def test_gradient_1d_takes_both_knot_forms(self):
        f = np.array([1.0, 4.0, 9.0, 16.0])
        equal = np.array([0.0, 0.5, 1.0, 1.5])
        uneven = np.array([0.0, 0.5, 1.25, 1.5])
        assert_same_bits(gradient_1d(f, equal), np.gradient(f, equal))
        assert_same_bits(gradient_1d(f, uneven), np.gradient(f, uneven))
        assert_same_bits(gradient_1d(f[:2], equal[:2]),
                         np.gradient(f[:2], equal[:2]))

    @settings(max_examples=400, deadline=None)
    @given(rows=st.lists(st.tuples(_ANY_FLOAT, _ANY_FLOAT), min_size=1,
                         max_size=12))
    def test_row_norms_is_np_linalg_norm(self, rows):
        d = np.array(rows, dtype=np.float64).reshape(-1, 2)
        with np.errstate(all="ignore"):
            want = np.linalg.norm(d, axis=1)
            got = row_norms(d)
        assert_same_bits(got, want)
