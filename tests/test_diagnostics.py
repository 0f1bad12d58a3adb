"""Virial functional, growth identities, comparison envelope, detectors."""

import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavebox.diagnostics import (DERIVED_FIELDS, _squares, blowup_bound,
                                 boundary_domain_integral, boundary_velocity,
                                 detect_breakdown, fill_derived,
                                 int_u1_squared, riccati_envelope,
                                 virial_parts, wall_u2_squared)
from wavebox.errors import BreakdownError, SelfIntersectionError
from wavebox.geometry import (InterfaceCurve, build_boundary_mesh,
                              flat_interface, self_intersects)
from wavebox.modes import initial_A, sample_initial_state
from wavebox.runner import RunConfig

from conftest import make_reference_data


class TestEnvelope:
    def test_initial_value_and_growth(self):
        assert riccati_envelope(2.0, 2.0, 0.0) == 2.0
        assert riccati_envelope(2.0, 2.0, 0.5) == pytest.approx(4.0)

    @settings(max_examples=50, deadline=None)
    @given(a=st.floats(0.1, 20.0), c1=st.floats(0.5, 5.0),
           frac=st.floats(0.0, 0.99))
    def test_satisfies_riccati_ode(self, a, c1, frac):
        t = frac * c1 / a
        h = 1e-6 * c1 / a
        if t + h >= c1 / a or t - h < 0.0:
            return
        lhs = (riccati_envelope(a, c1, t + h)
               - riccati_envelope(a, c1, t - h)) / (2.0 * h)
        rhs = riccati_envelope(a, c1, t) ** 2 / c1
        assert lhs == pytest.approx(rhs, rel=1e-4)

    def test_one_ulp_below_blowup_is_inf_without_warning(self):
        # A t / c1 rounds to 1 here, so the denominator is exactly 0.
        a, c1 = 0.7, 4.0 / 3.0
        t = np.nextafter(c1 / a, 0.0)
        assert a * t / c1 == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert riccati_envelope(a, c1, t) == np.inf
            values = riccati_envelope(a, c1, np.array([0.0, 0.5 * t, t]))
        assert values[0] == a and values[1] == a / (1.0 - a * (0.5 * t) / c1)
        assert values[2] == np.inf

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            riccati_envelope(-1.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            riccati_envelope(2.0, 2.0, 1.0)   # at the blow-up time

    def test_blowup_bound(self):
        assert blowup_bound(4.0, 2.0) == 0.5
        with pytest.raises(ValueError):
            blowup_bound(0.0, 2.0)


class TestBoundaryReductions:
    @pytest.fixture(scope="class")
    @staticmethod
    def solved():
        state = sample_initial_state(make_reference_data(1.0), 129, 48)
        return state, state.cauchy

    def test_domain_integral_of_harmonic(self, solved):
        # f = x1^2 - x2^2 is harmonic with int over the unit square = 0;
        # f = x1 gives 1/2.  Build exact Cauchy data per panel.
        state, _ = solved
        mesh = state.mesh
        mid, nrm = mesh.midpoints, mesh.normals
        from wavebox.bem import CauchyData
        f = mid[:, 0] ** 2 - mid[:, 1] ** 2
        q = 2.0 * mid[:, 0] * nrm[:, 0] - 2.0 * mid[:, 1] * nrm[:, 1]
        cd = CauchyData(values=f, fluxes=q)
        assert boundary_domain_integral(mesh, cd) == pytest.approx(0.0, abs=1e-4)
        cd = CauchyData(values=mid[:, 0], fluxes=nrm[:, 0])
        assert boundary_domain_integral(mesh, cd) == pytest.approx(0.5, abs=1e-4)

    def test_boundary_velocity_on_bottom(self, solved):
        # on the bottom wall u = (u1, 0) with u1 = -pi a_k sin(...) at x2=0
        state, cd = solved
        mesh = state.mesh
        u = boundary_velocity(mesh, cd)
        sl = mesh.bottom_slice
        x1 = mesh.midpoints[sl, 0]
        u1, _ = make_reference_data(1.0).velocity(x1, np.zeros_like(x1))
        interior = slice(sl.start + 2, sl.stop - 2)
        assert np.abs(u[interior, 0]
                      - u1[2:-2]).max() / np.abs(u1).max() < 3e-2

    def test_int_u1_squared_against_quadrature(self, solved):
        state, cd = solved
        pot = make_reference_data(1.0)
        nodes, weights = np.polynomial.legendre.leggauss(32)
        x = 0.5 * (nodes + 1.0)
        w = 0.5 * weights
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        u1, _ = pot.velocity(X1, X2)
        exact = float(np.einsum("i,j,ij->", w, w, u1 ** 2))
        got = int_u1_squared(state.mesh, cd)
        assert got == pytest.approx(exact, rel=5e-3)

    def test_wall_u2_squared_against_quadrature(self, solved):
        state, cd = solved
        pot = make_reference_data(1.0)
        nodes, weights = np.polynomial.legendre.leggauss(32)
        x2 = 0.5 * (nodes + 1.0)
        _, u2 = pot.velocity(np.ones_like(x2), x2)
        exact = float(0.5 * np.dot(weights, u2 ** 2))
        assert wall_u2_squared(state.mesh, cd) == pytest.approx(exact, rel=1e-2)

    def test_virial_matches_direct_quadrature(self, solved):
        state, cd = solved
        L, volume_part, wall_part = virial_parts(state)
        assert L == volume_part + wall_part
        assert L == pytest.approx(initial_A(make_reference_data(1.0)),
                                  rel=5e-4)


def make_table(t, L, **columns):
    """Primary record columns: parts 0.6 L and 0.4 L, unit area, zero integrals."""
    t = np.asarray(t, dtype=np.float64)
    L = np.asarray(L, dtype=np.float64)
    table = {name: np.zeros(t.size) for name in
             ("int_u1sq", "int_p", "wall_u2sq", "wall_p_integral")}
    table.update(t=t, L=L, volume_part=0.6 * L, wall_part=0.4 * L,
                 area=np.ones(t.size))
    table.update({name: np.asarray(v, dtype=np.float64)
                  for name, v in columns.items()})
    return table


class TestRecordAlgebra:
    def test_inequality_checks_formulas(self):
        # dL/dt = 8 at both records of a two-record table
        table = make_table([0.0, 1.0], [3.0, 11.0], volume_part=[2.0, 0.0],
                           wall_part=[1.0, 0.0], int_u1sq=[5.0, 0.0],
                           wall_u2sq=[4.0, 0.0])
        fill_derived(table, c1=2.0, A=0.0)
        s28, sv, sw, rs = (table[name][0] for name in
                           ("slack_28", "schwarz_vol", "schwarz_wall",
                            "riccati_slack"))
        assert s28 == pytest.approx(8.0 - (5.0 + 2.0))
        assert sv == pytest.approx(5.0 * 1.0 - 4.0)
        assert sw == pytest.approx(4.0 / 3.0 - 1.0)
        assert rs == pytest.approx(8.0 - 9.0 / 2.0)

    def test_identity_residual_requires_uniform_times(self):
        table = make_table([0.0, 0.1, 0.3], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            fill_derived(table, c1=2.0, A=0.0)

    def test_fill_derived_on_exact_envelope(self):
        # records tracing the envelope exactly: riccati slack ~ 0, and the
        # stored envelope matches L
        A, c1 = 4.0, 2.0
        t = np.linspace(0.0, 0.3, 31)
        table = make_table(t, [A / (1.0 - A * ti / c1) for ti in t])
        fill_derived(table, c1=c1, A=A)
        L = table["L"]
        for i in range(1, t.size - 1):
            assert table["envelope"][i] == pytest.approx(L[i], rel=1e-12)
            assert abs(table["riccati_slack"][i]) < 1e-2 * L[i] ** 2

    def test_fill_derived_skips_envelope_without_positive_A(self):
        table = make_table([0.0, 0.1, 0.2], [-1.0, -1.0, -1.0])
        fill_derived(table, c1=2.0, A=-1.0)
        assert np.isnan(table["envelope"]).all()


# The per-record post-pass that fill_derived replaced, kept as the reference
# for the column form: each derived value of a record is a Python-float
# expression, and each residual comes from one triple of records.

@dataclass
class _Record:
    t: float
    L: float
    volume_part: float
    wall_part: float
    int_u1sq: float
    int_p: float
    wall_u2sq: float
    wall_p_integral: float
    area: float
    envelope: float = np.nan
    residual_26: float = np.nan
    residual_27: float = np.nan
    slack_28: float = np.nan
    schwarz_vol: float = np.nan
    schwarz_wall: float = np.nan
    riccati_slack: float = np.nan


def _reference_envelope(A, c1, t):
    if A <= 0.0 or c1 <= 0.0:
        raise ValueError("envelope requires A > 0 and c1 > 0")
    if t < 0.0 or t >= c1 / A:
        raise ValueError(f"t={t} outside [0, c1/A={c1 / A})")
    try:
        return A / (1.0 - A * t / c1)
    except ZeroDivisionError:
        # t sits within rounding of c1/A, so A t / c1 rounds to 1: the
        # Python float division raised here, the column form gives +inf
        return np.inf


def _check_uniform_times(t):
    dt = np.diff(t)
    if dt.size == 0:
        raise ValueError("need at least two records")
    if np.any(np.abs(dt - dt[0]) > 1e-9 * max(abs(dt[0]), 1e-30)):
        raise ValueError("records are not uniformly spaced in time")
    return float(dt[0])


def identity_residual_26(records):
    t = np.array([r.t for r in records])
    dt = _check_uniform_times(t)
    lhs = (records[2].volume_part - records[0].volume_part) / (2.0 * dt)
    mid = records[1]
    rhs = mid.int_u1sq + mid.int_p - mid.wall_p_integral
    return abs(lhs - rhs)


def identity_residual_27(records):
    t = np.array([r.t for r in records])
    dt = _check_uniform_times(t)
    lhs = (records[2].wall_part - records[0].wall_part) / (2.0 * dt)
    mid = records[1]
    rhs = 0.5 * mid.wall_u2sq + mid.wall_p_integral
    return abs(lhs - rhs)


def inequality_checks(record, area, c1, dL_dt):
    schwarz_vol = record.int_u1sq * area - record.volume_part ** 2
    schwarz_wall = record.wall_u2sq / 3.0 - record.wall_part ** 2
    slack_28 = dL_dt - (record.int_u1sq + 0.5 * record.wall_u2sq)
    riccati_slack = dL_dt - record.L ** 2 / c1
    return slack_28, schwarz_vol, schwarz_wall, riccati_slack


def reference_fill_derived(records, area0, c1, A):
    n = len(records)
    if n == 0:
        return
    t = np.array([r.t for r in records])
    L = np.array([r.L for r in records])
    if A > 0.0:
        horizon = blowup_bound(A, c1)
        for r in records:
            if r.t < horizon:
                r.envelope = _reference_envelope(A, c1, r.t)
    if n < 2:
        return
    dL = np.gradient(L, t)
    for i, r in enumerate(records):
        s28, sv, sw, rs = inequality_checks(r, area0, c1, dL_dt=float(dL[i]))
        r.slack_28, r.schwarz_vol, r.schwarz_wall, r.riccati_slack = s28, sv, sw, rs
    if n < 3:
        return
    for i in range(1, n - 1):
        triple = records[i - 1:i + 2]
        records[i].residual_26 = identity_residual_26(triple)
        records[i].residual_27 = identity_residual_27(triple)
    records[0].residual_26 = records[1].residual_26
    records[0].residual_27 = records[1].residual_27
    records[-1].residual_26 = records[-2].residual_26
    records[-1].residual_27 = records[-2].residual_27


_PRIMARY = ("t", "L", "volume_part", "wall_part", "int_u1sq", "int_p",
            "wall_u2sq", "wall_p_integral", "area")


def assert_same_derived(columns, c1, A):
    """fill_derived on the columns gives the reference's bits, or both raise."""
    n = len(columns["t"])
    records = [_Record(**{name: columns[name][i] for name in _PRIMARY})
               for i in range(n)]
    table = {name: np.array(columns[name], dtype=np.float64) for name in _PRIMARY}
    try:
        reference_fill_derived(records, records[0].area if n else np.nan, c1, A)
    except ValueError:
        with pytest.raises(ValueError):
            fill_derived(table, c1, A)
        return
    fill_derived(table, c1, A)
    for name in DERIVED_FIELDS:
        want = np.array([getattr(r, name) for r in records], dtype=np.float64)
        got = table[name]
        assert got.dtype == np.float64 and got.shape == (n,), name
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want), err_msg=name)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want), err_msg=name)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64),
                                      err_msg=name)


# Doubles whose libm pow(x, 2) differs from the correctly rounded x*x.
POW_SENSITIVE = (0.001296915399800524, 1518.9675387121508, -435.6794121681341,
                 0.0011693778929448716, -1180.4827732401302)

_values = st.one_of(st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
                    st.sampled_from((0.0, -0.0) + POW_SENSITIVE))


@st.composite
def primary_columns(draw):
    n = draw(st.integers(0, 8))
    t0 = draw(st.sampled_from((0.0, 0.0, 0.25, -0.1)))
    dt = draw(st.floats(1e-4, 0.5))
    t = [t0 + k * dt for k in range(n)]
    if n >= 3 and draw(st.booleans()):
        k = draw(st.integers(1, n - 1))
        t[k] += draw(st.sampled_from((0.5, -0.3, 1e-6))) * dt
    columns = {name: [draw(_values) for _ in range(n)] for name in _PRIMARY[1:]}
    columns["t"] = t
    return columns


class TestFillDerivedBits:
    """fill_derived's column pass gives the per-record post-pass's bits."""

    @settings(max_examples=300, deadline=None)
    @given(columns=primary_columns(), c1=st.floats(4.0 / 3.0, 4.0),
           A=st.one_of(st.just(0.0), st.floats(-10.0, -1e-3),
                       st.floats(1e-3, 50.0)),
           horizon_at=st.one_of(st.none(), st.integers(0, 7)))
    def test_matches_per_record_reference(self, columns, c1, A, horizon_at):
        t = columns["t"]
        if horizon_at is not None and horizon_at < len(t) and t[horizon_at] > 0.0:
            A = c1 / t[horizon_at]       # the horizon lands on a record time
        assert_same_derived(columns, c1, A)

    def test_pow_sensitive_squares(self):
        # L and both parts hold doubles whose x*x and x**2 differ, so numpy
        # squaring of the columns would change schwarz_* and riccati_slack
        vals = list(POW_SENSITIVE)
        columns = {"t": [1.5e-4 * k for k in range(5)], "L": vals,
                   "volume_part": vals[::-1], "wall_part": vals[2:] + vals[:2],
                   "int_u1sq": [2.5, 0.0, 1e3, 3.0, 7.0],
                   "int_p": [0.1, -0.2, 0.3, -0.4, 0.5],
                   "wall_u2sq": [1.0, 2.0, 3.0, 4.0, 5.0],
                   "wall_p_integral": [0.0, 1.0, -1.0, 2.0, -2.0],
                   "area": [1.0] * 5}
        for name in ("L", "volume_part", "wall_part"):
            col = np.array(columns[name])
            assert np.any(col * col != np.array([v ** 2 for v in col.tolist()]))
        for A in (0.0, -2.0, 9000.0, 3.0):
            assert_same_derived(columns, 2.0, A)

    def test_horizon_on_a_record_time(self):
        # c1/A = 0.5 exactly: the envelope stops before that record
        columns = {name: [1.0, 2.0, 3.0, 4.0] for name in _PRIMARY}
        columns["t"] = [0.0, 0.25, 0.5, 0.75]
        assert_same_derived(columns, 2.0, 4.0)
        table = {name: np.array(v) for name, v in columns.items()}
        fill_derived(table, 2.0, 4.0)
        np.testing.assert_array_equal(table["envelope"],
                                      [4.0, 8.0, np.nan, np.nan])

    def test_squares_past_float64_are_inf(self):
        # libm pow reports these squares as OverflowError; an edited CSV's
        # L can carry them into verify-identities' recomputed slack.
        np.testing.assert_array_equal(_squares(np.array([1e308, -1.4e154, 3.0])),
                                      [np.inf, np.inf, 9.0])

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_short_tables(self, n):
        columns = {name: [0.5 + k for k in range(n)] for name in _PRIMARY}
        columns["t"] = [0.1 * k for k in range(n)]
        assert_same_derived(columns, 2.0, 1.5)


def breakdown_of(curve, cfg, L=None):
    """The BreakdownError ``detect_breakdown`` raises for ``curve``, or None;
    it returns nothing."""
    try:
        assert detect_breakdown(curve, cfg, L=L) is None
    except BreakdownError as exc:
        return exc
    return None


class TestDetectors:
    # RunConfig's defaults give an 11-marker curve a spacing floor of 0.01
    # and a curvature limit of 1000.

    def test_quiet_state(self):
        assert breakdown_of(flat_interface(11), RunConfig()) is None

    def test_breakdown_error_carries_a_known_kind(self):
        # A kind and a detail, and no time: the run's t_final is its one.
        exc = BreakdownError("marker_collision", "spacing too small")
        assert vars(exc) == {"kind": "marker_collision", "detail": "spacing too small"}
        assert str(exc) == "marker_collision: spacing too small"
        with pytest.raises(ValueError, match="unknown breakdown kind 'meltdown'"):
            BreakdownError("meltdown")

    def test_bottom_contact(self):
        s = np.linspace(0.0, 1.0, 11)
        x2 = np.ones(11)
        x2[5] = -0.01
        sig = breakdown_of(InterfaceCurve(np.column_stack([s, x2])), RunConfig())
        assert sig.kind == "bottom_contact"
        assert sig.detail == "marker 5 at x2=-1.000e-02"

    def test_self_intersection(self):
        x1 = np.array([0.0, 0.7, 0.7, 0.3, 0.3, 1.0])
        x2 = np.array([1.0, 1.2, 0.6, 0.6, 1.2, 1.0])
        sig = breakdown_of(InterfaceCurve(np.column_stack([x1, x2])), RunConfig())
        assert sig.kind == "self_intersection"

    def test_side_wall_crossing(self):
        # A simple polyline that bulges through the right wall: the mesh
        # builder rejects it as a self-intersection, and so must the detector,
        # which the runner consults before the next step builds a mesh.
        s = np.linspace(0.0, 1.0, 24)
        x = np.column_stack([s, np.ones(24)])
        x[22, 0] = 1.02
        curve = InterfaceCurve(x)
        assert not self_intersects(curve)
        sig = breakdown_of(curve, RunConfig())
        assert sig.kind == "self_intersection"
        assert "marker 22" in sig.detail
        with pytest.raises(SelfIntersectionError):
            build_boundary_mesh(curve, 4)

    def test_marker_collision(self):
        s = np.linspace(0.0, 1.0, 11)
        x1 = s.copy()
        x1[5] = x1[4] + 1e-4    # nearly coincident pair
        curve = InterfaceCurve(np.column_stack([x1, np.ones(11)]))
        assert breakdown_of(curve, RunConfig()).kind == "marker_collision"

    def test_curvature_blowup(self):
        s = np.linspace(0.0, 1.0, 11)
        x2 = np.ones(11)
        x2[5] = 1.4             # sharp spike
        curve = InterfaceCurve(np.column_stack([s, x2]))
        sig = breakdown_of(curve, RunConfig(curv_factor=0.5))
        assert sig.kind == "curvature_blowup"

    def test_L_overflow(self):
        sig = breakdown_of(flat_interface(11), RunConfig(L_max=10.0), L=11.0)
        assert sig.kind == "L_overflow"

    @pytest.mark.parametrize("n", [11, 96])
    def test_limits_follow_the_marker_count(self, n):
        cfg = RunConfig()
        floor = cfg.collide_tol * (1.0 / (n - 1))
        for gap, kind in ((0.99 * floor, "marker_collision"), (1.01 * floor, None)):
            x = flat_interface(n).x.copy()
            x[n // 2, 0] = x[n // 2 - 1, 0] + gap
            sig = breakdown_of(InterfaceCurve(x), cfg)
            assert (sig and sig.kind) == kind
        x = flat_interface(n).x.copy()
        x[n // 2, 1] = 1.01
        curve = InterfaceCurve(x)
        curv_factor = curve.turning_curvature().max() / (n - 1)
        for factor, kind in ((0.99, "curvature_blowup"), (1.01, None)):
            sig = breakdown_of(curve, RunConfig(curv_factor=factor * curv_factor))
            assert (sig and sig.kind) == kind

    def test_L_limit_is_exclusive(self):
        curve = flat_interface(11)
        cfg = RunConfig(L_max=10.0)
        for L in (10.0, -10.0):
            assert breakdown_of(curve, cfg, L=L) is None
            sig = breakdown_of(curve, cfg, L=np.nextafter(L, 2.0 * L))
            assert sig.kind == "L_overflow"

    def test_priority_bottom_before_collision(self):
        s = np.linspace(0.0, 1.0, 11)
        x = np.column_stack([s, np.ones(11)])
        x[5] = [x[4, 0] + 1e-4, -0.01]    # collides AND touches bottom
        assert breakdown_of(InterfaceCurve(x), RunConfig()).kind == "bottom_contact"
