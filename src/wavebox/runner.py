"""Batch driver: configuration, the record loop, artifact writers, and verdicts.

A run integrates the free surface from mode-built initial data, collects
its diagnostics by column name at uniformly spaced record times, and stops
at breakdown or at the time cap.  The records then become one table of
float64 columns, shared by the derived columns, the verdicts and the CSV
writer.  Breakdown is a success outcome — the point of the run is to witness
it — so only violated checks fail a run.

``_artifact_paths`` names the artifacts of an output directory, and every
writer and reader takes the names from it.

``build_report`` alone lays out a report, from the CSV columns, the
configuration, c1 and ``run``, the values of ``RUN_KEYS``, which only a run
knows: ``run_simulation`` returns them, ``verify-identities`` reads them from
the stored report, rebuilds it offline and compares every other key and the
key sets.  The commands return whether every check passed and raise
ConfigError for bad input; ``cli`` alone turns that into an exit code.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import numbers
import os
import shutil
import stat
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import bem
from .diagnostics import (CSV_FIELDS, DERIVED_FIELDS, FINITE_FROM,
                          blowup_bound, constant_c1, detect_breakdown, fill_derived,
                          int_pressure, int_u1_squared, record_steps,
                          riccati_columns, virial_parts, wall_u2_squared)
from .errors import BREAKDOWN_KINDS, BreakdownError, GeometryError
from .evolution import (FlowState, adaptive_dt, kinetic_energy,
                        redistribute_markers, rk4_step, state_derivative)
from .geometry import (build_boundary_mesh, flat_interface, gradient_1d,
                       polygon_area, row_norms)
from .modes import ModePotential, initial_A, sample_initial_state
from .pressure import PressureField, pressure_min, wall_pressure_integral

FloatArray = NDArray[np.float64]

log = logging.getLogger(__name__)

RECORD_TIME_SLOP = 1e-12
CORNER_TOL = 1e-12
# validate-bem's bound on a mode's relative error at the finest panel count
# (measured values are in the README)
BEM_ERROR_BOUND = 0.1


class ConfigError(ValueError):
    """Invalid or unparseable run configuration."""


def _checked_number(name: str, value, integral: bool = False):
    """A finite real config value, as an int when ``integral``; else ConfigError.

    Floats pass through unconverted, so the written configuration keeps their spelling.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:               # an int beyond float64's range
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if integral:
        if not float(value).is_integer():
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        return int(value)
    return value


def _read_json(path: str, what: str):
    """The JSON value of the file at path; ConfigError naming ``what`` and
    the path when it cannot be read or is not JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; mirrors the JSON configuration file.

    ``modes`` is a list of (wavenumber k, coefficient a_k) pairs defining the
    initial potential sum a_k cos(k pi x1) cosh(k pi x2); an empty list is
    still fluid.  Tolerances are grouped at the bottom; ``detect_breakdown``
    scales ``collide_tol`` and ``curv_factor`` by the initial marker spacing.
    Every rule is checked here, once, for every command: each float field is
    positive, and the modes meet the two corner conditions with a squared
    speed bound that float64 can carry.  The numerics trust these values.
    """

    modes: tuple[tuple[int, float], ...] = ()
    n_markers: int = 96
    wall_panels_per_side: int = 24
    cfl: float = 0.15
    dt_min: float = 1e-9
    dt_max: float = 0.05
    record_dt: float = 1.5e-4
    t_end_cap: float = 1.0
    redistribute_every: int = 3
    lattice_n: int = 16
    near_field_factor: float = 2.0
    # check tolerances
    area_tol: float = 1e-3
    energy_tol: float = 1e-2
    ident_tol: float = 5e-2
    positivity_tol: float = 1e-3
    check_tol: float = 1e-3
    deriv_tol: float = 1e-2
    riccati_tol: float = 1e-2
    bound_slack: float = 0.05
    a_match_tol: float = 1e-3
    # detector thresholds
    collide_tol: float = 0.1
    curv_factor: float = 100.0
    L_max: float = 1e6
    # BEM validation sweep
    bem_panel_counts: tuple[int, ...] = (32, 64, 128, 256)
    bem_mode_ks: tuple[int, ...] = (1, 2)
    # bookkeeping
    out_dir: str = "run_out"
    seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                object.__setattr__(self, f.name, _checked_number(
                    f.name, value, integral=True))
            elif f.type == "float" and not _checked_number(f.name, value) > 0.0:
                raise ConfigError(f"{f.name} must be positive")
            elif f.type == "str" and not isinstance(value, str):
                raise ConfigError(f"{f.name} must be a string, got {value!r}")
            elif f.type == "tuple[int, ...]":
                object.__setattr__(self, f.name, tuple(
                    _checked_number(f"{f.name} entry", n, integral=True)
                    for n in value))
        object.__setattr__(self, "modes", tuple(
            (_checked_number("mode wavenumber", k, integral=True),
             float(_checked_number("mode coefficient", a)))
            for k, a in self.modes))
        counts = self.bem_panel_counts
        if (len(counts) < 2 or counts[0] < 8
                or any(a >= b for a, b in zip(counts, counts[1:]))):
            raise ConfigError("bem_panel_counts needs at least two counts, "
                              "increasing strictly from at least 8 "
                              "(a convergence order needs two)")
        if any(k < 1 for k in self.bem_mode_ks):
            raise ConfigError("bem_mode_ks entries must be positive")
        too_large = [k for k in self.bem_mode_ks
                     if not math.isfinite(ModePotential(((k, 1.0),)).gradient_bound())]
        if too_large:
            raise ConfigError(f"bem_mode_ks entries {too_large}: the mode's gradient "
                              "k pi cosh(k pi) exceeds float64's range")
        if any(k < 1 for k, _ in self.modes):
            raise ConfigError("mode wavenumbers must be at least 1")
        # |u|^2 enters d(phi)/dt and the pressure, so the square must fit too
        speed = self.potential().gradient_bound()
        if not math.isfinite(speed * speed):
            raise ConfigError("modes: the squared speed bound "
                              "(sum |a_k| k pi cosh(k pi))^2 exceeds float64's range")
        corners = self.potential().corner_residuals()
        if not all(r <= CORNER_TOL for r in corners):
            raise ConfigError("modes violate the corner conditions: residuals "
                              f"{corners[0]:.3e}, {corners[1]:.3e}")
        if self.n_markers < 8:
            raise ConfigError("n_markers must be at least 8")
        if self.wall_panels_per_side < 4:
            raise ConfigError("wall_panels_per_side must be at least 4")
        if self.cfl > 1.0:
            raise ConfigError("cfl must be at most 1")
        if min(self.t_end_cap, self.record_dt) <= RECORD_TIME_SLOP:
            raise ConfigError("t_end_cap and record_dt must exceed the record-time "
                              f"slop {RECORD_TIME_SLOP:g}")
        if self.dt_min > self.dt_max:
            raise ConfigError("need dt_min <= dt_max")
        if self.redistribute_every < 0:
            raise ConfigError("redistribute_every must be nonnegative (0 disables)")
        if self.lattice_n < 2:
            raise ConfigError("lattice_n must be at least 2")

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("configuration must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")
        try:
            return cls(**raw)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_json(cls, path: str) -> "RunConfig":
        return cls.from_dict(_read_json(path, "config"))

    def potential(self) -> ModePotential:
        return ModePotential(terms=self.modes)


@dataclass
class SimulationResult:
    """In-memory outcome of the record loop, before verdicts and writing."""

    table: dict[str, FloatArray]    # one float64 column per record field
    snapshots: list[FloatArray]     # (n,2) marker positions per record
    c1: float
    run: dict                       # the values of RUN_KEYS


def _collect_record(state: FlowState, dt_used: float,
                    lattice_n: int, near_field_factor: float) -> dict[str, float]:
    """The primary columns of one record, by name.

    The columns after ``dt`` feed the derived columns and the report; they
    are not part of the CSV contract.
    """
    mesh = state.mesh
    cd = state.cauchy
    field_ = PressureField.from_state(state, near_field_factor)
    L, volume_part, wall_part = virial_parts(state)
    p_min_val, p_absmax = pressure_min(field_, lattice_n)
    return dict(
        t=state.t, L=L, volume_part=volume_part, wall_part=wall_part,
        p_min=p_min_val, wall_p_integral=wall_pressure_integral(field_),
        energy=kinetic_energy(state), area=polygon_area(mesh), dt=dt_used,
        int_u1sq=int_u1_squared(mesh, cd),
        int_p=int_pressure(mesh, cd, field_.phi_t_cauchy),
        wall_u2sq=wall_u2_squared(mesh, cd), p_absmax=p_absmax,
        corner_residual=state.derivative.corner_residual)


def run_simulation(cfg: RunConfig) -> SimulationResult:
    """Integrate from the configured initial data, recording diagnostics.

    Logs one INFO line per record.  Stops at the time cap or at the first
    BreakdownError; either way the loop state's time is ``t_final``.  Raises
    FloatingPointError for a record whose pressure is not finite: data
    large enough for the pressure solve to overflow inside BLAS, which
    raises no warning, give NaN there, and no run may write a record that
    ``verify-identities`` rejects.
    """
    potential = cfg.potential()
    state = sample_initial_state(potential, cfg.n_markers,
                                 cfg.wall_panels_per_side)
    records: list[dict[str, float]] = []
    snapshots: list[FloatArray] = []
    kind = detail = None
    n_steps = 0
    next_record = 0.0
    last_dt = math.nan
    try:
        while True:
            if state.t >= next_record - RECORD_TIME_SLOP:
                try:
                    rec = _collect_record(state, last_dt, cfg.lattice_n,
                                          cfg.near_field_factor)
                except GeometryError:
                    # A step that lands on a record time can leave a surface
                    # that bounds no domain; stop as the detector classifies
                    # it, or fail when it cannot.
                    detect_breakdown(state.curve, cfg,
                                     L=records[-1]["L"] if records else None)
                    raise
                non_finite = [name for name in ("p_min", "wall_p_integral")
                              if not math.isfinite(rec[name])]
                if non_finite:
                    raise FloatingPointError(f"non-finite {', '.join(non_finite)} "
                                             f"at t={state.t:.6g}")
                records.append(rec)
                snapshots.append(state.curve.x.copy())
                log.info("  t=%.6f  L=%.5f  p_min=%.4g  E=%.6f",
                         rec["t"], rec["L"], rec["p_min"], rec["energy"])
                next_record += cfg.record_dt
            if state.t >= cfg.t_end_cap - RECORD_TIME_SLOP:
                break
            detect_breakdown(state.curve, cfg, L=records[-1]["L"])
            deriv = state_derivative(state)
            speeds = row_norms(deriv.velocity)
            dt = adaptive_dt(state.curve, speeds, cfg.cfl, cfg.dt_min, cfg.dt_max)
            dt = min(dt, next_record - state.t, cfg.t_end_cap - state.t)
            state = rk4_step(state, dt)
            last_dt = dt
            n_steps += 1
            if cfg.redistribute_every and n_steps % cfg.redistribute_every == 0:
                state = redistribute_markers(state)
    except BreakdownError as exc:
        kind, detail = exc.kind, exc.detail

    # the t = 0 record is always taken: the initial surface is flat
    table = {name: np.array([r[name] for r in records], dtype=np.float64)
             for name in records[0]}
    c1 = constant_c1(polygon_area(
        build_boundary_mesh(flat_interface(cfg.n_markers),
                            cfg.wall_panels_per_side)))
    fill_derived(table, c1, records[0]["L"])
    return SimulationResult(table=table, snapshots=snapshots, c1=c1, run={
        "a_quadrature": initial_A(potential), "breakdown_kind": kind,
        "breakdown_detail": detail, "t_final": state.t, "n_steps": n_steps,
        "p_absmax_max": _max_or(table["p_absmax"], math.nan),
        "max_corner_residual": _max_or(table["corner_residual"], math.nan)})


# ---------------------------------------------------------------------------
# verdicts and the report (shared by simulate and verify-identities)
# ---------------------------------------------------------------------------

def _min_or(values: FloatArray) -> float:
    values = values[np.isfinite(values)]
    return float(values.min()) if values.size else math.inf


def _max_or(values: FloatArray, default: float = -math.inf) -> float:
    values = values[np.isfinite(values)]
    return float(values.max()) if values.size else default


def _scored(margin, violation: float) -> float:
    """``margin()``, or ``violation`` when its float64 arithmetic overflows.

    Only a value no run writes is that large (an L whose square exceeds
    float64's range, say), so it fails the check it enters; it must not
    hold as an unmeasured NaN margin.  A non-finite derived cell (inf/inf)
    leaves the margin NaN, unmeasured, without a warning.
    """
    try:
        with np.errstate(over="raise", invalid="ignore"):
            return margin()
    except FloatingPointError:
        return violation


def evaluate_checks(columns: dict[str, FloatArray], cfg: RunConfig,
                    broke: bool) -> dict:
    """Boolean verdicts and worst-case margins from the diagnostics table.

    Uses only the frozen CSV columns plus the configuration, so an offline
    re-check of a run directory reproduces the same verdicts.  Records are
    assumed uniformly spaced in time, and there is at least one.  ``broke``
    excludes the final record from the conservation drift checks (it may
    sit on top of the breakdown).  A margin that cannot be measured is NaN:
    the derivative-based ones below three records, the Riccati ones unless
    A = L(0) > 0, and any that a non-finite derived cell enters.  A check fails
    only on a measured violation, so a NaN margin holds; a margin whose
    arithmetic overflows float64 is a violation (``_scored``).
    """
    t = columns["t"]
    L = columns["L"]
    n = t.size
    a_virial = float(L[0])
    riccati_checked = bool(np.isfinite(a_virial) and a_virial > 0.0)
    derivatives_checked = n >= 3

    def l2():
        return np.maximum(1.0, L ** 2)

    # conservation: drift relative to the first record, final record excluded
    # after breakdown
    last = n - 1 if (broke and n > 1) else n

    def drift(name):
        values = columns[name][:last]
        return _max_or(np.abs(values - values[0])
                       / max(abs(float(values[0])), 1e-9), 0.0)

    energy_drift = _scored(lambda: drift("energy"), math.inf)
    area_drift = _scored(lambda: drift("area"), math.inf)

    # pressure positivity; the scale proxy is the largest |p_min| on record
    p_min = columns["p_min"]
    margin_pressure = _min_or(p_min) / max(1.0, _max_or(np.abs(p_min), 0.0))

    # Schwarz slacks; the product of the two bounding factors is the scale
    def schwarz(slack, part):
        slack, part = columns[slack], columns[part]
        return _min_or(slack / np.maximum(1.0, slack + part ** 2))

    margin_schwarz = min(
        _scored(lambda: schwarz("schwarz_vol", "volume_part"), -math.inf),
        _scored(lambda: schwarz("schwarz_wall", "wall_part"), -math.inf))

    # derivative-based margins score the interior records only
    worst_ident = margin_growth = margin_derivative = math.nan
    if derivatives_checked:
        interior = slice(1, n - 1)
        wall_p = np.abs(columns["wall_p_integral"])

        def identity(residual, part):
            scale = np.maximum(1.0, np.abs(gradient_1d(columns[part], t)) + wall_p)
            return _max_or(columns[residual][interior] / scale[interior], 0.0)

        worst_ident = max(
            _scored(lambda: identity("residual_26", "volume_part"), math.inf),
            _scored(lambda: identity("residual_27", "wall_part"), math.inf))
        margin_growth = _scored(lambda: _min_or(
            columns["slack_28"][interior]
            / np.maximum(1.0, np.abs(gradient_1d(L, t)))[interior]), -math.inf)
        if riccati_checked:
            margin_derivative = _scored(lambda: _min_or(
                columns["riccati_slack"][interior] / l2()[interior]), -math.inf)

    # Riccati domination against the closed-form envelope
    margin_riccati = math.nan
    if riccati_checked:
        envelope = columns["envelope"]
        valid = np.isfinite(envelope)
        margin_riccati = _scored(lambda: _min_or(
            (L[valid] - envelope[valid]) / l2()[valid]), -math.inf)

    return {
        "riccati_checked": riccati_checked,
        "derivatives_checked": derivatives_checked,
        "energy_drift_max": energy_drift,
        "area_drift_max": area_drift,
        "energy_conserved": not energy_drift > cfg.energy_tol,
        "area_conserved": not area_drift > cfg.area_tol,
        "margin_pressure": margin_pressure,
        "pressure_positive": not margin_pressure < -cfg.positivity_tol,
        "margin_schwarz": margin_schwarz,
        "schwarz_held": not margin_schwarz < -cfg.check_tol,
        "max_identity_residual": worst_ident,
        "identities_converged": not worst_ident > cfg.ident_tol,
        "margin_growth": margin_growth,
        "inequality_28_held": not margin_growth < -cfg.check_tol,
        "margin_derivative": margin_derivative,
        "derivative_inequality_held": not margin_derivative < -cfg.deriv_tol,
        "margin_riccati": margin_riccati,
        "riccati_dominated": not margin_riccati < -cfg.riccati_tol,
    }


CHECK_KEYS = ("energy_conserved", "area_conserved", "pressure_positive",
              "schwarz_held", "identities_converged", "inequality_28_held",
              "derivative_inequality_held", "riccati_dominated")
# A run passes when A's two evaluations agree, the blow-up bound held and
# every check held.
VERDICT_KEYS = ("a_consistent", "blowup_bound_held", *CHECK_KEYS)
# The report keys only a run knows, with the type it writes: a float is a number or
# null (not finite), a string null unless the run broke down, an int never null.
RUN_KEYS = {"a_quadrature": float, "breakdown_kind": str, "breakdown_detail": str,
            "t_final": float, "n_steps": int, "p_absmax_max": float,
            "max_corner_residual": float}


def build_report(cfg: RunConfig, columns: dict[str, FloatArray], c1: float,
                 run: dict) -> dict:
    """The flat verification report, written as is (insertion order is frozen).

    From the CSV columns of a table, the configuration, c1 and ``run``, the
    values of ``RUN_KEYS``; a run broke down when its ``breakdown_kind`` is
    not None.  Besides ``evaluate_checks``' keys and ``run``, the report
    holds A = L(0), its relative difference from A by quadrature and their
    agreement, c1, T* = c1/A, ``t_break`` (``t_final`` after a breakdown,
    else NaN), whether it or t_final kept within T*, and ``all_passed``.
    """
    broke = run["breakdown_kind"] is not None
    t_break = run["t_final"] if broke else math.nan
    checks = evaluate_checks(columns, cfg, broke)
    a = float(columns["L"][0])
    a_rel_diff = abs(a - run["a_quadrature"]) / max(1.0, abs(run["a_quadrature"]))
    t_star = blowup_bound(a, c1) if checks["riccati_checked"] else math.nan
    # as in evaluate_checks, only a measured overrun fails: a NaN bound holds
    bound = t_star * (1.0 + cfg.bound_slack)
    report = {
        "a_quadrature": run["a_quadrature"],
        "a_virial": a,
        "a_rel_diff": a_rel_diff,
        "a_consistent": bool(a_rel_diff <= cfg.a_match_tol),
        "c1": c1,
        "t_star": t_star,
        "t_break": t_break,
        "breakdown_kind": run["breakdown_kind"],
        "breakdown_detail": run["breakdown_detail"],
        "t_final": run["t_final"],
        "blowup_bound_held": (not t_break > bound if broke
                              else not run["t_final"] >= bound),
        "all_passed": None,             # set below, once every verdict is in
        "n_records": columns["t"].size,
        "n_steps": run["n_steps"],
        "n_markers": cfg.n_markers,
        "wall_panels_per_side": cfg.wall_panels_per_side,
        "record_dt": cfg.record_dt,
        "area0": columns["area"][0],
        "p_absmax_max": run["p_absmax_max"],
        "max_corner_residual": run["max_corner_residual"],
        **checks,
    }
    report["all_passed"] = all(report[k] for k in VERDICT_KEYS)
    return report


# ---------------------------------------------------------------------------
# artifact writers (deterministic text, floats at 17 significant digits)
# ---------------------------------------------------------------------------

def _write_csv(path: str, header, rows):
    """A header line, then one line of float cells at 17 digits per row."""
    lines = [",".join(header)]
    lines.extend(",".join(format(v, ".17g") for v in row) for row in rows)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_diagnostics_csv(path: str, table: dict[str, FloatArray]):
    """Write the CSV columns of ``table``; the inverse of read_diagnostics_csv."""
    _write_csv(path, CSV_FIELDS,
               zip(*(table[name].tolist() for name in CSV_FIELDS)))


# The file name of record i's snapshot in the snapshot directory
_SNAPSHOT_NAME = "{:04d}.csv"


def _artifact_paths(run_dir: str) -> list[str]:
    """The paths of a run directory's artifacts, the one place they are named.

    In order: the resolved configuration (round-trippable), the diagnostics
    (one row per record, frozen column order), the verdict report (floats at
    17 significant digits), and the directory of ``_SNAPSHOT_NAME`` files.
    """
    return [os.path.join(run_dir, name) for name in
            ("config.json", "diagnostics.csv", "report.json", "snapshots")]


def write_snapshots(directory: str, snapshots):
    """One CSV per record: the uniform label i/(n-1), then the marker position."""
    os.makedirs(directory, exist_ok=True)
    for i, x in enumerate(snapshots):
        alpha = np.linspace(0.0, 1.0, len(x))
        _write_csv(os.path.join(directory, _SNAPSHOT_NAME.format(i)),
                   ("alpha", "x1", "x2"), np.column_stack([alpha, x]).tolist())


def _json_scalar(value) -> str:
    """A float at 17 digits, or null when not finite; else ``json.dumps``."""
    if isinstance(value, float):
        return format(value, ".17g") if math.isfinite(value) else "null"
    return json.dumps(value)


def write_report(path: str, report: dict):
    body = ",\n".join(f'  "{key}": {_json_scalar(value)}'
                      for key, value in report.items())
    with open(path, "w", newline="\n") as fh:
        fh.write("{\n" + body + "\n}\n")


def read_diagnostics_csv(path: str) -> dict[str, FloatArray]:
    """CSV columns by name; ValueError, naming the path, on a malformed file
    or time column, or on a non-finite value in a primary column.

    The ``t`` column must start at 0, as every run's does, and pass
    ``record_steps``, as in ``fill_derived``, so the derivative checks never
    see a repeated, non-finite or uneven time, nor the envelope a negative one.
    """
    expected = list(CSV_FIELDS)
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
        if header != expected:
            raise ValueError(f"unexpected header {header}")
        if not rows:
            raise ValueError("no data rows")
        # a non-numeric cell, or rows of different lengths, raise here
        data = np.array([[float(cell) for cell in row] for row in rows])
        if data.shape[1] != len(expected):
            raise ValueError("rows do not match the header")
    except ValueError as exc:           # bad UTF-8 too
        raise ValueError(f"{path}: {exc}") from exc
    columns = {name: data[:, j] for j, name in enumerate(expected)}
    # A run measures every primary column at every record, except dt at
    # record 0, which no step precedes.
    not_finite = [name for name in CSV_FIELDS if name not in DERIVED_FIELDS
                  and not np.isfinite(columns[name][1 if name == "dt" else 0:]).all()]
    if not_finite:
        raise ValueError(f"non-finite values in {path}: {', '.join(not_finite)}")
    if columns["t"][0] != 0.0:
        raise ValueError(f"the first record of {path} is not at t = 0")
    try:
        record_steps(columns["t"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return columns


def _clear_artifacts(run_dir: str):
    """Delete the artifacts an earlier run left in run_dir.

    Every artifact path is checked before any is deleted: it must be absent
    or what a run writes there, a regular file or, for the snapshots, a
    directory.  ``os.lstat`` never follows a symlink, so a symlink is
    neither, and ConfigError names the first path that fails.
    """
    *files, snapshot_dir = _artifact_paths(run_dir)
    present = []
    for path in (*files, snapshot_dir):
        try:
            mode = os.lstat(path).st_mode
        except FileNotFoundError:
            continue
        is_dir = path == snapshot_dir
        if not (stat.S_ISDIR if is_dir else stat.S_ISREG)(mode):
            raise ConfigError(f"cannot write over {path}: it is not a "
                              f"{'directory' if is_dir else 'regular file'}"
                              f"{' but a symlink' if stat.S_ISLNK(mode) else ''}")
        present.append(path)
    for path in present:
        (shutil.rmtree if path == snapshot_dir else os.remove)(path)


def simulate(cfg: RunConfig, out_dir: str) -> bool:
    """Run, write the artifacts to out_dir, and return whether the run passed."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
    # An output directory holds one run: drop the artifacts an earlier run
    # left there, so that a run that fails leaves none to pass as its own.
    _clear_artifacts(out_dir)
    cfg_path, csv_path, report_path, snapshot_dir = _artifact_paths(out_dir)
    result = run_simulation(cfg)
    report = build_report(cfg, result.table, result.c1, result.run)

    with open(cfg_path, "w", newline="\n") as fh:
        json.dump(dataclasses.asdict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_diagnostics_csv(csv_path, result.table)
    write_snapshots(snapshot_dir, result.snapshots)
    write_report(report_path, report)

    if report["breakdown_kind"]:
        log.info("breakdown: %s at t=%.6g (%s)", report["breakdown_kind"],
                 report["t_break"], report["breakdown_detail"])
    else:
        log.info("reached time cap t=%.6g", report["t_final"])
    log.info("report: all_passed=%s", report["all_passed"])
    return report["all_passed"]


def _differs(stored: FloatArray, recomputed: FloatArray) -> bool:
    """Whether a stored column differs from its recomputed bits; NaN is NaN."""
    both_nan = np.isnan(stored) & np.isnan(recomputed)
    return bool(np.any((stored.view(np.uint64) != recomputed.view(np.uint64))
                       & ~both_nan))


def _stored_run(report_path: str, stored: dict) -> dict:
    """``RUN_KEYS``' values in a stored report as a run passes them to ``build_report``,
    a missing key's as null; ValueError for one no run writes: of another type, a
    non-finite float, an unknown breakdown kind, or just one breakdown key null."""
    run = {}
    for key, kind in RUN_KEYS.items():
        value = run[key] = stored.get(key)
        if kind is float:
            run[key] = math.nan if value is None else float(
                _checked_number(f"{report_path}: {key}", value))
        elif key in stored and not (type(value) is kind
                                    or kind is str and value is None):
            raise ValueError(f"{report_path}: no run writes {value!r} as {key}")
    kind, detail = run["breakdown_kind"], run["breakdown_detail"]
    if (kind not in (None, *BREAKDOWN_KINDS) or (kind is None) != (detail is None)
            and {"breakdown_kind", "breakdown_detail"} <= stored.keys()):
        raise ValueError(f"{report_path}: no run writes breakdown_kind {kind!r} "
                         f"with breakdown_detail {detail!r}")
    return run


def _reads_back(stored, value) -> bool:
    """Whether a stored report value is ``value`` as ``write_report``
    writes it and ``json`` reads it back: the same type and value."""
    written = json.loads(_json_scalar(value))
    return type(stored) is type(written) and stored == written


def verify_identities(run_dir: str) -> bool:
    """Offline re-check of a run directory: whether every verdict holds and
    the report ``build_report`` rebuilds from it matches the stored one.
    ConfigError for a run directory no run writes."""
    cfg_path, csv_path, report_path, snapshot_dir = _artifact_paths(run_dir)
    try:
        cfg = RunConfig.from_json(cfg_path)
        columns = read_diagnostics_csv(csv_path)
        stored = _read_json(report_path, "report")
        if not isinstance(stored, dict):
            raise ValueError(f"{report_path} is not a JSON object")
        not_bool = [k for k in (*VERDICT_KEYS, "all_passed")
                    if not isinstance(stored.get(k), bool)]
        if not_bool:
            raise ValueError(f"{report_path}: not true or false: "
                             f"{', '.join(not_bool)}")
        if type(stored.get("n_records")) is not int:
            raise ValueError(f"{report_path}: n_records is not an integer")
        run = _stored_run(report_path, stored)     # what the run alone knows
        snapshots = set(os.listdir(snapshot_dir))
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(str(exc)) from exc

    # The Riccati columns are recomputed, not trusted: A = L(0), and c1 is
    # constant_c1 of the flat initial surface, whose area the first record
    # carries.  One record has no L', so its slack is NaN.
    n = columns["t"].size
    c1 = constant_c1(float(columns["area"][0]))
    with np.errstate(all="ignore"):     # an edited L may overflow L' or L^2
        envelope, slack = riccati_columns(columns["t"], columns["L"], c1,
                                          float(columns["L"][0]))
    recomputed = {"envelope": envelope, "riccati_slack": slack}
    altered = [name for name, column in recomputed.items()
               if _differs(columns[name], column)]
    # The others cannot be recomputed, but where they are finite is known.
    misplaced = [name for name, least in FINITE_FROM.items()
                 if not (np.isfinite if n >= least else np.isnan)(columns[name]).all()]
    columns.update(recomputed)
    report = build_report(cfg, columns, c1, run)

    if not report["derivatives_checked"]:
        log.info("insufficient records: derivative checks skipped")

    failed = [k for k in VERDICT_KEYS if not report[k]]
    # Run values are not compared (1.0 edited into t_final reads back as 1), but a
    # run ends at its last record or later, and at the cap unless it broke down;
    # it steps before each record but the first.
    t_end = max(columns["t"][-1], cfg.t_end_cap - RECORD_TIME_SLOP
                if run["breakdown_kind"] is None else -math.inf)
    unlike_a_run = {"t_final": not run["t_final"] >= t_end,
                    "n_steps": run["n_steps"] is not None and run["n_steps"] < n - 1}
    mismatched = [k for k, value in report.items() if k not in stored or unlike_a_run.get(k)
                  or k not in RUN_KEYS and not _reads_back(stored[k], value)]
    mismatched += [k for k in stored if k not in report]    # no run writes them
    # one snapshot per record, named as write_snapshots names them; the
    # directory is only listed, never read
    if snapshots != {_SNAPSHOT_NAME.format(i) for i in range(n)}:
        mismatched.append(os.path.basename(snapshot_dir))
    for key in CHECK_KEYS:
        note = " (mismatches report)" if key in mismatched else ""
        log.info("  %s: %s%s", key, report[key], note)
    if failed:
        log.warning("failed checks: %s", ", ".join(failed))
    if mismatched:
        log.warning("report mismatch: %s", ", ".join(mismatched))
    if altered:
        log.warning("stored columns differ from their recomputed values: %s",
                    ", ".join(altered))
    if misplaced:
        log.warning("derived columns not finite where a run writes them so, "
                    "or not NaN where it leaves them NaN: %s", ", ".join(misplaced))
    if failed or mismatched or altered or misplaced:
        return False
    log.info("all recomputed checks passed and match the stored report")
    return True


# ---------------------------------------------------------------------------
# BEM validation sweep
# ---------------------------------------------------------------------------

def mode_errors(mesh, ks) -> FloatArray:
    """Per-panel solve errors of harmonic modes on one mesh, from one solve.

    Mode k is ``ModePotential(((k, 1.0),))``; k = 0 is the constant 1.  Each
    mode solves the box problem on any surface: its trace on the surface
    panels is imposed as Dirichlet data, and its flux vanishes on all three
    walls.  All modes share the mesh's one assembly and LU (a stacked
    ``bem.solve_mixed_bvp``).  Returns (len(ks), n_panels): the solved
    value's error |value - phi_k| on a wall panel and the solved flux's
    |flux - d_n phi_k| on a surface panel, each relative to the mode's
    amplitude cosh(k pi), so that different k are comparable.
    """
    x1, x2 = mesh.midpoints.T
    sl = mesh.surface_slice
    exact = []
    for k in ks:
        mode = ModePotential(((k, 1.0),))
        grad = np.column_stack(mode.velocity(x1, x2))
        exact.append((mode.phi(x1, x2), np.einsum("ij,ij->i", grad, mesh.normals)))
    cd = bem.solve_mixed_bvp(mesh, np.array([phi[sl] for phi, _ in exact]))
    errors = np.abs(cd.values - [phi for phi, _ in exact])
    errors[:, sl] = np.abs(cd.fluxes[:, sl] - [q[sl] for _, q in exact])
    for k, row in zip(ks, errors):
        row /= math.cosh(k * math.pi)
    return errors


def _flat_mesh_errors(n_markers: int, ks) -> list[float]:
    """``mode_errors``' largest per mode on one flat mesh, with
    ``n_markers`` markers and ``n_markers // 2`` wall panels per side.

    The surface values are the given data, so a surface panel's value
    error is zero, and the largest of the value and flux errors is the
    largest per-panel error.
    """
    mesh = build_boundary_mesh(flat_interface(n_markers), n_markers // 2)
    return [float(row.max()) for row in mode_errors(mesh, ks)]


def validate_bem(cfg: RunConfig) -> bool:
    """Convergence sweep over the configured panel counts and modes.

    Passes when every mode's error decreases monotonically with a mean
    measured order of at least one and is at most ``BEM_ERROR_BOUND`` at the
    finest count, and the constant-data solve is exact to 1e-8.  Logs the
    error table at INFO.  Each panel count's mesh is built, assembled and
    factored once, for all of its data: every mode, and at the first count
    the constant datum (mode 0) too.  The other counts are solved from the
    largest down, so that the coarser solves reuse the heap pages the
    largest one faulted in instead of each growing the process past the
    last; no count's errors depend on another's, and the table is logged
    in the configured order.
    """
    counts, ks = cfg.bem_panel_counts, cfg.bem_mode_ks
    const_err, *first = _flat_mesh_errors(counts[0], (0, *ks))
    log.info("constant data: max error %.3e", const_err)
    ok = not const_err > 1e-8

    # RunConfig keeps the counts increasing, so the finest is the last
    rest = [_flat_mesh_errors(n, ks) for n in counts[:0:-1]] if ks else []
    for k, errs in zip(ks, zip(first, *reversed(rest))):
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        mean_order = sum(orders) / len(orders)
        monotone = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
        log.info("mode k=%d: %s  order=%.2f", k,
                 "  ".join(f"{n}:{e:.3e}" for n, e in zip(counts, errs)),
                 mean_order)
        if errs[-1] > BEM_ERROR_BOUND:
            log.info("mode k=%d: error %.3e at %d panels is above %g", k,
                     errs[-1], counts[-1], BEM_ERROR_BOUND)
        if not monotone or mean_order < 1.0 or errs[-1] > BEM_ERROR_BOUND:
            ok = False

    log.info("validation %s", "passed" if ok else "FAILED")
    return ok
