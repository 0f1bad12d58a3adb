"""Batch driver: configuration, the record loop, artifact writers, and verdicts.

A run integrates the free surface from mode-built initial data, collects
its diagnostics by column name at uniformly spaced record times, and stops
at breakdown or at the time cap.  The records then become one table of
float64 columns, shared by the derived columns, the verdicts and the CSV
writer.  Breakdown is a success outcome — the point of the run is to witness
it — so only violated checks fail a run.

Artifacts written to the output directory:

* ``config.json``       — the fully resolved configuration (round-trippable),
* ``diagnostics.csv``   — one row per record, frozen column order,
* ``snapshots/NNNN.csv``— interface markers (alpha = i/(n-1), x1, x2) per record,
* ``report.json``       — flat verdict report, floats at 17 significant digits.

Verdicts are recomputed from the CSV columns alone (plus the configuration)
so that ``verify-identities`` can re-derive them offline from a run directory
and match the report bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import numbers
import os
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import bem
from .diagnostics import (CSV_FIELDS, blowup_bound, constant_c1,
                          detect_breakdown, fill_derived, int_pressure,
                          int_u1_squared, record_steps, virial_parts,
                          wall_u2_squared)
from .errors import BreakdownError, BreakdownSignal, GeometryError
from .evolution import (FlowState, adaptive_dt, kinetic_energy,
                        redistribute_markers, rk4_step, state_derivative)
from .geometry import (build_boundary_mesh, flat_interface, gradient_1d,
                       polygon_area, row_norms)
from .modes import ModePotential, initial_A, sample_initial_state
from .pressure import PressureField, pressure_min, wall_pressure_integral

FloatArray = NDArray[np.float64]

log = logging.getLogger(__name__)

RECORD_TIME_SLOP = 1e-12


class ConfigError(ValueError):
    """Invalid or unparseable run configuration."""


def _checked_number(name: str, value, integral: bool = False):
    """A finite real config value, as an int when ``integral``; else ConfigError.

    Floats pass through unconverted, so config.json keeps the given spelling.
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


def _mode_fits_float64(k: int) -> bool:
    """Whether k pi cosh(k pi), the largest gradient term of the mode
    cos(k pi x1) cosh(k pi x2) in the unit box, is a finite float64."""
    try:
        return math.isfinite(k * math.pi * math.cosh(k * math.pi))
    except OverflowError:               # math.cosh itself overflowed
        return False


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; mirrors the JSON configuration file.

    ``modes`` is a list of (wavenumber k, coefficient a_k) pairs defining the
    initial potential sum a_k cos(k pi x1) cosh(k pi x2); an empty list is
    still fluid.  Tolerances are grouped at the bottom; ``detect_breakdown``
    scales ``collide_tol`` and ``curv_factor`` by the initial marker spacing.
    Every range is checked here, once: the numerics trust these values.
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
            if f.type == "int":
                object.__setattr__(self, f.name, _checked_number(
                    f.name, getattr(self, f.name), integral=True))
            elif f.type == "float":
                _checked_number(f.name, getattr(self, f.name))
        object.__setattr__(self, "modes", tuple(
            (_checked_number("mode wavenumber", k, integral=True),
             float(_checked_number("mode coefficient", a)))
            for k, a in self.modes))
        object.__setattr__(self, "bem_panel_counts", tuple(
            _checked_number("bem_panel_counts entry", n, integral=True)
            for n in self.bem_panel_counts))
        object.__setattr__(self, "bem_mode_ks", tuple(
            _checked_number("bem_mode_ks entry", k, integral=True)
            for k in self.bem_mode_ks))
        if len(self.bem_panel_counts) < 2 or min(self.bem_panel_counts) < 8:
            raise ConfigError("bem_panel_counts needs at least two counts, "
                              "each at least 8 (a convergence order needs two)")
        if any(k < 1 for k in self.bem_mode_ks):
            raise ConfigError("bem_mode_ks entries must be positive")
        too_large = [k for k in self.bem_mode_ks if not _mode_fits_float64(k)]
        if too_large:
            raise ConfigError(f"bem_mode_ks entries {too_large}: the mode's gradient "
                              "k pi cosh(k pi) exceeds float64's range")
        if any(k < 1 for k, _ in self.modes):
            raise ConfigError("mode wavenumbers must be at least 1")
        if self.n_markers < 8:
            raise ConfigError("n_markers must be at least 8")
        if self.wall_panels_per_side < 4:
            raise ConfigError("wall_panels_per_side must be at least 4")
        if not 0.0 < self.cfl <= 1.0:
            raise ConfigError("cfl must be in (0, 1]")
        if self.t_end_cap <= 0.0:
            raise ConfigError("t_end_cap must be positive")
        if not 0.0 < self.dt_min <= self.dt_max:
            raise ConfigError("need 0 < dt_min <= dt_max")
        if self.record_dt <= 0.0:
            raise ConfigError("record_dt must be positive")
        if self.redistribute_every < 0:
            raise ConfigError("redistribute_every must be nonnegative (0 disables)")
        if self.lattice_n < 2:
            raise ConfigError("lattice_n must be at least 2")
        for name in ("area_tol", "energy_tol", "ident_tol", "positivity_tol",
                     "check_tol", "deriv_tol", "riccati_tol", "bound_slack",
                     "a_match_tol", "collide_tol", "curv_factor", "L_max",
                     "near_field_factor"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")

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
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def potential(self) -> ModePotential:
        pot = ModePotential(terms=self.modes)
        try:
            pot.check_corners()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return pot


@dataclass
class SimulationResult:
    """In-memory outcome of the record loop, before verdicts and writing."""

    table: dict[str, FloatArray]    # one float64 column per record field
    snapshots: list[FloatArray]     # (n,2) marker positions per record
    breakdown: BreakdownSignal | None
    n_steps: int
    t_final: float
    a_quadrature: float
    c1: float


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
    p_min_val, _, p_absmax = pressure_min(field_, lattice_n)
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

    Logs one INFO line per record.  Stops at breakdown (recorded, not
    raised) or at the time cap.
    """
    potential = cfg.potential()
    state = sample_initial_state(potential, cfg.n_markers,
                                 cfg.wall_panels_per_side)
    records: list[dict[str, float]] = []
    snapshots: list[FloatArray] = []
    breakdown: BreakdownSignal | None = None
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
                    # that bounds no domain; stop as the detector classifies it.
                    breakdown = detect_breakdown(
                        state, cfg, L=records[-1]["L"] if records else None)
                    if breakdown is None:
                        raise
                    break
                records.append(rec)
                snapshots.append(state.curve.x.copy())
                log.info("  t=%.6f  L=%.5f  p_min=%.4g  E=%.6f",
                         rec["t"], rec["L"], rec["p_min"], rec["energy"])
                next_record += cfg.record_dt
            if state.t >= cfg.t_end_cap - RECORD_TIME_SLOP:
                break
            signal = detect_breakdown(state, cfg, L=records[-1]["L"])
            if signal is not None:
                breakdown = signal
                break
            deriv = state_derivative(state)
            speeds = row_norms(deriv.velocity)
            dt = adaptive_dt(state, speeds, cfg.cfl, cfg.dt_min, cfg.dt_max)
            dt = min(dt, next_record - state.t, cfg.t_end_cap - state.t)
            state = rk4_step(state, dt)
            last_dt = dt
            n_steps += 1
            if cfg.redistribute_every and n_steps % cfg.redistribute_every == 0:
                state = redistribute_markers(state)
    except BreakdownError as exc:
        breakdown = exc.signal

    # the t = 0 record is always taken: the initial surface is flat
    table = {name: np.array([r[name] for r in records], dtype=np.float64)
             for name in records[0]}
    c1 = constant_c1(
        build_boundary_mesh(flat_interface(cfg.n_markers),
                            cfg.wall_panels_per_side))
    fill_derived(table, c1, records[0]["L"])
    return SimulationResult(table=table, snapshots=snapshots,
                            breakdown=breakdown, n_steps=n_steps,
                            t_final=state.t, a_quadrature=initial_A(potential),
                            c1=c1)


# ---------------------------------------------------------------------------
# verdicts (shared by simulate and verify-identities; CSV columns only)
# ---------------------------------------------------------------------------

def _finite(values: FloatArray) -> FloatArray:
    return values[np.isfinite(values)]


def _min_or(values: FloatArray) -> float:
    values = _finite(values)
    return float(values.min()) if values.size else math.inf


def _max_or(values: FloatArray, default: float = -math.inf) -> float:
    values = _finite(values)
    return float(values.max()) if values.size else default


def evaluate_checks(columns: dict[str, FloatArray], cfg: RunConfig,
                    broke: bool) -> dict:
    """Boolean verdicts and worst-case margins from the diagnostics table.

    Uses only the frozen CSV columns plus the configuration, so an offline
    re-check of a run directory reproduces the same verdicts.  Records are
    assumed uniformly spaced in time, and there is at least one.  ``broke``
    excludes the final record from the conservation drift checks (it may
    sit on top of the breakdown).  A margin that cannot be measured is NaN:
    the derivative-based ones below three records, the Riccati ones unless
    A = L(0) > 0.  A check fails only on a measured violation, so a NaN
    margin holds.
    """
    t = columns["t"]
    L = columns["L"]
    n = t.size
    a_virial = float(L[0])
    riccati_checked = bool(np.isfinite(a_virial) and a_virial > 0.0)
    derivatives_checked = n >= 3
    l2 = np.maximum(1.0, L ** 2)

    # conservation: drift relative to the first record, final record excluded
    # after breakdown
    last = n - 1 if (broke and n > 1) else n
    energy = columns["energy"][:last]
    area = columns["area"][:last]
    energy_drift = _max_or(np.abs(energy - energy[0])
                           / max(abs(float(energy[0])), 1e-9), 0.0)
    area_drift = _max_or(np.abs(area - area[0])
                         / max(abs(float(area[0])), 1e-9), 0.0)

    # pressure positivity; the scale proxy is the largest |p_min| on record
    p_min = columns["p_min"]
    margin_pressure = _min_or(p_min) / max(1.0, _max_or(np.abs(p_min), 0.0))

    # Schwarz slacks; the product of the two bounding factors is the scale
    sv = columns["schwarz_vol"]
    sw = columns["schwarz_wall"]
    scale_v = np.maximum(1.0, sv + columns["volume_part"] ** 2)
    scale_w = np.maximum(1.0, sw + columns["wall_part"] ** 2)
    margin_schwarz = min(_min_or(sv / scale_v), _min_or(sw / scale_w))

    # derivative-based margins score the interior records only
    worst_ident = margin_growth = margin_derivative = math.nan
    if derivatives_checked:
        interior = slice(1, n - 1)
        wall_p = np.abs(columns["wall_p_integral"])
        dvol = gradient_1d(columns["volume_part"], t)
        dwall = gradient_1d(columns["wall_part"], t)
        dL = gradient_1d(L, t)
        scale_26 = np.maximum(1.0, np.abs(dvol) + wall_p)
        scale_27 = np.maximum(1.0, np.abs(dwall) + wall_p)
        worst_ident = max(
            _max_or(columns["residual_26"][interior] / scale_26[interior], 0.0),
            _max_or(columns["residual_27"][interior] / scale_27[interior], 0.0))
        scale_growth = np.maximum(1.0, np.abs(dL))
        margin_growth = _min_or(columns["slack_28"][interior]
                                / scale_growth[interior])
        if riccati_checked:
            margin_derivative = _min_or(columns["riccati_slack"][interior]
                                        / l2[interior])

    # Riccati domination against the closed-form envelope
    margin_riccati = math.nan
    if riccati_checked:
        envelope = columns["envelope"]
        valid = np.isfinite(envelope)
        margin_riccati = _min_or((L[valid] - envelope[valid]) / l2[valid])

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


def build_report(cfg: RunConfig, result: SimulationResult) -> dict:
    """Flat verification report for report.json (insertion order is frozen)."""
    table = result.table
    n_records = table["t"].size
    broke = result.breakdown is not None
    checks = evaluate_checks(table, cfg, broke)

    a = float(table["L"][0])
    a_rel_diff = (abs(a - result.a_quadrature)
                  / max(1.0, abs(result.a_quadrature)))
    a_consistent = bool(a_rel_diff <= cfg.a_match_tol)
    t_star = blowup_bound(a, result.c1) if checks["riccati_checked"] else math.nan
    # as in evaluate_checks, only a measured overrun fails: a NaN bound holds
    bound = t_star * (1.0 + cfg.bound_slack)
    blowup_bound_held = (not result.breakdown.t_break > bound if broke
                         else not result.t_final >= bound)

    passed = (a_consistent and blowup_bound_held
              and all(checks[k] for k in CHECK_KEYS))

    report = {
        "a_quadrature": result.a_quadrature,
        "a_virial": a,
        "a_rel_diff": a_rel_diff,
        "a_consistent": a_consistent,
        "c1": result.c1,
        "t_star": t_star,
        "t_break": result.breakdown.t_break if broke else math.nan,
        "breakdown_kind": result.breakdown.kind if broke else None,
        "breakdown_detail": result.breakdown.detail if broke else None,
        "t_final": result.t_final,
        "blowup_bound_held": blowup_bound_held,
        "all_passed": bool(passed),
        "n_records": n_records,
        "n_steps": result.n_steps,
        "n_markers": cfg.n_markers,
        "wall_panels_per_side": cfg.wall_panels_per_side,
        "record_dt": cfg.record_dt,
        "area0": table["area"][0],
        "p_absmax_max": _max_or(table["p_absmax"], math.nan),
        "max_corner_residual": _max_or(table["corner_residual"], math.nan),
    }
    report.update(checks)
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


def write_snapshots(directory: str, snapshots):
    """One CSV per record: the uniform label i/(n-1), then the marker position."""
    os.makedirs(directory, exist_ok=True)
    for i, x in enumerate(snapshots):
        alpha = np.linspace(0.0, 1.0, len(x))
        _write_csv(os.path.join(directory, f"{i:04d}.csv"), ("alpha", "x1", "x2"),
                   np.column_stack([alpha, x]).tolist())


def _json_scalar(value) -> str:
    """A float at 17 digits, or null when not finite; else ``json.dumps``."""
    if isinstance(value, float):
        return format(value, ".17g") if math.isfinite(value) else "null"
    return json.dumps(value)


def write_report(path: str, report: dict):
    lines = ["{"]
    items = list(report.items())
    for i, (key, value) in enumerate(items):
        comma = "," if i < len(items) - 1 else ""
        lines.append(f'  "{key}": {_json_scalar(value)}{comma}')
    lines.append("}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_diagnostics_csv(path: str) -> dict[str, FloatArray]:
    """CSV columns by name; ValueError on a malformed file or time column.

    The ``t`` column must pass ``record_steps``, as in ``fill_derived``, so
    the derivative checks never see a repeated, non-finite or uneven time.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    expected = list(CSV_FIELDS)
    if header != expected:
        raise ValueError(f"unexpected diagnostics header: {header}")
    if not rows:
        raise ValueError("diagnostics.csv has no data rows")
    data = np.array([[float(cell) for cell in row] for row in rows])
    if data.shape[1] != len(expected):
        raise ValueError("ragged diagnostics.csv")
    columns = {name: data[:, j] for j, name in enumerate(expected)}
    record_steps(columns["t"])
    return columns


def simulate(cfg: RunConfig, out_dir: str | None = None) -> int:
    """Run, write artifacts, and return the exit code."""
    out = out_dir if out_dir is not None else cfg.out_dir
    os.makedirs(out, exist_ok=True)
    result = run_simulation(cfg)
    report = build_report(cfg, result)

    with open(os.path.join(out, "config.json"), "w", newline="\n") as fh:
        json.dump(dataclasses.asdict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_diagnostics_csv(os.path.join(out, "diagnostics.csv"), result.table)
    write_snapshots(os.path.join(out, "snapshots"), result.snapshots)
    write_report(os.path.join(out, "report.json"), report)

    if result.breakdown is not None:
        log.info("breakdown: %s at t=%.6g (%s)", result.breakdown.kind,
                 result.breakdown.t_break, result.breakdown.detail)
    else:
        log.info("reached time cap t=%.6g", result.t_final)
    log.info("report: all_passed=%s", report["all_passed"])
    return 0 if report["all_passed"] else 1


def verify_identities(run_dir: str) -> int:
    """Offline re-check of a run directory; exit-code semantics of the CLI."""
    csv_path = os.path.join(run_dir, "diagnostics.csv")
    cfg_path = os.path.join(run_dir, "config.json")
    report_path = os.path.join(run_dir, "report.json")
    try:
        cfg = RunConfig.from_json(cfg_path)
        columns = read_diagnostics_csv(csv_path)
        with open(report_path) as fh:
            stored = json.load(fh)
        if not isinstance(stored, dict):
            raise ValueError(f"{report_path} is not a JSON object")
        not_bool = [k for k in CHECK_KEYS
                    if k in stored and not isinstance(stored[k], bool)]
        if not_bool:
            raise ValueError(f"{report_path}: not true or false: "
                             f"{', '.join(not_bool)}")
        kind = stored.get("breakdown_kind")
        if not (kind is None or isinstance(kind, str)):
            raise ValueError(f"{report_path}: breakdown_kind is neither "
                             f"null nor a string: {kind!r}")
    except (OSError, ValueError, ConfigError) as exc:
        log.warning("error: %s", exc)
        return 2

    broke = kind is not None
    checks = evaluate_checks(columns, cfg, broke)

    if not checks["derivatives_checked"]:
        log.info("insufficient records: derivative checks skipped")

    failed = [k for k in CHECK_KEYS if not checks[k]]
    mismatched = [k for k in CHECK_KEYS if k in stored and stored[k] != checks[k]]
    for key in CHECK_KEYS:
        note = " (mismatches report)" if key in mismatched else ""
        log.info("  %s: %s%s", key, checks[key], note)
    if failed:
        log.warning("failed checks: %s", ", ".join(failed))
    if mismatched:
        log.warning("report mismatch: %s", ", ".join(mismatched))
    if failed or mismatched:
        return 1
    log.info("all recomputed checks passed and match the stored report")
    return 0


# ---------------------------------------------------------------------------
# BEM validation sweep
# ---------------------------------------------------------------------------

def _flat_mesh_errors(n_markers: int, ks) -> list[float]:
    """L-inf solve errors of harmonic modes on one flat mesh, from one solve.

    The mesh has ``n_markers`` markers and ``n_markers // 2`` wall panels
    per side.  Mode k is cos(k pi x1) cosh(k pi x2); k = 0 is the constant
    1.  A mode has zero flux on all three walls; its surface trace is
    imposed as Dirichlet data and the solved wall values and surface fluxes
    are compared against the closed form.  All modes share the mesh's one
    assembly and LU (a stacked ``bem.solve_mixed_bvp``).  Returns one error
    per k, relative to the mode's amplitude cosh(k pi) so that different k
    are comparable.
    """
    mesh = build_boundary_mesh(flat_interface(n_markers), n_markers // 2)
    mid = mesh.midpoints
    sl = mesh.surface_slice
    exact = []
    for k in ks:
        exact_phi = np.cos(k * np.pi * mid[:, 0]) * np.cosh(k * np.pi * mid[:, 1])
        grad = np.column_stack([
            -k * np.pi * np.sin(k * np.pi * mid[:, 0]) * np.cosh(k * np.pi * mid[:, 1]),
            k * np.pi * np.cos(k * np.pi * mid[:, 0]) * np.sinh(k * np.pi * mid[:, 1])])
        exact.append((exact_phi, np.einsum("ij,ij->i", grad, mesh.normals)))
    cd = bem.solve_mixed_bvp(mesh, np.array([phi[sl] for phi, _ in exact]))
    errs = []
    for k, (exact_phi, exact_q), values, fluxes in zip(ks, exact, cd.values, cd.fluxes):
        # the surface values are the given data, so only wall values can differ
        err_phi = float(np.abs(values - exact_phi).max())
        err_q = float(np.abs(fluxes[sl] - exact_q[sl]).max())
        errs.append(max(err_phi, err_q) / math.cosh(k * math.pi))
    return errs


def validate_bem(cfg: RunConfig) -> int:
    """Convergence sweep over the configured panel counts and modes.

    Passes when every mode's error decreases monotonically with a mean
    measured order of at least one, and the constant-data solve is exact to
    1e-8.  Logs the error table at INFO.  Each panel count's mesh is built,
    assembled and factored once, for all of its data: every mode, and at
    the first count the constant datum (mode 0) too.
    """
    counts, ks = cfg.bem_panel_counts, cfg.bem_mode_ks
    ok = True
    const_err, *first = _flat_mesh_errors(counts[0], (0, *ks))
    log.info("constant data: max error %.3e", const_err)
    if const_err > 1e-8:
        ok = False

    rest = [_flat_mesh_errors(n, ks) for n in counts[1:]] if ks else []
    for k, errs in zip(ks, zip(first, *rest)):
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        mean_order = sum(orders) / len(orders)
        monotone = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
        log.info("mode k=%d: %s  order=%.2f", k,
                 "  ".join(f"{n}:{e:.3e}" for n, e in zip(counts, errs)),
                 mean_order)
        if not monotone or mean_order < 1.0:
            ok = False

    log.info("validation %s", "passed" if ok else "FAILED")
    return 0 if ok else 1
