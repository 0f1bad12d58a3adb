"""Batch driver: configuration, the record loop, artifact writers, and verdicts.

A run integrates the free surface from mode-built initial data, collects a
DiagnosticsRecord at uniformly spaced record times, and stops at breakdown
or at the time cap.  Breakdown is a success outcome — the point of the run
is to witness it — so only violated checks fail a run.

Artifacts written to the output directory:

* ``config.json``       — the fully resolved configuration (round-trippable),
* ``diagnostics.csv``   — one row per record, frozen column order,
* ``snapshots/NNNN.csv``— interface markers (alpha, x1, x2) per record,
* ``report.json``       — flat verdict report, floats at 17 significant digits.

Verdicts are recomputed from the CSV columns alone (plus the configuration)
so that ``verify-identities`` can re-derive them offline from a run directory
and match the report bit for bit.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from . import bem, kernels
from .diagnostics import (DetectorConfig, DiagnosticsRecord, constant_c1,
                          detect_breakdown, fill_derived, int_pressure,
                          int_u1_squared, virial_parts, wall_u2_squared)
from .errors import BreakdownError, BreakdownSignal, GeometryError
from .evolution import (FlowState, adaptive_dt, kinetic_energy,
                        redistribute_markers, rk4_step, state_derivative,
                        velocity_from_cauchy)
from .geometry import BoundaryMesh, build_boundary_mesh, flat_interface, polygon_area
from .modes import ModePotential, initial_A, sample_initial_state
from .pressure import PressureField, pressure_min, wall_pressure_integral

FloatArray = NDArray[np.float64]

RECORD_TIME_SLOP = 1e-12


class ConfigError(ValueError):
    """Invalid or unparseable run configuration."""


def _checked_number(name: str, value, integral: bool = False):
    """A finite real config value, as an int when ``integral``; else ConfigError.

    Floats pass through unconverted, so config.json keeps the given spelling.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if integral:
        if not float(value).is_integer():
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        return int(value)
    return value


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; mirrors the JSON configuration file.

    ``modes`` is a list of (wavenumber k, coefficient a_k) pairs defining the
    initial potential sum a_k cos(k pi x1) cosh(k pi x2); an empty list is
    still fluid.  Tolerances are grouped at the bottom; detector thresholds
    follow DetectorConfig with ``curv_factor`` scaled by initial spacing.
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

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["modes"] = [list(m) for m in self.modes]
        out["bem_panel_counts"] = list(self.bem_panel_counts)
        out["bem_mode_ks"] = list(self.bem_mode_ks)
        return out

    def potential(self) -> ModePotential:
        try:
            pot = ModePotential(terms=self.modes)
            pot.check_corners()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return pot


@dataclass
class SimulationResult:
    """In-memory outcome of the record loop, before verdicts and writing."""

    records: list[DiagnosticsRecord]
    snapshots: list[tuple[FloatArray, FloatArray]]   # (alpha, markers) per record
    breakdown: BreakdownSignal | None
    n_steps: int
    t_final: float
    a_quadrature: float
    a_virial: float
    c1: float
    area0: float


def _collect_record(state: FlowState, dt_used: float,
                    lattice_n: int, near_field_factor: float) -> DiagnosticsRecord:
    mesh = state.mesh
    cd = state.cauchy
    field_ = PressureField.from_state(state, near_field_factor)
    L, volume_part, wall_part = virial_parts(state, cd)
    p_min_val, _, p_absmax = pressure_min(field_, lattice_n)
    _, corner_residual = velocity_from_cauchy(state, cd)
    rec = DiagnosticsRecord(t=state.t, L=L, volume_part=volume_part,
                            wall_part=wall_part)
    rec.int_u1sq = int_u1_squared(mesh, cd)
    rec.int_p = int_pressure(mesh, cd, field_.phi_t_cauchy)
    rec.wall_u2sq = wall_u2_squared(mesh, cd)
    rec.wall_p_integral = wall_pressure_integral(field_)
    rec.p_min = p_min_val
    rec.p_absmax = p_absmax
    rec.corner_residual = corner_residual
    rec.energy = kinetic_energy(state, cd)
    rec.area = polygon_area(mesh)
    rec.dt = dt_used
    return rec


def run_simulation(cfg: RunConfig, progress=None) -> SimulationResult:
    """Integrate from the configured initial data, recording diagnostics.

    ``progress`` is an optional callable fed each fresh DiagnosticsRecord.
    Stops at breakdown (recorded, not raised) or at the time cap.
    """
    potential = cfg.potential()
    state = sample_initial_state(potential, cfg.n_markers,
                                 cfg.wall_panels_per_side)
    detectors = DetectorConfig(
        initial_spacing=1.0 / (cfg.n_markers - 1),
        collide_tol=cfg.collide_tol,
        curv_max=cfg.curv_factor * (cfg.n_markers - 1),
        L_max=cfg.L_max)

    records: list[DiagnosticsRecord] = []
    snapshots: list[tuple[FloatArray, FloatArray]] = []
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
                        state, detectors, L=records[-1].L if records else None)
                    if breakdown is None:
                        raise
                    break
                records.append(rec)
                snapshots.append((state.curve.alpha.copy(),
                                  state.curve.x.copy()))
                if progress is not None:
                    progress(rec)
                next_record += cfg.record_dt
            if state.t >= cfg.t_end_cap - RECORD_TIME_SLOP:
                break
            signal = detect_breakdown(state, detectors,
                                      L=records[-1].L if records else None)
            if signal is not None:
                breakdown = signal
                break
            deriv = state_derivative(state)
            speeds = np.linalg.norm(deriv.velocity, axis=1)
            dt = adaptive_dt(state, cfg.cfl, cfg.dt_min, cfg.dt_max,
                             speeds=speeds)
            dt = min(dt, next_record - state.t, cfg.t_end_cap - state.t)
            state = rk4_step(state, dt)
            last_dt = dt
            n_steps += 1
            if cfg.redistribute_every and n_steps % cfg.redistribute_every == 0:
                state = redistribute_markers(state)
    except BreakdownError as exc:
        breakdown = exc.signal

    a_virial = records[0].L if records else math.nan
    c1 = constant_c1(
        build_boundary_mesh(flat_interface(cfg.n_markers),
                            cfg.wall_panels_per_side))
    area0 = records[0].area if records else math.nan
    fill_derived(records, area0, c1,
                 a_virial if records and a_virial > 0.0 else None)
    return SimulationResult(records=records, snapshots=snapshots,
                            breakdown=breakdown, n_steps=n_steps,
                            t_final=state.t, a_quadrature=initial_A(potential),
                            a_virial=a_virial, c1=c1, area0=area0)


# ---------------------------------------------------------------------------
# verdicts (shared by simulate and verify-identities; CSV columns only)
# ---------------------------------------------------------------------------

def _finite(values: FloatArray) -> FloatArray:
    return values[np.isfinite(values)]


def _min_or(values: FloatArray, default: float = math.inf) -> float:
    values = _finite(values)
    return float(values.min()) if values.size else default


def _max_or(values: FloatArray, default: float = -math.inf) -> float:
    values = _finite(values)
    return float(values.max()) if values.size else default


def evaluate_checks(columns: dict[str, FloatArray], cfg: RunConfig,
                    c1: float, broke: bool) -> dict:
    """Boolean verdicts and worst-case margins from the diagnostics table.

    Uses only the frozen CSV columns plus the configuration, so an offline
    re-check of a run directory reproduces the same verdicts.  Records are
    assumed uniformly spaced in time.  ``broke`` excludes the final record
    from the conservation drift checks (it may sit on top of the breakdown).
    A single-record table skips every derivative-based check and reports
    ``derivatives_checked = False``.
    """
    t = columns["t"]
    L = columns["L"]
    n = t.size
    a_virial = float(L[0]) if n else math.nan
    riccati_checked = bool(n and np.isfinite(a_virial) and a_virial > 0.0)
    derivatives_checked = n >= 3

    out: dict = {"riccati_checked": riccati_checked,
                 "derivatives_checked": derivatives_checked}

    # conservation: drift relative to the first record, final record excluded
    # after breakdown
    last = n - 1 if (broke and n > 1) else n
    energy = columns["energy"][:last]
    area = columns["area"][:last]
    e_scale = max(abs(float(energy[0])), 1e-9) if n else 1.0
    a_scale = max(abs(float(area[0])), 1e-9) if n else 1.0
    energy_drift = _max_or(np.abs(energy - energy[0]) / e_scale, 0.0) if n else math.nan
    area_drift = _max_or(np.abs(area - area[0]) / a_scale, 0.0) if n else math.nan
    out["energy_drift_max"] = energy_drift
    out["area_drift_max"] = area_drift
    out["energy_conserved"] = bool(energy_drift <= cfg.energy_tol)
    out["area_conserved"] = bool(area_drift <= cfg.area_tol)

    # pressure positivity; the scale proxy is the largest |p_min| on record
    p_min = columns["p_min"]
    p_scale = max(1.0, _max_or(np.abs(p_min), 0.0))
    margin_pressure = _min_or(p_min) / p_scale
    out["margin_pressure"] = margin_pressure
    out["pressure_positive"] = bool(margin_pressure >= -cfg.positivity_tol)

    # Schwarz slacks; the product of the two bounding factors is the scale
    sv = columns["schwarz_vol"]
    sw = columns["schwarz_wall"]
    scale_v = np.maximum(1.0, sv + columns["volume_part"] ** 2)
    scale_w = np.maximum(1.0, sw + columns["wall_part"] ** 2)
    margin_schwarz = min(_min_or(sv / scale_v), _min_or(sw / scale_w))
    out["margin_schwarz"] = margin_schwarz
    out["schwarz_held"] = bool(margin_schwarz >= -cfg.check_tol)

    if not derivatives_checked:
        out.update(max_identity_residual=math.nan, margin_growth=math.nan,
                   margin_derivative=math.nan,
                   identities_converged=True, inequality_28_held=True,
                   derivative_inequality_held=True)
    else:
        interior = slice(1, n - 1)
        dvol = np.gradient(columns["volume_part"], t)
        dwall = np.gradient(columns["wall_part"], t)
        dL = np.gradient(L, t)
        scale_26 = np.maximum(1.0, np.abs(dvol) + np.abs(columns["wall_p_integral"]))
        scale_27 = np.maximum(1.0, np.abs(dwall) + np.abs(columns["wall_p_integral"]))
        worst_ident = max(
            _max_or(columns["residual_26"][interior] / scale_26[interior], 0.0),
            _max_or(columns["residual_27"][interior] / scale_27[interior], 0.0))
        out["max_identity_residual"] = worst_ident
        out["identities_converged"] = bool(worst_ident <= cfg.ident_tol)

        scale_growth = np.maximum(1.0, np.abs(dL))
        margin_growth = _min_or(columns["slack_28"][interior]
                                / scale_growth[interior])
        out["margin_growth"] = margin_growth
        out["inequality_28_held"] = bool(margin_growth >= -cfg.check_tol)

        if riccati_checked:
            l2 = np.maximum(1.0, L ** 2)
            margin_derivative = _min_or(columns["riccati_slack"][interior]
                                        / l2[interior])
            out["margin_derivative"] = margin_derivative
            out["derivative_inequality_held"] = bool(
                margin_derivative >= -cfg.deriv_tol)
        else:
            out["margin_derivative"] = math.nan
            out["derivative_inequality_held"] = True

    # Riccati domination against the closed-form envelope
    if riccati_checked:
        envelope = columns["envelope"]
        valid = np.isfinite(envelope)
        l2 = np.maximum(1.0, L ** 2)
        margin_riccati = _min_or((L[valid] - envelope[valid]) / l2[valid])
        out["margin_riccati"] = margin_riccati
        out["riccati_dominated"] = bool(margin_riccati >= -cfg.riccati_tol)
    else:
        out["margin_riccati"] = math.nan
        out["riccati_dominated"] = True

    return out


CHECK_KEYS = ("energy_conserved", "area_conserved", "pressure_positive",
              "schwarz_held", "identities_converged", "inequality_28_held",
              "derivative_inequality_held", "riccati_dominated")


def build_report(cfg: RunConfig, result: SimulationResult) -> dict:
    """Flat verification report for report.json (insertion order is frozen)."""
    columns = {name: np.array([getattr(r, name) for r in result.records])
               for name in DiagnosticsRecord.CSV_FIELDS}
    broke = result.breakdown is not None
    checks = evaluate_checks(columns, cfg, result.c1, broke)

    a = result.a_virial
    a_rel_diff = (abs(a - result.a_quadrature)
                  / max(1.0, abs(result.a_quadrature)))
    a_consistent = bool(a_rel_diff <= cfg.a_match_tol)
    t_star = result.c1 / a if checks["riccati_checked"] else math.nan

    if checks["riccati_checked"]:
        bound = t_star * (1.0 + cfg.bound_slack)
        if broke:
            blowup_bound_held = bool(result.breakdown.t_break <= bound)
        else:
            blowup_bound_held = bool(result.t_final < bound)
    else:
        blowup_bound_held = True

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
        "n_records": len(result.records),
        "n_steps": result.n_steps,
        "n_markers": cfg.n_markers,
        "wall_panels_per_side": cfg.wall_panels_per_side,
        "record_dt": cfg.record_dt,
        "area0": result.area0,
        "p_absmax_max": _max_or(
            np.array([r.p_absmax for r in result.records]), math.nan),
        "max_corner_residual": _max_or(
            np.array([r.corner_residual for r in result.records]), math.nan),
    }
    report.update(checks)
    return report


# ---------------------------------------------------------------------------
# artifact writers (deterministic text, floats at 17 significant digits)
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "nan"
    return format(value, ".17g")


def write_diagnostics_csv(path: str, records: list[DiagnosticsRecord]):
    fields = DiagnosticsRecord.CSV_FIELDS
    lines = [",".join(fields)]
    for rec in records:
        lines.append(",".join(_fmt(getattr(rec, name)) for name in fields))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_snapshots(directory: str, snapshots):
    os.makedirs(directory, exist_ok=True)
    for i, (alpha, x) in enumerate(snapshots):
        lines = ["alpha,x1,x2"]
        for a, (x1, x2) in zip(alpha, x):
            lines.append(f"{_fmt(a)},{_fmt(x1)},{_fmt(x2)}")
        with open(os.path.join(directory, f"{i:04d}.csv"), "w",
                  newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return "null" if math.isnan(v) else format(v, ".17g")
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
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    expected = list(DiagnosticsRecord.CSV_FIELDS)
    if header != expected:
        raise ValueError(f"unexpected diagnostics header: {header}")
    if not rows:
        raise ValueError("diagnostics.csv has no data rows")
    data = np.array([[float(cell) for cell in row] for row in rows])
    if data.shape[1] != len(expected):
        raise ValueError("ragged diagnostics.csv")
    return {name: data[:, j] for j, name in enumerate(expected)}


def simulate(cfg: RunConfig, out_dir: str | None = None,
             quiet: bool = False) -> tuple[int, dict]:
    """Run, write artifacts, and return (exit_code, report)."""
    out = out_dir if out_dir is not None else cfg.out_dir
    os.makedirs(out, exist_ok=True)

    def progress(rec: DiagnosticsRecord):
        if not quiet:
            print(f"  t={rec.t:.6f}  L={rec.L:.5f}  p_min={rec.p_min:.4g}  "
                  f"E={rec.energy:.6f}")

    result = run_simulation(cfg, progress=progress)
    report = build_report(cfg, result)

    with open(os.path.join(out, "config.json"), "w", newline="\n") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_diagnostics_csv(os.path.join(out, "diagnostics.csv"), result.records)
    write_snapshots(os.path.join(out, "snapshots"), result.snapshots)
    write_report(os.path.join(out, "report.json"), report)

    if not quiet:
        if result.breakdown is not None:
            print(f"breakdown: {result.breakdown.kind} at "
                  f"t={result.breakdown.t_break:.6g} "
                  f"({result.breakdown.detail})")
        else:
            print(f"reached time cap t={result.t_final:.6g}")
        print(f"report: all_passed={report['all_passed']}")
    return (0 if report["all_passed"] else 1), report


def verify_identities(run_dir: str, quiet: bool = False) -> int:
    """Offline re-check of a run directory; exit-code semantics of the CLI."""
    csv_path = os.path.join(run_dir, "diagnostics.csv")
    cfg_path = os.path.join(run_dir, "config.json")
    report_path = os.path.join(run_dir, "report.json")
    try:
        cfg = RunConfig.from_json(cfg_path)
        columns = read_diagnostics_csv(csv_path)
        with open(report_path) as fh:
            stored = json.load(fh)
    except (OSError, ValueError, ConfigError) as exc:
        print(f"error: {exc}")
        return 2

    broke = stored.get("breakdown_kind") is not None
    c1 = float(stored.get("c1", math.nan))
    checks = evaluate_checks(columns, cfg, c1, broke)

    if not checks["derivatives_checked"] and not quiet:
        print("insufficient records: derivative checks skipped")

    failed = [k for k in CHECK_KEYS if not checks[k]]
    mismatched = [k for k in CHECK_KEYS
                  if k in stored and bool(stored[k]) != checks[k]]
    if not quiet:
        for key in CHECK_KEYS:
            note = " (mismatches report)" if key in mismatched else ""
            print(f"  {key}: {checks[key]}{note}")
    if failed or mismatched:
        if failed:
            print(f"failed checks: {', '.join(failed)}")
        if mismatched:
            print(f"report mismatch: {', '.join(mismatched)}")
        return 1
    if not quiet:
        print("all recomputed checks passed and match the stored report")
    return 0


# ---------------------------------------------------------------------------
# BEM validation sweep
# ---------------------------------------------------------------------------

def _mode_bvp_error(k: int, n_markers: int, wall_panels: int) -> float:
    """L-inf solve error for the harmonic mode cos(k pi x1) cosh(k pi x2).

    The mode has zero flux on all three walls; its surface trace is imposed
    as Dirichlet data on the flat interface and the solved wall values and
    surface fluxes are compared against the closed form.
    """
    mesh = build_boundary_mesh(flat_interface(n_markers), wall_panels)
    mid = mesh.midpoints
    exact_phi = np.cos(k * np.pi * mid[:, 0]) * np.cosh(k * np.pi * mid[:, 1])
    grad = np.column_stack([
        -k * np.pi * np.sin(k * np.pi * mid[:, 0]) * np.cosh(k * np.pi * mid[:, 1]),
        k * np.pi * np.cos(k * np.pi * mid[:, 0]) * np.sinh(k * np.pi * mid[:, 1])])
    exact_q = np.einsum("ij,ij->i", grad, mesh.normals)
    sl = mesh.surface_slice
    wall = np.ones(mesh.n_panels, dtype=bool)
    wall[sl] = False
    cd = bem.solve_mixed_bvp(mesh, exact_phi[sl], np.zeros(int(wall.sum())))
    err_phi = float(np.abs(cd.values[wall] - exact_phi[wall]).max())
    err_q = float(np.abs(cd.fluxes[sl] - exact_q[sl]).max())
    # relative to the mode's amplitude so different k are comparable
    return max(err_phi, err_q) / math.cosh(k * math.pi)


def validate_bem(cfg: RunConfig, quiet: bool = False) -> int:
    """Convergence sweep over the configured panel counts and modes.

    Passes when every mode's error decreases monotonically with a mean
    measured order of at least one, and the constant-data solve is exact to
    1e-8.  Prints an error table unless quiet.
    """
    counts = cfg.bem_panel_counts
    ok = True

    mesh = build_boundary_mesh(flat_interface(counts[0]), counts[0] // 2)
    cd = bem.solve_mixed_bvp(mesh,
                             np.ones(mesh.surface_slice.stop - mesh.surface_slice.start),
                             np.zeros(3 * (counts[0] // 2)))
    const_err = max(float(np.abs(cd.values - 1.0).max()),
                    float(np.abs(cd.fluxes).max()))
    if not quiet:
        print(f"constant data: max error {const_err:.3e}")
    if const_err > 1e-8:
        ok = False

    for k in cfg.bem_mode_ks:
        errs = [_mode_bvp_error(k, n, n // 2) for n in counts]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        mean_order = sum(orders) / len(orders)
        monotone = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
        if not quiet:
            table = "  ".join(f"{n}:{e:.3e}" for n, e in zip(counts, errs))
            print(f"mode k={k}: {table}  order={mean_order:.2f}")
        if not monotone or mean_order < 1.0:
            ok = False

    if not quiet:
        print("validation " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1
