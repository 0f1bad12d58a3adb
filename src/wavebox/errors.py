"""Exception types and the breakdown signal shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


class GeometryError(ValueError):
    """Invalid or degenerate geometry (unpinned curve, zero-length panel, ...)."""


class SelfIntersectionError(GeometryError):
    """The interface polyline (or the closed boundary polygon) is not simple."""

    kind = "self_intersection"


class BottomContactError(GeometryError):
    """The interface reached the bottom wall (x2 <= 0)."""

    kind = "bottom_contact"


class SingularMatrixError(RuntimeError):
    """Collocation matrix is singular to working tolerance (degenerate mesh)."""


class NearBoundaryError(ValueError):
    """Interior evaluation requested inside the near-field exclusion band."""

    def __init__(self, message: str, bad_indices=None):
        super().__init__(message)
        self.bad_indices = [] if bad_indices is None else list(bad_indices)


BREAKDOWN_KINDS = (
    "self_intersection",
    "marker_collision",
    "timestep_collapse",
    "solver_failure",
    "curvature_blowup",
    "bottom_contact",
    "L_overflow",
)


@dataclass(frozen=True)
class BreakdownSignal:
    """Why and when a run stopped being able to continue."""

    t_break: float
    kind: str
    detail: str = ""

    def __post_init__(self):
        if self.kind not in BREAKDOWN_KINDS:
            raise ValueError(f"unknown breakdown kind {self.kind!r}")


class BreakdownError(RuntimeError):
    """Raised by the stepper when the run cannot continue; carries the signal."""

    def __init__(self, signal):
        super().__init__(f"{signal.kind} at t={signal.t_break:.6g}: {signal.detail}")
        self.signal = signal
