"""Exception types shared across the package."""

from __future__ import annotations


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


BREAKDOWN_KINDS = (
    "self_intersection",
    "marker_collision",
    "timestep_collapse",
    "solver_failure",
    "curvature_blowup",
    "bottom_contact",
    "L_overflow",
)


class BreakdownError(RuntimeError):
    """Why a run stopped: a kind and a detail; the run's t_final says when."""

    def __init__(self, kind: str, detail: str):
        if kind not in BREAKDOWN_KINDS:
            raise ValueError(f"unknown breakdown kind {kind!r}")
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail
