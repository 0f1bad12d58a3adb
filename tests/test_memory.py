"""Traced memory budgets of the collocation solve and the interior evaluation.

``tracemalloc`` sees numpy's data buffers, so a traced peak is the most
array memory a call holds at once.  Each solve releases S once A holds it,
D once A and the right-hand sides hold its columns, and each interior
evaluation releases S and D before the gradients; a layer that keeps a
spent array past that point breaks these bounds.  Each peak bound is the
peak measured when it was set, rounded up by less than 1%, and at the LU
the solver may hold 1% of A besides the system; do not loosen them.
"""

import tracemalloc

import numpy as np

from wavebox import bem, runner
from wavebox.geometry import build_boundary_mesh, flat_interface
from wavebox.kernels import solve_dense
from wavebox.modes import sample_initial_state
from wavebox.pressure import PressureField, interior_lattice

from conftest import make_reference_data


def traced_peak(call):
    """Peak traced bytes of ``call()`` above what was held when it began.

    One call first, untraced, so that caches (the wall block of D) and
    imports are in place before the traced one.
    """
    call()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_validate_bem_finest_solve():
    # 639 panels, two modes: S, D and A are the most live at once (7.94 MB);
    # with S, D and D's surface columns kept to the LU it was 12.56 MB.
    peak = traced_peak(lambda: runner._flat_mesh_errors(256, (1, 2)))
    assert peak <= 8.0e6


def test_only_the_system_is_live_at_the_lu(monkeypatch):
    # What solve_mixed_bvp holds when it calls solve_dense, besides A and
    # the right-hand sides: 1 KB on the 639-panel mesh.  S, D or D's
    # surface columns kept that long would be 1.3 MB or more.
    held = []

    def recording(system):
        held.append(tracemalloc.get_traced_memory()[0]
                    - system.matrix.nbytes - system.rhs.nbytes)
        return solve_dense(system)

    monkeypatch.setattr(bem, "solve_dense", recording)
    mesh = build_boundary_mesh(flat_interface(256), 128)
    traced_peak(lambda: bem.solve_mixed_bvp(mesh, np.ones((2, 255))))
    assert held[-1] <= 0.01 * (mesh.n_panels + 1) ** 2 * 8


def test_interior_evaluation_at_the_reference_lattice():
    # 194 lattice points x 167 panels: the gradients' arrays alone (2.93 MB);
    # with S and D kept beside them and every log in a fresh array it was
    # 4.93 MB.
    state = sample_initial_state(make_reference_data(1.0), 96, 24)
    field = PressureField.from_state(state, 2.0)
    pts = interior_lattice(field, 16)
    assert pts.shape == (194, 2)
    peak = traced_peak(lambda: bem.eval_interior(state.mesh, state.cauchy, pts, 2.0))
    assert peak <= 2.95e6
