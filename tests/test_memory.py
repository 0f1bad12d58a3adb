"""Memory budgets of the collocation solve, the LU and the interior evaluation.

``tracemalloc`` sees numpy's data buffers, so a traced peak is the most
array memory a call holds at once.  Each solve writes S and D straight into
the Fortran-ordered system matrix and right-hand-side columns, releases the
columns once the right-hand sides are formed, copies the walls' finished
block in after them, and factors the matrix in place; each interior
evaluation forms S and D in row blocks and releases them before the
gradients, which it contracts block by block as it forms them.  A layer
that keeps a spent array, copies the matrix, fills the wall block beside
D's surface columns, forms S and D in one block, forms the (m, n, 2)
gradient arrays or runs an unblocked near-field test breaks these bounds.
Each peak bound is the peak measured when it was set, rounded up by less
than 1%, and at the LU the solver may hold 1% of A besides the system; do
not loosen them.  What tracemalloc cannot see (the allocator's retention,
BLAS buffers, the interpreter) is bounded on whole ``validate-bem`` and
``simulate`` processes.
"""

import json
import sys
import tracemalloc

import numpy as np
import pytest

from wavebox import bem, kernels, runner
from wavebox.geometry import build_boundary_mesh, flat_interface
from wavebox.kernels import DenseSystem, solve_dense
from wavebox.modes import sample_initial_state
from wavebox.pressure import PressureField, interior_lattice, pressure_min

from conftest import (lattice_candidates, make_reference_data,
                      reference_config_dict, run_child)


def traced_peak(call, cold=False):
    """Peak traced bytes of ``call()`` above what was held when it began.

    One call first, untraced, so that imports and caches (the solver's
    finished wall block) are in place before the traced one.  ``cold``
    empties the wall block's cache after it, so that the traced call fills
    it again.
    """
    call()
    if cold:
        bem._wall_block.cache_clear()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
def test_validate_bem_finest_solve(cold):
    # 639 panels, two modes: A, D's surface columns and one row block of
    # the kernel (63 or 64 of its 639 rows) are the most live at once,
    # beside the mesh's 36 KB panel table, its one store of the panel
    # starts, tangents, normals and lengths (5.38 MB).  A cold solve, a
    # validate-bem process's first at this wall count, fills the 384 x 384
    # wall block (1.18 MB) only once D's surface columns (1.30 MB) are
    # freed, so it holds no more.  With the block filled by the kernel
    # beside A and D's surface columns the cold solve held 6.40 MB; with
    # the mesh's four panel facts also kept as arrays of their own, 5.42 MB
    # warm and 6.44 MB cold; in blocks of 128 rows 6.08 MB warm; with S and
    # D formed apart and copied into a C-ordered A, 7.94 MB warm.
    peak = traced_peak(lambda: runner._flat_mesh_errors(256, (1, 2)), cold=cold)
    assert peak <= 5.39e6


@pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
def test_validate_bem_finest_solve_kernel_blocks(monkeypatch, cold):
    # The bound above sees the kernel's blocks only as part of the whole
    # solve's peak.  They are counted too: ten blocks of 63 or 64 of the
    # 639 rows against the 255 surface panels, with the wall block cached
    # or not.
    sizes = []
    layers = kernels._layers

    def recording(mesh, targets, *args):
        sizes.append(len(targets))
        return layers(mesh, targets, *args)

    runner._flat_mesh_errors(256, (1, 2))
    if cold:
        bem._wall_block.cache_clear()
    monkeypatch.setattr(kernels, "_layers", recording)
    runner._flat_mesh_errors(256, (1, 2))
    assert sizes == [63] + [64] * 9


def test_fortran_ordered_lu_makes_no_copy():
    # solve_dense factors a Fortran-ordered 640 x 640 matrix in place and
    # takes its norm from LAPACK: 19 KB besides A (0.6% of it).  LAPACK's
    # copy of A, or an |A| temporary, would be 3.3 MB.
    rng = np.random.default_rng(4)
    A = np.asfortranarray(rng.standard_normal((640, 640)) + 640.0 * np.eye(640))
    b = rng.standard_normal(640)
    solve_dense(DenseSystem(matrix=A.copy(order="F"), rhs=b))
    system = DenseSystem(matrix=A, rhs=b)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        solve_dense(system)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * A.nbytes


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


def reference_lattice_field():
    state = sample_initial_state(make_reference_data(1.0), 96, 24)
    field = PressureField.from_state(state, 2.0)
    pts = interior_lattice(field, 16)
    assert pts.shape == (194, 2)
    return state, field, pts


def test_admissibility_at_the_reference_lattice():
    # The 256 lattice candidates x 167 panels: three row blocks of 85 or 86
    # points, each block's panel frame released before the next is formed
    # (531,568 B).  Each block's frame kept while the next was formed, 0.87
    # MB; the clamped-foot distances of every candidate in one block, with
    # the crossing test on all of them at once, 1.10 MB.
    state, _, _ = reference_lattice_field()
    pts = lattice_candidates(state.mesh, 16)
    peak = traced_peak(lambda: bem.admissible_interior(state.mesh, pts, 2.0))
    assert peak <= 5.32e5


def test_interior_evaluation_at_the_reference_lattice():
    # 194 lattice points x 167 panels: the gradients, contracted in two
    # blocks of 97 targets as they are formed, set the peak (1.114 MB); S,
    # D and _layers' arrays, formed in the same two row blocks, hold
    # 1.108 MB.  With the single layer's logs formed against the walls too
    # the gradients held 1.246 MB, and S and D formed in one block
    # 1.66 MB.  With the (m, n, 2) gradient arrays it was 2.93 MB, and
    # with S and D kept beside them and every log in a fresh array 4.93 MB.
    state, _, pts = reference_lattice_field()
    peak = traced_peak(lambda: bem.eval_interior(state.mesh, state.cauchy, pts, 2.0))
    assert peak <= 1.12e6


def test_pressure_minimum_at_the_reference_lattice():
    # One record's lattice pressure: its two interior evaluations run one
    # after the other (1.123 MB).  With the walls' single-layer logs,
    # 1.255 MB; with S and D in one block, 1.66 MB; with the (m, n, 2)
    # gradients, 2.94 MB.
    _, field, _ = reference_lattice_field()
    peak = traced_peak(lambda: pressure_min(field, 16))
    assert peak <= 1.13e6


# VmHWM is the peak resident set of the process's own address space.  The
# child's ru_maxrss would not do: Linux carries the hiwater mark of the
# address space that exec replaced, the forked copy of the test process.
PROCESS_RSS = """
import os, sys, tempfile
import wavebox.cli

def status_kib(field):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(field))

before = status_kib("VmRSS:")
command, config = sys.argv[1:]
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "cfg.json")
    with open(path, "w") as fh:
        fh.write(config)
    out = ["--out", os.path.join(tmp, "out")] if command == "simulate" else []
    code = wavebox.cli.main([command, "--config", path, *out, "--quiet"])
print(code, status_kib("VmHWM:") - before)
"""


def process_peak_growth_kib(command, config):
    """Growth of a fresh ``wavebox`` process's peak resident set, one BLAS
    thread, above what it held right after importing the CLI."""
    code, growth_kib = run_child(["-c", PROCESS_RSS, command, config], text=True).split()
    assert code == "0"
    return int(growth_kib)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak resident set from /proc/self/status")
def test_validate_bem_process_peak():
    # The default sweep.  This sees what tracemalloc cannot: the
    # allocator's retention, BLAS buffers, the wall block's cold fill.  60
    # runs read 8.41-8.64 MiB.  With the wall block filled beside A and D's
    # surface columns, 20 runs on the same host read 9.43-9.57 MiB, and 47
    # earlier ones 9.32-9.53 MiB.  With the counts solved coarsest first,
    # each finer solve grew the heap past the last: 10.37-10.90 MiB.
    # Before the solve assembled in place and factored without a copy,
    # 16.5 MiB.  The bound sits 5% above the highest reading, since the
    # peak resident set moves by about 3% from run to run; tracemalloc's
    # peaks above are exact.
    assert process_peak_growth_kib("validate-bem", "{}") <= 9.08 * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak resident set from /proc/self/status")
def test_simulate_process_peak():
    # The reference run (96/24) to t = 1e-4: its one record, at t = 0,
    # evaluates the 194-point lattice twice, and initial_A integrates on
    # the written-out 16-point Gauss rule.  55 runs read 3.23-3.41 MiB.
    # With leggauss(16), which runs numpy's own LAPACK, and S and D formed
    # in one block, 30 runs read 4.73-4.84 MiB; with the (m, n, 2) gradient
    # arrays as well, 18 runs read 5.88-6.02 MiB.  The bound sits 5% above
    # the highest reading, as for validate-bem.
    config = json.dumps(reference_config_dict(t_end_cap=1e-4))
    assert process_peak_growth_kib("simulate", config) <= 3.58 * 1024
