"""The functions and kernel arguments that the benchmark's tracer reads by name.

``perfbench/tracer.py`` wraps each function it names as ``module.function``
where ``wavebox.module`` defines it.  It also binds each call of
``kernels.influence_matrices``, ``kernels.influence_gradients`` and
``kernels.solve_dense`` to the function's signature and computes the
``pairs`` and ``flop`` counters from the arguments named ``mesh``,
``targets`` and ``system``, and the lattice counters of
``pressure.interior_lattice`` from its ``n_per_side`` argument and its
result.  A moved or re-exported function, or a renamed parameter, would
stop those counts; these tests fail first.
"""

import importlib
import importlib.util
import inspect
import pathlib
from collections import defaultdict

import numpy as np

from wavebox import kernels, pressure
from wavebox.geometry import build_boundary_mesh, flat_interface
from wavebox.modes import sample_initial_state

from conftest import make_reference_data

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("wavebox_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_each_kernel_call_from_its_named_arguments():
    mesh = build_boundary_mesh(flat_interface(9), 4)      # 20 panels, 8 on the surface
    sl, n = mesh.surface_slice, mesh.n_panels
    points = np.array([[0.3, 0.4], [0.6, 0.5], [0.5, 0.2]])
    ones = np.ones(n)
    calls = {
        "kernels.influence_matrices": ((mesh, points), 3 * n),
        "kernels.influence_gradients": ((mesh, points, ones[sl], ones, sl), 3 * n),
        "kernels.solve_dense": ((kernels.DenseSystem(np.eye(5), np.ones(5)),),
                                2.0 * 5 ** 3 / 3.0 + 2.0 * 5 ** 2),
    }
    tracer = load_tracer()
    assert set(tracer._BEFORE) == set(calls)
    for key, count in tracer._BEFORE.items():
        args, expected = calls[key]
        function = getattr(kernels, key.split(".")[1])
        function(*args)
        counters = defaultdict(float)
        count(counters, tracer._arguments(inspect.signature(function), args, {}))
        assert list(counters.values()) == [expected], key
    # The solver's call: its midpoints against the surface columns, written
    # into given storage, counts the n x n pairs of its targets and mesh.
    counters = defaultdict(float)
    args = (mesh, mesh.midpoints, sl, (np.empty((n, 8)), np.empty((n, 8))))
    kernels.influence_matrices(*args)
    tracer._BEFORE["kernels.influence_matrices"](
        counters, tracer._arguments(inspect.signature(kernels.influence_matrices), args, {}))
    assert counters == {"kernels.influence_matrices.pairs": n * n}


def test_tracer_counts_the_lattice_from_its_named_argument_and_result():
    # The reference state's 16 x 16 lattice: 256 points offered, 194 accepted.
    field = pressure.PressureField.from_state(
        sample_initial_state(make_reference_data(1.0), 96, 24), 2.0)
    tracer = load_tracer()
    assert set(tracer._COUNT_ONLY) == {"pressure.interior_lattice"}
    count = tracer._COUNT_ONLY["pressure.interior_lattice"]
    args = (field, 16)
    result = pressure.interior_lattice(*args)
    counters = defaultdict(float)
    count(counters, tracer._arguments(inspect.signature(pressure.interior_lattice),
                                      args, {}), result)
    assert counters == {"pressure.lattice_offered": 256,
                        "pressure.lattice_accepted": 194}


def test_every_traced_key_is_a_function_of_its_module():
    # A key whose function moved to another module, or is re-exported there,
    # fails only the full tracer run otherwise.
    tracer = load_tracer()
    keys = {*tracer.LAYER_FUNCTIONS, *tracer.SETUP_FUNCTIONS,
            *tracer.COUNTED_FUNCTIONS}
    assert len(keys) > 20
    for key in sorted(keys):
        module = importlib.import_module("wavebox." + key.split(".")[0])
        function = getattr(module, key.split(".")[1], None)
        assert inspect.isfunction(function), key
        assert function.__module__ == module.__name__, key
