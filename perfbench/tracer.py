"""Out-of-tree call tracer for the ``wavebox`` package.

Wraps public functions of the package from outside and records, per
function, the call count, total time and self time (total time minus the
time of traced calls made inside it).  Several modules import functions by
name and ``evolution.rk4_step`` binds ``state_derivative`` as a default
argument, so patching the defining module alone would miss calls: the
tracer replaces the function object at every module global and every
default argument in the package that holds it.

Operation counts derived from arguments (``pairs``, ``flop``) are computed
from array shapes, not measured.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# Public functions timed per layer, as "module.function".
LAYER_FUNCTIONS = (
    "geometry.self_intersects",
    "geometry.build_boundary_mesh",
    "kernels.influence_matrices",
    "kernels.influence_gradients",
    "kernels.solve_dense",
    "bem.solve_mixed_bvp",
    "bem.eval_interior",
    "bem.admissible_interior",
    "evolution.rk4_step",
    "evolution.state_derivative",
    "evolution.redistribute_markers",
    "pressure.solve_phi_t",
    "pressure.pressure_min",
    "diagnostics.detect_breakdown",
    "diagnostics.virial_parts",
    "diagnostics.int_u1_squared",
    "diagnostics.int_pressure",
    "diagnostics.wall_u2_squared",
    "diagnostics.fill_derived",
    "modes.sample_initial_state",
    "modes.initial_A",
    "runner.run_simulation",
    "runner.build_report",
    "runner.simulate",
    "runner.write_diagnostics_csv",
    "runner.write_snapshots",
    "runner.write_report",
    "runner.verify_identities",
    "runner.validate_bem",
)

# The minimum needed for end-to-end timing: where set-up ends and how long
# the driving runner call lasts.
SETUP_FUNCTIONS = (
    "modes.sample_initial_state",
    "runner.run_simulation",
    "runner.validate_bem",
)


def _influence_pairs(args):
    return len(args["targets"]) * args["mesh"].n_panels


def _count_matrices(counters, args):
    counters["kernels.influence_matrices.pairs"] += _influence_pairs(args)


def _count_gradients(counters, args):
    counters["kernels.influence_gradients.pairs"] += _influence_pairs(args)


def _count_lu(counters, args):
    n = args["system"].matrix.shape[0]
    counters["kernels.solve_dense.flop"] += 2.0 * n ** 3 / 3.0 + 2.0 * n ** 2


def _count_lattice(counters, args, result):
    counters["pressure.lattice_offered"] += args["n_per_side"] ** 2
    counters["pressure.lattice_accepted"] += len(result)


# Computed counts, taken before the function runs, so that a failed LU
# still counts its flops.
_BEFORE = {
    "kernels.influence_matrices": _count_matrices,
    "kernels.influence_gradients": _count_gradients,
    "kernels.solve_dense": _count_lu,
}
# Counted but not timed, so that its time stays in the caller's self time.
_COUNT_ONLY = {"pressure.interior_lattice": _count_lattice}
COUNTED_FUNCTIONS = tuple(_COUNT_ONLY)


class SetupReached(BaseException):
    """Raised by an event hook to stop a process once set-up is over."""


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "raised")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.raised = 0


def _arguments(signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _plain_functions(obj):
    """Python functions reachable from a module attribute (incl. class members)."""
    if inspect.isfunction(obj):
        yield obj
    elif inspect.isclass(obj):
        for member in vars(obj).values():
            if isinstance(member, (staticmethod, classmethod)):
                member = member.__func__
            elif isinstance(member, property):
                member = member.fget
            elif isinstance(member, functools.cached_property):
                member = member.func
            if inspect.isfunction(member):
                yield member


class Tracer:
    """Call counts, total and self time of selected ``wavebox`` functions.

    ``keys`` are timed; ``counted`` only feed the computed counters.
    ``on_event(key, phase, t)`` is called at the first entry
    (``phase == "enter"``) and the first return (``"exit"``) of each traced
    function; it may raise ``SetupReached`` to stop the process.
    """

    def __init__(self, keys=LAYER_FUNCTIONS, counted=COUNTED_FUNCTIONS, on_event=None):
        self.keys = tuple(keys)
        self.counted = tuple(counted)
        self.on_event = on_event
        self.stats: dict[str, _Stat] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []

    # -- wrapping ---------------------------------------------------------

    def _timed(self, key, fn):
        stat = self.stats.setdefault(key, _Stat())
        before = _BEFORE.get(key)
        signature = inspect.signature(fn)
        clock, stack, counters = time.monotonic, self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(counters, _arguments(signature, args, kwargs))
            if stat.calls == 0 and self.on_event is not None:
                self.on_event(key, "enter", clock())
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if stat.calls == 1 and self.on_event is not None:
                    self.on_event(key, "exit", t1)

        return wrapper

    def _counting(self, key, fn):
        count = _COUNT_ONLY[key]
        signature = inspect.signature(fn)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(counters, _arguments(signature, args, kwargs), result)
            return result

        return wrapper

    def install(self):
        """Import the package and patch every site holding a traced function."""
        import wavebox.cli  # noqa: F401  (imports every module of the package)

        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("wavebox.") and m is not None]
        replace: dict[int, tuple] = {}
        wrappers = ([(key, self._timed) for key in self.keys]
                    + [(key, self._counting) for key in self.counted])
        for key, make in wrappers:
            module, name = key.split(".")
            original = getattr(sys.modules["wavebox." + module], name)
            replace[id(original)] = (original, make(key, original))

        def swap(value):
            hit = replace.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else value

        functions = [original for original, _ in replace.values()]
        for module in modules:
            for attr, value in list(vars(module).items()):
                functions.extend(f for f in _plain_functions(value)
                                 if f.__module__.startswith("wavebox."))
                if swap(value) is not value:
                    setattr(module, attr, swap(value))
        for fn in functions:
            if fn.__defaults__:
                fn.__defaults__ = tuple(swap(v) for v in fn.__defaults__)
            if fn.__kwdefaults__:
                fn.__kwdefaults__ = {k: swap(v) for k, v in fn.__kwdefaults__.items()}

    # -- results ----------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "stats": {key: {"calls": s.calls, "total_s": s.total_s,
                            "self_s": s.self_s, "raised": s.raised}
                      for key, s in self.stats.items()},
            "counters": dict(self.counters),
        }
