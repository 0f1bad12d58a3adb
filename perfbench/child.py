"""One benchmark process: run a ``wavebox`` command line under the tracer.

    python3 child.py --out-json FILE [--trace] [--setup-only] [--env] -- ARGS...

``ARGS`` go to ``wavebox.cli.main`` unchanged.  Without ``--trace`` only the
set-up boundary and the driving runner call are wrapped (one call each),
so the timing is that of an untraced run.  A ``SpeedProbe`` runs from the
start of the process to its end, traced or not.  ``--setup-only`` stops the
process where set-up ends: after the first ``modes.sample_initial_state``
of a simulation, or on entry to ``runner.validate_bem``.  The JSON file
receives the exit code, the set-up end time and the entry and exit times of
the driving runner call on the system-wide monotonic clock, the probe
samples, the tracer's statistics and, with ``--env``, the numeric stack.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from speedprobe import SpeedProbe
from tracer import LAYER_FUNCTIONS, SETUP_FUNCTIONS, SetupReached, Tracer

SETUP_ENDS = {("modes.sample_initial_state", "exit"), ("runner.validate_bem", "enter")}
RUNNER_CALLS = {"runner.run_simulation", "runner.validate_bem"}


def numeric_stack() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> int:
    probe = SpeedProbe()
    probe.start()
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-json", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--env", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    marks = {}

    def on_event(key, phase, t):
        if key in RUNNER_CALLS:
            marks.setdefault(f"run_{phase}", t)
        if (key, phase) in SETUP_ENDS and "setup_end" not in marks:
            marks["setup_end"] = t
            if args.setup_only:
                raise SetupReached

    tracer = (Tracer(LAYER_FUNCTIONS, on_event=on_event) if args.trace
              else Tracer(SETUP_FUNCTIONS, counted=(), on_event=on_event))
    code = 1
    try:
        tracer.install()
        import wavebox.cli
        code = wavebox.cli.main(argv)
    except SetupReached:
        code = 0
    finally:
        probe.stop()
        out = {"exit_code": code, **marks, "probes": probe.samples,
               **tracer.snapshot()}
        if args.env:
            out["env"] = numeric_stack()
        with open(args.out_json, "w") as fh:
            json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
