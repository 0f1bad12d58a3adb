"""Command-line front end.

Subcommands::

    wavebox simulate --config cfg.json [--out DIR] [--quiet]
    wavebox validate-bem --config cfg.json [--quiet]
    wavebox verify-identities --run DIR [--quiet]

Exit codes: 0 = ran and all checks passed (breakdown is a normal outcome),
1 = a check failed, 2 = bad input, 3 = undiagnosed solver failure.  The
commands return whether every check passed and raise ``ConfigError`` for bad
input; ``main`` alone maps that to the codes, and prints bad input and a
solver failure as one stderr line each, ``bad input: ...`` or ``solver
failure: ...``.

The commands report through the ``wavebox`` logger, which ``main`` sends to
stdout: progress and verdicts at INFO, failed checks and report mismatches
at WARNING.  ``--quiet`` keeps the warnings only.
"""

from __future__ import annotations

import argparse
import ctypes
import logging
import sys

from .runner import ConfigError, RunConfig, simulate, validate_bem, verify_identities

# glibc's mallopt parameters (malloc.h) and the 64-bit ceiling of its own
# dynamic mmap threshold, DEFAULT_MMAP_THRESHOLD_MAX.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 * 1024 * 1024


def _keep_freed_heap() -> None:
    """Keep freed solver arrays in the process for the next solve to reuse.

    Every flow solve allocates and frees the same few m x n arrays.  By
    default glibc maps each one afresh and trims the heap when a solve
    frees them, so the next solve faults every page in and zeroes it again.
    Serving blocks up to 32 MiB from the heap, and trimming only past twice
    that (the ratio glibc's dynamic rule keeps), lets each solve reuse the
    last one's pages.  This moves memory, never a value: without glibc's
    ``mallopt`` nothing is changed and the artifacts are the same.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no C library, or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavebox",
        description="Free-surface potential-flow runs with blow-up diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a simulation and write artifacts")
    sim.add_argument("--config", required=True, help="JSON configuration file")
    sim.add_argument("--out", default=None, help="output directory override")
    sim.add_argument("--quiet", action="store_true", help="suppress progress")

    val = sub.add_parser("validate-bem",
                         help="harmonic-mode convergence sweep of the solver")
    val.add_argument("--config", required=True, help="JSON configuration file")
    val.add_argument("--quiet", action="store_true", help="suppress the table")

    ver = sub.add_parser("verify-identities",
                         help="re-check stored diagnostics of a run directory")
    ver.add_argument("--run", required=True, help="run directory to re-check")
    ver.add_argument("--quiet", action="store_true", help="suppress verdicts")
    return parser


def _log_to_stdout(quiet: bool) -> None:
    """Give the package logger one stdout handler, replacing any earlier one."""
    logger = logging.getLogger("wavebox")
    logger.handlers = [logging.StreamHandler(sys.stdout)]
    logger.setLevel(logging.WARNING if quiet else logging.INFO)


def _print_line(message: str) -> None:
    """Print one stderr line; a line break inside the message (a config key
    or a path can hold one) is escaped."""
    print(message.replace("\n", "\\n"), file=sys.stderr)


def main(argv=None) -> int:
    """Run one command and return its exit code; the only place that maps
    outcomes to codes."""
    _keep_freed_heap()
    args = _build_parser().parse_args(argv)
    _log_to_stdout(args.quiet)
    try:
        if args.command == "verify-identities":
            passed = verify_identities(args.run)
        else:
            cfg = RunConfig.from_json(args.config)
            if args.command == "simulate":
                passed = simulate(cfg, cfg.out_dir if args.out is None else args.out)
            else:
                passed = validate_bem(cfg)
    except ConfigError as exc:
        _print_line(f"bad input: {exc}")
        return 2
    except Exception as exc:
        # Exit 1 means a check failed, so no other error may end as 1.
        _print_line(f"solver failure: {type(exc).__name__}: {exc}")
        return 3
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
