"""Command-line front end.

Subcommands::

    wavebox simulate --config cfg.json [--out DIR] [--quiet]
    wavebox validate-bem --config cfg.json [--quiet]
    wavebox verify-identities --run DIR [--quiet]

Exit codes: 0 = ran and all checks passed (breakdown is a normal outcome),
1 = a check failed, 2 = bad input, 3 = undiagnosed solver failure.

The commands report through the ``wavebox`` logger, which ``main`` sends to
stdout: progress and verdicts at INFO, failures and bad input at WARNING.
``--quiet`` keeps the warnings only.
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


def main(argv=None) -> int:
    _keep_freed_heap()
    args = _build_parser().parse_args(argv)
    _log_to_stdout(args.quiet)
    try:
        if args.command == "simulate":
            return simulate(RunConfig.from_json(args.config), out_dir=args.out)
        if args.command == "validate-bem":
            return validate_bem(RunConfig.from_json(args.config))
        return verify_identities(args.run)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit 1 means a check failed, so no other error may end as 1.
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
