"""Command-line front end.

Subcommands::

    wavebox simulate --config cfg.json [--out DIR] [--quiet]
    wavebox validate-bem --config cfg.json [--quiet]
    wavebox verify-identities --run DIR [--quiet]

Exit codes: 0 = ran and all checks passed (breakdown is a normal outcome),
1 = a check failed, 2 = bad input, 3 = undiagnosed solver failure.
"""

from __future__ import annotations

import argparse
import sys

from .runner import ConfigError, RunConfig, simulate, validate_bem, verify_identities


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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            cfg = RunConfig.from_json(args.config)
            code, _ = simulate(cfg, out_dir=args.out, quiet=args.quiet)
            return code
        if args.command == "validate-bem":
            cfg = RunConfig.from_json(args.config)
            return validate_bem(cfg, quiet=args.quiet)
        return verify_identities(args.run, quiet=args.quiet)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit 1 means a check failed, so no other error may end as 1.
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
