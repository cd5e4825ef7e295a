"""Command-line interface.

Subcommands: converge, srs, verify, wick, fourier-dump.  Exit codes: 0
success, 1 check failure (the output JSON says "pass": false), 2 config
error, 3 hypothesis violation (e.g. a nonzero-mean test function in d <= 2,
or a support reaching the smallest box), 4 runtime error (an unconverged or
non-positive Lanczos recursion, or an output that cannot be written).
"""

from __future__ import annotations

import argparse
import logging
import sys
from contextlib import contextmanager

from .config import ConfigError, ExperimentConfig, parse_config
from .continuum import HypothesisError
from . import experiments


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="experiment config file")
    parser.add_argument("--out", metavar="DIR", help="output directory (overrides config)")
    parser.add_argument("--backend", choices=["auto", "dense", "lanczos"],
                        help="operator backend (overrides config)")
    parser.add_argument("--seed", type=int, help="seed for randomized checks")
    parser.add_argument("--label", help="output file basename (overrides config)")
    parser.add_argument("--log-level", choices=["DEBUG", "INFO", "WARNING", "ERROR"],
                        default="WARNING",
                        help="log messages of this level and above go to stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="becbox",
        description="Modified box Laplacians, Bose-gas two-point functions, "
                    "and their verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("converge", "thermodynamic-limit sweep of the two-point formula"),
        ("srs", "strong-resolvent-convergence sweep"),
        ("verify", "run the structural check suite"),
        ("wick", "n-point function demo via the permanent"),
        ("fourier-dump", "tabulate the Fourier transform of f"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _common(p)
    return parser


def _load_config(args: argparse.Namespace, kind: str) -> ExperimentConfig:
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    cfg.kind = kind
    if args.out:
        cfg.out = args.out
    if args.backend:
        cfg.backend = args.backend
    if args.seed is not None:
        cfg.seed = args.seed
    if args.label:
        cfg.label = args.label
    cfg.validate()
    return cfg


@contextmanager
def _log_to_stderr(level: str):
    """Send becbox's log records at ``level`` and above to standard error for
    the duration of one command, then restore the logger."""
    logger = logging.getLogger("becbox")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    saved = logger.level
    logger.addHandler(handler)
    logger.setLevel(level)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(saved)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with _log_to_stderr(args.log_level):
        return _run(args)


def _run(args: argparse.Namespace) -> int:
    kind = {"fourier-dump": "fourier"}.get(args.command, args.command)
    try:
        cfg = _load_config(args, kind)
        if args.command == "converge":
            report = experiments.run_converge_sweep(cfg)
            paths = experiments.emit_converge(report, cfg.out, cfg.label)
            for p in paths:
                print(p)
            final = report.final_rows()[-1]
            print(f"final rel_err = {final.rel_err:.6e}  "
                  f"strictly_decreasing = {report.strictly_decreasing()}")
            return 0 if report.strictly_decreasing() else 1
        if args.command == "srs":
            report = experiments.run_srs_sweep(cfg)
            paths = experiments.emit_srs(report, cfg.out, cfg.label)
            for p in paths:
                print(p)
            print(f"final err = {report.rows[-1].err:.6e}  "
                  f"all_decreasing = {report.all_decreasing()}")
            return 0 if report.all_decreasing() else 1
        if args.command == "verify":
            checks = experiments.run_verify_suite(cfg)
            paths = experiments.emit_checks(checks, cfg, cfg.out, cfg.label)
            ok = True
            for c in checks:
                status = "PASS" if c.passed else "FAIL"
                if c.inconclusive:
                    status = "INCONCLUSIVE"
                detail = ", ".join(f"{k}={v:.3e}" for k, v in c.residuals.items())
                print(f"[{status}] {c.name}: {detail}")
                ok = ok and c.passed
            for p in paths:
                print(p)
            return 0 if ok else 1
        if args.command == "wick":
            payload = experiments.run_wick_demo(cfg)
            paths = experiments.emit_wick(payload, cfg, cfg.out, cfg.label)
            for p in paths:
                print(p)
            print(f"n = {payload['n']}  permanent = "
                  f"{payload['npoint_value_re']:.12e} + {payload['npoint_value_im']:.3e}j")
            return 0
        if args.command == "fourier-dump":
            paths = experiments.emit_fourier(cfg, cfg.out, cfg.label)
            for p in paths:
                print(p)
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except HypothesisError as e:
        print(f"hypothesis violation: {e}", file=sys.stderr)
        return 3
    except (RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
