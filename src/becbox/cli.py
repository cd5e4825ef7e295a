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
    parser.add_argument("--out", metavar="DIR", default="out", help="output directory")
    parser.add_argument("--label", default="run", help="output file basename")
    parser.add_argument("--log-level", choices=["DEBUG", "INFO", "WARNING", "ERROR"],
                        default="WARNING",
                        help="log messages of this level and above go to stderr")


# Each command runs and emits through attributes of ``experiments`` read at
# call time, so wrappers installed on that module see every call.  It returns
# the lines to print (output paths and verdict, in order) and whether it passed.


def _converge(cfg: ExperimentConfig, out: str, label: str) -> tuple[list[str], bool]:
    report = experiments.run_converge_sweep(cfg)
    ok = report.strictly_decreasing()
    return experiments.emit_converge(report, out, label) + [
        f"final rel_err = {report.final_rows()[-1].rel_err:.6e}  strictly_decreasing = {ok}"], ok


def _srs(cfg: ExperimentConfig, out: str, label: str) -> tuple[list[str], bool]:
    report = experiments.run_srs_sweep(cfg)
    ok = report.all_decreasing()
    return experiments.emit_srs(report, out, label) + [
        f"final err = {report.rows[-1].err:.6e}  all_decreasing = {ok}"], ok


def _verify(cfg: ExperimentConfig, out: str, label: str) -> tuple[list[str], bool]:
    checks = experiments.run_verify_suite(cfg)
    paths = experiments.emit_checks(checks, cfg, out, label)
    return [f"[{'INCONCLUSIVE' if c.inconclusive else 'PASS' if c.passed else 'FAIL'}] {c.name}: "
            + ", ".join(f"{k}={v:.3e}" for k, v in c.residuals.items())
            for c in checks] + paths, all(c.passed for c in checks)


def _wick(cfg: ExperimentConfig, out: str, label: str) -> tuple[list[str], bool]:
    payload = experiments.run_wick_demo(cfg)
    return experiments.emit_wick(payload, cfg, out, label) + [
        f"n = {payload['n']}  permanent = "
        f"{payload['npoint_value_re']:.12e} + {payload['npoint_value_im']:.3e}j"], True


def _fourier(cfg: ExperimentConfig, out: str, label: str) -> tuple[list[str], bool]:
    return experiments.emit_fourier(cfg, out, label), True


_COMMANDS = {
    "converge": ("thermodynamic-limit sweep of the two-point formula", _converge),
    "srs": ("strong-resolvent-convergence sweep", _srs),
    "verify": ("run the structural check suite", _verify),
    "wick": ("n-point function demo via the permanent", _wick),
    "fourier-dump": ("tabulate the Fourier transform of f", _fourier),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="becbox",
        description="Modified box Laplacians, Bose-gas two-point functions, "
                    "and their verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        _common(sub.add_parser(name, help=help_text))
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The experiment of ``--config`` (or the default one), for this command."""
    kind = {"fourier-dump": "fourier"}.get(args.command, args.command)
    cfg = parse_config(args.config) if args.config else ExperimentConfig()
    if cfg.kind not in ("", kind):
        raise ConfigError(f"kind = {cfg.kind!r} does not match the command {args.command!r}")
    cfg.kind = kind
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
    try:
        lines, ok = _COMMANDS[args.command][1](_load_config(args), args.out, args.label)
        for line in lines:
            print(line)
        return 0 if ok else 1
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
