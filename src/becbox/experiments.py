"""Experiment drivers: thermodynamic-limit sweeps, strong-resolvent-convergence
sweeps, the verification suite, and the Wick demo.

A sweep keeps the test functions and the harmonic family literally fixed while
the box doubles, so the only moving part is the domain; optional Richardson
pairing of two spacings removes the order-h^2 discretization bias from the
reported values.  Rows are produced serially and deterministically: identical
config and seed give byte-identical CSV numeric fields.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial, reduce

import numpy as np

from . import continuum as ct
from . import reports
from .config import ConfigError, ExperimentConfig
from .harmonics import parse_family, spec_dim
from .lattice import Grid, make_grid, sample_function, sine_transform
from .phi_operator import (
    Bose, PhiOperator, _contour_forms, build_phi_operator, shifted_solve, two_point_lhs)
from .verification import (
    CheckReport,
    Judgement,
    boundary_condition_residual,
    dirichlet_reduction_check,
    domain_decomposition_check,
    judge_ladder,
    krein_identity_residual,
    ordering_check,
    quadratic_form_identity,
    split_identity_check,
    wick_cross_check,
)

__all__ = [
    "ConvergeRow",
    "ConvergenceReport",
    "SrsRow",
    "SrsReport",
    "run_converge_sweep",
    "run_srs_sweep",
    "run_verify_suite",
    "skipped_checks",
    "run_wick_demo",
    "emit_converge",
    "emit_srs",
    "emit_checks",
    "emit_wick",
    "emit_fourier",
]

CONVERGE_HEADER = [
    "L", "N", "h", "lhs_re", "lhs_im", "rhs_re", "rhs_im",
    "abs_err", "rel_err", "green_term", "regular_term", "condensate_term",
    "wall_time_s",
]
SRS_HEADER = ["L", "N", "h", "err", "decreasing", "wall_time_s"]

VERIFY_SHIFTS = (-1.0, -2.5)  # spectral parameters of the verify suite's Krein checks
VERIFY_FIELDS = 20            # random fields per randomized verify check


def _parsed(cfg: ExperimentConfig, key: str):
    """The family or test function config key ``key`` names; a string that
    does not parse or does not match ``cfg.dim`` is a ConfigError."""
    text = getattr(cfg, key)
    try:
        value = parse_family(text) if key == "family" else ct.parse_test_function(text)
    except ValueError as e:
        raise ConfigError(f"bad {key}: {e}") from None
    dims = {spec_dim(s) for s in value.specs} if key == "family" else {value.dim}
    if not dims <= {None, cfg.dim}:
        raise ConfigError(f"{key} does not match dim = {cfg.dim}")
    return value


def _sweep_lengths(cfg: ExperimentConfig) -> list[float]:
    """The box schedule of a sweep; a trend in L needs at least two boxes."""
    Ls = cfg.lengths()
    if len(Ls) < 2:
        raise ConfigError(f"a sweep needs at least two boxes, got L = {Ls}")
    return Ls


def _check_support_inside(spec, L_min: float, name: str = "f") -> None:
    for lo, hi in ct.support_bounds(spec):
        if lo <= -L_min / 2 or hi >= L_min / 2:
            raise ct.HypothesisError(
                f"support of {name} reaches the boundary of the smallest box L = {L_min}")


@dataclass(frozen=True)
class ConvergeRow:
    L: float
    N: int
    h: float
    lhs: complex
    rhs: complex
    green_term: complex
    regular_term: complex
    condensate_term: complex
    split_agreement: float
    wall_time_s: float

    @property
    def abs_err(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def rel_err(self) -> float:
        return self.abs_err / abs(self.rhs)


@dataclass
class ConvergenceReport:
    config: dict
    rhs: ct.RhsValue
    rows: list[ConvergeRow]
    oracle_wall_time_s: float  # Fourier tables and right-hand side
    rows_fine: list[ConvergeRow] | None = None
    rows_richardson: list[ConvergeRow] | None = None

    def final_rows(self) -> list[ConvergeRow]:
        return self.rows_richardson if self.rows_richardson is not None else self.rows

    def judgement(self) -> Judgement:
        """``judge_ladder`` on the final rows' relative error in L: it falls."""
        final = self.final_rows()
        return judge_ladder([r.L for r in final], [r.rel_err for r in final], 0.0, 0.0)


def _sweep_rows(cfg: ExperimentConfig, family, f, g, rhs_total: complex, h: float):
    rows = []
    for L in cfg.lengths():
        t0 = time.perf_counter()
        grid = make_grid(cfg.dim, [L] * cfg.dim, h)
        op = build_phi_operator(grid, family, backend=cfg.backend)
        ff = sample_function(grid, partial(ct.evaluate, f))
        gg = ff if g is None else sample_function(grid, partial(ct.evaluate, g))
        tp = two_point_lhs(op, cfg.beta, ff, gg)
        rows.append(ConvergeRow(
            L=float(L), N=grid.total, h=float(h), lhs=tp.direct, rhs=rhs_total,
            green_term=tp.green_term, regular_term=tp.regular_term,
            condensate_term=tp.condensate_term,
            split_agreement=tp.split_agreement,
            wall_time_s=time.perf_counter() - t0,
        ))
    return rows


def run_converge_sweep(cfg: ExperimentConfig) -> ConvergenceReport:
    """Evaluate both sides of the two-point formula across the box schedule."""
    cfg.validate()
    L_min = _sweep_lengths(cfg)[0]
    family, f = _parsed(cfg, "family"), _parsed(cfg, "f")
    g = _parsed(cfg, "g") if cfg.g.strip() else None
    _check_support_inside(f, L_min, name="f")
    if g is not None:
        _check_support_inside(g, L_min, name="g")
    t0 = time.perf_counter()
    table_f = ct.fourier_oracle(f, cfg.cutoff, cfg.p_spacing, cfg.quad_points)
    table_g = None if g is None else ct.fourier_oracle(g, cfg.cutoff, cfg.p_spacing, cfg.quad_points)
    rhs = ct.two_point_rhs(family, f, g if g is not None else f, cfg.beta,
                           table_f, table_g, cfg.quad_points)
    oracle_wall_time_s = time.perf_counter() - t0
    if rhs.total == 0:
        raise ct.HypothesisError("the continuum two-point value is 0 (a zero f or g): "
                                 "no relative error is defined")
    rows = _sweep_rows(cfg, family, f, g, rhs.total, cfg.h)
    rows_fine = rows_rich = None
    if cfg.h_richardson:
        rows_fine = _sweep_rows(cfg, family, f, g, rhs.total, cfg.h_richardson)
        rows_rich = []
        h1, h2 = cfg.h, cfg.h_richardson
        wgt = h2**2 / (h1**2 - h2**2)
        for a, b in zip(rows, rows_fine):
            lhs = b.lhs + (b.lhs - a.lhs) * wgt  # order-2 elimination
            rows_rich.append(ConvergeRow(
                L=a.L, N=b.N, h=h2, lhs=lhs, rhs=rhs.total,
                green_term=b.green_term, regular_term=b.regular_term,
                condensate_term=b.condensate_term,
                split_agreement=max(a.split_agreement, b.split_agreement),
                wall_time_s=a.wall_time_s + b.wall_time_s,
            ))
    return ConvergenceReport(config=cfg.to_dict(), rhs=rhs, rows=rows,
                             oracle_wall_time_s=oracle_wall_time_s,
                             rows_fine=rows_fine, rows_richardson=rows_rich)


@dataclass(frozen=True)
class SrsRow:
    L: float
    N: int
    h: float
    err: float
    decreasing: bool
    wall_time_s: float


@dataclass
class SrsReport:
    config: dict
    rows: list[SrsRow]
    oracle_wall_time_s: float  # Fourier table and resolvent reference

    def all_decreasing(self) -> bool:
        return all(r.decreasing for r in self.rows)


def run_srs_sweep(cfg: ExperimentConfig) -> SrsReport:
    """Strong-resolvent-convergence study: (1 + A_L)^-1 (chi u) against the
    free-space resolvent of u, in the weighted norm over a fixed window."""
    cfg.validate()
    Ls = _sweep_lengths(cfg)
    family, u = _parsed(cfg, "family"), _parsed(cfg, "u")
    _check_support_inside(u, Ls[0], name="u")
    # fixed comparison window: support plus margin, clipped to the interior
    # of the smallest box so every grid in the schedule sees the same nodes
    edge = Ls[0] / 2 - cfg.h / 2
    window = [(max(lo - cfg.window_margin, -edge), min(hi + cfg.window_margin, edge))
              for lo, hi in ct.support_bounds(u)]

    def window_mask(grid: Grid):
        masks = [(x >= lo - 1e-12) & (x <= hi + 1e-12)
                 for x, (lo, hi) in zip(map(grid.axis_nodes, range(grid.dim)), window)]
        return reduce(np.logical_and.outer, masks).ravel()

    # reference on the window nodes of the smallest grid (the node lattice is
    # shared across the schedule because h divides every L/2 offset)
    grid0 = make_grid(cfg.dim, [Ls[0]] * cfg.dim, cfg.h)
    mask0 = window_mask(grid0)
    t0 = time.perf_counter()
    if cfg.dim == 1:
        pts = grid0.axis_nodes(0)[mask0]
        ref = ct.resolvent_reference(u, pts)
    else:
        pts = grid0.nodes()[mask0]
        table_u = ct.fourier_oracle(u, cfg.cutoff, cfg.p_spacing, cfg.quad_points)
        ref = ct.resolvent_reference(u, pts, table=table_u)
    oracle_wall_time_s = time.perf_counter() - t0
    # the error falls to its fixed-h floor, an unknown limit, judged to the roundoff
    # of the two compared window fields: M values each, good to eps of their norm
    floor = np.finfo(float).eps * float(np.sqrt(
        2 * ref.size * grid0.weight * np.sum(np.abs(ref) ** 2)))

    rows, errs = [], []
    for L in Ls:
        t0 = time.perf_counter()
        grid = make_grid(cfg.dim, [L] * cfg.dim, cfg.h)
        op = build_phi_operator(grid, family)
        y = shifted_solve(op, sample_function(grid, partial(ct.evaluate, u)), 1.0)
        vals = y.values[window_mask(grid)]
        errs.append(float(np.sqrt(grid.weight * np.sum(np.abs(vals - ref) ** 2))))
        judged = judge_ladder(Ls[:len(errs)], errs, 0.0, floor, None)
        rows.append(SrsRow(L=float(L), N=grid.total, h=float(cfg.h), err=errs[-1],
                           decreasing=judged.verdict != "failing",
                           wall_time_s=time.perf_counter() - t0))
    return SrsReport(config=cfg.to_dict(), rows=rows, oracle_wall_time_s=oracle_wall_time_s)


def skipped_checks(cfg: ExperimentConfig) -> list[dict]:
    """The checks a verify run on ``cfg`` leaves out, each with its reason."""
    reason = "needs the boundary trace, Dirichlet-to-Neumann map and r matrix of d = 1"
    return [] if cfg.dim == 1 else [{"name": name, "reason": reason} for name in
                                    ("boundary_condition", "quadratic_form_identity")]


def _refinements(op: PhiOperator, levels: int) -> list[PhiOperator]:
    """``op`` and its family on its box at ``levels - 1`` halved spacings: the
    ladder both trace checks read."""
    return [op] + [build_phi_operator(make_grid(op.grid.dim, list(op.grid.lengths),
                                                op.grid.spacing / 2**level), op.family)
                   for level in range(1, levels)]


def run_verify_suite(cfg: ExperimentConfig) -> list[CheckReport]:
    """The standard structural check battery on the configured grid/family."""
    cfg.validate()
    family = _parsed(cfg, "family")
    f = _parsed(cfg, "f") if cfg.dim == 1 else ct.parse_test_function(
        "dipole2:cx=0,cy=0,s=1,ax=0.75,ay=0.75")
    L = cfg.lengths()[0]
    # the d = 1 boundary traces read the three nodes nearest each end
    if cfg.dim == 1 and round(L / cfg.h) < 4:
        raise ConfigError(f"verify in d = 1 needs L/h >= 4, got L = {L}, h = {cfg.h}")
    _check_support_inside(f, L, name="f")
    grid = make_grid(cfg.dim, [L] * cfg.dim, cfg.h)
    op = build_phi_operator(grid, family, backend="dense")  # the exact checks read eigenpairs

    # reduction check on the canonical unit-spacing grid, where the operator
    # eigenvalues are O(1) and the 1e-13 absolute tolerance is meaningful
    canonical = make_grid(cfg.dim, [256.0] if cfg.dim == 1 else [32.0, 32.0], 1.0)
    checks: list[CheckReport] = [dirichlet_reduction_check(canonical)]
    checks += [krein_identity_residual(op, z, VERIFY_FIELDS, cfg.seed) for z in VERIFY_SHIFTS]
    checks += [domain_decomposition_check(op, VERIFY_FIELDS, cfg.seed), ordering_check(op),
               split_identity_check(op, cfg.beta, f)]

    skipped = {check["name"] for check in skipped_checks(cfg)}
    trace_checks = {"boundary_condition": boundary_condition_residual,
                    "quadratic_form_identity": quadratic_form_identity}
    if set(trace_checks) - skipped:
        ladder = _refinements(op, 4)  # built once, read by both
        checks += [check(ladder) for name, check in trace_checks.items() if name not in skipped]

    checks.append(wick_cross_check(4, cfg.seed))
    return checks


def run_wick_demo(cfg: ExperimentConfig) -> dict:
    """Assemble an n x n matrix of two-point values for separated bumps and
    reduce the n-point function to its permanent, cross-checked for n <= 6."""
    cfg.validate()
    if cfg.dim != 1:
        raise ConfigError(f"wick runs in d = 1, got dim = {cfg.dim}")
    n = cfg.wick_n
    family = _parsed(cfg, "family")
    L = cfg.lengths()[0]
    grid = make_grid(1, [L], cfg.h)
    op = build_phi_operator(grid, family)
    centers = [-L / 4 + (i + 1) * (L / 2) / (n + 1) for i in range(n)]
    width = min(0.4, (L / 2) / (n + 1) / 2.2)
    fields = [
        sample_function(grid, partial(ct.evaluate, ct.Bump(center=(c,), halfwidth=(width,))))
        for c in centers
    ]
    # every pair from one block readout: the contour rule of the dense backend
    X = np.stack([sine_transform(grid, f, "forward").values for f in fields], axis=1)
    T = _contour_forms(op, (Bose(cfg.beta),), X, X)[0]
    value = ct.permanent_ryser(T)
    payload = {
        "n": n,
        "centers": centers,
        "halfwidth": width,
        "two_point_matrix_re": T.real.tolist(),
        "two_point_matrix_im": T.imag.tolist(),
        "npoint_value_re": value.real,
        "npoint_value_im": value.imag,
    }
    if n <= 6:
        brute = ct.permanent_enumerate(T)
        payload["enumeration_value_re"] = brute.real
        payload["enumeration_value_im"] = brute.imag
        payload["cross_check_rel"] = abs(value - brute) / max(abs(brute), 1e-300)
    return payload


# --- emission -------------------------------------------------------------------


def _config_hash(config: dict) -> str:
    text = "\n".join(f"{k} = {config[k]}" for k in sorted(config)) + "\n"
    return reports.git_blob_sha(text.encode("utf-8"))


def _wall_time(config: dict, seconds: float) -> float:
    """A wall time as emitted: 0 under ``zero_wall_time``, so golden runs are byte-stable."""
    return 0.0 if config.get("zero_wall_time") else seconds


def _write_summary(path: str, config: dict, fields: dict) -> str:
    """Write a command's JSON summary: its config, the config's hash, then
    the command's own fields.  Returns ``path``."""
    reports.write_json(path, {"config": config, "input_hash": _config_hash(config), **fields})
    return path


def emit_converge(report: ConvergenceReport, out_dir: str, label: str) -> list[str]:
    cfg = report.config
    base = f"{out_dir}/{label}"
    paths = []
    for suffix, rows in (("", report.rows), ("_fine", report.rows_fine),
                         ("_richardson", report.rows_richardson)):
        if rows is not None:
            paths.append(f"{base}{suffix}.csv")
            reports.write_csv(paths[-1], CONVERGE_HEADER, [[
                r.L, r.N, r.h, r.lhs.real, r.lhs.imag, r.rhs.real, r.rhs.imag,
                r.abs_err, r.rel_err, r.green_term.real, r.regular_term.real,
                r.condensate_term.real, _wall_time(cfg, r.wall_time_s),
            ] for r in rows])
    final = report.final_rows()
    judged = report.judgement()
    paths.append(_write_summary(f"{base}.json", cfg, {
        "rhs": {
            "total_re": report.rhs.total.real, "total_im": report.rhs.total.imag,
            "free_gas_re": report.rhs.free_gas.real,
            "condensate_re": report.rhs.condensate.real,
            "regular_re": report.rhs.regular.real,
            "green_re": report.rhs.green.real,
            "oracle_wall_time_s": _wall_time(cfg, report.oracle_wall_time_s),
        },
        "rows": len(report.rows),
        "rel_err": [r.rel_err for r in final],
        "empirical_orders_in_L": judged.orders,  # descriptive; no theoretical rate is claimed
        "final_rel_err": final[-1].rel_err,
        "max_split_disagreement": max(r.split_agreement for r in final),
        "verdict": judged.verdict,
        "pass": judged.passed,
    }))
    series = {"rel_err": [(r.L, r.rel_err) for r in report.rows]}
    if report.rows_richardson is not None:
        series["rel_err (richardson)"] = [(r.L, r.rel_err) for r in report.rows_richardson]
    svg = reports.svg_loglog(series, "L", "relative error", "two-point convergence")
    reports.atomic_write(f"{base}.svg", svg)
    return paths + [f"{base}.svg"]


def emit_srs(report: SrsReport, out_dir: str, label: str) -> list[str]:
    cfg = report.config
    base = f"{out_dir}/{label}_srs"
    reports.write_csv(f"{base}.csv", SRS_HEADER, [
        [r.L, r.N, r.h, r.err, r.decreasing, _wall_time(cfg, r.wall_time_s)]
        for r in report.rows
    ])
    _write_summary(f"{base}.json", cfg, {
        "rows": len(report.rows),
        "final_err": report.rows[-1].err,
        "oracle_wall_time_s": _wall_time(cfg, report.oracle_wall_time_s),
        "all_decreasing": report.all_decreasing(),
        "pass": report.all_decreasing(),
    })
    svg = reports.svg_loglog({"err": [(r.L, r.err) for r in report.rows]},
                             "L", "window error", "strong resolvent convergence")
    reports.atomic_write(f"{base}.svg", svg)
    return [f"{base}.csv", f"{base}.json", f"{base}.svg"]


def emit_checks(checks: list[CheckReport], cfg: ExperimentConfig,
                out_dir: str, label: str) -> list[str]:
    return [_write_summary(f"{out_dir}/{label}_checks.json", cfg.to_dict(), {
        "checks": [c.to_dict() for c in checks],
        "skipped": skipped_checks(cfg),
        "pass": all(c.passed for c in checks),
    })]


def emit_wick(payload: dict, cfg: ExperimentConfig, out_dir: str, label: str) -> list[str]:
    return [_write_summary(f"{out_dir}/{label}_wick.json", cfg.to_dict(), payload)]


def emit_fourier(cfg: ExperimentConfig, out_dir: str, label: str) -> list[str]:
    """Dump the Fourier table of f for audit, as it is held: one row per p,
    with each axis factor's real and imaginary part (fhat is their product)."""
    cfg.validate()
    f = _parsed(cfg, "f")
    table = ct.fourier_oracle(f, cfg.cutoff, cfg.p_spacing, cfg.quad_points)
    base = f"{out_dir}/{label}_fourier"
    columns = [table.p] + [part for factor in table.factors for part in (factor.real, factor.imag)]
    header = ["p", "re", "im"] if table.dim == 1 else ["p", "re_x", "im_x", "re_y", "im_y"]
    reports.write_csv(f"{base}.csv", header, list(zip(*(c.tolist() for c in columns))))
    return [f"{base}.csv", _write_summary(f"{base}.json", cfg.to_dict(), {
        "provenance": table.provenance,
        "parseval_sum": table.parseval_sum(),
        "value_at_zero_re": table.value_at_zero().real,
        "value_at_zero_im": table.value_at_zero().imag,
    })]
