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
from functools import partial

import numpy as np

from . import continuum as ct
from . import reports
from .config import ConfigError, ExperimentConfig
from .harmonics import parse_family, spec_dim
from .lattice import Grid, GridField, make_grid, sample_function
from .phi_operator import build_phi_operator, shifted_solve, two_point_lhs
from .verification import (
    CheckReport,
    boundary_condition_residual,
    dirichlet_reduction_check,
    domain_decomposition_check,
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

# Error columns at the discretization plateau agree to ~10 digits; the
# decreasing flag tolerates that much rounding.
DECREASING_SLACK = 1e-6

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


def _check_support_inside(spec, L_min: float, margin: float = 0.0, name: str = "f") -> None:
    for lo, hi in ct.support_bounds(spec):
        if lo - margin <= -L_min / 2 or hi + margin >= L_min / 2:
            raise ct.HypothesisError(
                f"support of {name} (plus margin {margin}) reaches the boundary "
                f"of the smallest box L = {L_min}"
            )


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
    rows_fine: list[ConvergeRow] | None = None
    rows_richardson: list[ConvergeRow] | None = None

    def final_rows(self) -> list[ConvergeRow]:
        return self.rows_richardson if self.rows_richardson is not None else self.rows

    def strictly_decreasing(self) -> bool:
        errs = [r.rel_err for r in self.final_rows()]
        return all(b < a for a, b in zip(errs, errs[1:]))


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
    family, f = _parsed(cfg, "family"), _parsed(cfg, "f")
    g = _parsed(cfg, "g") if cfg.g.strip() else None
    L_min = cfg.lengths()[0]
    _check_support_inside(f, L_min, name="f")
    if g is not None:
        _check_support_inside(g, L_min, name="g")
    table_f = ct.fourier_oracle(f, cfg.cutoff, cfg.p_spacing, cfg.quad_points)
    table_g = None if g is None else ct.fourier_oracle(g, cfg.cutoff, cfg.p_spacing, cfg.quad_points)
    rhs = ct.two_point_rhs(family, f, g if g is not None else f, cfg.beta,
                           table_f, table_g, cfg.quad_points)
    del table_f, table_g  # 41 MB per table at the golden d=2 size; no row reads them
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

    def all_decreasing(self) -> bool:
        return all(r.decreasing for r in self.rows)


def run_srs_sweep(cfg: ExperimentConfig) -> SrsReport:
    """Strong-resolvent-convergence study: (1 + A_L)^-1 (chi u) against the
    free-space resolvent of u, in the weighted norm over a fixed window."""
    cfg.validate()
    family, u = _parsed(cfg, "family"), _parsed(cfg, "u")
    Ls = cfg.lengths()
    _check_support_inside(u, Ls[0], name="u")
    # fixed comparison window: support plus margin, clipped to the interior
    # of the smallest box so every grid in the schedule sees the same nodes
    edge = Ls[0] / 2 - cfg.h / 2
    bounds = ct.support_bounds(u)
    window = [
        (max(lo - cfg.window_margin, -edge), min(hi + cfg.window_margin, edge))
        for lo, hi in bounds
    ]

    def window_mask(grid: Grid):
        masks = []
        for ax in range(grid.dim):
            x = grid.axis_nodes(ax)
            lo, hi = window[ax]
            masks.append((x >= lo - 1e-12) & (x <= hi + 1e-12))
        if grid.dim == 1:
            return masks[0]
        return np.outer(masks[0], masks[1]).ravel()

    # reference on the window nodes of the smallest grid (the node lattice is
    # shared across the schedule because h divides every L/2 offset)
    grid0 = make_grid(cfg.dim, [Ls[0]] * cfg.dim, cfg.h)
    mask0 = window_mask(grid0)
    if cfg.dim == 1:
        pts = grid0.axis_nodes(0)[mask0]
        ref = ct.resolvent_reference(u, pts)
    else:
        pts = grid0.nodes()[mask0]
        table_u = ct.fourier_oracle(u, cfg.cutoff, cfg.p_spacing, cfg.quad_points)
        ref = ct.resolvent_reference(u, pts, table=table_u)

    rows: list[SrsRow] = []
    prev = None
    for L in Ls:
        t0 = time.perf_counter()
        grid = make_grid(cfg.dim, [L] * cfg.dim, cfg.h)
        op = build_phi_operator(grid, family, backend="lanczos")
        y = shifted_solve(op, sample_function(grid, partial(ct.evaluate, u)), 1.0)
        vals = y.values[window_mask(grid)]
        err = float(np.sqrt(grid.weight * np.sum(np.abs(vals - ref) ** 2)))
        decreasing = True if prev is None else err <= prev * (1.0 + DECREASING_SLACK)
        rows.append(SrsRow(L=float(L), N=grid.total, h=float(cfg.h), err=err,
                           decreasing=decreasing,
                           wall_time_s=time.perf_counter() - t0))
        prev = err
    return SrsReport(config=cfg.to_dict(), rows=rows)


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
    grid = make_grid(cfg.dim, [L] * cfg.dim, cfg.h)
    op = build_phi_operator(grid, family, backend="dense")

    # reduction check on the canonical unit-spacing grid, where the operator
    # eigenvalues are O(1) and the 1e-13 absolute tolerance is meaningful
    if cfg.dim == 1:
        canonical = make_grid(1, [256.0], 1.0)
    else:
        canonical = make_grid(2, [32.0, 32.0], 1.0)
    checks: list[CheckReport] = [dirichlet_reduction_check(canonical)]
    for z in VERIFY_SHIFTS:
        checks.append(krein_identity_residual(op, z, VERIFY_FIELDS, cfg.seed))

    ws = np.random.default_rng(cfg.seed).standard_normal((VERIFY_FIELDS, grid.total))
    checks.append(domain_decomposition_check(op, [GridField(grid, w) for w in ws]))

    checks.append(ordering_check(op))

    _check_support_inside(f, L, name="f")
    ff = sample_function(grid, partial(ct.evaluate, f))
    checks.append(split_identity_check(op, cfg.beta, ff))

    if cfg.dim == 1:
        checks.append(boundary_condition_residual(op, 0, levels=3))
        op_dh = build_phi_operator(grid, family, "discrete-harmonic", "dense")
        checks.append(quadratic_form_identity(op_dh, seed=cfg.seed, levels=2))

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
    op = build_phi_operator(grid, family, backend="dense")
    centers = [-L / 4 + (i + 1) * (L / 2) / (n + 1) for i in range(n)]
    width = min(0.4, (L / 2) / (n + 1) / 2.2)
    fields = [
        sample_function(grid, partial(ct.evaluate, ct.Bump(center=(c,), halfwidth=(width,))))
        for c in centers
    ]
    T = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            T[i, j] = two_point_lhs(op, cfg.beta, fields[i], fields[j]).direct
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


def _converge_csv_rows(rows: list[ConvergeRow], zero_wall: bool) -> list[list]:
    out = []
    for r in rows:
        out.append([
            r.L, r.N, r.h, r.lhs.real, r.lhs.imag, r.rhs.real, r.rhs.imag,
            r.abs_err, r.rel_err, r.green_term.real, r.regular_term.real,
            r.condensate_term.real, 0.0 if zero_wall else r.wall_time_s,
        ])
    return out


def emit_converge(report: ConvergenceReport, out_dir: str, label: str) -> list[str]:
    cfg = report.config
    zero_wall = bool(cfg.get("zero_wall_time"))
    paths = []
    base = f"{out_dir}/{label}"
    reports.write_csv(f"{base}.csv", CONVERGE_HEADER,
                      _converge_csv_rows(report.rows, zero_wall))
    paths.append(f"{base}.csv")
    if report.rows_fine is not None:
        reports.write_csv(f"{base}_fine.csv", CONVERGE_HEADER,
                          _converge_csv_rows(report.rows_fine, zero_wall))
        paths.append(f"{base}_fine.csv")
    if report.rows_richardson is not None:
        reports.write_csv(f"{base}_richardson.csv", CONVERGE_HEADER,
                          _converge_csv_rows(report.rows_richardson, zero_wall))
        paths.append(f"{base}_richardson.csv")
    final = report.final_rows()
    rel_errs = [r.rel_err for r in final]
    orders = [
        float(np.log2(a / b) / np.log2(y.L / x.L))
        for (x, a), (y, b) in zip(zip(final, rel_errs), zip(final[1:], rel_errs[1:]))
    ]
    summary = {
        "config": cfg,
        "input_hash": _config_hash(cfg),
        "rhs": {
            "total_re": report.rhs.total.real, "total_im": report.rhs.total.imag,
            "free_gas_re": report.rhs.free_gas.real,
            "condensate_re": report.rhs.condensate.real,
            "regular_re": report.rhs.regular.real,
            "green_re": report.rhs.green.real,
        },
        "rows": len(report.rows),
        "rel_err": rel_errs,
        "empirical_orders_in_L": orders,  # descriptive; no theoretical rate is claimed
        "final_rel_err": final[-1].rel_err,
        "max_split_disagreement": max(r.split_agreement for r in report.rows),
        "strictly_decreasing": report.strictly_decreasing(),
        "pass": report.strictly_decreasing(),
    }
    reports.write_json(f"{base}.json", summary)
    paths.append(f"{base}.json")
    series = {"rel_err": [(r.L, r.rel_err) for r in report.rows]}
    if report.rows_richardson is not None:
        series["rel_err (richardson)"] = [(r.L, r.rel_err) for r in report.rows_richardson]
    svg = reports.svg_loglog(series, "L", "relative error", "two-point convergence")
    reports.atomic_write(f"{base}.svg", svg)
    paths.append(f"{base}.svg")
    return paths


def emit_srs(report: SrsReport, out_dir: str, label: str) -> list[str]:
    cfg = report.config
    zero_wall = bool(cfg.get("zero_wall_time"))
    base = f"{out_dir}/{label}"
    rows = [
        [r.L, r.N, r.h, r.err, r.decreasing, 0.0 if zero_wall else r.wall_time_s]
        for r in report.rows
    ]
    reports.write_csv(f"{base}_srs.csv", SRS_HEADER, rows)
    summary = {
        "config": cfg,
        "input_hash": _config_hash(cfg),
        "rows": len(report.rows),
        "final_err": report.rows[-1].err,
        "all_decreasing": report.all_decreasing(),
        "pass": report.all_decreasing(),
    }
    reports.write_json(f"{base}_srs.json", summary)
    svg = reports.svg_loglog({"err": [(r.L, r.err) for r in report.rows]},
                             "L", "window error", "strong resolvent convergence")
    reports.atomic_write(f"{base}_srs.svg", svg)
    return [f"{base}_srs.csv", f"{base}_srs.json", f"{base}_srs.svg"]


def emit_checks(checks: list[CheckReport], cfg: ExperimentConfig,
                out_dir: str, label: str) -> list[str]:
    base = f"{out_dir}/{label}"
    payload = {
        "config": cfg.to_dict(),
        "input_hash": _config_hash(cfg.to_dict()),
        "checks": [c.to_dict() for c in checks],
        "pass": all(c.passed for c in checks),
    }
    reports.write_json(f"{base}_checks.json", payload)
    return [f"{base}_checks.json"]


def emit_wick(payload: dict, cfg: ExperimentConfig, out_dir: str, label: str) -> list[str]:
    base = f"{out_dir}/{label}"
    reports.write_json(f"{base}_wick.json",
                       dict(payload, config=cfg.to_dict(),
                            input_hash=_config_hash(cfg.to_dict())))
    return [f"{base}_wick.json"]


def emit_fourier(cfg: ExperimentConfig, out_dir: str, label: str) -> list[str]:
    """Dump the Fourier table of f for audit."""
    cfg.validate()
    f = _parsed(cfg, "f")
    table = ct.fourier_oracle(f, cfg.cutoff, cfg.p_spacing, cfg.quad_points)
    base = f"{out_dir}/{label}"
    if table.dim == 1:
        rows = [[float(p), v.real, v.imag] for p, v in zip(table.p, table.values)]
        header = ["p", "re", "im"]
    else:
        rows = []
        for i, p1 in enumerate(table.p):
            for j, p2 in enumerate(table.p):
                rows.append([float(p1), float(p2),
                             table.values[i, j].real, table.values[i, j].imag])
        header = ["p1", "p2", "re", "im"]
    reports.write_csv(f"{base}_fourier.csv", header, rows)
    reports.write_json(f"{base}_fourier.json", {
        "config": cfg.to_dict(),
        "input_hash": _config_hash(cfg.to_dict()),
        "provenance": table.provenance,
        "parseval_sum": table.parseval_sum(),
        "value_at_zero_re": table.value_at_zero().real,
        "value_at_zero_im": table.value_at_zero().imag,
    })
    return [f"{base}_fourier.csv", f"{base}_fourier.json"]
