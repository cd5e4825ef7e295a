"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one printed
PASS/FAIL line per criterion (the assertions enforce the same conditions
either way).  Golden files under tests/golden/ freeze the calibrated oracle
values and observed error columns; regenerate with
``python tests/golden/generate.py``.
"""

import json
import math
import os
import time

import numpy as np
import pytest

import becbox as bb
from becbox import continuum as ct
from becbox import experiments as ex
from becbox import phi_operator as po
from becbox import verification as vf
from becbox.config import parse_config_text

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def load_golden(name):
    with open(os.path.join(GOLDEN, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def converge_d1():
    golden = load_golden("converge_d1.json")
    cfg = parse_config_text(golden["config"])
    t0 = time.perf_counter()
    report = ex.run_converge_sweep(cfg)
    elapsed = time.perf_counter() - t0
    repeat = ex.run_converge_sweep(cfg)
    return golden, cfg, report, repeat, elapsed


@pytest.fixture(scope="module")
def converge_d2():
    golden = load_golden("converge_d2.json")
    cfg = parse_config_text(golden["config"])
    t0 = time.perf_counter()
    report = ex.run_converge_sweep(cfg)
    elapsed = time.perf_counter() - t0
    repeat = ex.run_converge_sweep(cfg)
    return golden, cfg, report, repeat, elapsed


@pytest.fixture(scope="module")
def srs_d1():
    golden = load_golden("srs_d1.json")
    cfg = parse_config_text(golden["config"])
    t0 = time.perf_counter()
    report = ex.run_srs_sweep(cfg)
    elapsed = time.perf_counter() - t0
    repeat = ex.run_srs_sweep(cfg)
    return golden, cfg, report, repeat, elapsed


def test_criterion_01_dirichlet_reduction():
    t0 = time.perf_counter()
    rep1 = vf.dirichlet_reduction_check(bb.make_grid(1, [256], 1.0))   # N = 255
    rep2 = vf.dirichlet_reduction_check(bb.make_grid(2, [32, 32], 1.0))  # N = 961
    elapsed = time.perf_counter() - t0
    worst = max(max(r.residuals.values()) for r in (rep1, rep2))
    ok = rep1.passed and rep2.passed and elapsed < 5.0
    _report(1, ok, f"max deviation {worst:.3e} (tol 1e-13), {elapsed:.2f}s (< 5s)")


K_FAMILIES = {
    1: "affine:a=0,b=1",
    2: "affine:a=0,b=1;affine:a=1,b=0",
    3: "const:c=1;affine:a=0,b=1;affine:a=1,b=2",  # deflates to rank 2
}
GRIDS_1D = {63: (4.0, 1 / 16), 255: (4.0, 1 / 64)}


def _ops_1d():
    for N, (L, h) in GRIDS_1D.items():
        grid = bb.make_grid(1, [L], h)
        for K, family in K_FAMILIES.items():
            op = bb.build_phi_operator(grid, bb.parse_family(family), backend="dense")
            yield N, K, op


def test_criterion_02_krein_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for N, K, op in _ops_1d():
        for z in (-1.0, -2.5):
            rep = vf.krein_identity_residual(op, z, n_fields=20, seed=0)
            assert rep.passed, (N, K, z, rep.residuals)
            worst = max(worst, rep.residuals["relative"])
    # exact scalar equality on the 1x1 closed-form case: both sides are 3/5
    g1 = bb.make_grid(1, [2], 1.0)
    op1 = bb.build_phi_operator(g1, bb.parse_family("const:c=1"), backend="dense")
    lam = op1.lam[0]
    s = lam / (lam + 1.0)
    lhs = 1.0 / (op1.eigenvalues[0] + 1.0)
    r = 1.0 / abs(op1.basis.col_hat[0, 0]) ** 2  # R = 1/|c|^2 on the one column
    rhs = 1.0 / (lam + 1.0) + s * (1.0 / (r + s)) * s
    scalar_ok = abs(lhs - 0.6) <= 1e-15 and abs(rhs - 0.6) <= 1e-15
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and scalar_ok and elapsed < 10.0
    _report(2, ok, f"max residual {worst:.3e} (tol 1e-10), scalar case exact, "
                   f"{elapsed:.2f}s (< 10s)")


def test_criterion_03_domain_decomposition():
    t0 = time.perf_counter()
    worst = 0.0
    for N, K, op in _ops_1d():
        rng = np.random.default_rng(N * 10 + K)
        for _ in range(20):
            w = bb.GridField(op.grid, rng.standard_normal(op.grid.total))
            rep = vf.domain_decomposition_check(op, [w])
            assert rep.passed, (N, K, rep.residuals)
            worst = max(worst, max(rep.residuals.values()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(3, ok, f"max residual {worst:.3e} (tol 1e-10) over 20 w x 6 configs, "
                   f"{elapsed:.2f}s (< 5s)")


def test_criterion_04_split_identity(converge_d1, converge_d2):
    worst = 0.0
    for pack in (converge_d1, converge_d2):
        report = pack[2]
        rows = report.rows + (report.rows_fine or [])
        worst = max(worst, max(r.split_agreement for r in rows))
    ok = worst <= 1e-12
    _report(4, ok, f"max direct-vs-split disagreement {worst:.3e} (tol 1e-12) "
                   f"over every sweep row")


def test_criterion_05_eigenvalue_ordering():
    worst = 0.0
    tested = []
    for N, K, op in _ops_1d():
        excess = float(np.max(op.eigenvalues / np.sort(op.lam) - 1.0))
        worst = max(worst, excess)
        tested.append((1, N, K))
    g2 = bb.make_grid(2, [4, 4], 1 / 8)  # N = 961, the d=2 sweep family
    op2 = bb.build_phi_operator(
        g2, bb.parse_family("hpoly2:n=1,part=re;hpoly2:n=2,part=re"), backend="dense")
    worst = max(worst, float(np.max(op2.eigenvalues / np.sort(op2.lam) - 1.0)))
    tested.append((2, 961, 2))
    ok = worst <= 1e-12
    _report(5, ok, f"max eigenvalue excess {worst:.3e} (tol 1e-12) over "
                   f"{len(tested)} configurations")


def test_criterion_06_example_formula():
    g = bb.make_grid(1, [4], 1 / 16)
    worst = 0.0
    for a, b in ((0.0, 1.0), (2.0, 0.5), (1.0, -1.0)):
        fam = bb.HarmonicFamily((bb.Affine1D(a, b),))
        op = bb.build_phi_operator(g, fam, backend="dense")
        r = vf.bc_r_matrix(op)
        t = np.array([a - 2.0 * b, a + 2.0 * b], dtype=complex)
        scalar = ((t.conj() @ r @ t) / (t.conj() @ t)).real
        expected = 1.0 / (abs(t[0]) ** 2 + abs(t[1]) ** 2)
        worst = max(worst, abs(scalar - expected) / expected)
    op_x = bb.build_phi_operator(g, bb.parse_family("affine:a=0,b=1"),
                                 backend="dense")
    bc = vf.boundary_condition_residual(ex._refinements(op_x, 3))
    ratios = bc.context["ratios"]
    ok = worst <= 1e-12 and bc.passed and min(ratios) >= 1.5
    _report(6, ok, f"r formula deviation {worst:.3e} (tol 1e-12); boundary "
                   f"condition ratios {[f'{r:.2f}' for r in ratios]} (>= 1.5)")


def test_criterion_07_theorem1_d1(converge_d1):
    golden, cfg, report, _, elapsed = converge_d1
    errs = [r.rel_err for r in report.final_rows()]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    final = errs[-1]
    rhs_dev = abs(report.rhs.total.real - golden["rhs_total_re"]) / abs(golden["rhs_total_re"])
    # recorded diagnostic: the error budget of the final row is dominated by
    # the Green-term discrepancy, not the bounded regular part
    last = report.rows[-1]
    green_disc = abs(last.green_term - report.rhs.green / cfg.beta)
    reg_disc = abs(last.regular_term - report.rhs.regular)
    budget_ok = reg_disc <= 10.0 * green_disc
    ok = (decreasing and final <= golden["threshold_final_rel_err"]
          and rhs_dev <= 1e-6 and budget_ok and elapsed <= 120.0)
    _report(7, ok, f"rel_err {[f'{e:.4f}' for e in errs]} strictly decreasing, "
                   f"final {final:.4e} (<= 2e-2 after Richardson), "
                   f"rhs matches golden to {rhs_dev:.1e}, regular/green "
                   f"discrepancies {reg_disc:.1e}/{green_disc:.1e}, "
                   f"{elapsed:.1f}s (<= 120s)")


def test_criterion_08_theorem1_d2(converge_d2):
    golden, cfg, report, _, elapsed = converge_d2
    errs = [r.rel_err for r in report.final_rows()]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    final = errs[-1]
    assert all(r.N <= po.DENSE_LIMIT for r in report.rows)
    # dense is mandatory at or below the limit, Lanczos above
    grid = bb.make_grid(2, [8, 8], cfg.h)
    family = bb.parse_family(cfg.family)
    dense_op = bb.build_phi_operator(grid, family, backend="auto")
    assert dense_op.backend == "dense" and grid.total == 3969
    big = bb.make_grid(1, [4226], 1.0)
    assert bb.build_phi_operator(big, bb.HarmonicFamily(()), backend="auto").backend == "lanczos"
    # cross-validation where both run
    lanczos_op = bb.build_phi_operator(grid, family, backend="lanczos")
    f = ct.parse_test_function(cfg.f)
    ff = bb.sample_function(grid, lambda x, y: ct.evaluate(f, x, y))
    qd = bb.quadratic_form(dense_op, bb.Bose(cfg.beta), ff)
    ql = bb.quadratic_form(lanczos_op, bb.Bose(cfg.beta), ff)
    cross = abs(qd - ql) / abs(qd)
    # exact ordering on the inverse side at this scale (Weyl inequality),
    # with the tolerance carried by the eigensolver's backward error
    mu_sorted = np.sort(1.0 / dense_op.eigenvalues)
    green_sorted = np.sort(1.0 / dense_op.lam)
    weyl_ok = bool(np.all(mu_sorted >= green_sorted - 1e-12 * mu_sorted[-1]))
    ok = (decreasing and final <= golden["threshold_final_rel_err"]
          and cross <= 1e-8 and weyl_ok and elapsed <= 600.0)
    _report(8, ok, f"rel_err {[f'{e:.4f}' for e in errs]} decreasing, final "
                   f"{final:.4e} (<= 1e-1), dense/Lanczos cross {cross:.2e} "
                   f"(<= 1e-8), {elapsed:.1f}s (<= 600s)")


def test_criterion_09_theorem31_srs(srs_d1):
    golden, cfg, report, _, elapsed = srs_d1
    errs = [r.err for r in report.rows]
    final = errs[-1]
    dev = max(abs(e - g) / g for e, g in zip(errs, golden["observed_err"]))
    ok = (report.all_decreasing() and final <= golden["threshold_final_err"]
          and dev <= 1e-6 and elapsed <= 60.0)
    _report(9, ok, f"window errors {[f'{e:.3e}' for e in errs]} decreasing, "
                   f"final {final:.3e} (<= 2e-2), matches golden to {dev:.1e}, "
                   f"{elapsed:.1f}s (<= 60s)")


def test_criterion_10_wick():
    worst = 0.0
    for n in (1, 2, 3, 4):
        rng = np.random.default_rng(n + 40)
        T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        r = ct.permanent_ryser(T)
        e = ct.permanent_enumerate(T)
        worst = max(worst, abs(r - e) / max(abs(e), 1e-300))
    t = 2.0 - 0.5j
    exact1 = ct.permanent_ryser(np.array([[t]])) == t
    T2 = np.array([[1.0, 2.0], [3.0, 4.0]])
    exact2 = ct.permanent_ryser(T2) == pytest.approx(10.0, abs=1e-13)
    ok = worst <= 1e-13 and exact1 and exact2
    _report(10, ok, f"Ryser vs pairing enumeration max deviation {worst:.3e} "
                    f"(tol 1e-13) for n <= 4; closed forms exact")


def test_criterion_11_eigensolver_contract():
    rng = np.random.default_rng(51)
    A = rng.standard_normal((50, 50))
    A = (A + A.T) / 2
    w, V = bb.eigendecompose_symmetric(A)
    recon = float(np.abs(V @ np.diag(w) @ V.T - A).max() / np.abs(A).max())
    ortho = float(np.abs(V.T @ V - np.eye(50)).max())
    # the eigensolver every build runs: the operator's chains of rank-one
    # stages, against the inverse they decompose, diag(1/lambda) + C C^H
    grid = bb.make_grid(2, [4, 4], 0.25)
    op = bb.build_phi_operator(grid, bb.parse_family(
        "hpoly2:n=1,part=re;expcos:k=1,phase=0.3;hpoly2:n=3,part=im,z0=0.5"))
    C = op.basis.col_hat
    inverse = np.diag(1.0 / op.lam) + C @ C.conj().T
    Vop = op.unproject(np.eye(grid.total))
    op_recon = float(np.abs(Vop @ np.diag(1.0 / op.eigenvalues) @ Vop.conj().T - inverse).max()
                     / np.abs(inverse).max())
    op_ortho = float(np.abs(Vop.conj().T @ Vop - np.eye(grid.total)).max())
    ok = max(recon, ortho, op_recon, op_ortho) <= 1e-10
    _report(11, ok, f"LAPACK wrapper: reconstruction {recon:.3e}, orthonormality {ortho:.3e}; "
                    f"operator chains: reconstruction {op_recon:.3e}, "
                    f"orthonormality {op_ortho:.3e} (tol 1e-10)")


def test_criterion_12_determinism(tmp_path, converge_d1, converge_d2, srs_d1):
    pairs = []
    for name, pack, emit in (
        ("c7", converge_d1, ex.emit_converge),
        ("c8", converge_d2, ex.emit_converge),
        ("c9", srs_d1, ex.emit_srs),
    ):
        _, _, report, repeat, _ = pack
        emit(report, str(tmp_path), f"{name}_a")
        emit(repeat, str(tmp_path), f"{name}_b")
        for f in sorted(os.listdir(tmp_path)):
            if f.startswith(f"{name}_a") and f.endswith(".csv"):
                other = f.replace(f"{name}_a", f"{name}_b")
                a = (tmp_path / f).read_bytes()
                b = (tmp_path / other).read_bytes()
                pairs.append((f, a == b))
    ok = all(same for _, same in pairs) and len(pairs) >= 4
    _report(12, ok, f"{len(pairs)} CSV files byte-identical across repeated runs")
