import dataclasses
import json
import random
from pathlib import Path

import numpy as np
import pytest

import becbox as bb
from becbox import verification as vf
from becbox import continuum as ct
from becbox import experiments as ex
from becbox.config import parse_config_text
from conftest import apply_forward, stencil_apply, traced_peak


def make_op(grid, family_text):
    return bb.build_phi_operator(grid, bb.parse_family(family_text), "dense")


def default_verify_op():
    """The operator a default d = 1 ``verify`` run checks (N = 127)."""
    cfg = parse_config_text("kind = verify\n")
    return make_op(bb.make_grid(1, [cfg.lengths()[0]], cfg.h), cfg.family)


class TestCheckReport:
    def test_pass_iff_residuals_below_tolerance(self):
        r = vf.CheckReport("x", {"a": 1e-11}, {"a": 1e-10})
        assert r.passed
        r = vf.CheckReport("x", {"a": 1e-9}, {"a": 1e-10})
        assert not r.passed

    def test_json_fields(self):
        r = vf.CheckReport("demo", {"a": 0.5}, {"a": 1.0}, context={"N": 3})
        doc = json.loads(json.dumps(r.to_dict(), sort_keys=True))
        assert set(doc) == {"name", "residuals", "tolerances", "pass", "context"}
        assert doc["pass"] is True
        assert doc["context"]["N"] == 3


class TestKrein:
    def test_empty_family_correction_vanishes(self, grid_1d):
        op = make_op(grid_1d, "")
        rep = vf.krein_identity_residual(op, -1.0)
        assert rep.residuals["relative"] <= 1e-13

    def test_n1_scalar_closed_form(self):
        g = bb.make_grid(1, [2], 1.0)
        op = make_op(g, "const:c=1")
        rep = vf.krein_identity_residual(op, -1.0, n_fields=1)
        assert rep.passed
        # scalar arithmetic: A_phi = 2/3, A_0 = 2, R = 1/|c|^2 = 1, S = 2/3;
        # lhs = 1/(2/3 + 1) = 3/5, rhs = 1/3 + (2/3)(1/(1 + 2/3))(2/3) = 3/5
        lam = op.lam[0]
        s = lam / (lam + 1.0)
        lhs = 1.0 / (op.eigenvalues[0] + 1.0)
        r = 1.0 / abs(op.basis.col_hat[0, 0]) ** 2
        rhs = 1.0 / (lam + 1.0) + s * (1.0 / (r + s)) * s
        assert lhs == pytest.approx(3 / 5, rel=1e-15)
        assert rhs == pytest.approx(3 / 5, rel=1e-15)

    @pytest.mark.parametrize("z", [-1.0, -2.5])
    @pytest.mark.parametrize("family", ["affine:a=0,b=1", "affine:a=0,b=1;affine:a=1,b=0"])
    def test_exact_matrix_algebra(self, z, family):
        g = bb.make_grid(1, [4], 1 / 64)  # N = 255
        op = make_op(g, family)
        rep = vf.krein_identity_residual(op, z)
        assert rep.residuals["relative"] <= 1e-10

    def test_fields_are_one_draw_per_field_of_the_seeded_stream(self, grid_1d, monkeypatch):
        drawn = []
        project = bb.PhiOperator.project
        monkeypatch.setattr(bb.PhiOperator, "project", lambda self, x: drawn.append(x) or project(self, x))
        vf.krein_identity_residual(make_op(grid_1d, "affine:a=0,b=1"), -1.0, n_fields=5, seed=3)
        rng = random.Random(3)
        one_by_one = np.stack([vf._uniform(rng, grid_1d.total) for _ in range(5)], axis=1)
        np.testing.assert_array_equal(drawn[0], one_by_one)
        assert -1.0 <= drawn[0].min() and drawn[0].max() < 1.0

    def test_rejects_nonnegative_z(self, grid_1d):
        op = make_op(grid_1d, "affine:a=0,b=1")
        with pytest.raises(ValueError, match="negative"):
            vf.krein_identity_residual(op, 0.0)

    def test_corrupted_columns_fail(self, grid_1d):
        """The eigenpairs are solved from the true columns; the right side then
        reads columns 1% too long."""
        op = make_op(grid_1d, "affine:a=0,b=1")
        op.eigenvalues  # every component solved here
        op.basis = dataclasses.replace(op.basis, col_hat=op.basis.col_hat * 1.01)
        rep = vf.krein_identity_residual(op, -1.0)
        assert not rep.passed


class TestDomainDecomposition:
    def test_empty_family_psi_zero(self, grid_1d):
        """The eigen side reads 1/(1/(1/lam)) where the right side reads 1/lam."""
        op = make_op(grid_1d, "")
        rep = vf.domain_decomposition_check(op, 1, 30)
        assert rep.residuals["relative"] <= np.finfo(float).eps
        assert rep.passed

    def test_random_w_exact_algebra(self, grid_1d):
        op = make_op(grid_1d, "affine:a=0,b=1")
        for seed in range(5):
            rep = vf.domain_decomposition_check(op, 1, 100 + seed)
            assert rep.residuals["relative"] <= 1e-10

    def test_reports_worst_field(self, grid_1d, monkeypatch):
        """A right side off on the middle one of three fields fails the check
        read on all three, and not the check read on the first alone."""
        op = make_op(grid_1d, "affine:a=0,b=1;const:c=1")
        resolvent = vf._resolvent

        def off_on_field_1(op, x, s):
            out = resolvent(op, x, s)
            if out.shape[1] > 1:
                out[:, 1] *= 1.001
            return out

        monkeypatch.setattr(vf, "_resolvent", off_on_field_1)
        assert vf.domain_decomposition_check(op, 1, 200).passed
        rep = vf.domain_decomposition_check(op, 3, 200)
        assert not rep.passed
        assert rep.context["n_fields"] == 3

    @pytest.mark.parametrize("c", [1e-3, 1e-6])
    def test_small_columns_pass(self, c):
        """Neither side is a difference, so the residual stays at roundoff
        however small the columns' part of A^-1 w."""
        g = bb.make_grid(1, [72.125], 0.125)  # N = 576
        op = bb.build_phi_operator(g, bb.HarmonicFamily((bb.Constant(c),)), "dense")
        rep = vf.domain_decomposition_check(op, 2, 1)
        assert rep.residuals["relative"] <= 1e-14

    def test_context_names_z_and_seed(self, grid_1d):
        rep = vf.domain_decomposition_check(make_op(grid_1d, "affine:a=0,b=1"), 5, 3)
        assert rep.context["z"] == 0.0
        assert (rep.context["n_fields"], rep.context["seed"]) == (5, 3)

    def test_perturbed_eigenvalues_fail(self):
        """Every eigenvalue 1e-6 too large after the solve: the left side is
        read off the eigenpairs, the right side is not."""
        op = default_verify_op()
        nu, order = op._assembly
        op.__dict__["_assembly"] = (nu * (1 + 1e-6), order)
        assert not vf.domain_decomposition_check(op).passed

    def test_corrupted_columns_fail(self):
        """The eigenpairs are solved from the true columns; the right side then
        reads columns 0.1% too long."""
        op = default_verify_op()
        op.eigenvalues  # every component solved here
        op.basis = dataclasses.replace(op.basis, col_hat=op.basis.col_hat * 1.001)
        assert not vf.domain_decomposition_check(op).passed


class TestDtn:
    def test_constants(self, grid_1d):
        assert vf.dtn_apply_1d(grid_1d, (1.0, 1.0)) == (0.0, 0.0)

    def test_trace_of_x(self, grid_1d):
        L = grid_1d.lengths[0]
        out = vf.dtn_apply_1d(grid_1d, (-L / 2, L / 2))
        assert out[0] == pytest.approx(-1.0)
        assert out[1] == pytest.approx(1.0)

    def test_affine_interpolation(self, grid_1d):
        L = grid_1d.lengths[0]
        out = vf.dtn_apply_1d(grid_1d, (0.0, 1.0))
        assert out[0] == pytest.approx(-1 / L)
        assert out[1] == pytest.approx(1 / L)

    def test_requires_1d(self, grid_2d):
        with pytest.raises(ValueError, match="1d"):
            vf.dtn_apply_1d(grid_2d, (0.0, 1.0))


class TestBoundaryCondition:
    @pytest.mark.parametrize("family,phi", [
        ("affine:a=0,b=1", bb.Affine1D(0.0, 1.0)),
        ("affine:a=2,b=0.5", bb.Affine1D(2.0, 0.5)),
    ])
    def test_example_scalar(self, grid_1d, family, phi):
        op = make_op(grid_1d, family)
        r = vf.bc_r_matrix(op)
        L = grid_1d.lengths[0]
        t = np.array([
            complex(bb.eval_harmonic(phi, -L / 2)),
            complex(bb.eval_harmonic(phi, L / 2)),
        ])
        scalar = (t.conj() @ r @ t) / (t.conj() @ t)
        expected = 1.0 / (abs(t[0]) ** 2 + abs(t[1]) ** 2)
        assert scalar.real == pytest.approx(expected, rel=1e-12)
        assert abs(scalar.imag) <= 1e-15

    def test_example_value_1_over_8(self):
        g = bb.make_grid(1, [4], 1 / 16)
        op = make_op(g, "affine:a=0,b=1")
        r = vf.bc_r_matrix(op)
        t = np.array([-2.0, 2.0])
        assert (t @ r @ t).real / (t @ t) == pytest.approx(1 / 8, rel=1e-12)

    def test_source_field_residual_decays(self):
        g = bb.make_grid(1, [4], 1 / 16)
        rep = vf.boundary_condition_residual(ex._refinements(make_op(g, "affine:a=0,b=1"), 3))
        assert rep.passed
        assert min(rep.context["ratios"]) >= 1.5

    def test_empty_family_dirichlet_trace_decays(self):
        g = bb.make_grid(1, [4], 1 / 16)
        rep = vf.boundary_condition_residual(ex._refinements(make_op(g, ""), 3))
        assert rep.passed
        levels = rep.context["levels"]
        assert all(b < a for a, b in zip(levels, levels[1:]))


class TestTraceChecksKeepTheirTeeth:
    """A boundary operator 1% off, 1.01 r, leaves an O(1) residual at every
    level: both trace checks stop converging and fail."""

    @pytest.mark.parametrize("family", ["affine:a=0,b=1", "const:c=1", "affine:a=2,b=0.5",
                                        "affine:a=0,b=1;const:c=1"])
    def test_a_perturbed_r_fails_both(self, family, monkeypatch):
        cfg = parse_config_text(f"kind = verify\nfamily = {family}\n")
        assert all(c.passed for c in ex.run_verify_suite(cfg))
        r_matrix = vf.bc_r_matrix
        monkeypatch.setattr(vf, "bc_r_matrix", lambda op: 1.01 * r_matrix(op))
        checks = {c.name: c for c in ex.run_verify_suite(cfg)}
        for name in ("boundary_condition", "quadratic_form_identity"):
            assert not checks[name].passed
            assert max(checks[name].context["ratios"]) < 1.1


GOLDEN = Path(__file__).resolve().parent / "golden"


def _golden(name):
    with open(GOLDEN / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


LOG2_15 = float(np.log2(1.5))
HALVINGS = [1.0, 2.0, 4.0, 8.0]  # 1/h of a four-level ladder, in units of the coarsest


class TestJudgeLadder:
    """``judge_ladder`` on the ladders this repository has measured: the
    trace checks' pre-asymptotic draws and teeth, the golden converge and srs
    sweeps, and the benchmark's Lanczos d = 2 sweep, whose error rises."""

    @pytest.mark.parametrize("steps,levels,min_order,floor,limit,verdict", [
        # boundary condition, Affine1D(1+1j, e^i), L = 4, h = 1/2
        (HALVINGS, [1.55e-1, 1.09e-1, 3.34e-2, 8.85e-3], LOG2_15, 0.0, 0.0, "converging"),
        # quadratic form, Affine1D(-0.68-0.96j, 0.73+0.80j), L = 4, h = 1/8:
        # converging on four levels, failing on the first three
        (HALVINGS, [3.18e-7, 7.80e-7, 1.25e-7, 1.64e-8], 1.0, 0.0, 0.0, "converging"),
        (HALVINGS[:3], [3.18e-7, 7.80e-7, 1.25e-7], 1.0, 0.0, 0.0, "failing"),
        # quadratic form, Affine1D(2.99+1.18j, -1.17+0.18j), L = 4, h = 1/8
        (HALVINGS, [2.77e-7, 1.89e-7, 2.89e-8, 3.78e-9], 1.0, 0.0, 0.0, "converging"),
        # a 1% error in r: flat to three digits
        (HALVINGS, [4.071e-1, 4.069e-1, 4.068e-1, 4.068e-1], LOG2_15, 0.0, 0.0, "failing"),
        # converge_d1's Richardson rows and converge_d2, in L
        ([8.0, 16.0, 32.0, 64.0], _golden("converge_d1")["observed_rel_err_final_rows"],
         0.0, 0.0, 0.0, "converging"),
        ([4.0, 6.0, 8.0], _golden("converge_d2")["observed_rel_err_final_rows"],
         0.0, 0.0, 0.0, "converging"),
        # krylov-d2 at L = 16, 32: the error rises
        ([16.0, 32.0], [8.007e-4, 2.347e-3], 0.0, 0.0, 0.0, "failing"),
        # srs: the window error falls to its fixed-h floor, an unknown limit
        ([8.0, 16.0, 32.0, 64.0], _golden("srs_d1")["observed_err"], 0.0, 1e-15, None,
         "converging"),
        ([8.0, 16.0, 32.0], [2.5593e-4, 8.15083e-5, 8.14974e-5], 0.0, 1e-15, None, "converging"),
        # a zero srs input: every error is 0
        ([8.0, 16.0, 32.0], [0.0, 0.0, 0.0], 0.0, 0.0, None, "settled"),
        ([8.0], [1e-3], 0.0, 0.0, 0.0, "inconclusive"),
        ([8.0], [1e-3], 0.0, 0.0, None, "inconclusive"),
    ])
    def test_verdicts(self, steps, levels, min_order, floor, limit, verdict, recwarn):
        judged = vf.judge_ladder(steps, levels, min_order, floor, limit)
        assert judged.verdict == verdict
        assert judged.passed == (verdict in ("converging", "settled"))
        assert judged.floor == floor
        assert len(judged.orders) == max(len(levels) - (2 if limit is None else 1), 0)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_orders_are_richardsons(self):
        """A ladder e = C s^-p reads order p at every step, whatever the steps."""
        steps = np.array([4.0, 6.0, 8.0, 12.0])
        judged = vf.judge_ladder(steps, 3.0 * steps ** -2.5, 2.5, 0.0)
        assert judged.orders == pytest.approx([2.5] * 3, rel=1e-12)
        assert judged.verdict == "converging" and judged.limit == 0.0
        assert vf.judge_ladder(steps, 3.0 * steps ** -2.5, 2.6, 0.0).verdict == "failing"

    def test_unknown_limit_is_extrapolated(self):
        """Levels x + C 2^-k: the differences fall at order 1 and Aitken's
        extrapolation of the finest triple recovers x."""
        levels = [0.25 + 0.5 * 2.0 ** -k for k in range(4)]
        judged = vf.judge_ladder([1, 2, 4, 8], levels, 1.0, 0.0, None)
        assert judged.verdict == "converging"
        assert judged.orders == pytest.approx([1.0, 1.0], rel=1e-12)
        assert judged.limit == pytest.approx(0.25, rel=1e-12)

    def test_floor_settles_a_known_and_an_unknown_limit(self):
        # a residual at roundoff that rises settles at its floor; above it, it fails
        assert vf.judge_ladder([1, 2, 4], [1e-3, 1e-15, 2e-15], 1.0, 1e-14).verdict == "settled"
        assert vf.judge_ladder([1, 2, 4], [1e-3, 1e-15, 2e-15], 1.0, 1e-16).verdict == "failing"
        # an error on its plateau that rises by roundoff settles on its step
        plateau = [1e-3, 5.44e-5, 5.44e-5 + 3e-16]
        assert vf.judge_ladder([8, 16, 32], plateau, 0.0, 1e-15, None).verdict == "settled"
        assert vf.judge_ladder([8, 16, 32], plateau, 0.0, 1e-16, None).verdict == "failing"


class TestTraceCheckPassFlags:
    """A trace check's ``pass`` is ``all(residual <= tolerance)``, the rule a
    reader of the JSON (the benchmark's verify check among them) recomputes,
    on passing, teeth and non-monotone ladders alike."""

    def _checks(self, ladder):
        return [vf.boundary_condition_residual(ladder), vf.quadratic_form_identity(ladder)]

    @staticmethod
    def _agree(check):
        doc = check.to_dict()
        derived = all(doc["residuals"][k] <= tol for k, tol in doc["tolerances"].items())
        return doc["pass"] == derived == (check.context["verdict"] in ("converging", "settled"))

    def test_passing_ladder(self):
        checks = self._checks(ex._refinements(default_verify_op(), 4))
        assert all(c.passed and self._agree(c) for c in checks)

    def test_teeth_ladder(self, monkeypatch):
        ladder = ex._refinements(default_verify_op(), 4)
        r_matrix = vf.bc_r_matrix
        monkeypatch.setattr(vf, "bc_r_matrix", lambda op: 1.01 * r_matrix(op))
        checks = self._checks(ladder)
        assert all(not c.passed and self._agree(c) for c in checks)
        assert all(c.residuals["order_shortfall"] > 0 for c in checks)

    @pytest.mark.parametrize("levels,passed", [(4, True), (3, False)])
    def test_non_monotone_ladder(self, levels, passed):
        """The quadratic form of Affine1D(-0.68-0.96j, 0.73+0.80j) at L = 4,
        h = 1/8 rises on its first step."""
        spec = bb.Affine1D(-0.68 - 0.96j, 0.73 + 0.80j)
        op = bb.build_phi_operator(bb.make_grid(1, [4.0], 1 / 8), bb.HarmonicFamily((spec,)),
                                   "dense")
        qf = vf.quadratic_form_identity(ex._refinements(op, levels))
        assert qf.context["levels"][1] > qf.context["levels"][0]
        assert qf.passed == passed and self._agree(qf)


class TestQuadraticFormIdentity:
    def test_dirichlet_eigenvector_energy_exact(self):
        # summation by parts: the zero-padded forward-difference energy of a
        # sine mode equals lambda exactly
        g = bb.make_grid(1, [4], 1 / 64)
        op = bb.build_phi_operator(g, bb.HarmonicFamily(()), backend="dense")
        m = 4
        mode = bb.sine_transform(
            g, bb.GridField(g, np.eye(g.total)[:, m - 1]), "inverse"
        )
        energy = vf._gradient_sum(mode.values, g.spacing, 0.0, 0.0)
        lam = bb.dirichlet_eigenvalues(g)[m - 1]
        assert energy == pytest.approx(lam, rel=1e-11)

    def test_empty_family_exact(self, grid_1d):
        """With zero end values the form is exact, so the ladder settles at
        roundoff instead of converging."""
        rep = vf.quadratic_form_identity(ex._refinements(make_op(grid_1d, ""), 3))
        assert rep.passed and rep.context["verdict"] == "settled"
        assert max(rep.context["levels"]) <= 1e-13

    def test_affine_family_order_one(self):
        g = bb.make_grid(1, [4], 1 / 16)
        rep = vf.quadratic_form_identity(ex._refinements(make_op(g, "affine:a=0,b=1"), 2))
        assert rep.passed
        assert min(rep.context["empirical_orders"]) >= 1.0

    @pytest.mark.parametrize("family", [
        "affine:a=0,b=1", "const:c=1", "const:c=1;affine:a=0,b=1;affine:a=1,b=2",
        "const:c=2;affine:a=0,b=3",
    ])
    @pytest.mark.parametrize("h", [1 / 16, 1 / 32, 1 / 64])
    def test_r_pairing_is_the_least_norm_column_coordinates(self, family, h):
        """t^H r t, r = bc_r_matrix, is |a|^2 for the least-norm coordinates a
        of the trace's stencil-harmonic extension psi, its sampled affine
        interpolant, in the columns C (an SVD of C, truncated at its rank).
        Here psi lies in the span (rank 2) or splits by parity like the one
        column, so the two agree to roundoff; a rank-one column of no parity,
        such as affine:a=2,b=0.5, projects psi in the weighted norm of the
        nodes instead of the trace's, and they differ by 2e-4 at h = 1/16,
        4.5e-6 at h = 1/64."""
        g = bb.make_grid(1, [4], h)
        op = make_op(g, family)
        f = bb.apply_inverse(op, vf._source(g))
        t, _ = bb.boundary_trace_1d(g, f)
        L = g.lengths[0]
        psi = bb.sample_function(g, lambda x: t[0] + (t[1] - t[0]) * (x + L / 2) / L)
        U, sv, Vh = np.linalg.svd(op.basis.col_hat, full_matrices=False)
        k = op.basis.rank
        a = Vh[:k].conj().T @ (U[:, :k].conj().T @ bb.sine_transform(g, psi).values / sv[:k])
        least_norm = np.sum(np.abs(a) ** 2)
        pairing = t.conj() @ vf.bc_r_matrix(op) @ t
        assert abs(pairing - least_norm) <= 1e-14 * least_norm

    def test_requires_1d(self, grid_2d):
        with pytest.raises(ValueError, match="1d"):
            vf.quadratic_form_identity([make_op(grid_2d, "hpoly2:n=1,part=re")])

    def test_field_vanishing_near_boundary(self):
        g = bb.make_grid(1, [4], 1 / 32)
        op = make_op(g, "affine:a=0,b=1")
        bump = ct.Bump(center=(0.0,), halfwidth=(1.0,))
        f = bb.sample_function(g, lambda x: ct.evaluate(bump, x))
        # trace extrapolation of an identically-zero neighborhood is exactly 0
        t, _ = bb.boundary_trace_1d(g, f)
        assert np.array_equal(t, [0.0, 0.0])
        lf = stencil_apply(g, f)
        lhs = bb.inner_product(f, apply_forward(op, f)).real
        form = vf._gradient_sum(f.values, g.spacing, 0.0, 0.0)
        assert lhs == pytest.approx(bb.inner_product(f, lf).real, rel=1e-10)
        assert form == pytest.approx(lhs, rel=1e-10)


class TestOrdering:
    def test_empty_family_equality(self, grid_1d):
        op = make_op(grid_1d, "")
        rep = vf.ordering_check(op)
        assert rep.passed
        nu = op.eigenvalues
        np.testing.assert_allclose(nu, np.sort(op.lam), rtol=1e-13)

    def test_single_family_strict_for_some_mode(self, grid_1d):
        op = make_op(grid_1d, "affine:a=0,b=1")
        rep = vf.ordering_check(op)
        assert rep.passed
        assert np.min(op.eigenvalues / np.sort(op.lam)) < 1 - 1e-6

    def test_k3_family_2d(self):
        g = bb.make_grid(2, [4, 4], 0.125)  # N = 961
        op = make_op(g, "hpoly2:n=1,part=re;hpoly2:n=2,part=im;hpoly2:n=3,part=re,coeff=0.5")
        rep = vf.ordering_check(op)
        assert rep.passed

    def test_rayleigh_quotient_eigenvalues_1d(self):
        # the eigenvalues LAPACK returns for this block exceed the Dirichlet
        # ones by 5e-11 relative; the Rayleigh quotients of its eigenvectors do not
        g = bb.make_grid(1, [128], 0.125)  # N = 1023
        rep = vf.ordering_check(make_op(g, "affine:a=1,b=1"))
        assert rep.passed, rep.residuals


class TestDirichletReduction:
    def test_small_grids(self):
        for grid in (bb.make_grid(1, [32], 1.0), bb.make_grid(2, [8, 8], 1.0)):
            rep = vf.dirichlet_reduction_check(grid)
            assert rep.passed, rep.residuals

    def test_streams_row_blocks(self):
        """N = 961 is 16 blocks, the last of one row, and about ten N x N
        arrays (7.4 MB each) if the eigenvectors were read at once."""
        grid = bb.make_grid(2, [32, 32], 1.0)
        assert vf.dirichlet_reduction_check(grid).passed
        assert traced_peak(vf.dirichlet_reduction_check, grid) <= 8e6

    def test_d1_holds_one_transform_matrix(self):
        """At N = 255 the 255 x 255 DST-I matrix (0.52 MB) is the only n x n
        array: the traced peak reads 1.46 MB, as it did when every block ran
        through the FFT."""
        grid = bb.make_grid(1, [256.0], 1.0)
        assert traced_peak(vf.dirichlet_reduction_check, grid) <= 1.9e6

    @pytest.fixture(params=[(1, [256.0]), (2, [32.0, 32.0])], ids=["d1", "d2"])
    def canonical(self, request):
        """The grids ``run_verify_suite`` checks (N = 255 and 961)."""
        dim, lengths = request.param
        return bb.make_grid(dim, lengths, 1.0)

    def test_mixed_coefficient_rows_fail(self, canonical, monkeypatch):
        """Eigenvectors whose first two sine coefficients mix by 1e-9."""
        unproject = bb.PhiOperator.unproject

        def mixed(self, a):
            out = unproject(self, a)
            out[[0, 1]] += 1e-9 * out[[1, 0]]
            return out

        monkeypatch.setattr(bb.PhiOperator, "unproject", mixed)
        rep = vf.dirichlet_reduction_check(canonical)
        assert rep.residuals["eigenvector_dev"] > rep.tolerances["eigenvector_dev"]
        assert not rep.passed

    def test_scaled_transform_fails(self, canonical, monkeypatch):
        """The library's DST-I 1 + 1e-10 too large."""
        dst1 = vf._dst1
        monkeypatch.setattr(vf, "_dst1", lambda a, axis: dst1(a, axis) * (1 + 1e-10))
        rep = vf.dirichlet_reduction_check(canonical)
        assert rep.residuals["eigenvector_dev"] > rep.tolerances["eigenvector_dev"]
        assert not rep.passed


class TestSplitIdentity:
    def test_check_passes(self, grid_1d, dipole):
        op = make_op(grid_1d, "affine:a=0,b=1")
        rep = vf.split_identity_check(op, 1.0, dipole)
        assert rep.passed
        assert rep.residuals["relative"] <= 1e-12


class TestWickCheck:
    def test_passes(self):
        rep = vf.wick_cross_check(4, seed=11)
        assert rep.passed


class TestEigenpairsOnEveryBackend:
    """``backend`` picks the two-point readout rule and nothing else: an
    operator built for Lanczos readouts has the same eigenpairs, bit for
    bit, and every check that reads them reports the same."""

    @pytest.fixture(params=["golden-d2", "affine-d1"])
    def pair(self, request, golden_d2_config):
        if request.param == "golden-d2":  # N = 961
            cfg = golden_d2_config
            grid, family = bb.make_grid(2, [4, 4], cfg.h), bb.parse_family(cfg.family)
        else:  # N = 127
            grid, family = bb.make_grid(1, [8], 1 / 16), bb.parse_family("affine:a=0,b=1")
        return tuple(bb.build_phi_operator(grid, family, backend=b) for b in ("dense", "lanczos"))

    def test_eigenpairs_are_bit_identical(self, pair):
        dense, lanczos = pair
        assert (dense.backend, lanczos.backend) == ("dense", "lanczos")
        assert dense.grid.total in (961, 127)
        x = np.random.default_rng(3).standard_normal((dense.grid.total, 2))
        for read in (lambda op: op.eigenvalues, lambda op: op.project(x),
                     lambda op: op.unproject(x)):
            assert np.array_equal(read(dense), read(lanczos))

    def test_checks_report_the_same(self, pair):
        dense, lanczos = pair
        checks = [lambda op: vf.krein_identity_residual(op, -1.0, 4, seed=5), vf.ordering_check]
        for check in checks:
            assert check(dense).to_dict() == check(lanczos).to_dict()
