import dataclasses
import json

import numpy as np
import pytest

import becbox as bb
from becbox import verification as vf
from becbox import continuum as ct
from conftest import random_field


def make_op(grid, family_text, mode="sampled"):
    return bb.build_phi_operator(grid, bb.parse_family(family_text), mode, "dense")


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
        # scalar arithmetic: A_phi = 2/3, A_0 = 2, R = 1, S = 2/3;
        # lhs = 1/(2/3 + 1) = 3/5, rhs = 1/3 + (2/3)(1/(1 + 2/3))(2/3) = 3/5
        lam = op.lam[0]
        s = lam / (lam + 1.0)
        lhs = 1.0 / (op.operator_eigenvalues[0] + 1.0)
        rhs = 1.0 / (lam + 1.0) + s * (1.0 / (op.basis.r_matrix[0, 0] + s)) * s
        assert lhs == pytest.approx(3 / 5, rel=1e-15)
        assert rhs == pytest.approx(3 / 5, rel=1e-15)

    @pytest.mark.parametrize("z", [-1.0, -2.5])
    @pytest.mark.parametrize("family", ["affine:a=0,b=1", "affine:a=0,b=1;affine:a=1,b=0"])
    def test_exact_matrix_algebra(self, z, family):
        g = bb.make_grid(1, [4], 1 / 64)  # N = 255
        op = make_op(g, family)
        rep = vf.krein_identity_residual(op, z)
        assert rep.residuals["relative"] <= 1e-10

    def test_rejects_nonnegative_z(self, grid_1d):
        op = make_op(grid_1d, "affine:a=0,b=1")
        with pytest.raises(ValueError, match="negative"):
            vf.krein_identity_residual(op, 0.0)

    def test_corrupted_r_matrix_fails(self, grid_1d):
        op = make_op(grid_1d, "affine:a=0,b=1")
        bad_basis = dataclasses.replace(op.basis, r_matrix=op.basis.r_matrix * 1.01)
        bad = dataclasses.replace(op, basis=bad_basis)
        rep = vf.krein_identity_residual(bad, -1.0)
        assert not rep.passed


class TestDomainDecomposition:
    def test_empty_family_psi_zero(self, grid_1d):
        op = make_op(grid_1d, "")
        rep = vf.domain_decomposition_check(op, [random_field(grid_1d, 30)])
        assert rep.residuals["off_span"] == 0.0
        assert rep.passed

    def test_random_w_exact_algebra(self, grid_1d):
        op = make_op(grid_1d, "affine:a=0,b=1")
        for seed in range(5):
            rep = vf.domain_decomposition_check(op, [random_field(grid_1d, 100 + seed)])
            assert rep.residuals["off_span"] <= 1e-10
            assert rep.residuals["r_psi_vs_pw"] <= 1e-10

    def test_reports_worst_field(self, grid_1d):
        op = make_op(grid_1d, "affine:a=0,b=1;const:c=1")
        ws = [random_field(grid_1d, 200 + seed) for seed in range(3)]
        single = [vf.domain_decomposition_check(op, [w]).residuals for w in ws]
        rep = vf.domain_decomposition_check(op, ws)
        for key in ("off_span", "r_psi_vs_pw"):
            assert rep.residuals[key] == max(r[key] for r in single)
        assert rep.context["n_fields"] == 3

    def test_w_orthogonal_to_span(self, grid_1d):
        op = make_op(grid_1d, "affine:a=0,b=1")
        w = random_field(grid_1d, 31)
        col = bb.sample_family(op.family, grid_1d)[0]
        coeff = bb.inner_product(col, w) / bb.inner_product(col, col)
        w_perp = bb.GridField(grid_1d, w.values - coeff * col.values)
        rep = vf.domain_decomposition_check(op, [w_perp])
        assert rep.residuals["r_psi_vs_pw"] <= 1e-10
        assert rep.passed


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

    def test_lowest_eigenvector_residual_decays(self):
        g = bb.make_grid(1, [4], 1 / 16)
        op = make_op(g, "affine:a=0,b=1")
        rep = vf.boundary_condition_residual(op, 0, levels=3)
        assert rep.passed
        assert min(rep.context["ratios"]) >= 1.5

    def test_empty_family_dirichlet_trace_decays(self):
        g = bb.make_grid(1, [4], 1 / 16)
        op = make_op(g, "")
        rep = vf.boundary_condition_residual(op, 0, levels=3)
        assert rep.passed
        levels = rep.context["levels"]
        assert all(b < a for a, b in zip(levels, levels[1:]))


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
        op = make_op(grid_1d, "")
        rep = vf.quadratic_form_identity(op, seed=5)
        assert rep.residuals["relative"] <= 1e-10

    def test_affine_family_order_one(self):
        g = bb.make_grid(1, [4], 1 / 16)
        op = make_op(g, "affine:a=0,b=1", mode="discrete-harmonic")
        rep = vf.quadratic_form_identity(op, seed=5, levels=2)
        assert rep.passed
        assert min(rep.context["empirical_orders"]) >= 1.0

    def test_refuses_sampled_mode(self):
        g = bb.make_grid(1, [4], 1 / 16)
        op = make_op(g, "affine:a=0,b=1", mode="sampled")
        with pytest.raises(ValueError, match="discrete-harmonic"):
            vf.quadratic_form_identity(op)

    def test_field_vanishing_near_boundary(self):
        g = bb.make_grid(1, [4], 1 / 32)
        op = make_op(g, "affine:a=0,b=1", mode="discrete-harmonic")
        bump = ct.Bump(center=(0.0,), halfwidth=(1.0,))
        f = bb.sample_function(g, lambda x: ct.evaluate(bump, x))
        # trace extrapolation of an identically-zero neighborhood is exactly 0
        tl, _ = bb.boundary_trace_1d(g, f, "left")
        tr, _ = bb.boundary_trace_1d(g, f, "right")
        assert tl == 0.0 and tr == 0.0
        lf = bb.stencil_apply(g, f)
        lhs = bb.inner_product(f, bb.apply_forward(op, f)).real
        form = vf._gradient_sum(f.values, g.spacing, 0.0, 0.0)
        assert lhs == pytest.approx(bb.inner_product(f, lf).real, rel=1e-10)
        assert form == pytest.approx(lhs, rel=1e-10)


class TestOrdering:
    def test_empty_family_equality(self, grid_1d):
        op = make_op(grid_1d, "")
        rep = vf.ordering_check(op)
        assert rep.passed
        nu = op.operator_eigenvalues
        np.testing.assert_allclose(nu, np.sort(op.lam), rtol=1e-13)

    def test_single_family_strict_for_some_mode(self, grid_1d):
        op = make_op(grid_1d, "affine:a=0,b=1")
        rep = vf.ordering_check(op)
        assert rep.passed
        assert np.min(op.operator_eigenvalues / np.sort(op.lam)) < 1 - 1e-6

    def test_k3_family_2d(self):
        g = bb.make_grid(2, [4, 4], 0.125)  # N = 961
        op = make_op(g, "hpoly2:n=1,part=re;hpoly2:n=2,part=im;hpoly2:n=3,part=re,coeff=0.5")
        rep = vf.ordering_check(op)
        assert rep.passed


class TestDirichletReduction:
    def test_small_grids(self):
        for grid in (bb.make_grid(1, [32], 1.0), bb.make_grid(2, [8, 8], 1.0)):
            rep = vf.dirichlet_reduction_check(grid)
            assert rep.passed, rep.residuals


class TestSplitIdentity:
    def test_check_passes(self, grid_1d, dipole):
        op = make_op(grid_1d, "affine:a=0,b=1")
        f = bb.sample_function(grid_1d, lambda x: ct.evaluate(dipole, x))
        rep = vf.split_identity_check(op, 1.0, f)
        assert rep.passed
        assert rep.residuals["relative"] <= 1e-12


class TestWickCheck:
    def test_passes(self):
        rep = vf.wick_cross_check(4, seed=11)
        assert rep.passed
