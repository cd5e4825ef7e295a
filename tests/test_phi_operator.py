import math

import numpy as np
import pytest

import becbox as bb
from becbox import continuum as ct
from becbox import phi_operator as po
from conftest import random_field

BOSE_N1 = 1.055148339809722  # 1/(e^(2/3) - 1), scalar oracle for the N=1 box


def n1_operator():
    g = bb.make_grid(1, [2], 1.0)
    fam = bb.HarmonicFamily((bb.Constant(1.0),))
    return g, bb.build_phi_operator(g, fam, backend="dense")


class TestSpectralFunctions:
    def test_bose_overflow_safe(self):
        vals = bb.Bose(1.0).evaluate(np.array([1e-3, 1.0, 800.0, 2048.0]))
        assert vals[0] == pytest.approx(1 / np.expm1(1e-3))
        assert vals[2] == 0.0 and vals[3] == 0.0

    def test_bose_regular_limits(self):
        f = bb.BoseRegular(1.0)
        assert abs(f.evaluate(np.array([1e-8]))[0] + 0.5) <= 1e-6
        assert abs(f.evaluate(np.array([900.0]))[0]) <= 1.2e-3

    def test_bose_series_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        t = np.geomspace(1e-8, 700.0, 2001)[:-1]
        bose = bb.Bose(1.0).evaluate(t)
        regular = bb.BoseRegular(1.0).evaluate(t)
        err_bose = err_regular = 0.0
        with mpmath.workdps(50):
            for ti, b, r in zip(t, bose, regular):
                x = mpmath.mpf(float(ti))
                exact = 1 / mpmath.expm1(x)
                err_bose = max(err_bose, float(abs((b - exact) / exact)))
                exact_regular = exact - 1 / x
                err_regular = max(err_regular, float(abs((r - exact_regular) / exact_regular)))
            # past the overflow cut at 700 the value is below 1e-304 in absolute terms
            tail = np.array([700.0, 700.5, 745.0, 800.0, 2048.0, 1e6])
            for ti, b in zip(tail, bb.Bose(1.0).evaluate(tail)):
                assert abs(b - 1 / mpmath.expm1(mpmath.mpf(float(ti)))) <= 1e-300
        assert err_bose <= 2e-15
        assert err_regular <= 2e-15

    def test_shifted_inverse_requires_negative(self):
        with pytest.raises(ValueError, match="negative"):
            bb.ShiftedInverse(0.5)

    def test_beta_positive(self):
        with pytest.raises(ValueError, match="beta"):
            bb.Bose(0.0)
        with pytest.raises(ValueError, match="beta"):
            bb.BoseRegular(-1.0)


class TestGreenApply:
    def test_ones_gives_quadratic(self):
        g = bb.make_grid(1, [4], 0.25)
        ones = bb.GridField(g, np.ones(g.total))
        out = bb.green_apply(g, ones)
        L = 4.0
        expected = (L / 2 - g.axis_nodes(0)) * (L / 2 + g.axis_nodes(0)) / 2
        np.testing.assert_allclose(out.values, expected, atol=1e-13)

    def test_inverse_pair(self, grid_2d):
        u = random_field(grid_2d, 11)
        back = bb.green_apply(grid_2d, bb.stencil_apply(grid_2d, u))
        assert np.abs(back.values - u.values).max() <= 1e-11 * np.abs(u.values).max()

    def test_single_mode_vs_dense_solve(self):
        g = bb.make_grid(1, [4], 0.25)
        L = 4.0
        u = bb.sample_function(g, lambda x: np.sin(3 * np.pi * (x + L / 2) / L))
        out = bb.green_apply(g, u)
        # dense solve oracle
        from test_lattice import dense_stencil_matrix

        A = dense_stencil_matrix(g)
        oracle = np.linalg.solve(A, u.values)
        np.testing.assert_allclose(out.values, oracle, rtol=1e-11)
        np.testing.assert_allclose(out.values, u.values / bb.dirichlet_eigenvalues(g)[2], rtol=1e-12)


class TestCondensateBasis:
    def test_single_column_r_matrix(self, grid_1d):
        fam = bb.HarmonicFamily((bb.Affine1D(0.0, 1.0),))
        cols = bb.sample_family(fam, grid_1d)
        basis = bb.build_condensate_basis(grid_1d, cols)
        nsq = bb.inner_product(cols[0], cols[0]).real
        assert basis.rank == 1
        assert basis.r_matrix[0, 0] == pytest.approx(1 / nsq, rel=1e-12)

    def test_projection_idempotent_self_adjoint(self, grid_1d):
        fam = bb.parse_family("affine:a=0,b=1;affine:a=1,b=0")
        basis = bb.build_condensate_basis(grid_1d, bb.sample_family(fam, grid_1d))
        B = basis.basis_hat
        P = B @ B.conj().T
        assert np.abs(P @ P - P).max() <= 1e-11
        assert np.abs(P - P.conj().T).max() <= 1e-11

    def test_compressed_times_r_is_identity(self, grid_1d):
        fam = bb.parse_family("affine:a=0,b=1;affine:a=1,b=0.5;const:c=2")
        cols = bb.sample_family(fam, grid_1d)
        basis = bb.build_condensate_basis(grid_1d, cols)
        B, C = basis.basis_hat, basis.col_hat
        compressed = B.conj().T @ (C @ C.conj().T) @ B
        eye = compressed @ basis.r_matrix
        assert np.abs(eye - np.eye(basis.rank)).max() <= 1e-11

    def test_rank_deflation(self, grid_1d):
        # three affine functions span a 2-dimensional space
        fam = bb.parse_family("const:c=1;affine:a=0,b=1;affine:a=1,b=2")
        basis = bb.build_condensate_basis(grid_1d, bb.sample_family(fam, grid_1d))
        assert basis.rank == 2
        assert basis.deflated

    def test_independent_columns_not_deflated(self, grid_1d):
        fam = bb.parse_family("const:c=1;affine:a=0,b=1")
        basis = bb.build_condensate_basis(grid_1d, bb.sample_family(fam, grid_1d))
        assert basis.rank == 2
        assert not basis.deflated

    def test_zero_columns_deflate_to_dirichlet(self, grid_1d):
        fam = bb.HarmonicFamily((bb.Constant(0.0),))
        op = bb.build_phi_operator(grid_1d, fam, backend="dense")
        assert op.basis.rank == 0
        np.testing.assert_array_equal(np.sort(op.mu), np.sort(1.0 / op.lam))

    def test_orthonormal_fields(self, grid_1d):
        fam = bb.parse_family("affine:a=0,b=1;affine:a=1,b=0")
        basis = bb.build_condensate_basis(grid_1d, bb.sample_family(fam, grid_1d))
        # the sine transform is orthonormal: the weighted pairing of fields
        # is the plain pairing of their coefficients
        B = basis.basis_hat
        np.testing.assert_allclose(B.conj().T @ B, np.eye(basis.rank), rtol=0, atol=1e-12)


class TestBuildOperator:
    def test_n1_closed_form(self):
        g, op = n1_operator()
        np.testing.assert_allclose(op.lam, [2.0])
        np.testing.assert_allclose(op.mu, [1.5])
        np.testing.assert_allclose(op.operator_eigenvalues, [2 / 3])

    def test_empty_family_recovers_dirichlet(self, grid_1d):
        op = bb.build_phi_operator(grid_1d, bb.HarmonicFamily(()), backend="dense")
        np.testing.assert_array_equal(np.sort(op.mu), np.sort(1.0 / op.lam))

    def test_duplicate_column_doubles_rank_one_term(self, grid_1d):
        fam2 = bb.HarmonicFamily((bb.Affine1D(0.0, 1.0), bb.Affine1D(0.0, 1.0)))
        fam_scaled = bb.HarmonicFamily((bb.Affine1D(0.0, math.sqrt(2.0)),))
        op2 = bb.build_phi_operator(grid_1d, fam2, backend="dense")
        op1 = bb.build_phi_operator(grid_1d, fam_scaled, backend="dense")
        u = random_field(grid_1d, 12)
        a = bb.apply_inverse(op2, u)
        b = bb.apply_inverse(op1, u)
        scale = np.abs(a.values).max()
        assert np.abs(a.values - b.values).max() <= 1e-12 * scale
        np.testing.assert_allclose(op2.mu, op1.mu, rtol=1e-12)

    def test_backend_auto_threshold(self):
        g_small = bb.make_grid(1, [128], 1.0)
        op = bb.build_phi_operator(g_small, bb.HarmonicFamily(()), backend="auto")
        assert op.backend == "dense"
        g_big = bb.make_grid(1, [4226], 1.0)
        assert g_big.total > po.DENSE_LIMIT
        op = bb.build_phi_operator(g_big, bb.HarmonicFamily(()), backend="auto")
        assert op.backend == "lanczos" and op.mu is None

    def test_forward_inverse_pair(self, grid_1d):
        fam = bb.parse_family("affine:a=0,b=1;const:c=1")
        op = bb.build_phi_operator(grid_1d, fam, backend="dense")
        u = random_field(grid_1d, 13)
        round1 = bb.apply_forward(op, bb.apply_inverse(op, u))
        assert np.abs(round1.values - u.values).max() <= 1e-10 * np.abs(u.values).max()

    def test_eigenpair_invariants(self, grid_1d):
        fam = bb.parse_family("affine:a=0,b=1;affine:a=1,b=0")
        op = bb.build_phi_operator(grid_1d, fam, backend="dense")
        assert np.all(op.mu > 0)
        # orthonormal in the weighted inner product (plain dot in coefficients)
        V = op.unproject(np.eye(grid_1d.total))
        gram = V.conj().T @ V
        assert np.abs(gram - np.eye(grid_1d.total)).max() <= 1e-10
        # the inverse dominates the Green operator, eigenvalue by eigenvalue
        assert np.all(np.sort(op.mu)[::-1] >= np.sort(1.0 / op.lam)[::-1] * (1 - 1e-12))


class TestEigendecompose:
    def test_diagonal(self):
        w, V = bb.eigendecompose_symmetric(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_array_equal(w, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(np.abs(V), np.eye(3)[:, [1, 2, 0]])

    def test_2x2_closed_form(self):
        w, V = bb.eigendecompose_symmetric(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(w, [1.0, 3.0], rtol=1e-14)
        s = 1 / math.sqrt(2)
        for col, expected in zip(V.T, ([s, -s], [s, s])):
            sign = np.sign(np.dot(col, expected))
            np.testing.assert_allclose(sign * col, expected, atol=1e-14)

    def test_random_50x50_reconstruction(self):
        rng = np.random.default_rng(50)
        A = rng.standard_normal((50, 50))
        A = (A + A.T) / 2
        w, V = bb.eigendecompose_symmetric(A)
        scale = np.abs(A).max()
        assert np.abs(V @ np.diag(w) @ V.T - A).max() <= 1e-10 * scale
        assert np.abs(V.T @ V - np.eye(50)).max() <= 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            bb.eigendecompose_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestQuadraticForm:
    def test_n1_bose_scalar(self):
        g, op = n1_operator()
        f = bb.GridField(g, np.array([1.0]))
        val = bb.quadratic_form(op, bb.Bose(1.0), f)
        assert val.real == pytest.approx(1.0 * BOSE_N1, rel=1e-14)

    def test_shifted_inverse_vs_direct_solve(self, grid_1d):
        op = bb.build_phi_operator(grid_1d, bb.HarmonicFamily(()), backend="dense")
        f = random_field(grid_1d, 14)
        g = random_field(grid_1d, 15)
        val = bb.quadratic_form(op, bb.ShiftedInverse(-1.0), f, g)
        # direct linear solve oracle: (L + 1) u = g in the sine basis
        chat = bb.sine_transform(grid_1d, g, "forward")
        u = bb.sine_transform(
            grid_1d, bb.GridField(grid_1d, chat.values / (op.lam + 1.0)), "inverse"
        )
        oracle = bb.inner_product(f, u)
        assert val == pytest.approx(oracle, rel=1e-10)

    def test_orthogonal_sine_modes(self, grid_1d):
        op = bb.build_phi_operator(grid_1d, bb.HarmonicFamily(()), backend="dense")
        L = 4.0
        f = bb.sample_function(grid_1d, lambda x: np.sin(np.pi * (x + 2) / L))
        g = bb.sample_function(grid_1d, lambda x: np.sin(2 * np.pi * (x + 2) / L))
        assert abs(bb.quadratic_form(op, bb.ShiftedInverse(-1.0), f, g)) <= 1e-12

    def test_conjugate_symmetry_complex(self, grid_1d):
        fam = bb.parse_family("affine:a=0,b=1")
        op = bb.build_phi_operator(grid_1d, fam, backend="dense")
        f = random_field(grid_1d, 16, complex_values=True)
        g = random_field(grid_1d, 17, complex_values=True)
        ab = bb.quadratic_form(op, bb.Bose(1.0), f, g)
        ba = bb.quadratic_form(op, bb.Bose(1.0), g, f)
        assert ab == pytest.approx(np.conj(ba), rel=1e-12)

    def test_grid_mismatch(self, grid_1d, grid_1d_small):
        op = bb.build_phi_operator(grid_1d, bb.HarmonicFamily(()), backend="dense")
        with pytest.raises(ValueError, match="grid"):
            bb.quadratic_form(op, bb.ShiftedInverse(-1.0), random_field(grid_1d_small, 1))


class TestTwoPointLhs:
    def test_split_identity_empty_family(self, grid_1d, dipole):
        op = bb.build_phi_operator(grid_1d, bb.HarmonicFamily(()), backend="dense")
        f = bb.sample_function(grid_1d, lambda x: ct.evaluate(dipole, x))
        tp = bb.two_point_lhs(op, 1.0, f)
        assert tp.split_agreement <= 1e-12

    def test_n1_split_closed_form(self):
        g, op = n1_operator()
        f = bb.GridField(g, np.array([1.0]))
        tp = bb.two_point_lhs(op, 1.0, f)
        assert tp.direct.real == pytest.approx(BOSE_N1, rel=1e-14)
        assert tp.regular_term.real == pytest.approx(BOSE_N1 - 1.5, rel=1e-12)
        assert tp.green_term.real == pytest.approx(0.5, rel=1e-13)
        assert tp.condensate_term.real == pytest.approx(1.0, rel=1e-13)
        assert tp.split_agreement <= 1e-14

    def test_diagonal_real_nonnegative(self, grid_1d):
        fam = bb.parse_family("affine:a=0,b=1")
        op = bb.build_phi_operator(grid_1d, fam, backend="dense")
        f = random_field(grid_1d, 18)
        tp = bb.two_point_lhs(op, 0.7, f)
        assert abs(tp.direct.imag) <= 1e-12 * abs(tp.direct)
        assert tp.direct.real >= 0

    def test_beta_validation(self, grid_1d):
        op = bb.build_phi_operator(grid_1d, bb.HarmonicFamily(()), backend="dense")
        with pytest.raises(ValueError, match="beta"):
            bb.two_point_lhs(op, 0.0, random_field(grid_1d, 19))


class TestOrderingInvariant:
    @pytest.mark.parametrize("family", [
        "affine:a=0,b=1",
        "affine:a=0,b=1;affine:a=1,b=0",
    ])
    def test_modified_below_dirichlet(self, grid_1d, family):
        op = bb.build_phi_operator(grid_1d, bb.parse_family(family), backend="dense")
        nu = op.operator_eigenvalues
        nu0 = np.sort(op.lam)
        assert np.all(nu <= nu0 * (1 + 1e-12))
        # a rank-one perturbation strictly lowers at least one eigenvalue
        assert np.min(nu / nu0) < 1.0 - 1e-6


class TestShiftedSolve:
    def test_matches_dense_spectral_apply(self, grid_1d):
        fam = bb.parse_family("affine:a=0,b=1;const:c=1")
        op = bb.build_phi_operator(grid_1d, fam, backend="dense")
        u = random_field(grid_1d, 20)
        woodbury = bb.shifted_solve(op, u, 1.0)
        # dense spectral oracle
        chat = bb.sine_transform(grid_1d, u, "forward").values
        coeff = op.unproject((op.mu / (1.0 + op.mu)) * op.project(chat))
        oracle = bb.sine_transform(grid_1d, bb.GridField(grid_1d, coeff), "inverse")
        assert np.abs(woodbury.values - oracle.values).max() <= 1e-11 * np.abs(oracle.values).max()


class TestLocality:
    def _bump_field(self, grid):
        f = ct.Bump(center=(0.0, 0.0), halfwidth=(0.8, 0.8))
        return bb.sample_function(grid, lambda x, y: ct.evaluate(f, x, y))

    @staticmethod
    def _forward_residual(op, f):
        """|A f - stencil f| / |stencil f|: away from the boundary A acts as the stencil."""
        lf = bb.stencil_apply(op.grid, f).values
        return np.linalg.norm(bb.apply_forward(op, f).values - lf) / np.linalg.norm(lf)

    @staticmethod
    def _inverse_residual(op, f):
        """|A^-1 (stencil f) - f| / |f|, the same statement through the inverse."""
        back = bb.apply_inverse(op, bb.stencil_apply(op.grid, f)).values
        return np.linalg.norm(back - f.values) / np.linalg.norm(f.values)

    def test_discrete_harmonic_exact(self):
        g = bb.make_grid(2, [4, 4], 0.125)
        fam = bb.HarmonicFamily((bb.ExpCos2D(k=1.0),))
        op = bb.build_phi_operator(g, fam, "discrete-harmonic", "dense")
        assert self._forward_residual(op, self._bump_field(g)) <= 1e-10

    def test_sampled_second_order(self):
        fam = bb.HarmonicFamily((bb.ExpCos2D(k=1.0),))
        res = []
        for h in (0.125, 0.0625, 0.03125):
            g = bb.make_grid(2, [4, 4], h)
            op = bb.build_phi_operator(g, fam, "sampled", "lanczos")
            res.append(self._inverse_residual(op, self._bump_field(g)))
        ratios = [res[i] / res[i + 1] for i in range(2)]
        assert all(3.5 <= r <= 4.5 for r in ratios)

    def test_inverse_residual_exact_in_discrete_harmonic_mode(self):
        g = bb.make_grid(2, [4, 4], 0.125)
        fam = bb.HarmonicFamily((bb.ExpCos2D(k=1.0),))
        op = bb.build_phi_operator(g, fam, "discrete-harmonic", "lanczos")
        assert self._inverse_residual(op, self._bump_field(g)) <= 1e-11


class TestLanczos:
    def test_agrees_with_dense(self):
        g = bb.make_grid(1, [8], 1 / 32)  # N = 255
        fam = bb.parse_family("affine:a=0,b=1")
        dense = bb.build_phi_operator(g, fam, backend="dense")
        lanc = bb.build_phi_operator(g, fam, backend="lanczos")
        f = bb.sample_function(g, lambda x: ct.evaluate(
            ct.Dipole(center=(0.0,), offset=1.0, halfwidth=(0.75,)), x))
        for F in (bb.Bose(1.0), bb.BoseRegular(1.0), bb.ShiftedInverse(-1.0)):
            qd = bb.quadratic_form(dense, F, f)
            ql = bb.quadratic_form(lanc, F, f)
            assert abs(ql - qd) <= 1e-8 * max(abs(qd), 1e-30)

    def test_bilinear_polarization_agrees_with_dense(self):
        g = bb.make_grid(1, [8], 1 / 16)
        fam = bb.parse_family("affine:a=0,b=1")
        dense = bb.build_phi_operator(g, fam, backend="dense")
        lanc = bb.build_phi_operator(g, fam, backend="lanczos")
        f = random_field(g, 21)
        gg = random_field(g, 22)
        qd = bb.quadratic_form(dense, bb.ShiftedInverse(-1.0), f, gg)
        ql = bb.quadratic_form(lanc, bb.ShiftedInverse(-1.0), f, gg)
        assert abs(ql - qd) <= 1e-8 * max(abs(qd), 1e-30)

    def test_eigenvector_start_converges_in_one_step(self, grid_1d):
        op = bb.build_phi_operator(grid_1d, bb.HarmonicFamily(()), backend="dense")
        L = 4.0
        mode = bb.sample_function(grid_1d, lambda x: np.sin(np.pi * (x + 2) / L))
        res = bb.lanczos_quadratic_form(op, (bb.ShiftedInverse(-1.0),), mode)
        assert res.breakdown and res.converged
        assert res.steps == 1
        oracle = bb.quadratic_form(op, bb.ShiftedInverse(-1.0), mode)
        assert res.value[0] == pytest.approx(oracle.real, rel=1e-12)

    @pytest.mark.parametrize("pair, family, calls", [
        ("same", "affine:a=0,b=1", 1),
        ("real", "affine:a=0,b=1", 2),
        ("complex", "affine:a=0,b=1", 4),
        # a complex operator needs all four polarization terms for a real pair
        ("real", "affine:a=1j,b=1", 4),
    ])
    def test_one_recursion_per_polarization_term(self, grid_1d, monkeypatch, pair, family, calls):
        op = bb.build_phi_operator(grid_1d, bb.parse_family(family), backend="lanczos")
        recursion = po.lanczos_quadratic_form
        starts = []

        def counted(op, Fs, f, **kwargs):
            starts.append(f)
            return recursion(op, Fs, f, **kwargs)

        monkeypatch.setattr(po, "lanczos_quadratic_form", counted)
        f = random_field(grid_1d, 26, complex_values=pair == "complex")
        g = f if pair == "same" else random_field(grid_1d, 27, complex_values=pair == "complex")
        bb.two_point_lhs(op, 1.0, f, g)
        assert len(starts) == calls

    def test_unconverged_value_raises(self, grid_1d, monkeypatch):
        op = bb.build_phi_operator(grid_1d, bb.HarmonicFamily(()), backend="lanczos")

        def unconverged(op, F, f, steps=200, tolerance=1e-10):
            return po.LanczosResult(value=1.0, steps=steps, converged=False)

        monkeypatch.setattr(po, "lanczos_quadratic_form", unconverged)
        f, g = random_field(grid_1d, 24), random_field(grid_1d, 25)
        with pytest.raises(RuntimeError, match="did not converge"):
            bb.quadratic_form(op, bb.ShiftedInverse(-1.0), f)
        with pytest.raises(RuntimeError, match="did not converge"):
            bb.quadratic_form(op, bb.ShiftedInverse(-1.0), f, g)

    def test_zero_steps_invalid(self, grid_1d):
        op = bb.build_phi_operator(grid_1d, bb.HarmonicFamily(()), backend="lanczos")
        with pytest.raises(ValueError, match="steps"):
            bb.lanczos_quadratic_form(op, (bb.ShiftedInverse(-1.0),), random_field(grid_1d, 23),
                                      steps=0)

    def test_zero_start_invalid(self, grid_1d):
        op = bb.build_phi_operator(grid_1d, bb.HarmonicFamily(()), backend="lanczos")
        with pytest.raises(ValueError, match="nonzero"):
            bb.lanczos_quadratic_form(op, (bb.ShiftedInverse(-1.0),),
                                      bb.GridField(grid_1d, np.zeros(grid_1d.total)))
