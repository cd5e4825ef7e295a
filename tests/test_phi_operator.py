import dataclasses
import math

import numpy as np
import pytest

import becbox as bb
from becbox import continuum as ct
from becbox import experiments
from becbox import phi_operator as po
from conftest import apply_forward, barred, random_field, stencil_apply, traced_peak

BOSE_N1 = 1.055148339809722  # 1/(e^(2/3) - 1), scalar oracle for the N=1 box


def n1_operator():
    g = bb.make_grid(1, [2], 1.0)
    fam = bb.HarmonicFamily((bb.Constant(1.0),))
    return g, bb.build_phi_operator(g, fam, backend="dense")


OFF_CENTRE_DIPOLE = "dipole2:cx=0.2,cy=0.1,s=1,ax=0.75,ay=0.5,axis=y"
EPS = np.finfo(float).eps


def golden_d2_readout(cfg, L, f_text=None):
    """The golden d=2 family on an L x L box at the golden h (Lanczos backend),
    with the golden f or another test function, and the readout's functions."""
    grid = bb.make_grid(2, [L, L], cfg.h)
    op = bb.build_phi_operator(grid, bb.parse_family(cfg.family), backend="lanczos")
    spec = ct.parse_test_function(f_text or cfg.f)
    f = bb.sample_function(grid, lambda *x: ct.evaluate(spec, *x))
    return op, (bb.Bose(cfg.beta), bb.BoseRegular(cfg.beta)), f


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

    @pytest.mark.parametrize("beta", [0.1, 1.0, 5.0])
    def test_bose_regular_equals_guarded_form(self, beta):
        # 1/expm1 is 0.0 once expm1 overflows to inf, so the explicit guard
        # that used to map inf to 0 changes no bit, signed zeros included
        def guarded(x):
            t = beta * np.asarray(x, dtype=float)
            out = np.empty_like(t)
            small = t < 0.5
            out[small] = po.BoseRegular(beta).evaluate(x)[small]
            tl = t[~small]
            with np.errstate(over="ignore"):
                e = np.expm1(tl)
            inv = np.where(np.isinf(e), 0.0, 1.0 / np.where(np.isinf(e), 1.0, e))
            out[~small] = inv - 1.0 / tl
            return out

        rng = np.random.default_rng(13)
        edges = np.array([0.0, 1e-300, 0.49, 0.5, 0.51, 700.0, 709.0, 710.0, 800.0,
                          1e308, np.inf])
        points = np.concatenate([10.0 ** rng.uniform(-300, 308, 500_000),
                                 rng.uniform(0.0, 1000.0, 500_000)])
        p = 0.05 * np.arange(-800, 801)
        block = p[:32, None] ** 2 + p**2  # a 32 x 1601 row block of |p|^2
        with np.errstate(over="ignore"):  # beta * 1e308 is inf for beta > 1
            for x in (edges, edges / beta, points, block):
                assert po.BoseRegular(beta).evaluate(x).tobytes() == guarded(x).tobytes()

    def test_bose_regular_matches_masked_form(self):
        """The whole-array evaluation with the series written over t < 0.5
        gives the bits of the form that evaluated each side of 0.5 on its
        own masked copy, and raises no floating-point warning."""
        def masked(x):
            t = np.asarray(x, dtype=float)
            out = np.empty_like(t)
            small = t < 0.5
            ts = t[small]
            out[small] = (-0.5 + ts / 12.0 - ts**3 / 720.0 + ts**5 / 30240.0
                          - ts**7 / 1209600.0 + ts**9 / 47900160.0
                          - ts**11 * 5.284190138687493e-10 + ts**13 * 1.3382536530684679e-11)
            tl = t[~small]
            with np.errstate(over="ignore"):
                out[~small] = 1.0 / np.expm1(tl) - 1.0 / tl
            return out

        t = np.array([0.0, 1e-300, 0.3, 0.5, 1.0, 40.0, 709.0, 710.0, 3200.0])
        with np.errstate(all="raise", under="ignore"):  # 1/expm1(709) is subnormal
            for x in (t, t[3:], t[:3]):
                assert bb.BoseRegular(1.0).evaluate(x).tobytes() == masked(x).tobytes()

    def test_shifted_inverse_requires_negative(self):
        with pytest.raises(ValueError, match="negative"):
            bb.ShiftedInverse(0.5)
        x = np.array([0.25, 1.0, 3.0])
        np.testing.assert_array_equal(bb.ShiftedInverse(0.0).evaluate(x), 1.0 / x)

    def test_beta_positive(self):
        with pytest.raises(ValueError, match="beta"):
            bb.Bose(0.0)
        with pytest.raises(ValueError, match="beta"):
            bb.BoseRegular(-1.0)


def green_apply(grid, u):
    """G u, G the inverse of the stencil Dirichlet Laplacian: the inverse of
    the operator with an empty family."""
    return bb.apply_inverse(bb.build_phi_operator(grid, bb.HarmonicFamily(())), u)


class TestGreenApply:
    def test_ones_gives_quadratic(self):
        g = bb.make_grid(1, [4], 0.25)
        ones = bb.GridField(g, np.ones(g.total))
        out = green_apply(g, ones)
        L = 4.0
        expected = (L / 2 - g.axis_nodes(0)) * (L / 2 + g.axis_nodes(0)) / 2
        np.testing.assert_allclose(out.values, expected, atol=1e-13)

    def test_inverse_pair(self, grid_2d):
        u = random_field(grid_2d, 11)
        back = green_apply(grid_2d, stencil_apply(grid_2d, u))
        assert np.abs(back.values - u.values).max() <= 1e-11 * np.abs(u.values).max()

    def test_single_mode_vs_dense_solve(self):
        g = bb.make_grid(1, [4], 0.25)
        L = 4.0
        u = bb.sample_function(g, lambda x: np.sin(3 * np.pi * (x + L / 2) / L))
        out = green_apply(g, u)
        # dense solve oracle
        from test_lattice import dense_stencil_matrix

        A = dense_stencil_matrix(g)
        oracle = np.linalg.solve(A, u.values)
        np.testing.assert_allclose(out.values, oracle, rtol=1e-11)
        np.testing.assert_allclose(out.values, u.values / bb.dirichlet_eigenvalues(g)[2], rtol=1e-12)


class TestCondensateBasis:
    def test_holds_only_the_columns_and_their_rank(self, grid_1d):
        fam = bb.HarmonicFamily((bb.Affine1D(0.0, 1.0),))
        cols = bb.sample_family(fam, grid_1d)
        basis = bb.build_condensate_basis(grid_1d, cols)
        assert [f.name for f in dataclasses.fields(basis)] == ["col_hat", "rank"]
        assert basis.rank == 1
        np.testing.assert_array_equal(
            basis.col_hat[:, 0], bb.sine_transform(grid_1d, cols[0], "forward").values)

    def test_spread_of_column_norms_is_not_rank_loss(self, grid_1d):
        """Gram eigenvalues 1e-24 apart: the unscaled Gram matrix would read
        rank 1 at RANK_RTOL, the columns scaled to unit norm read 2."""
        fam = bb.parse_family("const:c=1e-12;affine:a=0,b=1")
        basis = bb.build_condensate_basis(grid_1d, bb.sample_family(fam, grid_1d))
        g = np.linalg.eigvalsh(basis.col_hat.T @ basis.col_hat)
        assert g[0] < po.RANK_RTOL * g[-1]
        assert basis.rank == 2
        assert not basis.deflated

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
        # 1/mu of the Green operator's eigenvalues mu = 1/lam, bit for bit
        np.testing.assert_array_equal(op.eigenvalues, np.sort(1.0 / (1.0 / op.lam)))

    def test_a_vanishing_column_is_deflated(self, grid_1d):
        fam = bb.parse_family("const:c=0;affine:a=0,b=1")
        basis = bb.build_condensate_basis(grid_1d, bb.sample_family(fam, grid_1d))
        assert basis.rank == 1
        assert basis.deflated


class TestBuildOperator:
    def test_n1_closed_form(self):
        g, op = n1_operator()
        np.testing.assert_allclose(op.lam, [2.0])
        np.testing.assert_allclose(1.0 / op.eigenvalues, [1.5])
        np.testing.assert_allclose(op.eigenvalues, [2 / 3])

    def test_empty_family_recovers_dirichlet(self, grid_1d):
        op = bb.build_phi_operator(grid_1d, bb.HarmonicFamily(()), backend="dense")
        np.testing.assert_array_equal(op.eigenvalues, np.sort(1.0 / (1.0 / op.lam)))

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
        np.testing.assert_allclose(op2.eigenvalues, op1.eigenvalues, rtol=1e-12)

    def test_backend_auto_threshold(self):
        g_small = bb.make_grid(1, [128], 1.0)
        op = bb.build_phi_operator(g_small, bb.HarmonicFamily(()), backend="auto")
        assert op.backend == "dense"
        g_big = bb.make_grid(1, [4226], 1.0)
        assert g_big.total > po.DENSE_LIMIT
        op = bb.build_phi_operator(g_big, bb.HarmonicFamily(()), backend="auto")
        assert op.backend == "lanczos"

    def test_forward_inverse_pair(self, grid_1d):
        fam = bb.parse_family("affine:a=0,b=1;const:c=1")
        op = bb.build_phi_operator(grid_1d, fam, backend="dense")
        u = random_field(grid_1d, 13)
        round1 = apply_forward(op, bb.apply_inverse(op, u))
        assert np.abs(round1.values - u.values).max() <= 1e-10 * np.abs(u.values).max()

    def test_eigenpair_invariants(self, grid_1d):
        fam = bb.parse_family("affine:a=0,b=1;affine:a=1,b=0")
        op = bb.build_phi_operator(grid_1d, fam, backend="dense")
        assert np.all(op.eigenvalues > 0)
        # orthonormal in the weighted inner product (plain dot in coefficients)
        V = op.unproject(np.eye(grid_1d.total))
        gram = V.conj().T @ V
        assert np.abs(gram - np.eye(grid_1d.total)).max() <= 1e-10
        # the inverse dominates the Green operator, eigenvalue by eigenvalue
        assert np.all(1.0 / op.eigenvalues >= np.sort(1.0 / op.lam)[::-1] * (1 - 1e-12))


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

    @pytest.mark.parametrize("complex_g", [False, True])
    def test_dense_pair_reads_one_contour(self, grid_2d, monkeypatch, complex_g):
        """f != g reads one contour rule, at its two node counts, with f and g
        as the two sides of each term, over the rows both reach (random
        fields reach every row), and agrees with the eigenpair readout."""
        fam = bb.parse_family("hpoly2:n=1,part=re;hpoly2:n=2,part=re;expcos:k=1,phase=0.3")
        op = bb.build_phi_operator(grid_2d, fam, backend="dense")
        f, g = random_field(grid_2d, 32), random_field(grid_2d, 33, complex_values=complex_g)
        fhat, ghat = (bb.sine_transform(grid_2d, u).values for u in (f, g))
        a, b = op.project(fhat), op.project(ghat)
        Fs = (bb.Bose(0.7), bb.ShiftedInverse(-1.0))
        separate = po._gauss_sum(Fs, op.eigenvalues, a, b)
        sides = []
        rule = po._rank_k_rule

        def counted(Fs, d, U, inv2, x, y, *rest):
            sides.append((len(d), x.tolist(), y.tolist()))
            return rule(Fs, d, U, inv2, x, y, *rest)

        monkeypatch.setattr(po, "_rank_k_rule", counted)
        values = po._bilinear_forms(op, Fs, f, g)[0]
        assert [side == (grid_2d.total, fhat[:, None].tolist(), ghat[:, None].tolist())
                for side in sides] == [True, True]
        assert np.all(np.abs(values - separate) <= 1e-14 * np.abs(separate))


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


class TestRealArithmetic:
    """Real fields run every readout in real arithmetic; the same fields cast
    to complex run it in complex arithmetic and must give the same values."""

    DIPOLES = ("dipole:c=0.0,s=1.0,a=0.75,amp=1.0", "dipole:c=0.25,s=0.5,a=0.5,amp=1.0")

    @pytest.mark.parametrize("backend, rtol", [("dense", 1e-12), ("lanczos", 1e-9)])
    @pytest.mark.parametrize("pair", ["same", "distinct"])
    def test_two_point_lhs_matches_complex_cast(self, grid_1d, backend, rtol, pair):
        op = bb.build_phi_operator(grid_1d, bb.parse_family("affine:a=0,b=1"), backend=backend)
        f, g = (bb.sample_function(grid_1d, lambda x, s=s: ct.evaluate(ct.parse_test_function(s), x))
                for s in self.DIPOLES)
        g = f if pair == "same" else g
        assert f.values.dtype == g.values.dtype == np.float64
        cast = [bb.GridField(grid_1d, u.values.astype(complex)) for u in (f, g)]
        real, ref = bb.two_point_lhs(op, 0.7, f, g), bb.two_point_lhs(op, 0.7, *cast)
        for name in ("direct", "regular_term", "green_term", "condensate_term"):
            got, want = getattr(real, name), getattr(ref, name)
            assert abs(got - want) <= rtol * abs(want), name

    @pytest.mark.parametrize("dim, text", [
        (1, "const:c=1;affine:a=0,b=1"),
        (2, "hpoly2:n=1,part=re;hpoly2:n=4,part=im,z0=0.5,coeff=2;expcos:k=2,phase=0.3"),
    ])
    def test_real_family_columns_are_real(self, dim, text):
        grid = bb.make_grid(dim, [4.0] * dim, 0.25)
        op = bb.build_phi_operator(grid, bb.parse_family(text), "lanczos")
        assert op.basis.col_hat.dtype == np.float64
        op = bb.build_phi_operator(grid, bb.parse_family(text + ";const:c=1j"), "lanczos")
        assert op.basis.col_hat.dtype == np.complex128


class TestOrderingInvariant:
    @pytest.mark.parametrize("family", [
        "affine:a=0,b=1",
        "affine:a=0,b=1;affine:a=1,b=0",
    ])
    def test_modified_below_dirichlet(self, grid_1d, family):
        op = bb.build_phi_operator(grid_1d, bb.parse_family(family), backend="dense")
        nu = op.eigenvalues
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
        coeff = op.unproject(op.project(chat) / (1.0 + op.eigenvalues))
        oracle = bb.sine_transform(grid_1d, bb.GridField(grid_1d, coeff), "inverse")
        assert np.abs(woodbury.values - oracle.values).max() <= 1e-11 * np.abs(oracle.values).max()


class TestWoodbury:
    """The Woodbury solves against a dense solve of the same matrix in sine
    coefficients: A^-1 = diag(1/lam) + C C^H, with the family's dtype."""

    @pytest.mark.parametrize("text", ["hpoly2:n=1,part=re;const:c=1j",
                                      "hpoly2:n=1,part=re;hpoly2:n=2,part=re"],
                             ids=["complex-family", "real-family"])
    @pytest.mark.parametrize("shift", [1.0, 2.5])
    def test_matches_dense_solve_for_a_real_field(self, text, shift):
        grid = bb.make_grid(2, [2, 2], 0.25)
        op = bb.build_phi_operator(grid, bb.parse_family(text), backend="lanczos")
        C = op.basis.col_hat
        assert C.dtype == (np.complex128 if "1j" in text else np.float64)
        f = random_field(grid, 31)
        chat = bb.sine_transform(grid, f).values
        inverse = np.diag(1.0 / op.lam) + C @ C.conj().T

        def field(coeff):
            return bb.sine_transform(grid, bb.GridField(grid, coeff), "inverse").values

        eye = np.eye(grid.total)
        cases = [(bb.shifted_solve(op, f, shift),  # (s + A)^-1 = A^-1 (I + s A^-1)^-1
                  field(inverse @ np.linalg.solve(eye + shift * inverse, chat))),
                 (apply_forward(op, f), field(np.linalg.solve(inverse, chat)))]
        for got, want in cases:
            assert got.values.dtype == want.dtype
            assert np.abs(got.values - want).max() <= 1e-12 * np.abs(want).max()


class TestLocality:
    def _bump_field(self, grid):
        f = ct.Bump(center=(0.0, 0.0), halfwidth=(0.8, 0.8))
        return bb.sample_function(grid, lambda x, y: ct.evaluate(f, x, y))

    # columns of degree <= 3 are stencil-harmonic as sampled
    HARMONIC = "hpoly2:n=1,part=re;hpoly2:n=2,part=im;hpoly2:n=3,part=re,z0=0.5"

    @staticmethod
    def _forward_residual(op, f):
        """|A f - stencil f| / |stencil f|: away from the boundary A acts as the stencil."""
        lf = stencil_apply(op.grid, f).values
        return np.linalg.norm(apply_forward(op, f).values - lf) / np.linalg.norm(lf)

    @staticmethod
    def _inverse_residual(op, f):
        """|A^-1 (stencil f) - f| / |f|, the same statement through the inverse."""
        back = bb.apply_inverse(op, stencil_apply(op.grid, f)).values
        return np.linalg.norm(back - f.values) / np.linalg.norm(f.values)

    def test_discrete_harmonic_exact(self):
        g = bb.make_grid(2, [4, 4], 0.125)
        op = bb.build_phi_operator(g, bb.parse_family(self.HARMONIC), "dense")
        assert self._forward_residual(op, self._bump_field(g)) <= 1e-10

    def test_sampled_second_order(self):
        fam = bb.HarmonicFamily((bb.ExpCos2D(k=1.0),))
        res = []
        for h in (0.125, 0.0625, 0.03125):
            g = bb.make_grid(2, [4, 4], h)
            op = bb.build_phi_operator(g, fam, "lanczos")
            res.append(self._inverse_residual(op, self._bump_field(g)))
        ratios = [res[i] / res[i + 1] for i in range(2)]
        assert all(3.5 <= r <= 4.5 for r in ratios)

    def test_inverse_residual_exact_for_discrete_harmonic_columns(self):
        g = bb.make_grid(2, [4, 4], 0.125)
        op = bb.build_phi_operator(g, bb.parse_family(self.HARMONIC), "lanczos")
        assert self._inverse_residual(op, self._bump_field(g)) <= 1e-11


def ref_lanczos(op, Fs, f, steps=200, tolerance=1e-10):
    """The Lanczos readout with two full Gram-Schmidt passes on every step:
    the reference for the single pass with its DGKS repeat."""
    v = op._hat(f)
    nrm = np.linalg.norm(v)
    Q = np.empty((steps, v.size), dtype=np.result_type(v, op.basis.col_hat))
    Q[0] = v / nrm
    alphas, betas = [], []
    value = None
    for j in range(steps):
        w = op.inverse_matvec(Q[j])
        if j > 0:
            w = w - betas[j - 1] * Q[j - 1]
        alpha = float(np.vdot(Q[j], w).real)
        alphas.append(alpha)
        w = w - alpha * Q[j]
        Qj = Q[: j + 1]
        w = w - (Qj @ w.conj()).conj() @ Qj
        w = w - (Qj @ w.conj()).conj() @ Qj
        theta, S = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        new_value = po._gauss_sum(Fs, 1.0 / theta, nrm * S[0], nrm * S[0])
        if value is not None and np.all(
            np.abs(new_value - value) <= tolerance * np.maximum(np.abs(new_value), 1e-300)
        ):
            return po.LanczosResult(value=new_value, steps=j + 1, converged=True)
        value = new_value
        beta = float(np.linalg.norm(w))
        scale = max(map(abs, alphas)) + (max(betas) if betas else 0.0)
        if beta <= 1e-13 * max(scale, 1e-300):
            return po.LanczosResult(value=new_value, steps=j + 1, converged=True, breakdown=True)
        if j + 1 < steps:
            betas.append(beta)
            Q[j + 1] = w / beta
    return po.LanczosResult(value=value, steps=steps, converged=False)


class TestLanczos:
    def test_single_pass_matches_two_pass_reference(self, golden_d2_config):
        """The golden d=2 f and family at L = 16 (N = 16129): no pass cancels,
        and the single pass takes the reference's steps to its values."""
        op, Fs, f = golden_d2_readout(golden_d2_config, 16)
        res, ref = po.lanczos_quadratic_form(op, Fs, f), ref_lanczos(op, Fs, f)
        assert res.converged and not res.breakdown and res.repeats == 0
        assert res.steps == ref.steps == 25
        assert np.all(np.abs(res.value - ref.value) <= 1e-13 * np.abs(ref.value))

    def test_centred_start_runs_in_its_symmetry_sector(self, golden_d2_config):
        """The golden f and family are reflection-symmetric: the recursion runs
        on the 4032 of 16129 sine coefficients they reach, and at a tight
        tolerance it gives the full-space reference's values."""
        op, Fs, f = golden_d2_readout(golden_d2_config, 16)
        assert op.grid.total == 16129
        res = po.lanczos_quadratic_form(op, Fs, f, tolerance=1e-13)
        ref = ref_lanczos(op, Fs, f, tolerance=1e-13)
        assert res.converged and ref.converged and res.size == 4032
        assert np.all(np.abs(res.value - ref.value) <= 1e-13 * np.abs(ref.value))

    def test_off_centre_start_runs_on_the_full_space(self, golden_d2_config):
        """An off-centre dipole lies in no symmetry sector: its coefficients
        above the roundoff of its norm, eps ||f||, reach both column components
        and most free rows, 15240 of 16129 coefficients (16105 of them are
        nonzero, the rest lie below 1e-20 ||f||).  The recursion restricted to
        them is held to the dense eigenpair readout of the same operator, from
        the unrestricted f.  Its values are set only to the noise of a Gauss
        rule whose largest node is the condensate's, 1.8e5 against a bulk
        below 13: over 72 row permutations of this recursion (2 and 4 BLAS
        threads) they lie from -1.6e-12 to +4.0e-12 of the dense value, hence
        5e-12."""
        op, Fs, f = golden_d2_readout(golden_d2_config, 16, OFF_CENTRE_DIPOLE)
        v = op._hat(f)
        reached = po._reached(v, op.components)
        assert np.count_nonzero(v) == 16105
        assert np.array_equal(reached, (np.abs(v) > EPS * np.linalg.norm(v)) | (op.components >= 0))
        res = po.lanczos_quadratic_form(op, Fs, f, tolerance=1e-13)
        assert res.converged and res.size == 15240
        op.backend = "dense"
        dense = po._bilinear_forms(op, Fs, f, None)[0]
        assert np.all(np.abs(res.value - dense) <= 5e-12 * np.abs(dense))

    def test_reached_set_follows_a_chain_of_columns(self):
        """Column K-1-k joins coefficients k and k + 1: from coefficient 0 each
        pass adds one column, and the last coefficient stays out.  Roundoff
        entries, 1e-17 on the last coefficient of the start and of a column
        of norm 0.7 (d <= 1), link nothing."""
        K = 4
        C = np.zeros((K + 2, K))
        for k in range(K):
            C[[k, k + 1], K - 1 - k] = 0.5
        C[K + 1, 0] = 1e-17
        e0 = np.eye(K + 2)[0]
        e0[K + 1] = 1e-17
        reached = po._reached(e0, po._components(C, 1.0)[0])
        assert np.flatnonzero(reached).tolist() == list(range(K + 1))
        assert np.flatnonzero(po._reached(e0, po._components(C[:, :-1], 1.0)[0])).tolist() == [0]

    def test_reached_set_is_closed_and_exact(self):
        """Over the families of the structured-eigensolve property test
        (asymmetric, complex, rank-deficient; 1d and 2d, N = 1 up, non-square
        boxes) and centred or off-centre bumps: the start's coefficients
        outside the reached set lie within eps of its norm, no column that
        keeps a row of the set keeps one outside it (a column keeps row i
        when |C_ik| ||c_k|| > eps max(max d, ||c_k||^2)), and each restricted
        value equals the full-space reference's to 1e-11 relative."""
        hypothesis = pytest.importorskip("hypothesis")
        from test_structured_eigensolve import cases

        @hypothesis.given(cases(), hypothesis.strategies.booleans())
        def check(case, centred):
            grid, family, _, beta = case
            op = bb.build_phi_operator(grid, family, "lanczos")
            shift = 0.0 if centred else grid.spacing / 3
            bump = ct.Bump(center=(shift,) * grid.dim,
                           halfwidth=tuple(L / 2 for L in grid.lengths))
            f = bb.sample_function(grid, lambda *x: ct.evaluate(bump, *x))
            if centred:  # exactly even under x -> -x, whatever the nodes' roundoff
                f = bb.GridField(grid, (f.values + f.values[::-1]) / 2)
            v, C = op._hat(f), op.basis.col_hat
            reached = po._reached(v, op.components)
            assert np.all(np.abs(v[~reached]) <= EPS * np.linalg.norm(v))
            norm = np.linalg.norm(C, axis=0)
            kept = np.abs(C) * norm > EPS * np.maximum(1.0 / op.lam.min(), norm**2)
            meets = kept[reached].any(axis=0)
            assert not kept[~reached][:, meets].any()
            Fs = (bb.Bose(beta), bb.BoseRegular(beta))
            res = po.lanczos_quadratic_form(op, Fs, f, tolerance=1e-13)
            ref = ref_lanczos(op, Fs, f, tolerance=1e-13)
            assert res.size == reached.sum()
            assert np.all(np.abs(res.value - ref.value) <= 1e-11 * np.abs(ref.value))

        check()

    @pytest.mark.parametrize("seed", range(4))
    def test_exhausted_space_repeats_the_pass(self, seed):
        """On a 7-node grid the recursion fills the whole space: the last
        residual is roundoff inside the span, the first pass cancels it, and
        the pass is repeated before the breakdown returns the exact rule."""
        g = bb.make_grid(1, [8], 1.0)
        f = random_field(g, seed)
        Fs = (bb.Bose(1.0), bb.BoseRegular(1.0), bb.ShiftedInverse(-1.0))
        res = po.lanczos_quadratic_form(
            bb.build_phi_operator(g, bb.HarmonicFamily(()), backend="lanczos"), Fs, f)
        assert res.repeats == 1 and res.breakdown and res.steps == g.total
        dense = po._bilinear_forms(
            bb.build_phi_operator(g, bb.HarmonicFamily(()), backend="dense"), Fs, f, None)[0]
        assert np.all(np.abs(res.value - dense) <= 1e-13 * np.abs(dense))

    def test_huge_columns_raise_instead_of_a_false_breakdown(self):
        """Columns with ||C||^2 near 1.2e14 make the condensate's Ritz value
        huge.  Measured against it, an ordinary beta of the regular part read
        as breakdown at step 4, and the readout returned converged=True 15%
        off the dense value; against the step's own scale the recursion runs
        on until roundoff costs it positivity, and that raises."""
        g = bb.make_grid(2, [16, 16], 1 / 8)
        op = bb.build_phi_operator(g, bb.parse_family("hpoly2:n=4,part=re;expcos:k=2"),
                                   backend="lanczos")
        spec = ct.parse_test_function("dipole2:cx=0.2,cy=0.1,s=1,ax=0.75,ay=0.5,axis=y")
        f = bb.sample_function(g, lambda *x: ct.evaluate(spec, *x))
        with pytest.raises(RuntimeError, match="roundoff cost positivity"):
            po.lanczos_quadratic_form(op, (bb.Bose(1.0), bb.BoseRegular(1.0)), f)

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

    @pytest.mark.parametrize("pair, transforms", [("same", 1), ("real", 2), ("complex", 2)])
    def test_one_transform_per_field(self, grid_1d, monkeypatch, pair, transforms):
        """The polarization starts are sums of the coefficients the readout
        already holds: no start is transformed again."""
        op = bb.build_phi_operator(grid_1d, bb.parse_family("affine:a=0,b=1"), backend="lanczos")
        transform = po.sine_transform
        calls = []
        monkeypatch.setattr(po, "sine_transform",
                            lambda *args: calls.append(args[2]) or transform(*args))
        f = random_field(grid_1d, 28, complex_values=pair == "complex")
        g = f if pair == "same" else random_field(grid_1d, 29, complex_values=pair == "complex")
        bb.two_point_lhs(op, 1.0, f, g)
        assert calls == ["forward"] * transforms

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


class TestComponents:
    """A dense readout reads only the rows its vectors reach and solves no
    column component."""

    def test_golden_d2_converge_reads_the_rows_f_reaches(self, golden_d2_config,
                                                          monkeypatch):
        """The golden f is odd in x and even in y, and it and each column lie in
        parity sectors: x and x^2 - y^2 are two components, and the contour
        rule reads only the rows of x's, which are f's own sector (240, 552
        and 992 rows at N = 961, 2209 and 3969, each at two node counts).  At
        N = 2209 (n + 1 = 48) the transforms leave about 1e-17 on the other
        sectors, below each vector's roundoff, so the sectors split there
        too.  No component is eigendecomposed: the secular solver raises if
        called."""
        cfg = golden_d2_config
        rows = []
        rule = po._rank_k_rule
        monkeypatch.setattr(po, "_rank_k_rule",
                            lambda Fs, d, *rest: rows.append(len(d)) or rule(Fs, d, *rest))
        monkeypatch.setattr(po, "_secular_eigh", barred)
        experiments._sweep_rows(cfg, bb.parse_family(cfg.family),
                                ct.parse_test_function(cfg.f), None, 0.0, cfg.h)
        assert rows == [240, 240, 552, 552, 992, 992]

    def test_inexact_parity_zeros_split_the_sectors(self):
        """On a 23 x 23 grid (n + 1 = 24) the transforms leave about 3e-17 on
        the other parity sectors, in the columns and in f, where they are not
        exact zeros.  That is below each vector's roundoff, so the golden
        columns still form two components, a centred dipole reaches only x's,
        and the readout that solves only that one is still that of the
        assembled matrix."""
        grid = bb.make_grid(2, [6, 6], 0.25)
        op = bb.build_phi_operator(grid, bb.parse_family("hpoly2:n=1,part=re;hpoly2:n=2,part=re"),
                                   backend="dense")
        C = op.basis.col_hat
        assert np.count_nonzero(C[op.components < 0]) > 0  # roundoff, not zeros
        assert op.column_components.tolist() == [0, 1]
        spec = ct.parse_test_function("dipole2:cx=0,cy=0,s=1,ax=0.75,ay=0.75,axis=x")
        f = bb.sample_function(grid, lambda *x: ct.evaluate(spec, *x))
        assert np.count_nonzero(op._hat(f)[op.components == 1]) > 0
        tp = bb.two_point_lhs(op, 1.0, f)
        reached = po._reached(op._hat(f), op.components)
        assert reached[op.components == 0].all() and not reached[op.components == 1].any()
        assert not op._chains  # nothing eigendecomposed
        w, V = np.linalg.eigh(np.diag(1.0 / op.lam) + C @ C.T)
        fa = V.T @ op._hat(f)
        for F, value in ((bb.Bose(1.0), tp.direct), (bb.BoseRegular(1.0), tp.regular_term)):
            terms = fa**2 * F.evaluate(1.0 / w)
            assert abs(value - terms.sum()) <= 1e-13 * np.abs(terms).sum()
        assert tp.split_agreement <= 1e-13


class TestReadoutMemory:
    """A dense build holds O(n) numbers per stage and makes no n x n temporary:
    each stage's eigenvectors are formed 64 at a time where they act."""

    def test_dense_build_makes_no_square_temporary(self, golden_d2_config):
        cfg = golden_d2_config
        grid = bb.make_grid(2, [max(cfg.lengths())] * 2, cfg.h)
        family = bb.parse_family(cfg.family)
        assert grid.total == 3969
        op = bb.build_phi_operator(grid, family, backend="dense")
        # a chain per column component (x, then x^2 - y^2), then the free rows'
        assert [[len(s.active) for s in c.stages] for c in op.eigenbasis] == [[0, 992], [0, 481], []]
        stored = sum(x.nbytes for c in op.eigenbasis for s in c.stages
                     for x in (s.active, s.order, *s.vectors, *(a for r in s.rotations for a in r)))
        assert stored <= 1e6  # 0.2 MB; the two 992- and 481-row W would be 9.7 MB
        assert traced_peak(lambda: bb.build_phi_operator(grid, family, "dense")
                           .eigenbasis) <= 4e6
        # a readout holds one block of 1/(w - d) at a time, 3 x 16384 numbers
        # (0.4 MB), the rule's entrywise factors and O(N) vectors; f^2 lies in
        # no sector of f and pairs with it through no quadrature, f^3 in f's
        spec = ct.parse_test_function(cfg.f)
        f = bb.sample_function(grid, lambda *x: ct.evaluate(spec, *x))
        g = bb.sample_function(grid, lambda *x: ct.evaluate(spec, *x) ** 2)
        assert traced_peak(bb.two_point_lhs, op, cfg.beta, f, g) <= 1.2e6
        g = bb.sample_function(grid, lambda *x: ct.evaluate(spec, *x) ** 3)
        assert traced_peak(bb.two_point_lhs, op, cfg.beta, f, g) <= 1.2e6


class TestLanczosMemory:
    """The Lanczos basis holds only the coefficients the start vector reaches;
    a Lanczos-sized build holds one N x K array, and its shifted solve makes
    no scaled copy of it."""

    def test_golden_d2_readout_holds_one_sector(self, golden_d2_config):
        """200 basis rows of 4032 coefficients are 6.5 MB; of all 16129, 25.8 MB."""
        op, Fs, f = golden_d2_readout(golden_d2_config, 16)
        assert traced_peak(po.lanczos_quadratic_form, op, Fs, f) <= 8e6

    def test_basis_holds_only_the_columns(self, golden_d2_config):
        op, _, _ = golden_d2_readout(golden_d2_config, 32)
        N = op.grid.total
        held = [name for name, x in vars(op.basis).items()
                if isinstance(x, np.ndarray) and x.size >= N]
        assert held == ["col_hat"]

    def test_shifted_solve_makes_no_column_copy(self, golden_d2_config):
        """6.0 fields of N = 65025; a scaled copy of the two columns, held with
        d, chat and chat - t through the inverse transform, made it 11.0."""
        op, _, f = golden_d2_readout(golden_d2_config, 32)
        assert op.grid.total == 65025
        assert traced_peak(bb.shifted_solve, op, f, 1.0) <= 8 * (8 * op.grid.total)


class TestRealColumnsStayReal:
    """A real family meets a complex vector through one real product with the
    vector's real and imaginary parts interleaved: no real matrix is cast to
    complex.  Each cast would add a complex copy of the matrix to the peak."""

    def test_inverse_matvec(self, golden_d2_config):
        """Two complex fields of N = 65025 (the result and x / lam); the cast
        of the N x 2 columns made it 4.16 MB."""
        op, _, _ = golden_d2_readout(golden_d2_config, 32)
        N = op.grid.total
        x = random_field(op.grid, 1, complex_values=True).values
        assert traced_peak(op.inverse_matvec, x) <= 2 * 16 * N + 1e4

    def test_shifted_solve_resolvent(self, golden_d2_config):
        """Three complex fields of N = 65025 (x / (lam + s), the rank-K term
        and their sum); the casts of the scaled columns made it 5.20 MB."""
        op, _, _ = golden_d2_readout(golden_d2_config, 32)
        x = random_field(op.grid, 8, complex_values=True).values
        assert traced_peak(po._resolvent, op, x, 1.0) <= 3 * 16 * op.grid.total + 1e5

    def test_condensate_pairing(self, golden_d2_config):
        """two_point_lhs's C^H f allocates only its K numbers; the cast took
        2.08 MB at N = 65025."""
        op, _, _ = golden_d2_readout(golden_d2_config, 32)
        x = random_field(op.grid, 2, complex_values=True).values
        C = op.basis.col_hat
        assert traced_peak(po._adjoint, C, x) <= 1e3
        assert np.all(np.abs(po._adjoint(C, x) - C.T @ x) <= 1e-14 * (np.abs(C).T @ np.abs(x)))

    @pytest.mark.parametrize("read", ["project", "unproject"])
    def test_stage_products(self, golden_d2_config, read):
        """The 64 x 992 Cauchy blocks of the golden operator at N = 3969 meet a
        complex vector as reals: 0.69 and 0.81 MB, against 1.57 and 1.65 MB
        with the cast."""
        cfg = golden_d2_config
        grid = bb.make_grid(2, [8, 8], cfg.h)
        op = bb.build_phi_operator(grid, bb.parse_family(cfg.family), backend="dense")
        op.eigenbasis
        x = random_field(grid, 3, complex_values=True).values
        assert traced_peak(getattr(op, read), x) <= 1e6

    def test_contour_products(self, golden_d2_config):
        """A complex g doubles the contour's nodes, not its block of 1/(w - d):
        1.47 MB at N = 3969 with every row reached, against 1.91 MB when the
        real block was cast to meet the complex factors."""
        cfg = golden_d2_config
        grid = bb.make_grid(2, [8, 8], cfg.h)
        op = bb.build_phi_operator(grid, bb.parse_family(cfg.family), backend="dense")
        x = random_field(grid, 4).values[:, None]
        y = random_field(grid, 5, complex_values=True).values[:, None]
        assert traced_peak(po._contour_forms, op, (bb.Bose(cfg.beta),), x, y) <= 1.6e6


class TestContourReadout:
    """The dense two-point readout: Cauchy's integral of the Woodbury
    resolvent on an ellipse in ln w, and no eigenpair."""

    @pytest.mark.parametrize("F", [bb.Bose(0.7), bb.BoseRegular(0.7), bb.ShiftedInverse(-0.5)])
    def test_spectral_functions_at_complex_arguments(self, F):
        """On the right half plane each function agrees with its formula taken
        in complex arithmetic (the Bernoulli series of BoseRegular below |t| =
        0.5 included), and on the real axis its complex branch agrees with the
        real one."""
        nu = np.geomspace(1e-6, 1e3, 40) * np.exp(1j * np.linspace(-1.4, 1.4, 40))
        if isinstance(F, bb.ShiftedInverse):
            want = 1.0 / (nu - F.z)
        else:
            t = F.beta * nu
            want = 1.0 / np.expm1(t) - (1.0 / t if isinstance(F, bb.BoseRegular) else 0.0)
        got = F.evaluate(nu)
        scale = np.abs(want) + (1.0 / np.abs(F.beta * nu) if isinstance(F, bb.BoseRegular) else 0)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)
        x = np.geomspace(1e-6, 600.0, 50)
        assert np.all(np.abs(F.evaluate(x + 0j) - F.evaluate(x)) <= 1e-14 * np.abs(F.evaluate(x)))

    def test_too_few_nodes_raise(self, monkeypatch, golden_d2_config):
        """Two nodes per half ellipse, grown by half three times, leave the
        golden L = 4 value moving between counts: RuntimeError, not a value."""
        cfg = golden_d2_config
        grid = bb.make_grid(2, [4, 4], cfg.h)
        op = bb.build_phi_operator(grid, bb.parse_family(cfg.family), backend="dense")
        spec = ct.parse_test_function(cfg.f)
        f = bb.sample_function(grid, lambda *x: ct.evaluate(spec, *x))
        monkeypatch.setattr(po, "_CONTOUR_NODES", (0.0, 4.0))
        with pytest.raises(RuntimeError, match="contour rule of .* still moved"):
            bb.two_point_lhs(op, cfg.beta, f)

    def test_one_node(self):
        """N = 1: A^-1 = d + |c|^2, and the value is conj(x) F(1 / (d + |c|^2)) y;
        the spectrum is one point, and the ellipse keeps a unit half-length."""
        grid, op = n1_operator()
        f = bb.GridField(grid, np.array([0.8]))
        g = bb.GridField(grid, np.array([0.3 - 0.4j]))
        x, y = op._hat(f)[0], op._hat(g)[0]
        nu = 1.0 / (1.0 / op.lam[0] + abs(op.basis.col_hat[0, 0]) ** 2)
        for F in (bb.Bose(1.0), bb.BoseRegular(1.0), bb.ShiftedInverse(-1.0)):
            want = np.conj(x) * F.evaluate(np.array([nu]))[0] * y
            assert abs(bb.quadratic_form(op, F, f, g) - want) <= 1e-14 * abs(want)
        assert bb.quadratic_form(op, bb.Bose(1.0), f) == pytest.approx(0.64 * BOSE_N1, rel=1e-14)

    def test_empty_family_reads_no_quadrature(self, grid_2d, monkeypatch):
        """With no column the readout is the exact sum over the Dirichlet modes."""
        op = bb.build_phi_operator(grid_2d, bb.HarmonicFamily(()), backend="dense")
        monkeypatch.setattr(po, "_rank_k_rule", barred)
        f = random_field(grid_2d, 6)
        fhat = op._hat(f)
        tp = bb.two_point_lhs(op, 1.0, f)
        assert tp.direct == pytest.approx(np.sum(fhat**2 * bb.Bose(1.0).evaluate(op.lam)),
                                          rel=1e-14)
        assert tp.split_agreement <= 1e-14

    def test_zero_field_reads_zero(self, grid_2d, monkeypatch):
        """f = 0 reaches no row, and the rule reads only the rows both vectors
        reach: every value is exactly 0, with no quadrature."""
        op = bb.build_phi_operator(grid_2d, bb.parse_family("hpoly2:n=1,part=re"), backend="dense")
        monkeypatch.setattr(po, "_rank_k_rule", barred)
        zero = bb.GridField(grid_2d, np.zeros(grid_2d.total))
        tp = bb.two_point_lhs(op, 1.0, zero, random_field(grid_2d, 7))
        assert (tp.direct, tp.regular_term, tp.split) == (0, 0, 0)
