import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import becbox as bb
from becbox import continuum as ct
from becbox.config import parse_config_text

# Frozen oracle values, computed once with adaptive quadrature (scipy.integrate
# .quad at epsabs 1e-15) for the standard dipole: center 0, offset 1,
# halfwidth 0.75, amplitude 1.
INT_X_F = -0.6659907242521191       # integral x f(x) dx
BUMP_MASS = 0.3329953621260597      # integral of the a = 0.75 bump
INT_F_SQ = 0.1996291812674914       # integral f(x)^2 dx


class TestTestFunctions:
    def test_zero_outside_support(self, dipole):
        x = np.array([-1.76, -1.75, 1.75, 2.5, 10.0])
        assert np.all(ct.evaluate(dipole, x) == 0.0)

    def test_dipole_antisymmetric(self, dipole):
        x = np.linspace(-1.7, 1.7, 31)
        np.testing.assert_allclose(ct.evaluate(dipole, x), -ct.evaluate(dipole, -x), atol=1e-16)

    def test_support_bounds(self, dipole):
        (lo, hi), = ct.support_bounds(dipole)
        assert (lo, hi) == (-1.75, 1.75)

    def test_bump_2d_tensorized(self):
        b = ct.Bump(center=(0.5, -0.5), halfwidth=(1.0, 2.0), amplitude=2.0)
        val = ct.evaluate(b, np.array([0.5]), np.array([-0.5]))
        assert val[0] == pytest.approx(2.0 * np.exp(-1.0) ** 2)


class TestFourierOracle:
    def test_dipole_zero_mean_exact(self, dipole_table):
        assert abs(dipole_table.value_at_zero()) <= 1e-14

    def test_bump_transform_real_even(self):
        tab = ct.fourier_oracle(ct.Bump(center=(0.0,), halfwidth=(1.0,)),
                                cutoff=20.0, p_spacing=0.05, quad_points=1024)
        assert np.all(tab.values.imag == 0)
        np.testing.assert_allclose(tab.values, tab.values[::-1], atol=1e-16)

    def test_parseval(self, dipole, dipole_table):
        spatial = ct.overlap_integral(dipole, (dipole,), 4096)[0].real
        assert spatial == pytest.approx(INT_F_SQ, rel=1e-10)
        assert dipole_table.parseval_sum() == pytest.approx(spatial, rel=1e-6)

    def test_value_at_zero_is_scaled_mass(self):
        tab = ct.fourier_oracle(ct.Bump(center=(0.3,), halfwidth=(0.75,)),
                                cutoff=20.0, p_spacing=0.05, quad_points=2048)
        expected = BUMP_MASS / np.sqrt(2 * np.pi)
        assert tab.value_at_zero().real == pytest.approx(expected, rel=1e-10)

    def test_stability_under_refinement(self, dipole, dipole_table):
        finer = ct.fourier_oracle(dipole, cutoff=160.0, p_spacing=0.01, quad_points=4096)
        beta = 1.0
        for fn in (lambda t: ct.free_gas_integral(t, beta),
                   lambda t: ct.regular_part_integral(t, beta),
                   lambda t: ct.green_integral(t)):
            assert fn(dipole_table) == pytest.approx(fn(finer), rel=1e-6)

    def test_bad_parameters(self, dipole):
        with pytest.raises(ValueError):
            ct.fourier_oracle(dipole, cutoff=-1.0, p_spacing=0.1)
        with pytest.raises(ValueError):
            ct.fourier_oracle(dipole, cutoff=1.0, p_spacing=0.0)


class TestMomentumIntegrals:
    def test_zero_function(self):
        zero = ct.Bump(center=(0.0,), halfwidth=(1.0,), amplitude=0.0)
        tab = ct.fourier_oracle(zero, cutoff=10.0, p_spacing=0.1, quad_points=256)
        assert ct.free_gas_integral(tab, 1.0) == 0.0
        assert ct.regular_part_integral(tab, 1.0) == 0.0
        assert ct.green_integral(tab) == 0.0

    def test_split_identity(self, dipole_table):
        beta = 1.0
        free = ct.free_gas_integral(dipole_table, beta)
        reg = ct.regular_part_integral(dipole_table, beta)
        grn = ct.green_integral(dipole_table)
        assert abs(free - (reg + grn / beta)) <= 1e-10 * abs(free)

    def test_self_refinement_oracle(self, dipole, dipole_table):
        double = ct.fourier_oracle(dipole, cutoff=160.0, p_spacing=0.01, quad_points=4096)
        v1 = ct.free_gas_integral(dipole_table, 1.0)
        v2 = ct.free_gas_integral(double, 1.0)
        assert abs(v1 - v2) <= 1e-6 * abs(v2)

    def test_green_rejects_nonzero_mean(self):
        bump = ct.Bump(center=(0.0,), halfwidth=(1.0,))
        tab = ct.fourier_oracle(bump, cutoff=20.0, p_spacing=0.05, quad_points=1024)
        with pytest.raises(ct.HypothesisError, match="zero mean"):
            ct.green_integral(tab)

    @pytest.mark.parametrize("p_spacing", [0.05, 0.025])
    def test_free_gas_rejects_nonzero_mean(self, p_spacing):
        # conj(fhat) fhat / (e^(beta p^2) - 1) is not integrable at p = 0 when
        # fhat(0) != 0; a finite value would only grow like 1/dp
        bump = ct.Bump(center=(0.0,), halfwidth=(1.0,))
        tab = ct.fourier_oracle(bump, cutoff=20.0, p_spacing=p_spacing, quad_points=1024)
        with pytest.raises(ct.HypothesisError, match="zero mean"):
            ct.free_gas_integral(tab, 1.0)

    def test_pointwise_bose_identity(self):
        # 1/(e^x - 1) = F(x) + 1/x on every evaluated x > 0, relative to the
        # largest term of the identity (for x >> 1 the two sides agree through
        # the cancellation of 1/x, so that is the meaningful scale)
        x = np.logspace(-6, np.log10(650.0), 400)
        lhs = bb.Bose(1.0).evaluate(x)
        rhs = bb.BoseRegular(1.0).evaluate(x) + 1.0 / x
        scale = np.maximum(lhs, 1.0 / x)
        assert np.max(np.abs(lhs - rhs) / scale) <= 1e-13
        # and genuinely relative for moderate arguments
        mod = x <= 5.0
        assert np.max(np.abs(lhs[mod] - rhs[mod]) / lhs[mod]) <= 1e-13

    def test_bose_regular_limit_at_zero(self):
        val = bb.BoseRegular(1.0).evaluate(np.array([1e-8]))[0]
        assert abs(val + 0.5) <= 1e-6


class TestCondensateTerm:
    def test_constant_against_dipole_is_zero(self, dipole):
        fam = bb.HarmonicFamily((bb.Constant(1.0),))
        assert abs(ct.condensate_term(fam, dipole, dipole, 1.0)) <= 1e-12

    def test_affine_against_dipole_frozen_oracle(self, dipole):
        fam = bb.HarmonicFamily((bb.Affine1D(0.0, 1.0),))
        beta = 2.0
        term = ct.condensate_term(fam, dipole, dipole, beta)
        assert term.real == pytest.approx(INT_X_F**2 / beta, rel=1e-9)
        assert term.real == pytest.approx((2 * 1.0 * BUMP_MASS) ** 2 / beta, rel=1e-9)
        assert abs(term.imag) <= 1e-15

    def test_diagonal_real_nonnegative(self, dipole):
        fam = bb.parse_family("affine:a=1,b=1;const:c=1j")
        term = ct.condensate_term(fam, dipole, dipole, 1.0)
        assert abs(term.imag) <= 1e-14 * max(abs(term), 1e-30)
        assert term.real >= 0

    def test_phase_invariance(self, dipole):
        fam1 = bb.HarmonicFamily((bb.Affine1D(0.0, 1.0),))
        theta = 0.7
        fam2 = bb.HarmonicFamily((bb.Affine1D(0.0, np.exp(1j * theta)),))
        t1 = ct.condensate_term(fam1, dipole, dipole, 1.0)
        t2 = ct.condensate_term(fam2, dipole, dipole, 1.0)
        assert t2 == pytest.approx(t1, rel=1e-12)


class TestTwoPointRhs:
    def test_empty_family_is_free_gas(self, dipole, dipole_table):
        rhs = ct.two_point_rhs(bb.HarmonicFamily(()), dipole, dipole, 1.0, dipole_table)
        assert rhs.condensate == 0
        assert rhs.total == rhs.free_gas

    def test_conjugate_symmetry(self, dipole, dipole_table):
        g = ct.Dipole(center=(0.0,), offset=0.8, halfwidth=(0.6,), amplitude=1 + 0.5j)
        table_g = ct.fourier_oracle(g, cutoff=80.0, p_spacing=0.02, quad_points=2048)
        fam = bb.HarmonicFamily((bb.Affine1D(0.0, 1.0),))
        ab = ct.two_point_rhs(fam, dipole, g, 1.0, dipole_table, table_g)
        ba = ct.two_point_rhs(fam, g, dipole, 1.0, table_g, dipole_table)
        assert ab.total == pytest.approx(np.conj(ba.total), rel=1e-10)

    def test_rejects_nonzero_mean(self):
        bump = ct.Bump(center=(0.0,), halfwidth=(1.0,))
        tab = ct.fourier_oracle(bump, cutoff=20.0, p_spacing=0.05, quad_points=1024)
        with pytest.raises(ct.HypothesisError):
            ct.two_point_rhs(bb.HarmonicFamily(()), bump, bump, 1.0, tab)


class TestResolventReference:
    def test_zero_input(self):
        zero = ct.Bump(center=(0.0,), halfwidth=(1.0,), amplitude=0.0)
        out = ct.resolvent_reference(zero, np.linspace(-2, 2, 9))
        assert np.all(out == 0)

    def test_differential_round_trip(self):
        u = ct.Bump(center=(0.0,), halfwidth=(1.0,))
        h = 1e-3
        x = np.arange(-1.2, 1.2 + h / 2, h)
        y = ct.resolvent_reference(u, x)
        recovered = y[1:-1] - (y[2:] - 2 * y[1:-1] + y[:-2]) / h**2
        expected = ct.evaluate(u, x[1:-1])
        assert np.abs(recovered - expected).max() <= 1e-4

    def test_monotone_decay_outside_support(self):
        u = ct.Bump(center=(0.0,), halfwidth=(1.0,))
        x = np.linspace(1.0, 5.0, 41)
        y = ct.resolvent_reference(u, x).real
        assert np.all(y > 0)
        assert np.all(np.diff(y) < 0)

    def test_2d_synthesis_matches_bessel_kernel_oracle(self):
        from scipy.special import k0

        u = ct.Bump(center=(0.0, 0.0), halfwidth=(1.0, 1.0))
        tab = ct.fourier_oracle(u, cutoff=30.0, p_spacing=0.05, quad_points=1024)
        pts = np.array([[1.8, 0.6], [2.5, 0.0], [1.5, 1.5]])
        vals = ct.resolvent_reference(u, pts, table=tab)
        # independent oracle: convolve with the 2d kernel K0(r)/(2 pi) by
        # Gauss-Legendre over the support (points chosen off the support so
        # the kernel is smooth)
        nodes, wts = np.polynomial.legendre.leggauss(80)
        w2 = np.outer(wts, wts)
        X, Y = np.meshgrid(nodes, nodes, indexing="ij")
        U = ct.evaluate(u, X, Y)
        for (px, py), v in zip(pts, vals):
            oracle = np.sum(w2 * U * k0(np.hypot(px - X, py - Y))) / (2 * np.pi)
            assert v.real == pytest.approx(oracle, rel=1e-4)


class TestWick:
    def test_n1(self):
        assert ct.permanent_ryser(np.array([[3.25]])) == pytest.approx(3.25)

    def test_n2_closed_form(self):
        T = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert ct.permanent_ryser(T) == pytest.approx(1 * 4 + 2 * 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_ryser_vs_enumeration(self, n):
        rng = np.random.default_rng(n)
        T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        r = ct.permanent_ryser(T)
        e = ct.permanent_enumerate(T)
        assert abs(r - e) <= 1e-13 * max(1.0, abs(e))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            ct.permanent_ryser(np.ones((2, 3)))

    def test_size_limits(self):
        with pytest.raises(ValueError, match="n <= 12"):
            ct.permanent_ryser(np.eye(13))
        with pytest.raises(ValueError, match="n <= 6"):
            ct.permanent_enumerate(np.eye(7))


class TestTextSyntax:
    CASES = [
        "dipole:c=0.0,s=1.0,a=0.75,amp=1.0",
        "bump:c=1.0,a=0.5,amp=2.0",
        "bump2:cx=0.0,cy=1.0,ax=0.75,ay=0.5,amp=1.0",
        "dipole2:cx=0.0,cy=0.0,s=1.0,ax=0.75,ay=0.75,axis=x,amp=1.0",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip(self, text):
        spec = ct.parse_test_function(text)
        canon = ct.format_test_function(spec)
        assert ct.parse_test_function(canon) == spec
        assert ct.format_test_function(ct.parse_test_function(canon)) == canon

    def test_spec_example(self):
        spec = ct.parse_test_function("dipole:c=0,s=1,a=0.75")
        assert spec == ct.Dipole(center=(0.0,), offset=1.0, halfwidth=(0.75,))

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown test function"):
            ct.parse_test_function("gauss:c=0")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown parameters"):
            ct.parse_test_function("bump:c=0,a=1,width=2")


@pytest.fixture(scope="module")
def golden_d2_oracle():
    """Config, family, f and Fourier table of the golden d=2 converge run."""
    golden = json.loads((Path(__file__).parent / "golden" / "converge_d2.json").read_text())
    cfg = parse_config_text(golden["config"])
    f = ct.parse_test_function(cfg.f)
    table = ct.fourier_oracle(f, cfg.cutoff, cfg.p_spacing, cfg.quad_points)
    return cfg, bb.parse_family(cfg.family), f, table


def traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc (which sees numpy's buffers) records during fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOracleMemory:
    """The oracle's right-hand side makes no mesh- or table-sized temporary."""

    def test_condensate_term_makes_no_mesh(self, golden_d2_oracle):
        cfg, family, f, _ = golden_d2_oracle
        assert cfg.quad_points == 2048     # one complex 2048^2 mesh is 67 MB
        assert traced_peak(ct.condensate_term, family, f, f, cfg.beta, cfg.quad_points) <= 2e6

    def test_two_point_rhs_makes_no_table_sized_temporary(self, golden_d2_oracle):
        cfg, family, f, table = golden_d2_oracle
        assert table.values.nbytes > 40e6  # 1601^2 complex cells
        peak = traced_peak(ct.two_point_rhs, family, f, f, cfg.beta, table, None, cfg.quad_points)
        assert peak <= 32e6
