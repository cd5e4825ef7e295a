from functools import partial

import numpy as np
import pytest

import becbox as bb
from becbox import harmonics as hm


class TestEval:
    def test_affine(self):
        assert bb.eval_harmonic(bb.Affine1D(1.0, 0.5), 2.0) == pytest.approx(2.0)

    def test_hpoly2_degree2(self):
        spec = bb.HarmonicPoly2D(degree=2, part="re")
        assert bb.eval_harmonic(spec, 1.0, 2.0) == pytest.approx(-3.0)

    def test_expcos_origin(self):
        assert bb.eval_harmonic(bb.ExpCos2D(k=1.0), 0.0, 0.0) == pytest.approx(1.0)

    def test_constant_any_dim(self):
        assert bb.eval_harmonic(bb.Constant(2 + 1j), 0.3) == 2 + 1j
        assert complex(bb.eval_harmonic(bb.Constant(2 + 1j), 0.3, 0.4)) == 2 + 1j

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="coordinate"):
            bb.eval_harmonic(bb.Affine1D(0, 1), 1.0, 2.0)
        with pytest.raises(ValueError, match="coordinate"):
            bb.eval_harmonic(bb.ExpCos2D(1.0), 1.0)

    def test_centered_poly(self):
        spec = bb.HarmonicPoly2D(degree=1, part="im", center=1 + 1j, coefficient=2.0)
        # 2 * Im((x + iy) - (1 + i)) at (1, 3) -> 2 * 2 = 4
        assert bb.eval_harmonic(spec, 1.0, 3.0) == pytest.approx(4.0)


def harmonicity_residual(spec, grid):
    """Max |stencil(sampled phi)| over interior nodes whose neighbors are all interior."""
    res = bb.stencil_apply(grid, bb.sample_function(grid, partial(bb.eval_harmonic, spec)))
    core = res.reshaped()[(slice(1, -1),) * grid.dim]
    return float(np.abs(core).max()) if core.size else 0.0


class TestHarmonicityResidual:
    def test_affine_exact(self, grid_1d):
        assert harmonicity_residual(bb.Affine1D(1.0, 2.0), grid_1d) == 0.0

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_low_degree_exact(self, grid_2d, degree):
        spec = bb.HarmonicPoly2D(degree=degree, part="re")
        assert harmonicity_residual(spec, grid_2d) <= 1e-12

    def test_degree4_is_4h2_everywhere(self):
        # the x- and y-fourth-difference corrections contribute 2h^2 each
        spec = bb.HarmonicPoly2D(degree=4, part="re")
        for h in (0.25, 0.125):
            g = bb.make_grid(2, [4, 4], h)
            res = bb.stencil_apply(
                g, bb.sample_function(g, lambda x, y: bb.eval_harmonic(spec, x, y))
            ).reshaped()
            core = np.abs(res[1:-1, 1:-1])
            assert np.allclose(core, 4 * h * h, rtol=1e-9)
            assert harmonicity_residual(spec, g) == pytest.approx(4 * h * h, rel=1e-9)

    def test_expcos_second_order(self):
        spec = bb.ExpCos2D(k=1.0)
        res = []
        for h in (1 / 16, 1 / 32, 1 / 64):
            res.append(harmonicity_residual(spec, bb.make_grid(2, [4, 4], h)))
        ratios = [res[i] / res[i + 1] for i in range(2)]
        assert all(3.5 <= r <= 4.5 for r in ratios)


class TestSampleFamily:
    def test_affine_modes_identical(self, grid_1d):
        fam = bb.HarmonicFamily((bb.Affine1D(1.0, 2.0),))
        s = bb.sample_family(fam, grid_1d, "sampled")[0]
        d = bb.sample_family(fam, grid_1d, "discrete-harmonic")[0]
        assert np.abs(s.values - d.values).max() <= 1e-11

    def test_empty_family(self, grid_1d):
        assert bb.sample_family(bb.HarmonicFamily(()), grid_1d) == []

    def test_mode_difference_second_order(self):
        fam = bb.HarmonicFamily((bb.HarmonicPoly2D(degree=4, part="re"),))
        diffs = []
        for h in (0.25, 0.125, 0.0625):
            g = bb.make_grid(2, [4, 4], h)
            s = bb.sample_family(fam, g, "sampled")[0]
            d = bb.sample_family(fam, g, "discrete-harmonic")[0]
            diffs.append(np.abs(s.values - d.values).max())
        ratios = [diffs[i] / diffs[i + 1] for i in range(2)]
        assert all(3.5 <= r <= 4.5 for r in ratios)

    def test_discrete_harmonic_is_stencil_harmonic(self):
        fam = bb.HarmonicFamily((bb.ExpCos2D(k=1.0), bb.HarmonicPoly2D(degree=4, part="im")))
        g = bb.make_grid(2, [4, 4], 0.125)
        for v in bb.sample_family(fam, g, "discrete-harmonic"):
            res = bb.stencil_apply(g, v).reshaped()
            core = np.abs(res[1:-1, 1:-1]).max()
            assert core <= 1e-11 * np.abs(v.values).max()

    def test_bad_mode(self, grid_1d):
        with pytest.raises(ValueError, match="mode"):
            bb.sample_family(bb.HarmonicFamily(()), grid_1d, "nearest")


class TestTextSyntax:
    CASES = [
        "const:c=1.0",
        "affine:a=1.0,b=0.5",
        "affine:a=0.0,b=1+0.5j",
        "hpoly2:n=2,part=re,z0=0.0,coeff=1.0",
        "hpoly2:n=4,part=im,z0=1+1j,coeff=0.5",
        "expcos:k=1.0,phase=0.0",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip(self, text):
        spec = bb.parse_harmonic(text)
        canon = bb.format_harmonic(spec)
        assert bb.parse_harmonic(canon) == spec
        assert bb.format_harmonic(bb.parse_harmonic(canon)) == canon

    def test_shorthand(self):
        assert bb.parse_harmonic("affine:a=1,b=0.5") == bb.Affine1D(1.0, 0.5)
        assert bb.parse_harmonic("hpoly2:n=2,part=re") == bb.HarmonicPoly2D(2, "re")
        assert bb.parse_harmonic("expcos:k=1") == bb.ExpCos2D(1.0)

    def test_family_round_trip(self):
        fam = bb.parse_family("affine:a=0,b=1; const:c=2")
        assert len(fam) == 2
        canon = bb.format_family(fam)
        assert bb.parse_family(canon) == fam

    def test_empty_family(self):
        assert bb.parse_family("") == bb.HarmonicFamily(())
        assert bb.format_family(bb.HarmonicFamily(())) == ""

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown harmonic tag"):
            bb.parse_harmonic("legendre:n=2")

    def test_bad_parameter(self):
        with pytest.raises(ValueError, match="bad parameter"):
            bb.parse_harmonic("affine:q=1")


def test_boundary_values_1d(grid_1d):
    lo, hi = hm.boundary_values_1d(bb.Affine1D(1.0, 0.5), grid_1d)
    assert lo == pytest.approx(0.0)
    assert hi == pytest.approx(2.0)
