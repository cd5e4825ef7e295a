from functools import partial

import numpy as np
import pytest

import becbox as bb
from conftest import stencil_apply, traced_peak


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

    def test_hpoly2_degree_is_bounded_where_the_expansion_holds(self):
        """The binomial expansion cancels by up to 2^(n/2) on the diagonal; at
        n = 40 it is still within 2e-11 at (0.9, 0.9), where (0.9 + 0.9i)^40 is
        real."""
        value = bb.eval_harmonic(bb.HarmonicPoly2D(degree=40, part="re"), 0.9, 0.9)
        assert value == pytest.approx(((0.9 + 0.9j) ** 40).real, rel=2e-11)
        with pytest.raises(ValueError, match=r"degree must lie in \[1, 40\], got 41"):
            bb.HarmonicPoly2D(degree=41)
        with pytest.raises(ValueError, match="got 0"):
            bb.HarmonicPoly2D(degree=0)

    def test_centered_poly(self):
        spec = bb.HarmonicPoly2D(degree=1, part="im", center=1 + 1j, coefficient=2.0)
        # 2 * Im((x + iy) - (1 + i)) at (1, 3) -> 2 * 2 = 4
        assert bb.eval_harmonic(spec, 1.0, 3.0) == pytest.approx(4.0)


def harmonicity_residual(spec, grid):
    """Max |stencil(sampled phi)| over interior nodes whose neighbors are all interior."""
    res = stencil_apply(grid, bb.sample_function(grid, partial(bb.eval_harmonic, spec)))
    core = res.reshaped()[(slice(1, -1),) * grid.dim]
    return float(np.abs(core).max()) if core.size else 0.0


class TestHarmonicityResidual:
    def test_affine_exact(self, grid_1d):
        # every d = 1 column, a constant or an affine function, is
        # stencil-harmonic as sampled
        for spec in (bb.Affine1D(1.0, 2.0), bb.Constant(1.5)):
            assert harmonicity_residual(spec, grid_1d) == 0.0

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_low_degree_exact(self, grid_2d, degree):
        spec = bb.HarmonicPoly2D(degree=degree, part="re")
        assert harmonicity_residual(spec, grid_2d) <= 1e-12

    def test_degree4_is_4h2_everywhere(self):
        # the x- and y-fourth-difference corrections contribute 2h^2 each
        spec = bb.HarmonicPoly2D(degree=4, part="re")
        for h in (0.25, 0.125):
            g = bb.make_grid(2, [4, 4], h)
            res = stencil_apply(
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
    def test_empty_family(self, grid_1d):
        assert bb.sample_family(bb.HarmonicFamily(()), grid_1d) == []

    def test_columns_follow_the_family(self, grid_2d):
        fam = bb.parse_family("hpoly2:n=2,part=im;const:c=2j;expcos:k=1,phase=0.3")
        cols = bb.sample_family(fam, grid_2d)
        assert len(cols) == len(fam.specs)
        for spec, col in zip(fam.specs, cols):
            want = bb.sample_function(grid_2d, partial(bb.eval_harmonic, spec))
            assert col.grid == grid_2d
            assert np.array_equal(col.values, want.values)

    def test_dimension_mismatch(self, grid_1d, grid_2d):
        with pytest.raises(ValueError, match="is 2d but grid is 1d"):
            bb.sample_family(bb.parse_family("expcos:k=1"), grid_1d)
        with pytest.raises(ValueError, match="is 1d but grid is 2d"):
            bb.sample_family(bb.parse_family("affine:a=0,b=1"), grid_2d)

    def test_sampled_mode_makes_no_node_sized_factor(self):
        # the two fields and two term-sized temporaries; full meshes would
        # make every 1d factor of every term node-sized as well
        grid = bb.make_grid(2, [32.0, 32.0], 0.125)
        fam = bb.parse_family("hpoly2:n=1,part=re;hpoly2:n=2,part=re")
        assert traced_peak(bb.sample_family, fam, grid) <= 4.5 * 8 * grid.total


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
        with pytest.raises(ValueError, match="unknown parameters \\['q'\\] for 'affine'"):
            bb.parse_harmonic("affine:q=1")

    def test_duplicate_parameter(self):
        with pytest.raises(ValueError, match="duplicate parameter 'n'"):
            bb.parse_harmonic("hpoly2:n=1,n=2")
        with pytest.raises(ValueError, match="duplicate parameter"):
            bb.parse_family("const:c=1;affine:a=0,b=1,a=2")

