"""Property tests for the lattice Dirichlet solve, the d = 1 harmonic extension
both trace checks read through the Dirichlet-to-Neumann map, and the boundary
condition those checks judge.

Grids vary in dimension, in the node count of each axis (1 to 12, so boxes
are often non-square and may have single-node axes) and in the spacing.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import becbox as bb  # noqa: E402
from becbox import experiments as ex  # noqa: E402
from becbox import verification as vf  # noqa: E402
from conftest import random_field, stencil_apply  # noqa: E402

SETTINGS = settings(max_examples=150)

SPACINGS = st.sampled_from([0.1, 0.125, 0.2, 0.25, 1 / 3, 0.5, 0.75])
COMPLEX = st.builds(complex, st.floats(-3, 3), st.floats(-3, 3))
# coefficients kept away from zero so the column has a scale
COEFFICIENT = st.builds(lambda r, a: r * np.exp(1j * a), st.floats(0.1, 3), st.floats(0, 6.3))


@st.composite
def grids(draw, dim=st.sampled_from([1, 2])):
    d = draw(dim)
    h = draw(SPACINGS)
    nodes = [draw(st.integers(1, 12)) for _ in range(d)]
    return bb.make_grid(d, [(n + 1) * h for n in nodes], h)


@SETTINGS
@given(grids(), st.integers(0, 2**32 - 1), st.booleans())
def test_green_apply_inverts_stencil(grid, seed, complex_values):
    u = random_field(grid, seed, complex_values)
    back = bb.green_apply(grid, stencil_apply(grid, u))
    assert np.abs(back.values - u.values).max() <= 1e-11 * np.abs(u.values).max()


@SETTINGS
@given(grids(st.just(1)), COMPLEX, COMPLEX)
def test_affine_interpolant_energy_is_the_dtn_pairing(grid, t_left, t_right):
    """The sampled affine interpolant of end values t, the stencil-harmonic
    extension of t in d = 1, has discrete energy t^H H t, H = ``dtn_apply_1d``:
    the quadratic form subtracts the pairing in its place.  The scale is
    |t|^2 / L, since the energy vanishes when the two ends agree."""
    t = np.array([t_left, t_right])
    L = grid.lengths[0]
    psi = bb.sample_function(grid, lambda x: t[0] + (t[1] - t[0]) * (x + L / 2) / L)
    energy = vf._gradient_sum(psi.values, grid.spacing, *t)
    pairing = t.conj() @ np.array(vf.dtn_apply_1d(grid, t))
    assert abs(energy - pairing) <= 1e-13 * max(np.sum(np.abs(t) ** 2) / L, 1e-300)


@settings(max_examples=25)
@given(st.one_of(st.builds(bb.Affine1D, COMPLEX, COEFFICIENT), st.builds(bb.Constant, COEFFICIENT)),
       st.sampled_from([4.0, 6.0]), st.sampled_from([1 / 4, 1 / 8, 1 / 16, 1 / 32]))
def test_boundary_condition_holds_on_rank_one_families(spec, L, h):
    """One column of any parity, L/h from 16 to 192: both trace checks read
    u = A^-1 w of the fixed source on one ladder, the condition (judged on
    the range of the columns' traces) decaying at first order over three
    levels and the quadratic form at order one over the first two."""
    op = bb.build_phi_operator(bb.make_grid(1, [L], h), bb.HarmonicFamily((spec,)), "dense")
    ladder = ex._refinements(op, 3)
    bc = vf.boundary_condition_residual(ladder)
    assert bc.passed
    assert min(bc.context["ratios"]) >= 1.5
    qf = vf.quadratic_form_identity(ladder[:2])
    assert qf.passed, qf.context
