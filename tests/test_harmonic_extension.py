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
    G = bb.build_phi_operator(grid, bb.HarmonicFamily(()))  # empty family: A^-1 = G
    back = bb.apply_inverse(G, stencil_apply(grid, u))
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


@settings(max_examples=200)
@given(st.one_of(st.builds(bb.Affine1D, COMPLEX, COEFFICIENT), st.builds(bb.Constant, COEFFICIENT)),
       st.sampled_from([4.0, 6.0]), st.sampled_from([1 / 4, 1 / 8, 1 / 16, 1 / 32]))
def test_boundary_condition_holds_on_rank_one_families(spec, L, h):
    """One column of any parity, L/h from 16 to 192: both trace checks read
    u = A^-1 w of the fixed source on one ladder of four levels, and
    ``judge_ladder`` finds each converging (or settled) on its finest three:
    the condition (judged on the range of the columns' traces) at order
    log2 1.5 or more, the quadratic form at order one or more."""
    op = bb.build_phi_operator(bb.make_grid(1, [L], h), bb.HarmonicFamily((spec,)), "dense")
    ladder = ex._refinements(op, 4)
    for check in (vf.boundary_condition_residual(ladder), vf.quadratic_form_identity(ladder)):
        assert check.passed, check.context
        assert check.context["verdict"] in ("converging", "settled")


# Draws the earlier rule (every ratio of a three-level condition ladder at
# least 1.5, the first ratio of the quadratic form at least 2) failed, because
# their coarse levels are pre-asymptotic: (spec, L, h, check, first ratio).
PRE_ASYMPTOTIC = [
    (bb.Affine1D(1 + 1j, np.exp(1j)), 4.0, 1 / 2, "boundary_condition", 1.43),
    (bb.Affine1D(-0.68 - 0.96j, 0.73 + 0.80j), 4.0, 1 / 8, "quadratic_form_identity", 0.41),
    (bb.Affine1D(2.99 + 1.18j, -1.17 + 0.18j), 4.0, 1 / 8, "quadratic_form_identity", 1.46),
]


@pytest.mark.parametrize("spec,L,h,name,first_ratio", PRE_ASYMPTOTIC)
def test_pre_asymptotic_coarse_levels_do_not_decide(spec, L, h, name, first_ratio):
    """The coarse step of each ladder falls short of the old ratio (the
    quadratic form's even rises, 3.2e-7 to 7.8e-7), while its finest three
    levels converge at order 1.5 or more: both checks pass on four levels."""
    op = bb.build_phi_operator(bb.make_grid(1, [L], h), bb.HarmonicFamily((spec,)), "dense")
    ladder = ex._refinements(op, 4)
    checks = {c.name: c for c in (vf.boundary_condition_residual(ladder),
                                  vf.quadratic_form_identity(ladder))}
    assert checks[name].context["ratios"][0] == pytest.approx(first_ratio, abs=0.01)
    assert min(checks[name].context["empirical_orders"][-2:]) >= 1.5
    assert all(c.passed and c.context["verdict"] == "converging" for c in checks.values())


def test_pre_asymptotic_three_level_quadratic_form_still_fails():
    """Three levels are not enough where the first step rises: the finest
    triple of (3.2e-7, 7.8e-7, 1.2e-7) does not fall, and the check says so."""
    spec, L, h, name, _ = PRE_ASYMPTOTIC[1]
    op = bb.build_phi_operator(bb.make_grid(1, [L], h), bb.HarmonicFamily((spec,)), "dense")
    qf = vf.quadratic_form_identity(ex._refinements(op, 3))
    assert qf.context["verdict"] == "failing" and not qf.passed
    assert qf.residuals["order_shortfall"] > 0


def test_coarsest_grids_stay_pre_asymptotic():
    """At L/h = 8 a rank-one column can still fail the quadratic form on four
    levels: the error changes sign across the first refinements (1.0e-3,
    6.7e-6, 8.3e-6, 1.3e-6), so its finest triple does not fall.  Such grids
    are reported failing, not passed."""
    spec = bb.Affine1D(1.8852917965461682 - 1.531126681830503j,
                       -0.803565629892639 + 1.300087966289247j)
    op = bb.build_phi_operator(bb.make_grid(1, [4.0], 1 / 2), bb.HarmonicFamily((spec,)), "dense")
    ladder = ex._refinements(op, 4)
    assert vf.boundary_condition_residual(ladder).passed
    qf = vf.quadratic_form_identity(ladder)
    assert qf.context["verdict"] == "failing" and not qf.passed
