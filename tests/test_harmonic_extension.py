"""Property tests for the lattice Dirichlet solve and harmonic extension.

Grids vary in dimension, in the node count of each axis (1 to 12, so boxes
are often non-square and may have single-node axes) and in the spacing.
"""

from functools import partial

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import becbox as bb  # noqa: E402
from conftest import random_field  # noqa: E402

SETTINGS = settings(max_examples=150)

SPACINGS = st.sampled_from([0.1, 0.125, 0.2, 0.25, 1 / 3, 0.5, 0.75])
COMPLEX = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))
# coefficients kept away from zero so the data has a scale
COEFFICIENT = st.builds(lambda r, a: r * np.exp(1j * a), st.floats(0.5, 2), st.floats(0, 6.3))


@st.composite
def grids(draw, dim=st.sampled_from([1, 2])):
    d = draw(dim)
    h = draw(SPACINGS)
    nodes = [draw(st.integers(1, 12)) for _ in range(d)]
    return bb.make_grid(d, [(n + 1) * h for n in nodes], h)


@st.composite
def stencil_harmonic(draw):
    """A grid and a spec the stencil annihilates exactly (degree <= 3)."""
    grid = draw(grids())
    if grid.dim == 1:
        spec = draw(st.one_of(
            st.builds(bb.Constant, COEFFICIENT),
            st.builds(bb.Affine1D, COMPLEX, COEFFICIENT),
        ))
    else:
        spec = draw(st.one_of(
            st.builds(bb.Constant, COEFFICIENT),
            st.builds(bb.HarmonicPoly2D, degree=st.integers(1, 3),
                      part=st.sampled_from(["re", "im"]), center=COMPLEX,
                      coefficient=COEFFICIENT),
        ))
    return grid, spec


@SETTINGS
@given(grids(), st.integers(0, 2**32 - 1), st.booleans())
def test_green_apply_inverts_stencil(grid, seed, complex_values):
    u = random_field(grid, seed, complex_values)
    back = bb.green_apply(grid, bb.stencil_apply(grid, u))
    assert np.abs(back.values - u.values).max() <= 1e-11 * np.abs(u.values).max()


@SETTINGS
@given(stencil_harmonic())
def test_extension_reproduces_stencil_harmonic_data(case):
    grid, spec = case
    phi = partial(bb.eval_harmonic, spec)
    ext = bb.harmonic_extension(grid, phi)
    exact = bb.sample_function(grid, phi)
    # the closed lattice, boundary included, sets the scale (maximum principle)
    closed = [np.linspace(-L / 2, L / 2, n + 2) for L, n in zip(grid.lengths, grid.counts)]
    scale = np.abs(phi(*np.meshgrid(*closed, indexing="ij"))).max()
    assert np.abs(ext.values - exact.values).max() <= 1e-10 * scale
