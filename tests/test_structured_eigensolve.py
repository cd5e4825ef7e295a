"""Property tests for the dense backend's structured eigensolve.

The backend never assembles diag(1/lambda) + C C^H; here that matrix is
assembled at N <= 576 and ``np.linalg.eigh`` is the oracle.  Grids are 1d and
2d, from N = 1 up, with square boxes (whose equal Dirichlet eigenvalues form
the clusters the deflation rotates) and non-square ones.  Families may be
empty, repeat a spec (rank-deficient columns) and carry real or complex
coefficients; both sampling modes are drawn.  Readout residuals are scaled as
in ``tests/test_two_point_properties.py``.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import becbox as bb  # noqa: E402
from conftest import random_field  # noqa: E402

COEFFICIENT = st.one_of(st.floats(-2, 2), st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)))


@st.composite
def cases(draw):
    d = draw(st.sampled_from([1, 2]))
    h = draw(st.sampled_from([0.125, 0.25, 1 / 3, 0.5]))
    if d == 1:
        nodes = [draw(st.integers(1, 576))]
        spec = st.one_of(st.builds(bb.Constant, COEFFICIENT),
                         st.builds(bb.Affine1D, COEFFICIENT, COEFFICIENT))
    else:
        n = draw(st.integers(1, 24))
        nodes = [n, n if draw(st.booleans()) else draw(st.integers(1, 24))]
        spec = st.one_of(st.builds(bb.Constant, COEFFICIENT),
                         st.builds(bb.HarmonicPoly2D, degree=st.integers(1, 3),
                                   part=st.sampled_from(["re", "im"]), center=COEFFICIENT,
                                   coefficient=COEFFICIENT),
                         st.builds(bb.ExpCos2D, k=st.floats(-1.5, 1.5),
                                   phase=st.floats(-3.2, 3.2)))
    grid = bb.make_grid(d, [(n + 1) * h for n in nodes], h)
    specs = draw(st.lists(spec, max_size=3))
    specs += specs[: draw(st.integers(0, 1))]
    mode = draw(st.sampled_from(["sampled", "discrete-harmonic"]))
    seed = draw(st.integers(0, 2**32 - 1))
    return grid, bb.HarmonicFamily(tuple(specs)), mode, seed, draw(st.floats(0.3, 3.0))


def size(tp):
    return abs(tp.direct) + abs(tp.regular_term) + abs(tp.green_term) + abs(tp.condensate_term)


@settings(max_examples=120)
@given(cases())
def test_structured_eigensolve_matches_dense_eigh(case):
    grid, family, mode, seed, beta = case
    op = bb.build_phi_operator(grid, family, mode, "dense")
    C = op.basis.col_hat
    w, V = np.linalg.eigh(np.diag(1.0 / op.lam) + C @ C.conj().T)
    top = w[-1]
    assert np.abs(op.mu - w).max() <= 1e-12 * top

    rng = np.random.default_rng(seed)
    a = rng.standard_normal(grid.total) + 1j * rng.standard_normal(grid.total)
    assert np.linalg.norm(op.project(op.unproject(a)) - a) <= 1e-12 * np.linalg.norm(a)
    x = rng.standard_normal(grid.total)
    assert (np.linalg.norm(op.unproject(op.mu * op.project(x)) - op.inverse_matvec(x))
            <= 1e-12 * top * np.linalg.norm(x))

    f = random_field(grid, seed, True)
    g = random_field(grid, seed + 1)
    tp = bb.two_point_lhs(op, beta, f, g)
    fa = V.conj().T @ bb.sine_transform(grid, f, "forward").values
    ga = V.conj().T @ bb.sine_transform(grid, g, "forward").values
    s = size(tp)
    for F, value in ((bb.Bose(beta), tp.direct), (bb.BoseRegular(beta), tp.regular_term)):
        assert abs(value - np.sum(fa.conj() * F.evaluate(1.0 / w) * ga)) <= 1e-12 * s
