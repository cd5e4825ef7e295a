"""Property tests for the two-point readout on the dense and Lanczos backends.

Families mix constants, affine functions and harmonic polynomials with complex
coefficients, and may repeat a spec, so the sampled columns can be rank
deficient.  Every residual is scaled by the size of the terms the split adds,
s = |direct| + |regular| + |green| + |condensate|.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import becbox as bb  # noqa: E402
from conftest import random_field  # noqa: E402

COEFFICIENT = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))


@st.composite
def cases(draw):
    d = draw(st.sampled_from([1, 2]))
    h = draw(st.sampled_from([0.1, 0.125, 0.25, 1 / 3, 0.5]))
    nodes = [draw(st.integers(1, 300 if d == 1 else 17)) for _ in range(d)]
    grid = bb.make_grid(d, [(n + 1) * h for n in nodes], h)
    if d == 1:
        spec = st.one_of(st.builds(bb.Constant, COEFFICIENT),
                         st.builds(bb.Affine1D, COEFFICIENT, COEFFICIENT))
    else:
        spec = st.one_of(st.builds(bb.Constant, COEFFICIENT),
                         st.builds(bb.HarmonicPoly2D, degree=st.integers(1, 2),
                                   part=st.sampled_from(["re", "im"]), center=COEFFICIENT,
                                   coefficient=COEFFICIENT))
    specs = draw(st.lists(spec, min_size=1, max_size=3))
    specs += specs[: draw(st.integers(0, 1))]
    seed = draw(st.integers(0, 2**32 - 1))
    f = random_field(grid, seed, draw(st.booleans()))
    g = random_field(grid, seed + 1, draw(st.booleans()))
    return grid, bb.HarmonicFamily(tuple(specs)), f, g, draw(st.floats(0.3, 3.0))


def size(tp):
    return abs(tp.direct) + abs(tp.regular_term) + abs(tp.green_term) + abs(tp.condensate_term)


@settings(max_examples=60)
@given(cases())
def test_split_and_backends_agree(case):
    grid, family, f, g, beta = case
    dense = bb.two_point_lhs(bb.build_phi_operator(grid, family, backend="dense"), beta, f, g)
    lanczos_op = bb.build_phi_operator(grid, family, backend="lanczos")
    lanczos = bb.two_point_lhs(lanczos_op, beta, f, g)
    swapped = bb.two_point_lhs(lanczos_op, beta, g, f)
    s = size(dense)
    for tp in (dense, lanczos):
        assert abs(tp.direct - tp.split) <= 1e-11 * size(tp)
    assert abs(lanczos.direct - dense.direct) <= 1e-8 * s
    assert abs(lanczos.regular_term - dense.regular_term) <= 1e-8 * s
    assert abs(swapped.direct - np.conj(lanczos.direct)) <= 1e-12 * size(lanczos)
