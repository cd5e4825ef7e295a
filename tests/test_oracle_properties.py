"""The continuum oracle against its per-call reference loops.

The references below are the straightforward forms of each integral: a dense
coordinate mesh and one pair of overlap evaluations per harmonic function, a
masked copy of the momentum table, and one full table sum per resolvent point.
The library evaluates each input once and reads every integral off it; where
the arithmetic is the same the results must be bit-identical, and where the
summation order changed (the resolvent synthesis) they must agree to roundoff.
"""

from functools import partial

import numpy as np
import pytest

import becbox as bb
from becbox import continuum as ct

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


# --- reference loops ----------------------------------------------------------


def ref_overlap(spec, fn, quad_points):
    axes, weights = zip(*(ct._axis_quadrature(lo, hi, quad_points)
                          for lo, hi in ct.support_bounds(spec)))
    mesh = np.meshgrid(*axes, indexing="ij")
    vals = np.conj(ct.evaluate(spec, *mesh)) * np.asarray(fn(*mesh))
    for w in reversed(weights):
        vals = vals @ w if vals.ndim > 1 else np.dot(vals, w)
    return complex(vals)


def ref_condensate_term(family, f, g, beta, quad_points):
    total = 0.0 + 0.0j
    for spec in family.specs:
        fn = partial(bb.eval_harmonic, spec)
        a = ref_overlap(f, fn, quad_points)
        b = ref_overlap(g, fn, quad_points)
        total += a * np.conj(b)
    return complex(total) / beta


def ref_bilinear(table_f, table_g, kernel, zero_value):
    psq, w = ct._grid_pieces(table_f)
    z = np.conj(table_f.values) * table_g.values
    integrand = np.zeros_like(z)
    zero_idx = (table_f.zero_index,) * table_f.dim
    mask = np.ones(z.shape, dtype=bool)
    mask[zero_idx] = False
    integrand[mask] = z[mask] * kernel(psq[mask])
    integrand[zero_idx] = zero_value
    return complex(np.sum(integrand * w))


def ref_momentum_integrals(table_f, table_g, beta):
    """(free gas, regular part, Green) by the masked reference."""
    zf, zg = table_f.value_at_zero(), table_g.value_at_zero()
    green0 = ct._green_zero_limit(table_f, table_g)
    return (
        ref_bilinear(table_f, table_g, bb.Bose(beta).evaluate,
                     -np.conj(zf) * zg / 2.0 + green0 / beta),
        ref_bilinear(table_f, table_g, bb.BoseRegular(beta).evaluate, -np.conj(zf) * zg / 2.0),
        ref_bilinear(table_f, table_g, lambda q: 1.0 / q, green0),
    )


def ref_resolvent_2d(table, pts):
    psq, w = ct._grid_pieces(table)
    kern = table.values * w / (1.0 + psq)
    out = np.empty(len(pts), dtype=complex)
    for i, (x1, x2) in enumerate(pts):
        phase = np.exp(1j * table.p * x1)[:, None] * np.exp(1j * table.p * x2)[None, :]
        out[i] = np.sum(kern * phase)
    return out / (2.0 * np.pi)


# --- strategies -----------------------------------------------------------------

reals = partial(st.floats, allow_nan=False, allow_infinity=False)
amplitudes = st.one_of(reals(-2, 2), st.builds(complex, reals(-2, 2), reals(-2, 2)))


@st.composite
def tf_specs(draw, dim, zero_mean=False):
    center = tuple(draw(reals(-1, 1)) for _ in range(dim))
    halfwidth = tuple(draw(reals(0.2, 1.0)) for _ in range(dim))
    amp = draw(amplitudes)
    if zero_mean or draw(st.booleans()):
        return ct.Dipole(center=center, offset=draw(reals(0.1, 1.0)), halfwidth=halfwidth,
                         axis=draw(st.integers(0, dim - 1)), amplitude=amp)
    return ct.Bump(center=center, halfwidth=halfwidth, amplitude=amp)


def harmonic_specs(dim):
    coeff = amplitudes
    if dim == 1:
        return st.one_of(st.builds(bb.Constant, coeff), st.builds(bb.Affine1D, coeff, coeff))
    return st.one_of(
        st.builds(bb.Constant, coeff),
        st.builds(bb.HarmonicPoly2D, st.integers(1, 3), st.sampled_from(["re", "im"]),
                  coeff, coeff),
        st.builds(bb.ExpCos2D, reals(-1.5, 1.5), reals(-3, 3)),
    )


# --- tests ----------------------------------------------------------------------


@settings(max_examples=40)
@given(data=st.data(), dim=st.integers(1, 2), quad_points=st.integers(8, 256),
       beta=reals(0.1, 5.0), same=st.booleans())
def test_condensate_term_equals_reference(data, dim, quad_points, beta, same):
    family = bb.HarmonicFamily(tuple(data.draw(st.lists(harmonic_specs(dim), max_size=3))))
    f = data.draw(tf_specs(dim))
    g = f if same else data.draw(tf_specs(dim))
    got = ct.condensate_term(family, f, g, beta, quad_points)
    assert got == ref_condensate_term(family, f, g, beta, quad_points)


@st.composite
def table_pairs(draw, zero_mean):
    dim = draw(st.integers(1, 2))
    cutoff = draw(reals(2.0, 20.0))
    p_spacing = cutoff / draw(st.integers(2, 40))
    quad_points = draw(st.integers(8, 64))
    f = draw(tf_specs(dim, zero_mean))
    table_f = ct.fourier_oracle(f, cutoff, p_spacing, quad_points)
    if draw(st.booleans()):
        return table_f, table_f
    g = draw(tf_specs(dim, zero_mean))
    return table_f, ct.fourier_oracle(g, cutoff, p_spacing, quad_points)


@settings(max_examples=40)
@given(tables=table_pairs(zero_mean=True), beta=reals(0.1, 5.0))
def test_momentum_integrals_equal_reference(tables, beta):
    table_f, table_g = tables
    other = None if table_g is table_f else table_g
    got = (ct.free_gas_integral(table_f, beta, other),
           ct.regular_part_integral(table_f, beta, other),
           ct.green_integral(table_f, other))
    ref = ref_momentum_integrals(table_f, table_g, beta)
    if table_g is table_f:
        ref = tuple(r.real for r in ref)
    assert got == ref


@settings(max_examples=20)
@given(tables=table_pairs(zero_mean=False), beta=reals(0.1, 5.0))
def test_regular_part_equals_reference_at_any_mean(tables, beta):
    table_f, table_g = tables
    zero_value = -np.conj(table_f.value_at_zero()) * table_g.value_at_zero() / 2.0
    ref = ref_bilinear(table_f, table_g, bb.BoseRegular(beta).evaluate, zero_value)
    got = ct.regular_part_integral(table_f, beta, None if table_g is table_f else table_g)
    assert got == (ref.real if table_g is table_f else ref)


@pytest.fixture(scope="module")
def table_2d():
    u = ct.Bump(center=(0.5, -0.25), halfwidth=(1.0, 0.75), amplitude=1 - 0.5j)
    return u, ct.fourier_oracle(u, cutoff=20.0, p_spacing=0.1, quad_points=256)


_rng = np.random.default_rng(5)
POINT_SETS = {
    "scattered": _rng.uniform(-3, 3, size=(40, 2)),
    "repeated": np.array([[x, y] for x in (-1.0, 0.5, 2.0) for y in (0.0, 0.5, 0.5, 3.0)]
                         + [[0.5, 0.0], [-1.0, 3.0]]),
    "single": np.array([1.25, -0.5]),
}


@pytest.mark.parametrize("name", sorted(POINT_SETS))
def test_resolvent_2d_matches_per_point_synthesis(table_2d, name):
    u, table = table_2d
    pts = POINT_SETS[name]
    got = ct.resolvent_reference(u, pts, table)
    ref = ref_resolvent_2d(table, np.atleast_2d(pts))
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_condensate_term_evaluates_each_test_function_once(monkeypatch):
    calls = []
    evaluate = ct.evaluate

    def counted(spec, *coords):
        calls.append(spec)
        return evaluate(spec, *coords)

    monkeypatch.setattr(ct, "evaluate", counted)
    fam = bb.parse_family("const:c=1;affine:a=0,b=1;affine:a=1,b=-2j")
    f = ct.Dipole(center=(0.0,), offset=1.0, halfwidth=(0.75,))
    g = ct.Bump(center=(0.5,), halfwidth=(0.5,))
    ct.condensate_term(fam, f, f, 1.0, 64)
    assert calls == [f]
    calls.clear()
    ct.condensate_term(fam, f, g, 1.0, 64)
    assert calls == [f, g]
