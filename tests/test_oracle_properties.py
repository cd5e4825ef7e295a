"""The continuum oracle against its per-call reference loops.

The references below are the straightforward forms of each integral: a dense
coordinate mesh and one pair of overlap evaluations per harmonic function, a
masked copy of the momentum table, the Green limit at p = 0 read off the
product table conj(fhat) ghat formed in full, and one full table sum per
resolvent point.
The library evaluates each input once and reads every integral off it; where
the arithmetic is the same the results must be bit-identical, and where the
summation order changed (the resolvent synthesis, the separable overlaps, the
row blocks of a d=2 momentum table) they must agree to roundoff.
"""

import dataclasses
from functools import partial, reduce

import numpy as np
import pytest

import becbox as bb
from becbox import continuum as ct
from becbox.harmonics import harmonic_factors

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


def ref_green_zero_limit(table_f, table_g):
    z = np.conj(table_f.values) * table_g.values
    m = table_f.zero_index
    dp2 = table_f.p_spacing**2
    if table_f.dim == 1:
        g1 = 0.5 * (z[m + 1] + z[m - 1]) / dp2
        g2 = 0.5 * (z[m + 2] + z[m - 2]) / (4.0 * dp2)
        return complex((4.0 * g1 - g2) / 3.0)
    limits = []
    for sel1, sel2 in (
        ((m + 1, m), (m + 2, m)),
        ((m - 1, m), (m - 2, m)),
        ((m, m + 1), (m, m + 2)),
        ((m, m - 1), (m, m - 2)),
    ):
        g1 = z[sel1] / dp2
        g2 = z[sel2] / (4.0 * dp2)
        limits.append((4.0 * g1 - g2) / 3.0)
    return complex(np.mean(limits))


def ref_momentum_integrals(table_f, table_g, beta):
    """(free gas, regular part, Green) by the masked reference."""
    zf, zg = table_f.value_at_zero(), table_g.value_at_zero()
    green0 = ref_green_zero_limit(table_f, table_g)
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


def abs_overlap(spec, fn, quad_points):
    """integral |f| |fn| on the reference mesh: the scale of an overlap's roundoff."""
    axes, weights = zip(*(ct._axis_quadrature(lo, hi, quad_points)
                          for lo, hi in ct.support_bounds(spec)))
    mesh = np.meshgrid(*axes, indexing="ij")
    vals = np.abs(ct.evaluate(spec, *mesh) * np.asarray(fn(*mesh)))
    for w in reversed(weights):
        vals = vals @ w
    return float(vals)


def abs_bilinear(table_f, table_g, kernel, zero_value):
    """sum |integrand * w| of ``ref_bilinear``: the scale of its summation roundoff."""
    abs_f, abs_g = (dataclasses.replace(t, values=np.abs(t.values)) for t in (table_f, table_g))
    return ref_bilinear(abs_f, abs_g, lambda q: np.abs(kernel(q)), abs(zero_value)).real


def momentum_kernels(table_f, table_g, beta):
    """(kernel, p = 0 value) of the free gas, regular part and Green integrals,
    as ``ref_momentum_integrals`` forms them."""
    zf, zg = table_f.value_at_zero(), table_g.value_at_zero()
    green0 = ref_green_zero_limit(table_f, table_g)
    return ((bb.Bose(beta).evaluate, -np.conj(zf) * zg / 2.0 + green0 / beta),
            (bb.BoseRegular(beta).evaluate, -np.conj(zf) * zg / 2.0),
            (lambda q: 1.0 / q, green0))


def assert_table_sum(got, ref, scale, table):
    """d=1 sums the whole table as the reference does, bit for bit; d=2 sums it
    in blocks of rows, which agrees to roundoff of the absolute sum (plus the
    subnormal unit per cell, where tiny amplitudes make roundoff absolute)."""
    if table.dim == 1:
        assert got == ref
    else:
        tiny = np.finfo(float).smallest_subnormal
        assert abs(got - ref) <= 1e-13 * scale + table.values.size * tiny


def assert_momentum_integrals(table_f, table_g, beta):
    """Free gas, regular part and Green integral against ``ref_momentum_integrals``."""
    other = None if table_g is table_f else table_g
    got = (ct.free_gas_integral(table_f, beta, other),
           ct.regular_part_integral(table_f, beta, other),
           ct.green_integral(table_f, other))
    ref = ref_momentum_integrals(table_f, table_g, beta)
    if table_g is table_f:
        ref = tuple(r.real for r in ref)
    for value, expected, (kernel, zero_value) in zip(got, ref,
                                                     momentum_kernels(table_f, table_g, beta)):
        assert_table_sum(value, expected, abs_bilinear(table_f, table_g, kernel, zero_value),
                         table_f)


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


def harmonic_specs(dim, max_degree=3, max_phase=3):
    coeff = amplitudes
    if dim == 1:
        return st.one_of(st.builds(bb.Constant, coeff), st.builds(bb.Affine1D, coeff, coeff))
    return st.one_of(
        st.builds(bb.Constant, coeff),
        st.builds(bb.HarmonicPoly2D, st.integers(1, max_degree), st.sampled_from(["re", "im"]),
                  coeff, coeff),
        st.builds(bb.ExpCos2D, reals(-1.5, 1.5), reals(-max_phase, max_phase)),
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
    ref = ref_condensate_term(family, f, g, beta, quad_points)
    # products of 1d sums instead of one mesh sum: each overlap agrees to
    # roundoff of integral |f| |phi_k|, which it may cancel far below, plus the
    # subnormal unit per mesh cell where tiny amplitudes make roundoff absolute
    under = quad_points**dim * np.finfo(float).smallest_subnormal
    bound = 0.0
    for spec in family.specs:
        fn = partial(bb.eval_harmonic, spec)
        a, b = abs_overlap(f, fn, quad_points), abs_overlap(g, fn, quad_points)
        bound += (1e-12 * a * b + under * (a + b)) / beta
    assert abs(got - ref) <= bound


def separable_sum(spec, *axes):
    """sum_j c_j prod_i u_ji on the tensor mesh of the axes, and sum_j |c_j prod_i u_ji|."""
    value = magnitude = 0.0
    for coeff, factors in harmonic_factors(spec, *axes):
        term = coeff * reduce(np.multiply.outer, factors)
        value = value + term
        magnitude = magnitude + np.abs(term)
    return value, magnitude


def other_part(spec):
    """The other part of the complex function whose real or imaginary part the
    spec is: the terms of both bound what eval_harmonic's complex power and
    cosine argument round."""
    if isinstance(spec, bb.HarmonicPoly2D):
        return dataclasses.replace(spec, part="im" if spec.part == "re" else "re")
    if isinstance(spec, bb.ExpCos2D):
        return dataclasses.replace(spec, phase=spec.phase - np.pi / 2)
    return spec


# per-axis nodes of unequal lengths, off any symmetry of the drawn centers
NODES = (np.linspace(-3.0, 3.0, 13), np.linspace(-2.5, 3.5, 11))


@settings(max_examples=80)
@given(data=st.data(), dim=st.integers(1, 2))
def test_harmonic_factors_equal_eval_harmonic(data, dim):
    spec = data.draw(harmonic_specs(dim, max_degree=6, max_phase=10))
    axes = NODES[:dim]
    got, magnitude = separable_sum(spec, *axes)
    _, other = separable_sum(other_part(spec), *axes)
    ref = bb.eval_harmonic(spec, *np.meshgrid(*axes, indexing="ij"))
    # plus one subnormal unit per rounded product, where a tiny coefficient
    # makes roundoff absolute
    tiny = np.finfo(float).smallest_subnormal
    assert np.all(np.abs(got - ref) <= 1e-13 * (magnitude + other) + 8 * tiny)


def test_harmonic_factors_reject_unknown_specs():
    with pytest.raises(TypeError, match="unknown harmonic spec"):
        harmonic_factors(object(), np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError, match="expects 2"):
        harmonic_factors(bb.ExpCos2D(), np.zeros(3))


@settings(max_examples=60)
@given(data=st.data(), dim=st.integers(1, 2), quad_points=st.integers(8, 256))
def test_overlap_integral_equals_mesh_reference(data, dim, quad_points):
    f = data.draw(tf_specs(dim))
    fns = data.draw(st.lists(st.one_of(harmonic_specs(dim, max_degree=6), tf_specs(dim)),
                             max_size=4))
    got = ct.overlap_integral(f, fns, quad_points)
    assert len(got) == len(fns)
    under = quad_points**dim * np.finfo(float).smallest_subnormal
    for value, spec in zip(got, fns):
        is_test_function = isinstance(spec, (ct.Bump, ct.Dipole))
        fn = partial(ct.evaluate if is_test_function else bb.eval_harmonic, spec)
        ref = ref_overlap(f, fn, quad_points)
        assert abs(value - ref) <= 1e-12 * abs_overlap(f, fn, quad_points) + under


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
    assert_momentum_integrals(*tables, beta)


def test_momentum_integrals_sum_every_row_block():
    """A d=2 table many row blocks tall, with a partial last block and its
    p = 0 row inside a later block: every integral matches the reference."""
    f = ct.Dipole(center=(0.25, -0.5), offset=0.5, halfwidth=(0.75, 0.5), axis=1,
                  amplitude=1 - 2j)
    g = ct.Dipole(center=(0.0, 0.25), offset=0.75, halfwidth=(0.5, 0.75), amplitude=0.5j)
    table_f, table_g = (ct.fourier_oracle(u, cutoff=20.0, p_spacing=0.1, quad_points=128)
                        for u in (f, g))
    n, m = len(table_f.p), table_f.zero_index
    assert n > 4 * ct.ROW_BLOCK and n % ct.ROW_BLOCK and m // ct.ROW_BLOCK > 0
    assert_momentum_integrals(table_f, table_g, beta=0.75)


@pytest.mark.parametrize("dim", [1, 2])
def test_table_peak_reads_every_row_block(dim):
    """The zero-mean guard's max |fhat|, taken ROW_BLOCK rows at a time,
    finds the peak in the first, a middle and the partial last block."""
    n = 3 * ct.ROW_BLOCK + 5
    rng = np.random.default_rng(3)
    for row in (0, ct.ROW_BLOCK + 1, n - 1):
        values = rng.uniform(-1, 1, (n,) * dim) + 1j * rng.uniform(-1, 1, (n,) * dim)
        values[(row,) * dim] = 2.0 - 1.5j
        table = ct.FourierTable(dim=dim, p=np.arange(n) - n // 2.0, values=values,
                                provenance={})
        assert table._peak == 2.5


@settings(max_examples=40)
@given(tables=table_pairs(zero_mean=True))
def test_green_zero_limit_equals_full_table_reference(tables):
    table_f, table_g = tables
    assert ct._green_zero_limit(table_f, table_g) == ref_green_zero_limit(table_f, table_g)


@settings(max_examples=20)
@given(tables=table_pairs(zero_mean=False), beta=reals(0.1, 5.0))
def test_regular_part_equals_reference_at_any_mean(tables, beta):
    table_f, table_g = tables
    zero_value = -np.conj(table_f.value_at_zero()) * table_g.value_at_zero() / 2.0
    kernel = bb.BoseRegular(beta).evaluate
    ref = ref_bilinear(table_f, table_g, kernel, zero_value)
    got = ct.regular_part_integral(table_f, beta, None if table_g is table_f else table_g)
    assert_table_sum(got, ref.real if table_g is table_f else ref,
                     abs_bilinear(table_f, table_g, kernel, zero_value), table_f)


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
    """One bump profile per axis per tensor term of f, plus g's when g
    differs, whatever the number of harmonic functions."""
    calls = []
    bump_profile = ct.bump_profile

    def counted(t):
        calls.append(t)
        return bump_profile(t)

    monkeypatch.setattr(ct, "bump_profile", counted)
    cases = [
        ("const:c=1;affine:a=0,b=1;affine:a=1,b=-2j",
         ct.Dipole(center=(0.0,), offset=1.0, halfwidth=(0.75,)),
         ct.Bump(center=(0.5,), halfwidth=(0.5,))),
        ("hpoly2:n=3,part=im,z0=0.5+1j;expcos:k=-1,phase=0.3",
         ct.Dipole(center=(0.0, 0.5), offset=0.5, halfwidth=(0.75, 0.5), axis=1),
         ct.Bump(center=(0.5, 0.0), halfwidth=(0.5, 1.0))),
    ]
    for text, f, g in cases:
        specs = bb.parse_family(text).specs
        for k in range(len(specs) + 1):
            fam = bb.HarmonicFamily(specs[:k])
            calls.clear()
            ct.condensate_term(fam, f, f, 1.0, 64)
            assert len(calls) == 2 * f.dim
            calls.clear()
            ct.condensate_term(fam, f, g, 1.0, 64)
            assert len(calls) == 3 * f.dim
