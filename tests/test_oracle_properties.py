"""The continuum oracle against its per-call reference loops.

The references below are the straightforward forms of each integral: a dense
coordinate mesh and one pair of overlap evaluations per harmonic function, a
full cosine table per axis transform, a masked copy of the full momentum
table on a full |p|^2 grid (with the Green limit at p = 0 read off the
product table conj(fhat) ghat formed in full), and one full table sum per
resolvent point.
The library evaluates each input once and reads every integral off it; where
the arithmetic is the same the results must be bit-identical, and where the
summation order changed (the resolvent synthesis and the regular part as
t-integrals of heat pairings, the separable overlaps, the free gas as the
regular part plus the Green integral over beta, the factored cosine table of
an axis transform) they must agree to roundoff.  The Green integral has no
origin cell any more: the table sums converge to it as the p spacing
shrinks, and in d=1 it matches a position-space reference.
"""

import dataclasses
import json
import math
import re
from functools import partial, reduce
from pathlib import Path

import numpy as np
import pytest

import becbox as bb
from becbox import continuum as ct
from becbox.config import parse_config_text
from becbox.harmonics import harmonic_factors
from conftest import fourier_grid

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402


# --- reference loops ----------------------------------------------------------


def ref_overlap(spec, fn, quad_points):
    axes, weights = zip(*(ct._axis_quadrature(lo, hi, quad_points)
                          for lo, hi in ct.support_bounds(spec)))
    mesh = np.meshgrid(*axes, indexing="ij")
    vals = np.conj(ct.evaluate(spec, *mesh)) * np.asarray(fn(*mesh))
    for w in reversed(weights):
        vals = vals @ w if vals.ndim > 1 else np.dot(vals, w)
    return complex(vals)


def ref_axis_transform(a, p, quad_points):
    """The centred bump's transform on the symmetric grid p as one cosine
    table: len(p) // 2 + 1 rows over p >= 0 by quad_points nodes, mirrored."""
    x, w = ct._axis_quadrature(-a, a, quad_points)
    fw = w * ct.bump_profile(x / a)
    out = np.cos(np.outer(p[len(p) // 2:], x)) @ fw / np.sqrt(2.0 * np.pi)
    return np.concatenate([out[:0:-1], out]), np.sum(np.abs(fw))


def closed_form(spec):
    """The harmonic function of a spec written out, with its complex power or
    shifted cosine: a reference that does not read ``harmonic_factors``."""
    def fn(*coords):
        if isinstance(spec, bb.Constant):
            return spec.c * np.ones(np.broadcast(*coords).shape)
        if isinstance(spec, bb.Affine1D):
            return spec.a + spec.b * coords[0]
        x, y = coords
        if isinstance(spec, bb.HarmonicPoly2D):
            w = (x + 1j * y - spec.center) ** spec.degree
            return spec.coefficient * (w.real if spec.part == "re" else w.imag)
        return np.exp(spec.k * x) * np.cos(spec.k * y + spec.phase)
    return fn


def ref_condensate_term(family, f, g, beta, quad_points):
    total = 0.0 + 0.0j
    for spec in family.specs:
        fn = closed_form(spec)
        a = ref_overlap(f, fn, quad_points)
        b = ref_overlap(g, fn, quad_points)
        total += a * np.conj(b)
    return complex(total) / beta


def grid_pieces(table):
    """|p|^2 and the trapezoid weights on the full momentum grid."""
    p = table.p
    w = ct._trapezoid_weights(len(p), table.p_spacing)
    if table.dim == 1:
        return p**2, w
    return p[:, None] ** 2 + p[None, :] ** 2, np.outer(w, w)


def ref_bilinear(table_f, table_g, kernel, zero_value):
    psq, w = grid_pieces(table_f)
    z = np.conj(fourier_grid(table_f)) * fourier_grid(table_g)
    integrand = np.zeros_like(z)
    zero_idx = (table_f.zero_index,) * table_f.dim
    mask = np.ones(z.shape, dtype=bool)
    mask[zero_idx] = False
    integrand[mask] = z[mask] * kernel(psq[mask])
    integrand[zero_idx] = zero_value
    return complex(np.sum(integrand * w))


def ref_green_zero_limit(table_f, table_g):
    z = np.conj(fourier_grid(table_f)) * fourier_grid(table_g)
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


def ref_resolvent_2d(table, pts):
    psq, w = grid_pieces(table)
    kern = fourier_grid(table) * w / (1.0 + psq)
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
    abs_f, abs_g = (dataclasses.replace(t, factors=tuple(np.abs(f) for f in t.factors))
                    for t in (table_f, table_g))
    return ref_bilinear(abs_f, abs_g, lambda q: np.abs(kernel(q)), abs(zero_value)).real


def subnormal_allowance(table):
    """One subnormal unit per cell, where tiny amplitudes make roundoff absolute."""
    return len(table.p) ** table.dim * np.finfo(float).smallest_subnormal


def assert_regular_part(table_f, table_g, beta):
    """The regular part, a sum over the Bose series and a t-integral of heat
    pairings, against the table sum of F(beta |p|^2) with its p = 0 cell
    F(0) = -1/2: the same sum in exact arithmetic, so they agree to roundoff
    of the absolute sum (the Bose series and the t-integral cancel to it)."""
    zero_value = -np.conj(table_f.value_at_zero()) * table_g.value_at_zero() / 2.0
    kernel = bb.BoseRegular(beta).evaluate
    ref = ref_bilinear(table_f, table_g, kernel, zero_value)
    got = ct.regular_part_integral(table_f, beta, None if table_g is table_f else table_g)
    if table_g is table_f:
        assert isinstance(got, float)
        ref = ref.real
    scale = abs_bilinear(table_f, table_g, kernel, zero_value)
    assert abs(got - ref) <= 1e-12 * scale + subnormal_allowance(table_f)


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
        fn = closed_form(spec)
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
    spec is: the terms of both bound what the closed form's complex power and
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
    """The factors on the tensor mesh and eval_harmonic on the full mesh (their
    sum taken pointwise) both equal the closed form, hence each other."""
    spec = data.draw(harmonic_specs(dim, max_degree=6, max_phase=10))
    axes = NODES[:dim]
    mesh = np.meshgrid(*axes, indexing="ij")
    got, magnitude = separable_sum(spec, *axes)
    _, other = separable_sum(other_part(spec), *axes)
    ref = closed_form(spec)(*mesh)
    # plus one subnormal unit per rounded product, where a tiny coefficient
    # makes roundoff absolute
    bound = 1e-13 * (magnitude + other) + 8 * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(got - ref) <= bound)
    assert np.all(np.abs(bb.eval_harmonic(spec, *mesh) - ref) <= bound)


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
        fn = partial(ct.evaluate, spec) if is_test_function else closed_form(spec)
        ref = ref_overlap(f, fn, quad_points)
        assert abs(value - ref) <= 1e-12 * abs_overlap(f, fn, quad_points) + under


# M = steps; the examples put M at its smallest, M + 1 at a power of two, and
# M + 1 at a multiple of the transform's b = isqrt(M) + 1 and off one
@settings(max_examples=60)
@given(halfwidth=reals(0.2, 1.0), cutoff=reals(1.0, 40.0), steps=st.integers(2, 600),
       quad_points=st.integers(8, 512))
@example(halfwidth=0.75, cutoff=2.0, steps=2, quad_points=8)
@example(halfwidth=0.5, cutoff=3.0, steps=3, quad_points=9)
@example(halfwidth=1.0, cutoff=20.0, steps=63, quad_points=64)
@example(halfwidth=0.3, cutoff=40.0, steps=200, quad_points=512)
def test_axis_transform_equals_cosine_table(halfwidth, cutoff, steps, quad_points):
    """The factored axis transform against the full cosine table, within
    1e-15 sum |fw| of it: both round each phase at the same scale."""
    table = ct.fourier_oracle(ct.Bump(center=(0.0,), halfwidth=(halfwidth,)), cutoff,
                              cutoff / steps, quad_points)
    assert len(table.p) == 2 * steps + 1
    ref, scale = ref_axis_transform(halfwidth, table.p, quad_points)
    got, = table.factors
    assert np.all(got.imag == 0)
    assert np.abs(got.real - ref).max() <= 1e-15 * scale


@pytest.mark.parametrize("name", ["converge_d1", "converge_d2"])
def test_p_spacing_is_exact_on_golden_grids(name):
    """The step read at the origin is the configured one; the difference of
    the first two nodes, at |p| = cutoff, rounds away from it."""
    golden = json.loads((Path(__file__).parent / "golden" / f"{name}.json").read_text())
    cfg = parse_config_text(golden["config"])
    table = ct.fourier_oracle(ct.parse_test_function(cfg.f), cfg.cutoff, cfg.p_spacing, 8)
    assert table.p_spacing == cfg.p_spacing
    assert table.p[1] - table.p[0] != cfg.p_spacing


@settings(max_examples=60)
@given(cutoff=reals(2.0, 100.0), p_spacing=reals(1e-3, 1.0))
def test_p_spacing_is_exact(cutoff, p_spacing):
    table = ct.fourier_oracle(ct.Bump(center=(0.0,), halfwidth=(0.5,)), cutoff, p_spacing, 8)
    assert table.p_spacing == p_spacing


@st.composite
def table_pairs(draw, zero_mean):
    """Tables of drawn test functions on a drawn grid.  ``tf_specs`` pairs are
    at most 6 wide, so p_spacing <= 0.075 is within the heat pairings'
    rule for them at every cutoff drawn (the finest they need is 0.079)."""
    dim = draw(st.integers(1, 2))
    cutoff = draw(reals(2.0, 6.0))
    p_spacing = draw(reals(0.04, 0.075))
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
    assert_regular_part(table_f, table_g, beta)
    reg, green = ct.regular_part_integral(table_f, beta, other), ct.green_integral(table_f, other)
    assert ct.free_gas_integral(table_f, beta, other) == reg + green / beta
    # the Green integral is Hermitian in (f, g), and positive on the diagonal
    swapped = ct.green_integral(table_g, None if other is None else table_f)
    scale = math.sqrt(abs(ct.green_integral(table_f) * ct.green_integral(table_g)))
    assert abs(green - np.conj(swapped)) <= 1e-13 * scale + subnormal_allowance(table_f)
    if other is None:
        assert isinstance(green, float) and green >= 0


@settings(max_examples=40)
@given(tables=table_pairs(zero_mean=False), factor=reals(1.0, 4.0))
def test_grid_sums_meet_the_moment_series(tables, factor):
    """From the crossover on, each axis's grid sum of conj(fhat_i) ghat_i
    e^(-t p^2) and its moment series agree to roundoff of their terms."""
    table_f, table_g = tables
    sigma, t_c, _, _ = ct._pair_series(table_f, table_g)
    t = t_c * factor
    w = ct._trapezoid_weights(len(table_f.p), table_f.p_spacing)
    z = np.array([w * np.conj(a) * b for a, b in zip(table_f.factors, table_g.factors)])
    grid = ct._gauss_sums(z, table_f.p, np.array([t]))[:, 0]
    powers = t ** -np.arange(sigma.shape[1])
    series = sigma @ powers / np.sqrt(4 * np.pi * t)
    scale = np.abs(z).sum(axis=1) + np.abs(sigma) @ powers / np.sqrt(4 * np.pi * t)
    tiny = len(table_f.p) * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(grid - series) <= 1e-14 * scale + tiny)


@settings(max_examples=20)
@given(data=st.data(), dim=st.integers(1, 2), cutoff=reals(30.0, 40.0))
def test_too_coarse_tables_raise(data, dim, cutoff):
    """The finest p_spacing a pair needs, as its HypothesisError states it:
    1% below it the integrals run, 1% above it they raise.  (At these
    cutoffs the pair's width sets the rule, not the cutoff.)"""
    f, g = data.draw(tf_specs(dim, zero_mean=True)), data.draw(tf_specs(dim, zero_mean=True))

    def green(p_spacing):
        return ct.green_integral(*(ct.fourier_oracle(u, cutoff, p_spacing, 8) for u in (f, g)))

    with pytest.raises(ct.HypothesisError, match="too coarse") as info:
        green(1.0)
    finest = float(re.search(r"p_spacing <= (\S+)$", str(info.value)).group(1))
    assert np.isfinite(green(0.99 * finest))
    with pytest.raises(ct.HypothesisError, match="too coarse"):
        green(1.01 * finest)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("ratio", [0.99, 1.01])
def test_is_zero_mean_equals_full_table_criterion(dim, ratio):
    """The zero-mean guard reads fhat(0) and max |fhat| off the per-axis
    factors; it agrees with |fhat(0)| <= ZERO_MEAN_RTOL max |fhat| on the full
    table just below and just above that threshold."""
    n = 101
    m = n // 2
    rng = np.random.default_rng(3)
    factors = [rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n) for _ in range(dim)]
    factors[0][m] = 0.0
    peak = np.abs(reduce(np.multiply.outer, factors)).max()
    # put |fhat(0)| at ratio times the threshold; its row stays far below the peak
    rest = abs(np.prod([f[m] for f in factors[1:]]))
    factors[0][m] = (0.6 - 0.8j) * ratio * ct.ZERO_MEAN_RTOL * peak / rest
    table = ct.FourierTable(p=np.arange(n) - n // 2.0, factors=tuple(factors), provenance={})
    values = fourier_grid(table)
    full = abs(values[(m,) * dim]) <= ct.ZERO_MEAN_RTOL * np.abs(values).max()
    assert full == (ratio < 1)
    assert table.is_zero_mean() == full


@settings(max_examples=20)
@given(tables=table_pairs(zero_mean=False), beta=reals(0.1, 5.0))
def test_regular_part_equals_reference_at_any_mean(tables, beta):
    assert_regular_part(*tables, beta)


# --- the Green integral against references that need no origin cell ----------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def bump_mass(u):
    """integral_-1^u exp(-1/(1-t^2)) dt.  With t = tanh(v) the integrand is
    exp(-cosh(v)^2) / cosh(v)^2, analytic and below e^-100 past |v| = 3,
    so Gauss-Legendre on [-3, min(atanh(u), 3)] is exact to roundoff."""
    with np.errstate(divide="ignore"):
        top = np.clip(np.arctanh(np.clip(u, -1.0, 1.0)), -3.0, 3.0)
    half = 0.5 * (top + 3.0)
    v = half[:, None] * (_GL_NODES + 1.0) - 3.0
    return half * (np.exp(-np.cosh(v) ** 2) / np.cosh(v) ** 2 @ _GL_WEIGHTS)


def antiderivative(spec, x):
    """integral_-inf^x f for a 1d test function: a sum of scaled bump masses."""
    return sum(coeff * a * bump_mass((x - c) / a) for coeff, ((c, a),) in ct._tensor_terms(spec))


def ref_green_1d(f, g, nodes=2001):
    """-1/2 integral integral conj(f(x)) g(y) |x - y| dx dy in position space.
    For zero-mean f and g, two integrations by parts make it
    integral conj(F) G dx with F, G the antiderivatives, smooth and supported
    where f and g are: the trapezoid sum over that interval is spectrally
    accurate."""
    (lo_f, hi_f), = ct.support_bounds(f)
    (lo_g, hi_g), = ct.support_bounds(g)
    x, w = ct._axis_quadrature(min(lo_f, lo_g), max(hi_f, hi_g), nodes)
    return complex(np.dot(w * np.conj(antiderivative(f, x)), antiderivative(g, x)))


def dipoles_1d():
    amplitude = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0, allow_nan=False,
                                   allow_infinity=False)
    return st.builds(lambda c, s, a, amp: ct.Dipole(center=(c,), offset=s, halfwidth=(a,),
                                                    amplitude=amp),
                     reals(-1, 1), reals(0.1, 1.0), reals(0.75, 1.25), amplitude)


@settings(max_examples=12)
@given(f=dipoles_1d(), g=dipoles_1d())
@example(f=ct.Dipole(center=(-0.6,), offset=0.5, halfwidth=(0.75,), amplitude=1 - 0.5j),
         g=ct.Dipole(center=(0.7,), offset=0.75, halfwidth=(1.0,), amplitude=0.3 + 1j))
def test_green_1d_equals_position_space_reference(f, g):
    """At cutoff 160 the tables' truncation is below 1e-13 for halfwidths of
    at least 0.75; the example is a complex pair with separated centres,
    where the parent's origin-cell fit was off by 1.6e-5 at this p spacing."""
    table_f, table_g = (ct.fourier_oracle(u, cutoff=160.0, p_spacing=0.05) for u in (f, g))
    got = ct.green_integral(table_f, table_g)
    ref = ref_green_1d(f, g)
    scale = math.sqrt(ref_green_1d(f, f).real * ref_green_1d(g, g).real)
    assert abs(got - ref) <= 1e-12 * scale


def test_green_1d_of_a_separated_pair_vanishes():
    """Zero-mean pairs with disjoint supports: -|x - y|/2 is affine in x - y
    there, so the integral is 0."""
    f = ct.Dipole(center=(-2.0,), offset=0.5, halfwidth=(0.75,), amplitude=1 - 0.5j)
    g = ct.Dipole(center=(2.0,), offset=0.75, halfwidth=(1.0,), amplitude=0.3 + 1j)
    table_f, table_g = (ct.fourier_oracle(u, cutoff=160.0, p_spacing=0.05) for u in (f, g))
    scale = math.sqrt(ct.green_integral(table_f) * ct.green_integral(table_g))
    assert abs(ref_green_1d(f, g)) <= 1e-15 * scale
    assert abs(ct.green_integral(table_f, table_g)) <= 1e-13 * scale


def test_green_2d_table_sums_approach_it():
    """On one grid, the table sum with the origin cell fitted and the product
    value differ by that cell's error: it shrinks about as dp^4 as the p
    spacing halves.  (Both share the grid's truncation at the cutoff.)"""
    f = ct.Dipole(center=(0.25, -0.5), offset=0.5, halfwidth=(0.75, 0.5), axis=1,
                  amplitude=1 - 2j)
    g = ct.Dipole(center=(0.0, 0.25), offset=0.75, halfwidth=(0.5, 0.75), amplitude=0.5j)
    errors = []
    for p_spacing in (0.1, 0.05):
        table_f, table_g = (ct.fourier_oracle(u, cutoff=10.0, p_spacing=p_spacing)
                            for u in (f, g))
        green = ct.green_integral(table_f, table_g)
        table_sum = ref_bilinear(table_f, table_g, lambda q: 1.0 / q,
                                 ref_green_zero_limit(table_f, table_g))
        errors.append(abs(table_sum - green) / abs(green))
    assert errors[1] <= errors[0] / 8 and errors[0] <= 1e-5


def test_green_2d_drops_the_zeroth_moments_near_zero_mean():
    """A d=2 pair at 0.99 ZERO_MEAN_RTOL passes the guard; the product of its
    axes' zeroth moments is then dropped from the Green integral.  Integrating
    the pairings themselves, that term included, to t = 1e14 and to twice
    that gives the same value to 1e-14, and the library's value to 1e-12."""
    dipole = ct.Dipole(center=(0.25, 0.0), offset=1.0, halfwidth=(0.75, 0.5))
    bump = ct.Bump(center=(0.25, 0.0), halfwidth=(0.75, 0.5))
    table, mass = (ct.fourier_oracle(u, cutoff=20.0, p_spacing=0.05) for u in (dipole, bump))
    # the x factors and their moments are linear in the function: add a bump
    # with the dipole's midpoint along x, enough to put fhat(0) at 0.99 times
    # the threshold
    peak = math.prod(np.abs(f).max() for f in table.factors)
    eps = 0.99 * ct.ZERO_MEAN_RTOL * peak / abs(mass.factors[0][table.zero_index]
                                                 * table.factors[1][table.zero_index])
    near = dataclasses.replace(
        table, factors=(table.factors[0] + eps * mass.factors[0], table.factors[1]),
        moments=(table.moments[0] + eps * mass.moments[0], table.moments[1]))
    assert near.is_zero_mean() and abs(near.value_at_zero()) > 0.9 * ct.ZERO_MEAN_RTOL * peak
    green = ct.green_integral(near)

    def integrated(doublings):
        # trapezoid in log t on nodes shared by both limits, 8 per doubling
        step = math.log(2.0) / 8
        x = math.log(1e14) + step * np.arange(-900, 8 * doublings + 1)
        w = np.full(len(x), step)
        w[[0, -1]] /= 2
        return (w * np.exp(x)) @ ct._heat_pairings(near, near, np.exp(x))

    short, long = integrated(0), integrated(1)
    assert abs(long - short) <= 1e-14 * green
    assert abs(short - green) <= 1e-12 * green


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
