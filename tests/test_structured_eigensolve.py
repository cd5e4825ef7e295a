"""Property tests for the structured eigensolve of every operator.

The operator never assembles diag(1/lambda) + C C^H; here that matrix is
assembled at N <= 576 and ``np.linalg.eigh`` is the oracle.  Grids are 1d and
2d, from N = 1 up, with square boxes (whose equal Dirichlet eigenvalues form
the clusters the deflation rotates) and non-square ones.  Families may be
empty, repeat a spec (rank-deficient columns) and carry real or complex
coefficients.  Columns in different parity sectors fall into several column
components (``SECTORS``), which the operator solves one by one and assembles.  Readout residuals are scaled as in
``tests/test_two_point_properties.py``.  The same draws fuzz the Krein
identity over shifts, the domain decomposition and the Woodbury round-trips;
at column norms up to ||C||_2^2 = 3.3e19 the readout is checked against
mpmath at 50 digits, and the exact identities hold there too.
"""

import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import becbox as bb  # noqa: E402
from becbox import continuum as ct  # noqa: E402
from becbox import phi_operator as po  # noqa: E402
from becbox.verification import (  # noqa: E402
    domain_decomposition_check,
    krein_identity_residual,
    ordering_check,
)
from conftest import apply_forward, random_field  # noqa: E402

EPS = np.finfo(float).eps
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
    seed = draw(st.integers(0, 2**32 - 1))
    return grid, bb.HarmonicFamily(tuple(specs)), seed, draw(st.floats(0.3, 3.0))


# n + 1 a power of two: the parity zeros are exact, and x, y and 2xy (with
# x^3 - 3xy^2 beside x) are three components; in d = 1, 1 and x are two
SECTORS = [
    (bb.make_grid(2, [4, 4], 0.25), bb.parse_family(
        "hpoly2:n=1,part=re;hpoly2:n=1,part=im;hpoly2:n=2,part=im;hpoly2:n=3,part=re"),
     5, 1.0),
    (bb.make_grid(1, [8], 0.25), bb.parse_family("const:c=1;affine:a=0,b=1j"), 6, 0.7),
]


def size(tp):
    return abs(tp.direct) + abs(tp.regular_term) + abs(tp.green_term) + abs(tp.condensate_term)


@settings(max_examples=120)
@example(case=SECTORS[0])
@example(case=SECTORS[1])
@given(cases())
def test_structured_eigensolve_matches_dense_eigh(case):
    grid, family, seed, beta = case
    with mock.patch.object(po, "eigendecompose_symmetric", side_effect=AssertionError):
        op = bb.build_phi_operator(grid, family, "dense")
        op.eigenbasis  # every component solved here, where LAPACK is barred
    C = op.basis.col_hat
    w, V = np.linalg.eigh(np.diag(1.0 / op.lam) + C @ C.conj().T)
    top = w[-1]
    assert np.abs(1.0 / op.eigenvalues[::-1] - w).max() <= 1e-12 * top

    rng = np.random.default_rng(seed)
    a = rng.standard_normal(grid.total) + 1j * rng.standard_normal(grid.total)
    assert np.linalg.norm(op.project(op.unproject(a)) - a) <= 1e-12 * np.linalg.norm(a)
    x = rng.standard_normal(grid.total)
    assert (np.linalg.norm(op.unproject(op.project(x) / op.eigenvalues) - op.inverse_matvec(x))
            <= 1e-12 * top * np.linalg.norm(x))

    f = random_field(grid, seed, True)
    g = random_field(grid, seed + 1)
    tp = bb.two_point_lhs(op, beta, f, g)
    fa = V.conj().T @ bb.sine_transform(grid, f, "forward").values
    ga = V.conj().T @ bb.sine_transform(grid, g, "forward").values
    s = size(tp)
    for F, value in ((bb.Bose(beta), tp.direct), (bb.BoseRegular(beta), tp.regular_term)):
        assert abs(value - np.sum(fa.conj() * F.evaluate(1.0 / w) * ga)) <= 1e-12 * s


# a Gram eigenvalue of 9.6e-321, whose reciprocal overflows
@example(case=(bb.make_grid(1, [0.25], 0.125),
               bb.HarmonicFamily((bb.Constant(2.775462936146422e-160),)), 0, 1.0))
@given(cases())
def test_ordering_and_krein_hold_for_every_family(case):
    grid, family, _, _ = case
    op = bb.build_phi_operator(grid, family, "dense")
    for report in (ordering_check(op), krein_identity_residual(op, -1.0),
                   krein_identity_residual(op, -2.5)):
        assert report.passed, report.to_dict()


@given(cases(), st.floats(-50.0, -0.01))
def test_krein_identity_holds_at_drawn_shifts(case, z):
    grid, family, _, _ = case
    report = krein_identity_residual(bb.build_phi_operator(grid, family, "dense"), z)
    assert report.passed, report.to_dict()


@given(cases())
def test_domain_decomposition_holds_for_every_family(case):
    grid, family, seed, _ = case
    op = bb.build_phi_operator(grid, family, "dense")
    report = domain_decomposition_check(op, 2, seed)
    assert report.passed, report.to_dict()


# a small shift: s^-1 (u - (I + s A^-1)^-1 u), the same resolvent through a
# difference, reads 4.1e-13 relative here, 114 times the bound
@example(case=(bb.make_grid(1, [8], 1 / 32), bb.parse_family("affine:a=0,b=1;const:c=1"),
               0, 1.0), s=1e-4)
# one node: the Woodbury formula alone cancels by C^H D^-1 C = 36, and its
# round trip read 4.1e-15 relative, 1.2 times the bound at condition number 1
@example(case=(bb.make_grid(1, [0.25], 0.125), bb.HarmonicFamily((bb.Constant(1.5),)),
               0, 1.0), s=1.0)
@given(cases(), st.floats(1e-6, 50.0))
def test_woodbury_round_trips(case, s):
    """apply_forward inverts apply_inverse to 16 eps kappa, kappa = max mu /
    min mu the condition number of the Woodbury solve's matrix A^-1; and
    shifted_solve is the eigenpairs' resolvent to 16 eps (1 + s max mu)
    |(s + A)^-1 u|, with no 1/s: the Krein formula forms no difference that
    cancels, and its K x K solve has condition number at most 1 + s max mu."""
    grid, family, seed, _ = case
    op = bb.build_phi_operator(grid, family, "dense")
    u = random_field(grid, seed, True)
    back = apply_forward(op, bb.apply_inverse(op, u)).values
    kappa = op.eigenvalues[-1] / op.eigenvalues[0]
    assert np.linalg.norm(back - u.values) <= 16 * EPS * kappa * np.linalg.norm(u.values)
    want = op.unproject(op.project(op._hat(u)) / (s + op.eigenvalues))
    got = op._hat(bb.shifted_solve(op, u, s))
    assert (np.linalg.norm(got - want)
            <= 16 * EPS * (1 + s / op.eigenvalues[0]) * np.linalg.norm(want))


def deflated_eigh(d, C):
    """``_deflated_eigh`` of diag(d) + C C^H as one component: its eigenvalues
    and eigenvectors, formed whole."""
    mu, stages = po._deflated_eigh(d, C)
    return mu, po._Chain(np.arange(len(d)), mu, stages).unproject(np.eye(len(d)))


@st.composite
def rank_one_blocks(draw):
    """diag(d) + c c^H with one column c: real or complex, n from 1, d drawn in
    clusters whose members lie one ulp apart, and entries of c set at and
    near the deflation's drop tolerance."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = rng.uniform(0.01, 1.0, n)
    for i in draw(st.lists(st.integers(1, n - 1), max_size=4)) if n > 1 else []:
        d[i] = np.nextafter(d[i - 1], 2.0)  # may chain into a cluster of several
    c = rng.standard_normal(n)
    if draw(st.booleans()):
        c = c + 1j * rng.standard_normal(n)
    c *= draw(st.sampled_from([1e-3, 1.0, 30.0]))
    norm = np.linalg.norm(c)
    tol = EPS * max(d.max(), norm**2) / norm
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        c[i] = draw(st.sampled_from([0.5, 1.0, 2.0, 8.0])) * tol
    return d, c


@settings(max_examples=200)
@given(rank_one_blocks())
def test_rank_one_blocks_match_dense_eigh(case):
    d, c = case
    with mock.patch.object(po, "eigendecompose_symmetric", side_effect=AssertionError):
        mu, V = deflated_eigh(d, c[:, None].copy())
    A = np.diag(d) + np.outer(c, c.conj())
    w = np.linalg.eigh(A)[0]
    scale = max(w[-1], 1e-300)
    assert np.abs(mu - w).max() <= 1e-13 * scale
    assert np.abs(V.conj().T @ V - np.eye(len(d))).max() <= 1e-13
    assert np.abs(A @ V - V * mu).max() <= 1e-13 * scale


def _count_dense_solves(monkeypatch):
    calls = []
    solve = po.eigendecompose_symmetric
    monkeypatch.setattr(po, "eigendecompose_symmetric", lambda A: calls.append(len(A)) or solve(A))
    return calls


def test_golden_builds_need_no_dense_eigensolve(monkeypatch):
    calls = _count_dense_solves(monkeypatch)
    family1 = bb.parse_family("affine:a=0,b=1")
    family2 = bb.parse_family("hpoly2:n=1,part=re;hpoly2:n=2,part=re")
    for L in (8, 16, 32, 64):
        for h in (1 / 16, 1 / 32):
            bb.build_phi_operator(bb.make_grid(1, [L], h), family1, backend="dense").eigenbasis
    for L in (4, 6, 8):
        bb.build_phi_operator(bb.make_grid(2, [L, L], 1 / 8), family2, backend="dense").eigenbasis
    # families without the goldens' symmetry couple one block by several columns
    for grid, text in [
        (bb.make_grid(1, [32], 1 / 16), "affine:a=1,b=1;affine:a=0.5,b=-2"),
        (bb.make_grid(2, [4, 4], 1 / 8), "const:c=1;expcos:k=1,phase=0.3"),
        (bb.make_grid(2, [4, 4], 1 / 8), "hpoly2:n=4,part=re;expcos:k=2"),
        (bb.make_grid(2, [3, 4], 1 / 8), "hpoly2:n=1,part=re,z0=0.3+0.2j;"
         "hpoly2:n=2,part=im,z0=0.3+0.2j;hpoly2:n=3,part=re,z0=-0.1+0.4j;expcos:k=0.7,phase=0.2"),
    ]:
        bb.build_phi_operator(grid, bb.parse_family(text), backend="dense").eigenbasis
    assert calls == []


def test_rank_two_block_needs_no_dense_eigensolve(monkeypatch):
    calls = _count_dense_solves(monkeypatch)
    grid = bb.make_grid(1, [4], 1 / 16)  # N = 63
    # 1 couples the even modes, 1 + x all of them: one block of rank 2
    op = bb.build_phi_operator(grid, bb.parse_family("const:c=1;affine:a=1,b=1"), backend="dense")
    C = op.basis.col_hat
    w = np.linalg.eigvalsh(np.diag(1.0 / op.lam) + C @ C.conj().T)
    assert np.abs(1.0 / op.eigenvalues[::-1] - w).max() <= 1e-13 * w[-1]
    assert calls == []


def test_rank_two_ordering_holds_to_roundoff():
    # a rank-2 block of 1986 modes; a dense eigensolve of it gave max_excess 1.2e-8
    grid = bb.make_grid(2, [8, 8], 1 / 8)
    op = bb.build_phi_operator(grid, bb.parse_family("hpoly2:n=4,part=re;expcos:k=2"),
                               backend="dense")
    assert ordering_check(op).residuals["max_excess"] <= 1e-12


def test_rank_two_krein_identity_holds_to_roundoff():
    # one rank-2 block of 84 modes; a dense eigensolve of it gave residuals 1.4e-9 and 1.2e-9
    grid = bb.make_grid(2, [13, 14], 1.0)
    op = bb.build_phi_operator(grid, bb.parse_family("hpoly2:n=3,part=re;expcos:k=-1.32"),
                               backend="dense")
    for z in (-1.0, -2.5):
        assert krein_identity_residual(op, z).residuals["relative"] <= 1e-10


@pytest.mark.parametrize("grid, family", [
    (bb.make_grid(1, [4], 1 / 16), "affine:a=0,b=1"),  # N = 63
    (bb.make_grid(2, [4, 4], 1 / 8), "hpoly2:n=1,part=re;hpoly2:n=2,part=re"),  # N = 961
], ids=["d1-N63", "d2-N961"])
def test_unconverged_secular_roots_are_finished_by_bisection(monkeypatch, grid, family):
    calls = _count_dense_solves(monkeypatch)
    monkeypatch.setattr(po, "_SECULAR_STEPS", 1)
    op = bb.build_phi_operator(grid, bb.parse_family(family), backend="dense")
    C = op.basis.col_hat
    w = np.linalg.eigvalsh(np.diag(1.0 / op.lam) + C @ C.conj().T)
    assert np.abs(1.0 / op.eigenvalues[::-1] - w).max() <= 1e-13 * w[-1]
    assert calls == []
    a = np.random.default_rng(3).standard_normal((grid.total, 2))
    assert np.linalg.norm(op.project(op.unproject(a)) - a) <= 1e-13 * np.linalg.norm(a)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
def test_implicit_eigenvectors_match_the_formed_ones(n):
    """A stage's products against W formed whole from the same generators, on
    both sides of every chunk boundary, for one and many columns, real and
    complex."""
    rng = np.random.default_rng(n)
    d = np.sort(rng.uniform(0.01, 1.0, n))
    z = rng.uniform(0.05, 1.0, n)
    mu, (origin, tau, zhat, norm) = po._secular_eigh(d, z)
    W = zhat[:, None] / ((d[:, None] - origin) - tau) / norm
    assert np.abs(W.T @ W - np.eye(n)).max() <= 1e-13
    assert np.abs(mu - np.linalg.eigvalsh(np.diag(d) + np.outer(z, z))).max() <= 1e-14 * mu[-1]
    stage = po._Stage(rotations=(), active=np.arange(n), vectors=(d, origin, tau, zhat, norm),
                      order=np.arange(n))
    for shape in [(n,), (n, 1), (n, 12), (n, 20)]:
        for y in (rng.standard_normal(shape),
                  rng.standard_normal(shape) + 1j * rng.standard_normal(shape)):
            for got, want in ((stage.project(y), W.T @ y), (stage.unproject(y), W @ y)):
                assert got.shape == shape and got.dtype == y.dtype
                assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_rank_one_block_below_the_resolution_of_d():
    """The second column's block has |c|^2 = 2e-30, far below the ulp of d = 1.
    Its stage, the first after the sort (columns go in ascending order of
    norm), drops it, since |c_i| ||c|| = 1.4e-30 <= eps max d is within the
    stage's own backward error; the secular solver, given that block, still
    resolves its last root inside a bracket narrower than one ulp of d_n."""
    d = np.array([0.5, 0.9, 1.0])
    C = np.array([[1.0, 0.0], [0.0, 1e-15], [0.0, 1e-15]])
    assert [len(s.active) for s in po._deflated_eigh(d, C.copy())[1]] == [0, 0, 1]
    mu, V = deflated_eigh(d, C.copy())
    A = np.diag(d) + C @ C.T
    assert np.abs(mu - np.linalg.eigvalsh(A)).max() <= 1e-15
    assert np.abs(V.T @ V - np.eye(3)).max() <= 1e-15
    assert np.abs(A @ V - V * mu).max() <= 1e-15
    z = C[1:, 1]
    mu, (origin, tau, zhat, norm) = po._secular_eigh(d[1:], z)
    W = zhat[:, None] / ((d[1:, None] - origin) - tau) / norm
    B = np.diag(d[1:]) + np.outer(z, z)
    assert np.abs(mu - np.linalg.eigvalsh(B)).max() <= 1e-15
    assert np.abs(W.T @ W - np.eye(2)).max() <= 1e-15
    assert np.abs(B @ W - W * mu).max() <= 1e-15


# regular terms at 50 digits, from tests/golden/mpmath_regular_terms.py
HIGH_PRECISION = json.loads(
    (Path(__file__).parent / "golden" / "regular_terms_n49.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("family", list(HIGH_PRECISION["regular_term"]))
def test_regular_term_matches_high_precision_at_every_column_norm(family):
    """At N = 49 the families run from ||C||_2^2 = 1.2e1 to 3.3e19.  Every
    stage clusters and drops against its own column and diagonal, so the bulk
    is resolved whatever ||C||_2 is; clustering at the operator-wide eps
    ||C||_2^2 put expcos:k=12 3.0e-6 and expcos:k=15,phase=0.4 5.1e-4 off.
    The last two families list the huge column first: taken in that order,
    its outlier set the modest column's drop rule and put
    expcos:k=12;hpoly2:n=1,part=re 5.9e-5 off."""
    ref = HIGH_PRECISION
    grid = bb.make_grid(2, [ref["L"]] * 2, ref["h"])
    op = bb.build_phi_operator(grid, bb.parse_family(family), backend="dense")
    spec = ct.parse_test_function(ref["f"])
    f = bb.sample_function(grid, lambda *x: ct.evaluate(spec, *x))
    want = ref["regular_term"][family]
    assert abs(bb.two_point_lhs(op, ref["beta"], f).regular_term - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("family", ["hpoly2:n=1,part=re;expcos:k=12",
                                    "hpoly2:n=4,part=re;expcos:k=9",
                                    "expcos:k=12;expcos:k=15,phase=0.4",
                                    "hpoly2:n=1,part=re;hpoly2:n=2,part=re;expcos:k=6"])
def test_regular_term_does_not_depend_on_the_column_order(family):
    """A family and its reverse give the same diag(d) + C C^H, and the stages
    take its columns in ascending order of norm, so the N = 49 regular term
    is the same to 1e-12 in either order."""
    ref = HIGH_PRECISION
    grid = bb.make_grid(2, [ref["L"]] * 2, ref["h"])
    spec = ct.parse_test_function(ref["f"])
    f = bb.sample_function(grid, lambda *x: ct.evaluate(spec, *x))
    forward, reverse = (
        bb.two_point_lhs(bb.build_phi_operator(grid, bb.parse_family(text), backend="dense"),
                         ref["beta"], f).regular_term
        for text in (family, ";".join(reversed(family.split(";")))))
    assert abs(reverse - forward) <= 1e-12 * abs(forward)


def test_large_norm_regular_term_matches_the_golden_family():
    """At L = 16, h = 1/8 (N = 16129) expcos:k=2 has ||C||_2^2 near 1.2e14,
    and its regular term is the golden family's, -1.934593520474e-3 (as a
    contour-integral readout of both gives to 12 digits).  Clustering the
    stages at the operator-wide eps ||C||_2^2 merged 16111 of 16128 gaps and
    read -1.934542491979e-3."""
    grid = bb.make_grid(2, [16.0, 16.0], 0.125)
    op = bb.build_phi_operator(grid, bb.parse_family("expcos:k=2"), backend="dense")
    spec = ct.parse_test_function("dipole2:cx=0.2,cy=0.1,s=1,ax=0.75,ay=0.5,axis=y")
    f = bb.sample_function(grid, lambda *x: ct.evaluate(spec, *x))
    value = bb.two_point_lhs(op, 1.0, f).regular_term
    assert abs(value - -1.934593520474e-3) <= 1e-10 * 1.934593520474e-3


# the families of the high-precision golden, and a 2.75 x 0.5 box whose Gram
# ratio is 2.0e-9: through a deflated orthonormal basis and its R matrix, Krein
# read 0.74 on expcos:k=12;hpoly2:n=1,part=re (taken as rank 1), domain
# decomposition 9.6e-8 and 1.1e-7 on the two orders of hpoly2:n=4;expcos:k=9
# and 1.2e-4 on the box
IDENTITY_CASES = [(bb.make_grid(2, [HIGH_PRECISION["L"]] * 2, HIGH_PRECISION["h"]), family)
                  for family in HIGH_PRECISION["regular_term"]] + [
    (bb.make_grid(2, [2.75, 0.5], 0.25),
     "const:c=-1.61-0.642j;expcos:k=-0.127,phase=1.215;expcos:k=-0.0688,phase=-1.482")]


@pytest.mark.parametrize("grid, family", IDENTITY_CASES,
                         ids=[family for _, family in IDENTITY_CASES])
def test_exact_identities_hold_at_every_column_norm(grid, family):
    op = bb.build_phi_operator(grid, bb.parse_family(family), backend="dense")
    assert op.basis.rank == len(op.family.specs)
    for report in (krein_identity_residual(op, -1.0), krein_identity_residual(op, -2.5),
                   domain_decomposition_check(op, 20, 0)):
        assert report.passed, report.to_dict()
