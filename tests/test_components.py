"""Property tests for the partition of the sine coefficients into column
components and free rows.

``phi_operator._components`` links columns that share a row, a column's rows
being the entries its rank-one stage would not drop: |c_i| ||c|| > eps
max(max d, ||c||^2).  A^-1 is block diagonal over the components and the free
rows up to that backward error, so a dense readout solves only the components
its vectors reach, and a Lanczos recursion runs on the rows its start reaches.
Grids and families are those of ``tests/test_structured_eigensolve.py`` (1d
and 2d from N = 1, complex and rank-deficient families), plus examples whose
columns lie in different parity sectors and so fall into several components.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import becbox as bb  # noqa: E402
from becbox import phi_operator as po  # noqa: E402
from test_structured_eigensolve import SECTORS, cases  # noqa: E402

EPS = np.finfo(float).eps


def column_rows(op):
    """Per column, the rows its stage keeps against the largest d, 1/lambda_min."""
    C = op.basis.col_hat
    norm = np.linalg.norm(C, axis=0)
    return np.abs(C) * norm > EPS * np.maximum(1.0 / op.lam.min(), norm**2)


def with_sectors(**extra):
    def decorate(test):
        for case in SECTORS:
            test = example(case=case, **extra)(test)
        return test
    return decorate


@settings(max_examples=60)
@with_sectors()
@given(case=cases())
def test_components_partition_the_coefficients(case):
    """Each row is free or in the one component of every column that keeps
    it; a component's rows are its columns' kept rows, and its columns are
    linked through shared rows."""
    grid, family, _, _ = case
    op = bb.build_phi_operator(grid, family, "lanczos")
    nz = column_rows(op)
    rows, columns = op.components, op.column_components
    assert np.array_equal(columns >= 0, nz.any(axis=0))
    assert np.all(np.where(nz, columns == rows[:, None], True))
    assert not nz[rows < 0].any()
    for k in set(columns.tolist()) - {-1}:
        mine = columns == k
        assert np.array_equal(rows == k, nz[:, mine].any(axis=1))
        linked = np.flatnonzero(mine)[:1]
        while True:
            grown = np.flatnonzero(nz[nz[:, linked].any(axis=1)].any(axis=0))
            if len(grown) == len(linked):
                break
            linked = grown
        assert linked.tolist() == np.flatnonzero(mine).tolist()


@settings(max_examples=60)
@with_sectors(pick=0, complex_g=False)
@with_sectors(pick=1, complex_g=True)
@with_sectors(pick=2, complex_g=True)
@given(case=cases(), pick=st.integers(0, 3), complex_g=st.booleans())
def test_one_component_readout_equals_every_component(case, pick, complex_g):
    """Vectors on one component's rows and on the free rows: the contour
    readout, which reads those rows alone and solves no component, equals
    the one through every component (the assembled eigenbasis) to 1e-13 of
    the sum of its terms' sizes."""
    grid, family, seed, beta = case
    op = bb.build_phi_operator(grid, family, "dense")
    labels = sorted(set(op.column_components.tolist()) - {-1})
    k = labels[pick % len(labels)] if labels else -1
    rng = np.random.default_rng(seed)
    on = (op.components == k) | (op.components < 0)
    fhat = np.where(on, rng.standard_normal(grid.total), 0.0)
    ghat = np.where(on, rng.standard_normal(grid.total), 0.0)
    if complex_g:
        ghat = ghat + 1j * np.where(on, rng.standard_normal(grid.total), 0.0)
    Fs = (bb.Bose(beta), bb.BoseRegular(beta), bb.ShiftedInverse(-1.0))
    X = fhat[:, None]
    got = [po._contour_forms(op, Fs, X, X)[:, 0, 0],
           po._contour_forms(op, Fs, X, ghat[:, None])[:, 0, 0]]
    assert not op._chains
    a = op.project(fhat)
    for value, b in zip(got, (a, op.project(ghat))):
        want = po._gauss_sum(Fs, op.eigenvalues, a, b)
        size = np.array([np.sum(np.abs(a * F.evaluate(op.eigenvalues) * b)) for F in Fs])
        assert np.all(np.abs(value - want) <= 1e-13 * size)


@settings(max_examples=30)
@with_sectors()
@given(case=cases())
def test_lanczos_reaches_the_components_of_its_start(case):
    """A start on one row reaches that row and, if a column keeps it, every
    row of its component; A^-1 maps that set into itself, up to what the
    columns drop: sum_k |C_ik| |c_k^H x| <= K eps max(max d, max_k ||c_k||^2) ||x||
    on every row outside it."""
    grid, family, seed, _ = case
    op = bb.build_phi_operator(grid, family, "lanczos")
    i = np.random.default_rng(seed).integers(grid.total)
    v = np.zeros(grid.total)
    v[i] = 1.0
    reached = po._reached(v, op.components)
    k = op.components[i]
    assert np.array_equal(reached, op.components == k if k >= 0 else v != 0)
    x = np.where(reached, np.random.default_rng(seed + 1).standard_normal(grid.total), 0.0)
    C = op.basis.col_hat
    norm2 = np.linalg.norm(C, axis=0) ** 2
    bound = C.shape[1] * EPS * max(1.0 / op.lam.min(), np.max(norm2, initial=0))
    assert np.all(np.abs(op.inverse_matvec(x)[~reached]) <= bound * np.linalg.norm(x))
