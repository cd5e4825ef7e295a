import json
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import becbox as bb
from becbox import continuum as ct
from becbox.config import parse_config_text

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # reproducible examples and no timing limit: the suite runs on busy hosts
    settings.register_profile("becbox", deadline=None, derandomize=True, database=None)
    settings.load_profile("becbox")


@pytest.fixture(scope="session")
def golden_d2_config():
    """Parsed config of the golden d=2 converge run."""
    golden = json.loads((Path(__file__).parent / "golden" / "converge_d2.json").read_text())
    return parse_config_text(golden["config"])


@pytest.fixture(scope="session")
def grid_1d_small():
    return bb.make_grid(1, [4], 0.5)


@pytest.fixture(scope="session")
def grid_1d():
    # N = 63
    return bb.make_grid(1, [4], 1 / 16)


@pytest.fixture(scope="session")
def grid_2d():
    # N = 15 x 15
    return bb.make_grid(2, [4, 4], 0.25)


@pytest.fixture(scope="session")
def dipole():
    return ct.Dipole(center=(0.0,), offset=1.0, halfwidth=(0.75,))


@pytest.fixture(scope="session")
def dipole_table(dipole):
    return ct.fourier_oracle(dipole, cutoff=80.0, p_spacing=0.02, quad_points=2048)


def random_field(grid, seed, complex_values=False):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.total)
    if complex_values:
        vals = vals + 1j * rng.standard_normal(grid.total)
    return bb.GridField(grid, vals)


def stencil_apply(grid, u):
    """Apply the Dirichlet finite-difference Laplacian node by node.

    (L u)_x = (2d*u_x - sum of neighbors)/h^2 with neighbors outside the
    interior read as zero: the reference that the Dirichlet solve (the inverse
    of the empty-family operator), the sine transforms and the operator's
    locality are checked against.
    """
    if u.grid != grid:
        raise ValueError("field does not live on this grid")
    a = u.reshaped()
    out = (2 * grid.dim) * a.astype(np.result_type(a.dtype, np.float64), copy=True)
    for ax in range(grid.dim):
        lo = [slice(None)] * grid.dim
        hi = [slice(None)] * grid.dim
        lo[ax] = slice(None, -1)
        hi[ax] = slice(1, None)
        out[tuple(lo)] -= a[tuple(hi)]
        out[tuple(hi)] -= a[tuple(lo)]
    out /= grid.spacing**2
    return bb.GridField(grid, out.ravel())


def _solve_diag_plus_lowrank(d, C, b):
    """Solve (diag(d) + C C^H) x = b by the Woodbury identity, in the dtype of
    b and C: x = b/d - D^-1 C (I + C^H D^-1 C)^-1 C^H b/d."""
    x = (b / d).astype(np.result_type(b, C, float), copy=False)
    Cd = C / d[:, None]
    S = np.eye(C.shape[1], dtype=np.result_type(C.dtype, float)) + C.conj().T @ Cd
    x -= Cd @ np.linalg.solve(S, C.conj().T @ x)
    return x


def apply_forward(op, f):
    """Apply the modified Laplacian itself, i.e. solve A^-1 x = f: a Woodbury
    solve, whose formula cancels by up to |C^H D^-1 C| (36 eps on one node,
    where A^-1 has condition number 1), and one step of iterative refinement."""
    b, d, C = op._hat(f), 1.0 / op.lam, op.basis.col_hat
    x = _solve_diag_plus_lowrank(d, C, b)
    return op._unhat(x + _solve_diag_plus_lowrank(d, C, b - op.inverse_matvec(x)))


def fourier_grid(table) -> np.ndarray:
    """A Fourier table's fhat on its full p-grid, shape (len(p),) * dim: the
    outer product of its axis factors, which is all the table holds."""
    return reduce(np.multiply.outer, table.factors)


def traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc (which sees numpy's buffers) records during fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
