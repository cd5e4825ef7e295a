import numpy as np
import pytest

import becbox as bb
from becbox import continuum as ct

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # reproducible examples and no timing limit: the suite runs on busy hosts
    settings.register_profile("becbox", deadline=None, derandomize=True, database=None)
    settings.load_profile("becbox")


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
