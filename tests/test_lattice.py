import numpy as np
import pytest

import becbox as bb
from becbox import continuum as ct
from conftest import random_field


def dense_stencil_matrix(grid):
    """Brute-force dense matrix of the Dirichlet stencil (oracle)."""
    N = grid.total
    A = np.zeros((N, N))
    for j in range(N):
        e = np.zeros(N)
        e[j] = 1.0
        A[:, j] = bb.stencil_apply(grid, bb.GridField(grid, e)).values
    return A


class TestMakeGrid:
    def test_basic_1d(self):
        g = bb.make_grid(1, [4], 0.5)
        assert g.counts == (7,)
        assert g.total == 7
        np.testing.assert_allclose(g.axis_nodes(0), [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5])

    def test_degenerate_smallest(self):
        g = bb.make_grid(2, [2, 2], 1.0)
        assert g.counts == (1, 1)
        assert g.total == 1
        np.testing.assert_allclose(g.nodes(), [[0.0, 0.0]])

    def test_non_integer_ratio_rejected(self):
        with pytest.raises(ValueError, match="axis 0"):
            bb.make_grid(1, [4], 0.3)
        with pytest.raises(ValueError, match="axis 1"):
            bb.make_grid(2, [4, 3.1], 0.5)

    def test_node_symmetry(self):
        g = bb.make_grid(2, [4, 6], 0.5)
        nodes = g.nodes()
        flipped = -nodes
        # the node set is invariant under x -> -x
        a = set(map(tuple, np.round(nodes, 12)))
        b = set(map(tuple, np.round(flipped, 12)))
        assert a == b

    def test_total_formula(self):
        g = bb.make_grid(2, [4, 6], 0.5)
        assert g.total == (8 - 1) * (12 - 1)


def test_sample_function_fills_every_node():
    # fn gets open meshes; a value that does not depend on every coordinate
    # is still spread over the grid
    g = bb.make_grid(2, [4, 6], 0.5)
    x, y = g.meshes()
    u = bb.sample_function(g, lambda x, y: x)
    assert np.array_equal(u.values, x.ravel()) and u.values.flags.writeable
    assert np.array_equal(bb.sample_function(g, lambda x, y: x * y).values, (x * y).ravel())
    assert np.array_equal(bb.sample_function(g, lambda x, y: 2.0).values, np.full(g.total, 2.0))


class TestInnerProduct:
    def test_constant_field(self):
        g = bb.make_grid(1, [4], 0.5)
        ones = bb.GridField(g, np.ones(7))
        assert bb.inner_product(ones, ones) == pytest.approx(3.5, abs=1e-14)

    def test_sine_mode_orthogonality(self):
        g = bb.make_grid(1, [4], 0.125)
        L = 4.0
        u = bb.sample_function(g, lambda x: np.sin(2 * np.pi * (x + L / 2) / L))
        v = bb.sample_function(g, lambda x: np.sin(5 * np.pi * (x + L / 2) / L))
        # direct-summation oracle
        oracle = g.spacing * sum(a * b for a, b in zip(u.values, v.values))
        assert abs(bb.inner_product(u, v)) <= 1e-12
        assert abs(bb.inner_product(u, v) - oracle) <= 1e-14

    def test_conjugate_symmetry(self):
        g = bb.make_grid(1, [4], 0.25)
        u = random_field(g, 1, complex_values=True)
        v = random_field(g, 2, complex_values=True)
        assert bb.inner_product(u, v) == pytest.approx(
            np.conj(bb.inner_product(v, u)), rel=1e-15
        )

    def test_grid_mismatch(self):
        u = bb.GridField(bb.make_grid(1, [4], 0.5), np.ones(7))
        v = bb.GridField(bb.make_grid(1, [4], 0.25), np.ones(15))
        with pytest.raises(ValueError, match="different grids"):
            bb.inner_product(u, v)


class TestStencil:
    def test_hat_function(self):
        g = bb.make_grid(1, [4], 1.0)
        out = bb.stencil_apply(g, bb.GridField(g, np.array([0.0, 1.0, 0.0])))
        np.testing.assert_allclose(out.values, [-1.0, 2.0, -1.0])

    def test_quadratic_exactness(self):
        g = bb.make_grid(1, [4], 0.25)
        L = 4.0
        u = bb.sample_function(g, lambda x: (L / 2 - x) * (L / 2 + x) / 2)
        out = bb.stencil_apply(g, u)
        np.testing.assert_allclose(out.values, np.ones(g.total), atol=1e-13)

    def test_lowest_mode_eigenvalue_vs_dense(self):
        g = bb.make_grid(1, [4], 0.25)
        L, h = 4.0, 0.25
        u = bb.sample_function(g, lambda x: np.sin(np.pi * (x + L / 2) / L))
        lam1 = (4 / h**2) * np.sin(np.pi * h / (2 * L)) ** 2
        out = bb.stencil_apply(g, u)
        np.testing.assert_allclose(out.values, lam1 * u.values, rtol=1e-12)
        # brute-force dense application agrees
        A = dense_stencil_matrix(g)
        np.testing.assert_allclose(A @ u.values, out.values, rtol=1e-13, atol=1e-14)

    def test_self_adjoint(self, grid_2d):
        u = random_field(grid_2d, 3)
        v = random_field(grid_2d, 4)
        lu = bb.stencil_apply(grid_2d, u)
        lv = bb.stencil_apply(grid_2d, v)
        lhs = bb.inner_product(lu, v)
        rhs = bb.inner_product(u, lv)
        norm_u, norm_v = (np.sqrt(grid_2d.weight) * np.linalg.norm(w.values) for w in (u, v))
        assert abs(lhs - rhs) <= 1e-12 * norm_u * norm_v


def sine_matrix(n):
    """Orthonormal DST-I matrix sqrt(2/(n+1)) sin(pi j k/(n+1)), j, k = 1..n."""
    j = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(j, j) / (n + 1))


class TestSineTransform:
    @pytest.mark.parametrize("dim,lengths,h", [
        (1, [2], 1.0), (1, [3], 1.0), (1, [1], 0.25),
        (2, [2, 3], 1.0), (2, [1, 0.75], 0.25), (2, [2, 4], 0.5),
    ], ids=["n1", "n2", "n3", "1x2", "3x2", "3x7"])
    def test_matches_explicit_sine_matrices(self, dim, lengths, h):
        g = bb.make_grid(dim, lengths, h)
        S = [sine_matrix(n) for n in g.counts]

        def explicit(vals):
            a = S[0] @ vals.reshape(g.counts)
            if dim == 2:
                a = a @ S[1].T
            return a.ravel() * h ** (dim / 2)

        re, im = random_field(g, 9).values, random_field(g, 10).values
        real = bb.sine_transform(g, bb.GridField(g, re)).values
        assert real.dtype == np.float64
        assert np.abs(real - explicit(re)).max() <= 1e-13
        inverse = bb.sine_transform(g, bb.GridField(g, re), "inverse").values
        assert np.abs(inverse - explicit(re) / h**dim).max() <= 1e-13 * h**-dim
        zero_im = bb.sine_transform(g, bb.GridField(g, re + 0j)).values
        assert zero_im.dtype == np.complex128
        assert np.all(zero_im.imag == 0) and np.array_equal(zero_im.real, real)
        full = bb.sine_transform(g, bb.GridField(g, re + 1j * im)).values
        imag = bb.sine_transform(g, bb.GridField(g, im)).values
        assert np.array_equal(full, real + 1j * imag)
        assert np.abs(full - explicit(re + 1j * im)).max() <= 1e-13

    def test_round_trip(self, grid_2d):
        u = random_field(grid_2d, 5)
        c = bb.sine_transform(grid_2d, u, "forward")
        back = bb.sine_transform(grid_2d, c, "inverse")
        assert np.abs(back.values - u.values).max() <= 1e-12

    def test_single_mode_one_hot(self):
        g = bb.make_grid(1, [4], 0.25)
        L = 4.0
        k = 3
        u = bb.sample_function(g, lambda x: np.sin(k * np.pi * (x + L / 2) / L))
        c = bb.sine_transform(g, u, "forward").values
        assert np.abs(c[np.arange(g.total) != k - 1]).max() <= 1e-13 * abs(c[k - 1])

    def test_parseval(self, grid_2d):
        u = random_field(grid_2d, 6, complex_values=True)
        c = bb.sine_transform(grid_2d, u, "forward")
        norm_u = np.sqrt(grid_2d.weight) * np.linalg.norm(u.values)  # sqrt(h^d sum |u|^2)
        assert np.linalg.norm(c.values) == pytest.approx(norm_u, rel=1e-13)

    def test_stencil_via_transform(self, grid_2d):
        u = random_field(grid_2d, 7)
        lam = bb.dirichlet_eigenvalues(grid_2d)
        c = bb.sine_transform(grid_2d, u, "forward")
        via = bb.sine_transform(grid_2d, bb.GridField(grid_2d, lam * c.values), "inverse")
        direct = bb.stencil_apply(grid_2d, u)
        scale = np.abs(direct.values).max()
        assert np.abs(via.values - direct.values).max() <= 1e-11 * scale

    @pytest.mark.parametrize("L", [16, 32])
    def test_parity_sectors_are_exact_zeros(self, L):
        """An x-odd, y-even field has exactly 0.0, not roundoff, on every
        coefficient of the other three parity sectors (sine mode k is even
        about the centre for odd k): ``phi_operator._reached`` keeps a Lanczos
        recursion in one sector only because of these zeros."""
        g = bb.make_grid(2, [L, L], 0.125)
        f = bb.sample_function(g, lambda x, y: x * np.exp(-x**2) * (1 + y**2) * np.exp(-y**2 / 4))
        c = bb.sine_transform(g, f).values.reshape(g.counts)
        odd_k = np.arange(1, g.counts[0] + 1) % 2 == 1
        sector = ~odd_k[:, None] & odd_k[None, :]
        assert np.all(c[~sector] == 0.0)
        assert np.count_nonzero(c[sector]) >= 0.9 * sector.sum()

    def test_bad_direction(self, grid_1d_small):
        u = random_field(grid_1d_small, 8)
        with pytest.raises(ValueError, match="direction"):
            bb.sine_transform(grid_1d_small, u, "sideways")


class TestDirichletSpectrum:
    @pytest.mark.parametrize("dim,lengths,h", [(1, [4], 1 / 16), (2, [4, 4], 0.5)])
    def test_fd_matches_dense_eigensolve(self, dim, lengths, h):
        g = bb.make_grid(dim, lengths, h)
        assert g.total <= 64
        A = dense_stencil_matrix(g)
        brute = np.sort(np.linalg.eigvalsh(A))
        lam = np.sort(bb.dirichlet_eigenvalues(g))
        np.testing.assert_allclose(lam, brute, rtol=1e-10)

    def test_fd_mode_identity(self):
        g = bb.make_grid(1, [4], 0.125)
        L = 4.0
        lam = bb.dirichlet_eigenvalues(g)
        for k in (1, 5, 17):
            u = bb.sample_function(g, lambda x: np.sin(k * np.pi * (x + L / 2) / L))
            out = bb.stencil_apply(g, u)
            np.testing.assert_allclose(out.values, lam[k - 1] * u.values, rtol=1e-12)

    def test_sorted_and_positive(self):
        g = bb.make_grid(2, [4, 6], 0.5)
        lam = np.sort(bb.dirichlet_eigenvalues(g))
        assert lam[0] > 0
        assert np.all(np.diff(lam) >= 0)


class TestBoundaryTrace:
    def test_affine_exact(self):
        g = bb.make_grid(1, [4], 0.25)
        u = bb.sample_function(g, lambda x: 2 + x)
        val, der = bb.boundary_trace_1d(g, u, "right")
        assert val == pytest.approx(4.0, abs=1e-13)
        assert der == pytest.approx(1.0, abs=1e-13)

    def test_quadratic_exact_left(self):
        g = bb.make_grid(1, [4], 0.25)
        u = bb.sample_function(g, lambda x: x**2)
        val, der = bb.boundary_trace_1d(g, u, "left")
        assert val == pytest.approx(4.0, abs=1e-12)
        # outward at the left boundary is -d/dx, so -(-L) = +L = 4
        assert der == pytest.approx(4.0, abs=1e-12)

    def test_sine_refinement_order(self):
        L = 4.0
        errs = []
        for h in (0.125, 0.0625, 0.03125):
            g = bb.make_grid(1, [L], h)
            u = bb.sample_function(g, lambda x: np.sin(np.pi * (x + L / 2) / L))
            _, der = bb.boundary_trace_1d(g, u, "right")
            errs.append(abs(der - (-np.pi / L)))
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        assert min(ratios) >= 3.5  # second order

    def test_requires_1d(self, grid_2d):
        u = random_field(grid_2d, 9)
        with pytest.raises(ValueError, match="1d"):
            bb.boundary_trace_1d(grid_2d, u, "left")


def test_quadrature_consistency_order():
    """Weighted sums of sampled bumps converge to the continuum integral with
    order >= 2 (the continuum value comes from the trapezoid oracle)."""
    f = ct.Bump(center=(0.0,), halfwidth=(0.75,))
    exact = ct.overlap_integral(f, (f,), 8192)[0].real
    errs = []
    for h in (0.5, 0.25, 0.125):
        g = bb.make_grid(1, [4], h)
        fd = bb.sample_function(g, lambda x: ct.evaluate(f, x))
        errs.append(abs(bb.inner_product(fd, fd).real - exact))
    assert errs[0] / errs[1] >= 4.0
    assert errs[1] / errs[2] >= 4.0
