"""Centered uniform grids and the discrete Dirichlet Laplacian.

Grids live on open boxes (-L_1/2, L_1/2) x ... x (-L_d/2, L_d/2) with uniform
spacing h and interior nodes only; the two boundary lattice points per axis are
implicit and carry zero Dirichlet data.  The weighted inner product
h^d * sum(conj(u) * v) is the discrete stand-in for the L^2 pairing, and the
orthonormal tensor sine basis diagonalizes the five/three-point stencil.

Node ordering is lexicographic by axis index (axis 0 slowest), so flattened
fields, transform layouts and CSV output are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "GridField",
    "make_grid",
    "dirichlet_eigenvalues",
    "sample_function",
    "inner_product",
    "sine_transform",
    "boundary_trace_1d",
]


@dataclass(frozen=True)
class Grid:
    """Interior nodes of a centered box with uniform spacing.

    Along axis i the nodes are x = -L_i/2 + m*h for m = 1..n_i with
    n_i = L_i/h - 1; the node set is symmetric under x -> -x.
    """

    dim: int
    lengths: tuple[float, ...]
    spacing: float
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        n = 1
        for c in self.counts:
            n *= c
        return n

    @property
    def weight(self) -> float:
        """Quadrature weight h^d of one node."""
        return self.spacing**self.dim

    def axis_nodes(self, axis: int) -> np.ndarray:
        L = self.lengths[axis]
        m = np.arange(1, self.counts[axis] + 1)
        return -L / 2 + m * self.spacing

    def meshes(self) -> tuple[np.ndarray, ...]:
        """Per-axis coordinate arrays of shape ``counts`` (indexing 'ij')."""
        axes = [self.axis_nodes(i) for i in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (total, dim), lexicographic order."""
        return np.stack([m.ravel() for m in self.meshes()], axis=-1)


@dataclass(frozen=True)
class GridField:
    """Values attached to the interior nodes of a grid (flat, lexicographic)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.grid.total,):
            raise ValueError(
                f"field has {self.values.shape} values, grid has {self.grid.total} nodes"
            )

    def reshaped(self) -> np.ndarray:
        return self.values.reshape(self.grid.counts)


def make_grid(dim: int, lengths, spacing: float) -> Grid:
    """Build a grid, rejecting box sides that are not integer multiples of h.

    Each L_i/h must be an integer >= 2 (so there is at least one interior
    node per axis).
    """
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    lengths = tuple(float(L) for L in np.atleast_1d(lengths))
    if len(lengths) != dim:
        raise ValueError(f"expected {dim} box lengths, got {len(lengths)}")
    if not spacing > 0:
        raise ValueError("spacing must be positive")
    counts = []
    for axis, L in enumerate(lengths):
        ratio = L / spacing
        m = round(ratio)
        if abs(ratio - m) > 1e-9 * max(1.0, abs(ratio)):
            raise ValueError(
                f"L/h not integer on axis {axis}: L={L}, h={spacing} (L/h={ratio})"
            )
        if m < 2:
            raise ValueError(f"L/h must be >= 2 on axis {axis}, got {m}")
        counts.append(m - 1)
    return Grid(dim=dim, lengths=lengths, spacing=float(spacing), counts=tuple(counts))


def sample_function(grid: Grid, fn) -> GridField:
    """Sample ``fn(*coords)`` at the nodes; fn must broadcast over arrays.  It
    gets open meshes (one axis array per coordinate, shaped to broadcast), so a
    sum of products of 1d factors makes no node-sized factor."""
    axes = [grid.axis_nodes(i) for i in range(grid.dim)]
    vals = np.asarray(fn(*np.meshgrid(*axes, indexing="ij", sparse=True)))
    if vals.shape != grid.counts:
        vals = np.broadcast_to(vals, grid.counts)
    return GridField(grid, np.ascontiguousarray(vals.ravel()))


def _check_same_grid(u: GridField, v: GridField) -> None:
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")


def inner_product(u: GridField, v: GridField) -> complex:
    """Weighted inner product h^d * sum(conj(u) * v), conjugate-linear in u."""
    _check_same_grid(u, v)
    return complex(u.grid.weight * np.vdot(u.values, v.values))


def sine_transform(grid: Grid, u: GridField, direction: str = "forward") -> GridField:
    """Orthonormal tensor sine transform.

    Forward maps node values to coefficients in the sine basis orthonormal
    under the weighted inner product; the plain 2-norm of the coefficients
    equals the weighted norm of the field (Parseval).  Inverse is the adjoint
    and exact round-trip partner.  DST-I with orthonormal scaling is an
    involution per axis, so both directions differ only by the h^(d/2) factor.
    """
    if u.grid != grid:
        raise ValueError("field does not live on this grid")
    a = u.reshaped()
    for ax in range(grid.dim):
        a = _dst1(a, ax)
    scale = grid.spacing ** (grid.dim / 2)
    if direction == "forward":
        out = a * scale
    elif direction == "inverse":
        out = a / scale
    else:
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    return GridField(grid, np.ascontiguousarray(out.ravel()))


def _dst1(a: np.ndarray, axis: int) -> np.ndarray:
    """Orthonormal DST-I along ``axis``: the real FFT of the odd extension [0, a, 0,
    -a reversed], complex input part by part so a zero imaginary part stays zero."""
    if np.iscomplexobj(a):
        return _dst1(a.real, axis) + 1j * _dst1(a.imag, axis)
    n = a.shape[axis]
    a = np.moveaxis(a, axis, -1)
    zero = np.zeros(a.shape[:-1] + (1,))
    spec = np.fft.rfft(np.concatenate([zero, a, zero, -a[..., ::-1]], axis=-1)).imag
    return np.moveaxis(-0.5 * np.sqrt(2.0 / (n + 1)) * spec[..., 1:n + 1], -1, axis)


def dirichlet_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues of the stencil Dirichlet Laplacian in coefficient layout.

    Per axis (4/h^2) sin^2(k pi h / (2 L)) for k = 1..n; the flattened tensor
    sum over axes is what the sine transform diagonalizes exactly.
    """
    h = grid.spacing
    lam = None
    for axis in range(grid.dim):
        k = np.arange(1, grid.counts[axis] + 1)
        a = (4.0 / h**2) * np.sin(k * np.pi * h / (2.0 * grid.lengths[axis])) ** 2
        lam = a if lam is None else lam[:, None] + a[None, :]
    return lam.ravel()


def boundary_trace_1d(grid: Grid, u: GridField) -> tuple[np.ndarray, np.ndarray]:
    """Second-order boundary values and outward derivatives at x = -L/2 and
    x = +L/2, left first, as two length-2 arrays.

    Each value extrapolates the quadratic through the three nodes nearest its
    endpoint; each derivative is the one-sided second-order difference oriented
    outward.  Both are exact on quadratics.
    """
    if grid.dim != 1:
        raise ValueError("boundary_trace_1d requires a 1d grid")
    if u.grid != grid:
        raise ValueError("field does not live on this grid")
    if grid.counts[0] < 3:
        raise ValueError("need at least 3 interior nodes for a second-order trace")
    v = u.values
    u1, u2, u3 = v[[0, -1]], v[[1, -2]], v[[2, -3]]  # nearest node first, per end
    return 3.0 * u1 - 3.0 * u2 + u3, (5.0 * u1 - 8.0 * u2 + 3.0 * u3) / (2.0 * grid.spacing)
