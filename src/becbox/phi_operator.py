"""The modified box Laplacian assembled through its explicitly known inverse.

The operator never exists as a matrix of its own: its inverse is the Dirichlet
Green operator plus a rank-K update by the sampled harmonic columns,

    A^-1 = G + h^d * sum_k |v_k><v_k|,

which in the orthonormal sine basis is diagonal(1/lambda) plus a rank-K
congruence of the transformed columns.  One rule, ``_negligible``, says which
entries count as zero: those of a column that perturb its rank-one term by no
more than a dense eigensolver's backward error, and those of a vector within
roundoff of its norm.  Columns that share no other sine coefficient make that
matrix block diagonal: at build the operator splits the coefficients into
column components (columns linked by shared rows, with the rows they touch)
and free rows, which no column touches and which are eigenvectors as they
stand.  Every operator eigendecomposes a component without assembling it, the
first time something needs it, as chained rank-one modifications: each stage
adds one column, deflation by the same rule leaves every mode its column does
not reach as an eigenpair of its own, and the block the column couples is
solved through its secular equation (the operator's eigenvalues, ascending,
are 1/mu: ``PhiOperator.eigenvalues``).  The backend is the rule a two-point
readout is read with, and nothing else: one quadrature rule per start vector,
the eigenpairs of the components it reaches (dense) or a Lanczos Gauss rule
(lanczos), and every spectral function of the readout is read off that rule.
A Lanczos recursion runs only on the sine coefficients its start vector
reaches, read off the same partition (see ``lanczos_quadratic_form``).  All
inner products, normalizations and orthogonalizations use the h^d-weighted
inner product, which in sine coefficients is the plain dot product.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .continuum import HypothesisError
from .harmonics import HarmonicFamily, sample_family
from .lattice import (
    Grid,
    GridField,
    dirichlet_eigenvalues,
    sine_transform,
)

__all__ = [
    "Bose",
    "BoseRegular",
    "ShiftedInverse",
    "CondensateBasis",
    "PhiOperator",
    "TwoPointLhs",
    "LanczosResult",
    "DENSE_LIMIT",
    "RANK_RTOL",
    "build_condensate_basis",
    "build_phi_operator",
    "eigendecompose_symmetric",
    "apply_inverse",
    "shifted_solve",
    "quadratic_form",
    "two_point_lhs",
    "lanczos_quadratic_form",
]

DENSE_LIMIT = 4096
RANK_RTOL = 1e-10
_EPS = np.finfo(float).eps

logger = logging.getLogger(__name__)


# --- spectral functions --------------------------------------------------------


@dataclass(frozen=True)
class Bose:
    """x -> 1/(e^(beta x) - 1), the Bose occupation at inverse temperature beta."""

    beta: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        t = self.beta * np.asarray(x, dtype=float)
        out = np.zeros_like(t)
        mod = t < 700.0
        out[mod] = 1.0 / np.expm1(t[mod])
        return out


@dataclass(frozen=True)
class BoseRegular:
    """x -> 1/(e^(beta x) - 1) - 1/(beta x), bounded and continuous on [0, inf).

    The value tends to -1/2 at 0 and to 0 at infinity; small arguments use the
    Bernoulli series to avoid the 1/t - 1/t cancellation.
    """

    beta: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        t = self.beta * np.asarray(x, dtype=float)
        # expm1 overflows to inf and 1/inf is 0; t = 0 gives inf - inf, overwritten below
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            out = 1.0 / np.expm1(t) - 1.0 / t
        small = t < 0.5
        if small.any():
            ts = t[small]
            out[small] = (
                -0.5
                + ts / 12.0
                - ts**3 / 720.0
                + ts**5 / 30240.0
                - ts**7 / 1209600.0
                + ts**9 / 47900160.0
                - ts**11 * 5.284190138687493e-10
                + ts**13 * 1.3382536530684679e-11
            )
        return out


@dataclass(frozen=True)
class ShiftedInverse:
    """x -> 1/(x - z) for a spectral parameter z <= 0 (at z = 0, 1/x on the
    positive spectrum)."""

    z: float

    def __post_init__(self):
        if not self.z <= 0:
            raise ValueError("shift z must be negative or zero")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return 1.0 / (np.asarray(x, dtype=float) - self.z)


# --- assembly -------------------------------------------------------------------


@dataclass
class CondensateBasis:
    """The sampled harmonic columns, ``col_hat`` (their sine coefficients, an
    N x K matrix C): the one form of the rank-K update C C^H.

    ``rank`` is the numerical rank of the columns scaled to unit norm (Gram
    eigenvalues above RANK_RTOL of the largest), so a spread of column norms
    is not rank loss; a column that vanishes on the grid counts as deflated.
    Deflated families are kept, never rejected.  A Gram entry that overflows
    is a HypothesisError.
    """

    col_hat: np.ndarray
    rank: int

    @property
    def deflated(self) -> bool:
        return self.rank < self.col_hat.shape[1]


def build_condensate_basis(grid: Grid, columns: list[GridField]) -> CondensateBasis:
    """Transform the columns to sine coefficients and take their rank from
    the Gram matrix col_hat^H col_hat, the weighted pairing of the fields."""
    if not columns:
        return CondensateBasis(col_hat=np.zeros((grid.total, 0)), rank=0)
    col_hat = np.stack([sine_transform(grid, c, "forward").values for c in columns], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = col_hat.conj().T @ col_hat
    if not np.isfinite(gram).all():
        k = int(np.argmin(np.isfinite(gram).all(axis=0)))
        raise HypothesisError(f"harmonic column {k} is not finite on the grid: its Gram "
                              "entries overflow")
    norms = np.sqrt(gram.diagonal().real)
    kept = norms > 0  # a vanishing column adds nothing to the rank
    scale = 1.0 / norms[kept]  # finite: a nonzero norm is at least 2e-162
    g = np.linalg.eigvalsh(scale[:, None] * gram[np.ix_(kept, kept)] * scale)
    return CondensateBasis(col_hat=col_hat, rank=int(np.sum(g > RANK_RTOL * g.max(initial=0.0))))


@dataclass(frozen=True)
class _Stage:
    """Eigenvectors of diag(d) + c c^H, for one column c and d ascending
    wherever c is nonzero, in factored form: one stage of a component's chain.

    Each cluster of equal d, a lone entry included, is rotated so that one of
    its entries of c survives, real and positive (``rotations``: per cluster
    size, the stacked positions and unitaries Q).  The ``active`` positions
    left with a c part then take the real eigenvectors W of their block,
    held as the generators ``vectors`` = (d, origin, tau, zhat, norm) of
    ``_secular_eigh`` and applied ``_CHUNK`` at a time; every other position
    is an eigenvector as it stands.  ``order`` sorts the eigenvalues ascending.
    """

    rotations: tuple
    active: np.ndarray
    vectors: tuple
    order: np.ndarray

    def _dtype(self, x: np.ndarray) -> np.dtype:
        return np.result_type(x, float, *(Q for _, Q in self.rotations))

    def _cauchy_blocks(self):
        """Slices k and rows k of R, R_ki = 1 / ((d_i - origin_k) - tau_k) =
        W_ik norm_k / zhat_i, in one reused buffer."""
        d, origin, tau = self.vectors[:3]
        work = np.empty((min(_CHUNK, len(d)), len(d)))
        for start in range(0, len(d), _CHUNK):
            k = slice(start, start + _CHUNK)
            yield k, _cauchy(d, origin[k], tau[k], work)

    def project(self, y: np.ndarray) -> np.ndarray:
        shape, y = y.shape, y.reshape(len(y), -1).astype(self._dtype(y))
        for rows, Q in self.rotations:
            y[rows] = np.einsum("cij,ci...->cj...", Q.conj(), y[rows])
        zhat, norm = self.vectors[3:]
        x = zhat[:, None] * y[self.active]
        for k, R in self._cauchy_blocks():
            y[self.active[k]] = (R @ x) / norm[k, None]
        return y[self.order].reshape(shape)

    def unproject(self, a: np.ndarray) -> np.ndarray:
        shape, a = a.shape, a.reshape(len(a), -1)
        y = np.empty(a.shape, dtype=self._dtype(a))
        y[self.order] = a
        zhat, norm = self.vectors[3:]
        x = y[self.active] / norm[:, None]
        out = np.zeros_like(x)
        for k, R in self._cauchy_blocks():
            out += R.T @ x[k]
        y[self.active] = zhat[:, None] * out
        for rows, Q in self.rotations:
            y[rows] = np.einsum("cij,cj...->ci...", Q, y[rows])
        return y.reshape(shape)


@dataclass(frozen=True)
class _Chain:
    """A^-1 on the sine coefficients ``rows`` of one column component: its
    ascending eigenvalues ``mu`` and the stages of ``_deflated_eigh`` that
    hold its eigenvectors.  The free rows make a chain of no stage, each row
    an eigenvector with its own d_i, in row order."""

    rows: np.ndarray
    mu: np.ndarray
    stages: tuple[_Stage, ...]

    def project(self, chat: np.ndarray) -> np.ndarray:
        for stage in self.stages:
            chat = stage.project(chat)
        return chat

    def unproject(self, a: np.ndarray) -> np.ndarray:
        for stage in reversed(self.stages):
            a = stage.unproject(a)
        return a


def _negligible(c: np.ndarray, dmax: float) -> np.ndarray:
    """The entries of a column c that diag(d) + c c^H, max d = dmax, drops:
    |c_i| ||c|| <= eps max(dmax, ||c||^2), a perturbation no larger than a
    dense eigensolver's backward error for that matrix.  With dmax = 0 these
    are a vector's entries within roundoff of its norm, |v_i| <= eps ||v||
    (of a block, per column)."""
    norm = np.linalg.norm(c, axis=0)
    scaled = np.abs(c)
    scaled *= norm
    return scaled <= _EPS * np.maximum(dmax, norm**2)


def _components(C: np.ndarray, dmax: float) -> tuple[np.ndarray, np.ndarray]:
    """The column components of C, per row and per column: columns that share
    a row, directly or through a chain of columns, form one component
    (labelled by one of its columns), and its rows are its columns' rows,
    the entries ``_negligible`` keeps against the largest d, ``dmax``.  A row
    of no column is free (-1), and so is a column with no row.  A^-1 =
    diag(d) + C C^H is block diagonal over the components and the free rows,
    up to the stages' backward error.  Column k joins every component it
    shares a row with, one column and one row mask at a time."""
    K = C.shape[1]
    rows = np.full(len(C), -1, dtype=np.min_scalar_type(-K - 1))
    columns = np.full(K, -1)
    for k in range(K):
        kept = ~_negligible(C[:, k], dmax)
        for label in _touched(rows, kept):
            rows[rows == label] = k
            columns[columns == label] = k
        rows[kept] = k
        columns[k] = k if kept.any() else -1
    return rows, columns


def _touched(components: np.ndarray, rows: np.ndarray) -> list[int]:
    """The labels, ascending, of the column components that ``rows`` (a mask)
    lie in; np.unique would load numpy.ma."""
    return np.flatnonzero(np.bincount(components[rows] + 1, minlength=1)[1:]).tolist()


def _reached(v: np.ndarray, components: np.ndarray) -> np.ndarray:
    """The sine coefficients that A^-1 can carry v to: v's entries above the
    roundoff of its norm (``_negligible``) and every row of each column
    component that one of them lies in."""
    reached = ~_negligible(v, 0.0)
    for k in _touched(components, reached):
        reached |= components == k
    return reached


@dataclass
class PhiOperator:
    """Discrete modified Laplacian held through its inverse.

    ``lam`` is the stencil Dirichlet spectrum in coefficient layout, and
    ``components`` labels each sine coefficient with its column component,
    -1 for a free row (``column_components`` labels the columns; see
    ``_components``).  A component is solved the first time something needs
    it (``_chain``) and kept: a dense readout solves only the components its
    vectors reach.  ``eigenvalues`` (of -Delta_Phi, ascending), ``project``
    and ``unproject`` (aligned with them) and ``eigenbasis`` (every
    component's chain, then the free rows') assemble all of them, whatever
    the backend: ``backend`` only picks the rule of a two-point readout
    (``_bilinear_forms``).
    """

    grid: Grid
    family: HarmonicFamily
    backend: str
    basis: CondensateBasis
    lam: np.ndarray
    components: np.ndarray
    column_components: np.ndarray
    _chains: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _chain(self, k: int) -> _Chain:
        """Component k's chain (k = -1: the free rows), solved on first use."""
        if k not in self._chains:
            rows = np.flatnonzero(self.components == k)
            d = 1.0 / self.lam[rows]
            if k < 0:
                self._chains[k] = _Chain(rows, d, ())
            else:
                C = self.basis.col_hat[rows][:, self.column_components == k]
                self._chains[k] = _Chain(rows, *_deflated_eigh(d, C))
        return self._chains[k]

    @property
    def eigenbasis(self) -> tuple[_Chain, ...]:
        """Every component's chain, by label, then the free rows'."""
        labels = sorted(set(self.column_components.tolist()) - {-1})
        return tuple(self._chain(k) for k in [*labels, -1])

    @cached_property
    def _assembly(self) -> tuple[np.ndarray, np.ndarray]:
        """Every chain's operator eigenvalues 1/mu, ascending, and the order
        that sorts them from the chains' concatenation."""
        nu = 1.0 / np.concatenate([chain.mu for chain in self.eigenbasis])
        order = np.argsort(nu, kind="stable")
        return nu[order], order

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of -Delta_Phi, ascending: 1/mu of the chains, whose
        Rayleigh quotients mu are accurate relative to each mu."""
        return self._assembly[0]

    def project(self, chat: np.ndarray) -> np.ndarray:
        """V^H chat: sine coefficients (along axis 0) to eigenvector
        coefficients aligned with ``eigenvalues``."""
        return np.concatenate([chain.project(chat[chain.rows])
                               for chain in self.eigenbasis])[self._assembly[1]]

    def unproject(self, a: np.ndarray) -> np.ndarray:
        """V a: eigenvector coefficients aligned with ``eigenvalues`` (along
        axis 0) to sine coefficients."""
        chains = self.eigenbasis
        y = np.empty_like(a)  # the chains' concatenation
        y[self._assembly[1]] = a
        cuts = np.cumsum([len(chain.rows) for chain in chains])[:-1]
        pieces = [chain.unproject(x) for chain, x in zip(chains, np.split(y, cuts))]
        out = np.empty(a.shape, dtype=np.result_type(*pieces))
        for chain, x in zip(chains, pieces):
            out[chain.rows] = x
        return out

    def _hat(self, f: GridField) -> np.ndarray:
        if f.grid != self.grid:
            raise ValueError("field lives on a different grid")
        return sine_transform(self.grid, f, "forward").values

    def _unhat(self, chat: np.ndarray) -> GridField:
        return sine_transform(self.grid, GridField(self.grid, np.ascontiguousarray(chat)), "inverse")

    def inverse_matvec(self, chat: np.ndarray) -> np.ndarray:
        """A^-1 acting on sine coefficients."""
        return _inverse_matvec(self.lam, self.basis.col_hat, chat)


def _inverse_matvec(lam: np.ndarray, C: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A^-1 x = x / lam + C C^H x on sine coefficients."""
    return x / lam + C @ (C.T @ x.conj()).conj()  # C^H x as conj(C^T conj(x)): no copy of C


def eigendecompose_symmetric(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric (or Hermitian) dense matrix, ascending.

    Rejects inputs whose asymmetry exceeds 1e-12 relative to the largest
    entry.  Backed by LAPACK through numpy; the contract (residual and
    orthonormality at 1e-10) is what the tests pin down.
    """
    A = np.asarray(matrix)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    scale = float(np.abs(A).max()) if A.size else 0.0
    asym = float(np.abs(A - A.conj().T).max()) if A.size else 0.0
    if asym > 1e-12 * max(scale, 1e-300):
        raise ValueError(f"matrix is not symmetric: asymmetry {asym:.3e} vs scale {scale:.3e}")
    w, V = np.linalg.eigh(A)
    return w, V


_CHUNK = 64  # rows per pass of the secular solver and of W: n x 64 temporaries stay in cache
_SECULAR_STEPS = 100  # per chunk of roots; the middle way takes about 4, bisection about 60


def _cauchy(d, origin, tau, out):
    """1 / ((d_i - origin_k) - tau_k), row k per (origin_k, tau_k), in ``out``:
    1 / (d_i - mu_k) with the difference formed without cancellation."""
    r = np.add.outer(-origin, d, out=out[: len(origin)])
    r -= tau[:, None]
    return np.reciprocal(r, out=r)


def _secular_terms(d, z2, origin, tau, roots, work):
    """psi, phi and their derivatives at mu = origin + tau for the given
    (ascending, within one chunk) roots: the sums of z2_i / (d_i - mu) over the
    poles d_i at or below each root's interval and over those above, with d_i
    - mu formed as (d_i - origin) - tau.  Only the chunk's own columns differ
    from row to row in which sum they join.  ``work`` holds the two chunk x n
    temporaries, reused from call to call: fresh ones cost more in page faults
    than the sums themselves."""
    r = _cauchy(d, origin, tau, work[0])
    s, e = roots[0], roots[-1] + 1
    lower = np.arange(s, e) <= roots[:, None]
    sums = []
    for x in (r, np.multiply(r, r, out=work[1, : len(roots)])):
        window = x[:, s:e] * z2[s:e]
        sums += [x[:, :s] @ z2[:s] + np.sum(window, axis=1, where=lower),
                 x[:, e:] @ z2[e:] + np.sum(window, axis=1, where=~lower)]
    return sums


def _secular_eigh(d: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Eigenvalues and orthonormal eigenvectors W of diag(d) + z z^T for
    ascending, distinct d and a positive column z, by the secular equation;
    W as its generators (origin, tau, zhat, norm), W_ik = zhat_i / ((d_i -
    origin_k) - tau_k) / norm_k, and the eigenvalues as its Rayleigh quotients.

    Root j of 1 + sum_i z_i^2 / (d_i - mu) lies in (d_j, d_{j+1}), the last
    one in (d_n, d_n + |z|^2).  Each is held as the nearer pole ``origin``
    plus an offset ``tau``, so that every d_i - mu is formed without
    cancellation, and found by Li's middle-way rational iteration (psi and
    phi, the sums over the poles below and above the interval, each fitted by
    one pole), safeguarded by bisection of a bracket, until |f| <= eps (1 +
    |psi| + |phi|) or a step is below 4 ulp; a root still open after
    ``_SECULAR_STEPS`` steps is finished by bisection of its bracket.  The
    eigenvectors are zhat_i / (d_i - mu_k), normalized, where zhat is the
    column whose roots are exactly the computed ones (Gu & Eisenstat 1994),
    which keeps them orthogonal however close the roots are.  W is formed
    ``_CHUNK`` rows at a time for its norms and Rayleigh quotients, never whole.
    """
    n = len(d)
    z2 = z**2
    if n <= 1:  # W = 1: (d - d) - (-1) = 1
        return d + z2, (d.copy(), -np.ones(n), np.ones(n), np.ones(n))
    upper = np.r_[d[1:], d[-1] + z2.sum()]
    last = np.arange(n) == n - 1
    eps = np.finfo(float).eps
    origin = d.copy()
    # brackets for tau; the last one's width |z|^2 may be below the ulp of d_n
    lo, hi = np.zeros(n), np.r_[np.diff(d), z2.sum()]
    tau = hi / 2
    work = np.empty((2, min(_CHUNK, n), n))

    def secular(idx):  # f = 1 + psi + phi at tau[idx], brackets narrowed by its sign
        psi, phi, dpsi, dphi = _secular_terms(d, z2, origin[idx], tau[idx], idx, work)
        w = 1.0 + psi + phi
        lo[idx[w < 0]] = tau[idx[w < 0]]
        hi[idx[w > 0]] = tau[idx[w > 0]]
        return w, psi, phi, dpsi, dphi, ~(np.abs(w) <= eps * (1.0 + np.abs(psi) + np.abs(phi)))

    for start in range(0, n, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, n))
        for step in range(_SECULAR_STEPS):
            w, psi, phi, dpsi, dphi, keep = secular(idx)
            if step == 0:  # from the midpoint, move the origin to the pole on the root's side
                flip = idx[(w < 0) & ~last[idx]]
                gap = upper[flip] - d[flip]
                origin[flip] = upper[flip]
                for x in (tau, lo, hi):
                    x[flip] -= gap
            idx, w, psi, phi, dpsi, dphi = (x[keep] for x in (idx, w, psi, phi, dpsi, dphi))
            if not len(idx):
                break
            dlo = (d[idx] - origin[idx]) - tau[idx]
            dhi = (upper[idx] - origin[idx]) - tau[idx]
            with np.errstate(divide="ignore", invalid="ignore"):
                a = (dlo + dhi) * w - dlo * dhi * (dpsi + dphi)
                b = dlo * dhi * w
                cc = w - dlo * dpsi - dhi * dphi
                disc = np.sqrt(np.abs(a * a - 4.0 * b * cc))
                eta = np.where(a > 0, 2.0 * b / (a + disc), (a - disc) / (2.0 * cc))
                # the last interval has no pole above it: psi alone, fitted by one pole
                eta = np.where(last[idx], dlo + dlo**2 * dpsi / cc, eta)
            new = tau[idx] + eta
            wild = ~(new > lo[idx]) | ~(new < hi[idx])
            new[wild] = (lo[idx[wild]] + hi[idx[wild]]) / 2
            small = np.abs(new - tau[idx]) <= 4 * eps * np.abs(new)
            tau[idx] = new
            idx = idx[~small]
            if not len(idx):
                break
        while len(idx):  # bisection, until |f| is small or the bracket holds no float
            tau[idx] = (lo[idx] + hi[idx]) / 2
            shut = (tau[idx] == lo[idx]) | (tau[idx] == hi[idx])
            idx = idx[secular(idx)[-1] & ~shut]
    # Gu and Eisenstat's zhat_i^2 = prod_k (d_i - mu_k) / prod_(k != i) (d_i - d_k), taken
    # as a product of ratios in (0, 1): d_i - mu_k is paired with d_i - d_k below i, with
    # d_i - d_(k+1) from i on, and the last with -1
    zhat, norm2, dw2, zw = np.empty(n), np.zeros(n), np.zeros(n), np.zeros(n)
    for start in range(0, n, _CHUNK):
        i = np.arange(start, min(start + _CHUNK, n))
        block = np.subtract.outer(d[i], origin, out=work[1, : len(i)])
        block -= tau
        den = np.subtract.outer(d[i], np.r_[d[:start], d[start + 1 :], np.nan],
                                out=work[0, : len(i)])
        np.subtract(d[i, None], d[i], out=den[:, start : i[-1] + 1], where=i < i[:, None])
        den[:, -1] = -1.0
        zhat[i] = np.sqrt(np.prod(np.divide(block, den, out=den), axis=1))
        np.divide(zhat[i, None], block, out=block)  # rows i of W, times norm
        norm2 += np.einsum("ij,ij->j", block, block)
        dw2 += np.einsum("i,ij,ij->j", d[i], block, block)
        zw += z[i] @ block
    return (dw2 + zw**2) / norm2, (origin, tau, zhat, np.sqrt(norm2))


def _rank_one_stage(d: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, _Stage]:
    """Eigenpairs of diag(d) + c c^H, d ascending wherever c is nonzero:
    ascending eigenvalues and the stage that holds the eigenvectors.  The
    entries of c that ``_negligible`` names are dropped, and d values one
    roundoff apart, d_(i+1) - d_i <= eps d_(i+1), count as equal."""
    c = np.where(_negligible(c, d.max()), 0, c)
    active = np.flatnonzero(c)
    cluster = np.cumsum(np.r_[0, np.diff(d) > _EPS * d[1:]])[active]
    size = np.bincount(cluster)[cluster]  # active rows in each active row's cluster
    rotations = []
    for s in np.flatnonzero(np.bincount(size)):  # the sizes, ascending
        rows = active[size == s].reshape(-1, s)  # a cluster's active rows are contiguous
        # U^H c = sigma Vh on the first row, and zero below; with the phase Vh
        # moved into U, every rotated c is real and positive
        U, sigma, Vh = np.linalg.svd(c[rows][..., None])
        U[..., 0] *= Vh[:, :, 0]
        c[rows] = 0
        c[rows[:, 0]] = sigma[:, 0]
        rotations.append((rows, U))
    # one active row per cluster: the active d are ascending and distinct
    active = np.flatnonzero(c)
    mu = d.copy()
    mu[active], vectors = _secular_eigh(d[active], c[active].real)
    order = np.argsort(mu, kind="stable")
    return mu[order], _Stage(rotations=tuple(rotations), active=active,
                             vectors=(d[active], *vectors), order=order)


def _deflated_eigh(d: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, tuple[_Stage, ...]]:
    """Eigenpairs of diag(d) + C C^H as a chain of rank-one modifications.

    The rank-one modification method (Golub 1973; Bunch, Nielsen & Sorensen
    1978), applied once per column: a rank-K update is K rank-one updates
    (Arbenz, Gander & Golub 1988).  The chain starts with a stage of no
    column, which sorts d ascending; stage k then solves diag(mu) + c c^H,
    with mu the (ascending) eigenvalues of the stage before it and c column k
    projected through the stages before it, so no product of stages is ever
    formed.  Each stage sets its own zeros from its own c and d: it drops an
    entry with |c_i| ||c|| <= eps max(max d, ||c||^2), its backward error
    (``_negligible``), and counts d values one roundoff apart as equal, so a
    huge column merges no two poles of the bulk.  Columns go in ascending
    order of norm (diag(d) + C C^H is unchanged), so no huge column's outlier
    sets a smaller column's drop rule.  The operator calls this once
    per column component, on its rows and columns.  Rotating the entries of c
    in a cluster of equal d onto one keeps diag(d) and leaves one of them,
    real and positive.  Rows left without a c part are eigenpairs (d_i, e_i);
    the rest form one block, solved through its secular equation
    (``_secular_eigh``) in O(n^2) time and O(n) storage: its eigenvectors are
    kept as their generators and formed ``_CHUNK`` at a time where they act,
    so no stage holds or makes an n x n array.  The block's eigenvalues are
    then the Rayleigh quotients of its eigenvectors, sum_j d_j |w_j|^2 +
    |c^H w|^2: sums of positive terms, accurate relative to each eigenvalue,
    where a solver's own are accurate only to eps max mu.
    """
    N, order = len(d), np.argsort(np.linalg.norm(C, axis=0), kind="stable")
    mu, stages, C = d, [], np.c_[np.zeros(N), C[:, order]]
    while True:
        mu, stage = _rank_one_stage(mu, C[:, 0])
        stages.append(stage)
        if C.shape[1] == 1:
            break
        C = stage.project(C[:, 1:])  # every column still to come, at once
    logger.debug("dense build: N = %d, coupled rows per stage %s",
                 N, [len(stage.active) for stage in stages[1:]])
    return mu, tuple(stages)


def build_phi_operator(
    grid: Grid,
    family: HarmonicFamily,
    backend: str = "auto",
) -> PhiOperator:
    """Assemble the operator and partition its sine coefficients into column
    components; a component of the inverse is eigendecomposed when something
    first needs it.

    ``backend`` is the rule of the two-point readout (``_bilinear_forms``):
    "auto" picks dense for N <= DENSE_LIMIT and Lanczos above.
    """
    if backend not in ("auto", "dense", "lanczos"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "auto":
        backend = "dense" if grid.total <= DENSE_LIMIT else "lanczos"
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is the Gram's to report
        columns = sample_family(family, grid)
    basis = build_condensate_basis(grid, columns)
    if basis.deflated:
        logger.info(
            "family of %d columns deflated to numerical rank %d (threshold %g)",
            len(columns), basis.rank, RANK_RTOL,
        )
    lam = dirichlet_eigenvalues(grid)
    components, column_components = _components(basis.col_hat, 1.0 / lam.min())
    return PhiOperator(
        grid=grid, family=family, backend=backend, basis=basis, lam=lam,
        components=components, column_components=column_components,
    )


def apply_inverse(op: PhiOperator, f: GridField) -> GridField:
    """Apply A^-1 (Green operator plus rank-K update)."""
    return op._unhat(op.inverse_matvec(op._hat(f)))


def _resolvent(op: PhiOperator, x: np.ndarray, s: float) -> np.ndarray:
    """(s + A)^-1 on sine coefficients x (along axis 0), by the Krein formula

        (s + A)^-1 = (lam + s)^-1 + S C K^-1 C^H S,  S = lam / (lam + s),

    with K = I + s C^H S C (positive definite whatever the rank of C; 0 x 0
    for an empty family).  Every term is a sum of like signs: no difference
    cancels at a small s."""
    lam = op.lam.reshape((-1,) + (1,) * (x.ndim - 1))
    SC = (op.lam / (op.lam + s))[:, None] * op.basis.col_hat
    K = np.eye(SC.shape[1]) + s * (op.basis.col_hat.conj().T @ SC)
    # S is real: (SC)^H x = C^H S x
    return x / (lam + s) + SC @ np.linalg.solve(K, SC.conj().T @ x)


def shifted_solve(op: PhiOperator, f: GridField, shift: float = 1.0) -> GridField:
    """Apply (shift + A)^-1 without any eigendecomposition.

    The Krein formula of ``_resolvent``: the Dirichlet resolvent plus a rank-K
    term whose only solve is K x K, so it scales to Lanczos-sized grids."""
    if not shift > 0:
        raise ValueError("shift must be positive")
    return op._unhat(_resolvent(op, op._hat(f), shift))


# --- quadratic forms -------------------------------------------------------------


def _gauss_sum(Fs, nodes: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i conj(a_i) F(nodes_i) b_i for every F in Fs: a quadrature rule read
    off, for vectors a and b or, column by column, for blocks (a^H F b)."""
    aH = a.conj().T  # no copy of a real a
    return np.array([aH @ (F.evaluate(nodes) * b.T).T for F in Fs])


@dataclass(frozen=True)
class LanczosResult:
    """Outcome of a Lanczos quadrature: ``value`` holds one form per function,
    ``repeats`` the steps whose Gram-Schmidt pass cancelled and was repeated,
    ``size`` the number of sine coefficients the recursion ran in."""

    value: np.ndarray
    steps: int
    converged: bool
    breakdown: bool = False
    repeats: int = 0
    size: int = 0


_DGKS = 1 / np.sqrt(2)  # a pass that leaves less of ||w|| than this has cancelled


def lanczos_quadratic_form(
    op: PhiOperator,
    Fs,
    f: GridField | np.ndarray,
    steps: int = 200,
    tolerance: float = 1e-10,
) -> LanczosResult:
    """<f, F(-Delta_Phi) f> for every F in the tuple Fs by one Lanczos
    recursion on the inverse, started from f: a field, or its sine
    coefficients (as a readout holds them).

    Runs the weighted-inner-product Lanczos recursion on A^-1 with full
    reorthogonalization: after the three-term step, one classical
    Gram-Schmidt pass against every Lanczos vector, repeated only when it
    leaves less than 1/sqrt(2) of the vector's norm (Daniel, Gragg, Kaufman
    & Stewart 1976; ``repeats`` counts those steps).  Its Gauss rule, the Ritz
    values theta with weights ||f||^2 S[0, i]^2 from the tridiagonal
    eigenvectors, gives the form of each g(mu) = F(1/mu).  Convergence is
    declared when two successive step counts agree to ``tolerance`` relative
    for every F; a new Lanczos vector near zero against its own step's
    |alpha_j| + beta_(j-1), never a far Ritz value's (breakdown: f lay in an
    invariant subspace), returns the exact current values with a flag; a Ritz
    value that leaves the positive axis raises RuntimeError.

    The recursion runs only on the sine coefficients S that f reaches (see
    ``_reached``): f's coefficients above the roundoff of its norm and the
    rows of every column component one of them lies in.  For i outside S,
    (A^-1 x)_i = x_i / lam_i + sum_k C_ik (c_k^H x) vanishes whenever x does,
    up to the entries the columns' stages drop: x_i = 0, and a column that
    keeps row i keeps no row of S.  The Krylov space therefore lies in
    span{e_i : i in S}, and every value is that of the full recursion up to
    roundoff.  A centred, reflection-symmetric f and family keep it in one
    parity sector; when S is every coefficient the arrays are used as they are.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    v = op._hat(f) if isinstance(f, GridField) else f
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ValueError("starting field must be nonzero")
    lam, C = op.lam, op.basis.col_hat
    reached = _reached(v, op.components)
    if not reached.all():
        v, lam, C = v[reached], lam[reached], C[reached]
    # a complex family makes the Krylov vectors complex even from a real f
    Q = np.empty((steps, v.size), dtype=np.result_type(v, C))
    Q[0] = v / nrm
    alphas: list[float] = []
    betas: list[float] = []
    value = None
    repeats = 0
    converged = breakdown = False
    for j in range(steps):
        w = _inverse_matvec(lam, C, Q[j])
        if j > 0:
            w -= betas[j - 1] * Q[j - 1]
        alpha = float(np.vdot(Q[j], w).real)
        alphas.append(alpha)
        w -= alpha * Q[j]
        # one classical Gram-Schmidt pass; a second only if the first cancels (DGKS)
        Qj = Q[: j + 1]
        before = np.linalg.norm(w)
        w -= (Qj @ w.conj()).conj() @ Qj
        beta = float(np.linalg.norm(w))
        if beta < _DGKS * before:
            repeats += 1
            w -= (Qj @ w.conj()).conj() @ Qj
            beta = float(np.linalg.norm(w))
        theta, S = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        if theta.min() <= 0:
            raise RuntimeError("Ritz values left the positive axis: roundoff cost positivity")
        new_value = _gauss_sum(Fs, 1.0 / theta, nrm * S[0], nrm * S[0])
        converged = value is not None and bool(np.all(
            np.abs(new_value - value) <= tolerance * np.maximum(np.abs(new_value), 1e-300)))
        value = new_value
        if converged:
            break
        scale = abs(alpha) + (betas[-1] if betas else 0.0)
        if beta <= 1e-13 * max(scale, 1e-300):
            converged = breakdown = True
            break
        if j + 1 < steps:
            betas.append(beta)
            np.divide(w, beta, out=Q[j + 1])
    logger.debug("lanczos: N = %d, reached %d, steps %d", op.lam.size, v.size, j + 1)
    return LanczosResult(value=value, steps=j + 1, converged=converged, breakdown=breakdown,
                         repeats=repeats, size=v.size)


def _dense_forms(op: PhiOperator, Fs, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X^H F(-Delta_Phi) Y, shape (len(Fs), X columns, Y columns), for blocks
    X and Y of sine coefficients (a field per column; Y is X for quadratic
    forms), summed over the free rows and the column components that an entry
    of a column above its roundoff lies in: every other component adds
    roundoff at most, and is not solved."""
    values = 0.0
    reach = ~(_negligible(X, 0.0) & _negligible(Y, 0.0)).all(axis=1)
    for k in [*_touched(op.components, reach), -1]:
        chain = op._chain(k)
        if Y is X:
            a = b = chain.project(X[chain.rows])
        else:  # one pass over the stages for both
            a, b = np.split(chain.project(np.hstack([X[chain.rows], Y[chain.rows]])),
                            [X.shape[1]], axis=1)
        values = values + _gauss_sum(Fs, 1.0 / chain.mu, a, b)
    return values


def _bilinear_forms(op: PhiOperator, Fs, f: GridField, g: GridField | None):
    """``quadratic_form`` for every F in Fs, with the sine coefficients of f and g."""
    if f.grid != op.grid or (g is not None and g.grid != op.grid):
        raise ValueError("fields live on a different grid")
    same = g is None or g is f or np.array_equal(f.values, g.values)
    fhat = op._hat(f)
    ghat = fhat if same else op._hat(g)
    if op.backend == "dense":  # the block readout of one column each
        X = fhat[:, None]
        return _dense_forms(op, Fs, X, X if same else ghat[:, None])[:, 0, 0], fhat, ghat
    if same:
        terms = [(1.0, fhat)]
    elif np.result_type(fhat, ghat, op.basis.col_hat).kind == "c":  # complex pair or operator
        terms = [((-1j) ** k / 4.0, fhat + (1j**k) * ghat) for k in range(4)]
    else:
        terms = [(0.25, fhat + ghat), (-0.25, fhat - ghat)]
    values = np.zeros(len(Fs), dtype=complex)
    for c, start in terms:
        if not np.any(start):
            continue
        res = lanczos_quadratic_form(op, Fs, start)
        if not res.converged:
            raise RuntimeError(f"Lanczos did not converge in {res.steps} steps")
        values += c * res.value
    return values, fhat, ghat


def quadratic_form(op: PhiOperator, F, f: GridField, g: GridField | None = None) -> complex:
    """<f, F(-Delta_Phi) g> in the weighted inner product.

    Every function of one readout comes from one quadrature rule per start
    vector: with backend dense the eigenpairs with the projections of f and
    g; with backend lanczos the Gauss rule of one recursion per term of the
    polarization of the bilinear form into quadratic ones, raising
    RuntimeError rather than returning an unconverged value.  Conjugate
    symmetry result(f, g) = conj(result(g, f)) holds by construction.
    """
    return complex(_bilinear_forms(op, (F,), f, g)[0][0])


@dataclass(frozen=True)
class TwoPointLhs:
    """Finite-volume two-point value, both directly and through the split.

    ``direct`` applies the Bose function to the whole spectrum; ``split`` is
    the bounded-regular part plus beta^-1 times the explicit inverse pairing
    (Green term plus condensate overlaps).  The two must agree to roundoff.
    """

    direct: complex
    regular_term: complex
    green_term: complex
    condensate_term: complex

    @property
    def split(self) -> complex:
        return self.regular_term + self.green_term + self.condensate_term

    @property
    def split_agreement(self) -> float:
        denom = max(abs(self.direct), 1e-300)
        return abs(self.direct - self.split) / denom


def two_point_lhs(op: PhiOperator, beta: float, f: GridField, g: GridField | None = None) -> TwoPointLhs:
    """<f | (e^(-beta Delta_Phi) - 1)^-1 g> on the grid, with its term split.

    ``direct`` and ``regular_term`` come from the same quadrature rule, so
    their difference is the rule's own beta^-1 <f, A^-1 g>.
    """
    (direct, regular), fhat, ghat = _bilinear_forms(op, (Bose(beta), BoseRegular(beta)), f, g)
    green = complex(np.vdot(fhat, ghat / op.lam)) / beta
    C = op.basis.col_hat  # an empty family gives an empty pairing, 0
    cond = complex(np.vdot(C.conj().T @ fhat, C.conj().T @ ghat)) / beta
    return TwoPointLhs(direct=complex(direct), regular_term=complex(regular),
                       green_term=green, condensate_term=cond)
