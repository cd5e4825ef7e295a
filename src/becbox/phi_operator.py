"""The modified box Laplacian assembled through its explicitly known inverse.

The operator never exists as a matrix of its own: its inverse is the Dirichlet
Green operator plus a rank-K update by the sampled harmonic columns,

    A^-1 = G + h^d * sum_k |v_k><v_k|,

which in the orthonormal sine basis is diagonal(1/lambda) plus a rank-K
congruence of the transformed columns.  The dense backend eigendecomposes that
matrix without assembling it: exact deflation leaves every mode the update
does not reach as an eigenpair of its own, and only the blocks the columns
couple go to a dense eigensolver (operator eigenvalues are reported as 1/mu);
the Lanczos backend only ever applies it.  Either way a readout is one
quadrature rule per start vector (the eigenpairs, or a Lanczos Gauss rule),
and every spectral function of the readout is read off that rule.  All inner
products, normalizations and orthogonalizations use the h^d-weighted inner
product, which in sine coefficients is the plain dot product.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .harmonics import HarmonicFamily, sample_family
from .lattice import (
    Grid,
    GridField,
    dirichlet_eigenvalues,
    inner_product,
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
    "apply_forward",
    "shifted_solve",
    "quadratic_form",
    "two_point_lhs",
    "lanczos_quadratic_form",
]

DENSE_LIMIT = 4096
RANK_RTOL = 1e-10

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
        out = np.empty_like(t)
        small = t < 0.5
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
        tl = t[~small]
        with np.errstate(over="ignore"):
            e = np.expm1(tl)
        inv = np.where(np.isinf(e), 0.0, 1.0 / np.where(np.isinf(e), 1.0, e))
        out[~small] = inv - 1.0 / tl
        return out


@dataclass(frozen=True)
class ShiftedInverse:
    """x -> 1/(x - z) for a spectral parameter z < 0."""

    z: float

    def __post_init__(self):
        if not self.z < 0:
            raise ValueError("shift z must be negative")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return 1.0 / (np.asarray(x, dtype=float) - self.z)


# --- assembly -------------------------------------------------------------------


@dataclass
class CondensateBasis:
    """Sampled harmonic columns (``col_hat``, their sine coefficients) with an
    orthonormal basis of their span.

    ``weights`` maps columns to the orthonormal basis (basis = columns @
    weights in the weighted inner product); ``r_matrix`` represents the
    positive operator whose inverse, compressed to the span, is the rank-K
    column sum.  Rank-deficient families are deflated at relative threshold
    RANK_RTOL, never rejected.
    """

    col_hat: np.ndarray
    rank: int
    weights: np.ndarray
    basis_hat: np.ndarray
    r_matrix: np.ndarray

    @property
    def deflated(self) -> bool:
        return self.rank < self.col_hat.shape[1]


def build_condensate_basis(grid: Grid, columns: list[GridField]) -> CondensateBasis:
    N = grid.total
    K = len(columns)
    if K == 0:
        empty = np.zeros((N, 0))
        return CondensateBasis(
            col_hat=empty, rank=0, weights=np.zeros((0, 0)), basis_hat=empty,
            r_matrix=np.zeros((0, 0)),
        )
    col_hat = np.stack([sine_transform(grid, c, "forward").values for c in columns], axis=1)
    gram = np.empty((K, K), dtype=complex)
    for i in range(K):
        for j in range(K):
            gram[i, j] = inner_product(columns[i], columns[j])
    if np.all(gram.imag == 0):
        gram = gram.real
    g, U = np.linalg.eigh(gram)
    gmax = g[-1]
    if gmax <= 0:  # all columns vanish
        keep = np.array([], dtype=int)
    else:
        keep = np.nonzero(g > RANK_RTOL * gmax)[0][::-1]  # descending
    rank = len(keep)
    weights = U[:, keep] / np.sqrt(g[keep])
    basis_hat = col_hat @ weights
    r_matrix = np.diag(1.0 / g[keep])
    return CondensateBasis(
        col_hat=col_hat, rank=rank, weights=weights, basis_hat=basis_hat,
        r_matrix=r_matrix,
    )


@dataclass(frozen=True)
class _Eigenbasis:
    """Eigenvectors of diag(d) + C C^H in factored form, never as an N x N array.

    Coefficients are first put in descending-d order (``perm``), then each
    cluster of equal d is rotated so that at most K of its rows of C survive
    (``rotations``: per cluster size, the stacked positions and unitaries Q).
    A ``passive`` position then has no C part and is an eigenvector as it
    stands; the other positions fall into ``blocks`` (positions, eigenvectors)
    that no column couples to each other.  ``order`` sorts the eigenvalues of
    [passive, block 1, block 2, ...] ascending.
    """

    perm: np.ndarray
    rotations: tuple
    passive: np.ndarray
    blocks: tuple
    order: np.ndarray
    dtype: np.dtype


@dataclass
class PhiOperator:
    """Discrete modified Laplacian held through its inverse.

    ``lam`` is the stencil Dirichlet spectrum in coefficient layout; the dense
    backend also holds the eigenvalues ``mu`` (ascending) of the inverse in the
    sine basis, so operator eigenvalues are 1/mu, and its eigenvectors in
    factored form, read through ``project`` and ``unproject``.
    """

    grid: Grid
    family: HarmonicFamily
    mode: str
    backend: str
    basis: CondensateBasis
    lam: np.ndarray
    mu: np.ndarray | None
    eigenbasis: _Eigenbasis | None

    @property
    def operator_eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the modified Laplacian, ascending."""
        if self.mu is None:
            raise ValueError("operator eigenvalues need the dense backend")
        return np.sort(1.0 / self.mu)

    def _eigen(self) -> _Eigenbasis:
        if self.eigenbasis is None:
            raise ValueError("eigenvectors need the dense backend")
        return self.eigenbasis

    def project(self, chat: np.ndarray) -> np.ndarray:
        """V^H chat: sine coefficients (along axis 0) to eigenvector
        coefficients aligned with mu."""
        e = self._eigen()
        y = chat[e.perm].astype(np.result_type(chat, e.dtype))
        for rows, Q in e.rotations:
            y[rows] = np.einsum("cij,ci...->cj...", Q.conj(), y[rows])
        parts = [y[e.passive]] + [W.conj().T @ y[rows] for rows, W in e.blocks]
        return np.concatenate(parts)[e.order]

    def unproject(self, a: np.ndarray) -> np.ndarray:
        """V a: eigenvector coefficients aligned with mu (along axis 0) to sine
        coefficients."""
        e = self._eigen()
        raw = np.empty(a.shape, dtype=np.result_type(a, e.dtype))
        raw[e.order] = a
        y = np.empty_like(raw)
        y[e.passive] = raw[: len(e.passive)]
        start = len(e.passive)
        for rows, W in e.blocks:
            y[rows] = W @ raw[start : start + len(rows)]
            start += len(rows)
        for rows, Q in e.rotations:
            y[rows] = np.einsum("cij,cj...->ci...", Q, y[rows])
        chat = np.empty_like(y)
        chat[e.perm] = y
        return chat

    def _hat(self, f: GridField) -> np.ndarray:
        if f.grid != self.grid:
            raise ValueError("field lives on a different grid")
        return sine_transform(self.grid, f, "forward").values

    def _unhat(self, chat: np.ndarray) -> GridField:
        return sine_transform(self.grid, GridField(self.grid, np.ascontiguousarray(chat)), "inverse")

    def inverse_matvec(self, chat: np.ndarray) -> np.ndarray:
        """A^-1 acting on sine coefficients."""
        out = chat / self.lam
        C = self.basis.col_hat
        if C.shape[1]:
            out = out + C @ (C.conj().T @ chat)
        return out


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


def _deflated_eigh(d: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, _Eigenbasis]:
    """Eigenpairs of diag(d) + C C^H by exact deflation and per-block eigh.

    The deflation of the rank-one modification method (Golub 1973; Bunch,
    Nielsen & Sorensen 1978), with no secular equation.  An entry of C with
    |C_ik| ||C||_2 <= eps max(max d, ||C||_2^2) is dropped, a perturbation no
    larger than a dense eigensolver's backward error.  Rotating the rows of C
    in a cluster of equal d onto their left singular vectors keeps diag(d) as
    it is and leaves at most rank-many of them.  Rows left without a C part
    are eigenpairs (d_i, e_i); the rest split into blocks of rows that share a
    column, each given to the dense eigensolver.  A block's eigenvalues are
    then the Rayleigh quotients of its eigenvectors, sum_j d_j |w_j|^2 +
    |C^H w|^2: sums of positive terms, accurate relative to each eigenvalue,
    where the solver's own are accurate only to eps max mu.
    """
    N, K = C.shape
    # descending d grades each block downward, the order in which the dense
    # solver's reduction (from the top-left) loses the least accuracy
    perm = np.argsort(-d, kind="stable")
    ds = d[perm]
    Cs = C[perm]
    norm = float(np.linalg.norm(Cs, 2)) if K else 0.0
    if norm > 0:
        tol = np.finfo(float).eps * max(float(ds[0]), norm**2) / norm
        Cs[np.abs(Cs) <= tol] = 0
    active = np.flatnonzero(np.any(Cs != 0, axis=1))
    cluster = np.cumsum(np.r_[0, ds[1:] != ds[:-1]])[active]
    size = np.bincount(cluster)[cluster]  # active rows in each active row's cluster
    rotations = []
    for s in np.unique(size[size > 1]):
        rows = active[size == s].reshape(-1, s)  # a cluster's active rows are contiguous
        U, sigma, Vh = np.linalg.svd(Cs[rows])
        r = min(s, K)  # U^H C = diag(sigma) Vh on the first r rows, zero below
        Cs[rows] = 0
        Cs[rows[:, :r]] = sigma[..., None] * Vh[:, :r]
        rotations.append((rows, U))
    if rotations:
        Cs[np.abs(Cs) <= tol] = 0
        active = np.flatnonzero(np.any(Cs != 0, axis=1))
    passive = np.setdiff1d(np.arange(N), active)
    # columns sharing an active row belong to one block
    nonzero = Cs[active] != 0
    label = np.arange(K)
    for pattern in np.unique(nonzero, axis=0):
        joined = np.isin(label, label[pattern])
        label[joined] = label[joined].min()
    row_label = label[np.argmax(nonzero, axis=1)] if K else active
    blocks = []
    mu = [ds[passive]]
    for group in np.unique(row_label):
        rows = active[row_label == group]
        Cb = Cs[rows]
        update = Cb @ Cb.conj().T
        if np.iscomplexobj(update) and np.all(update.imag == 0):
            update = update.real
        w, W = eigendecompose_symmetric(np.diag(ds[rows]) + update)
        w = ds[rows] @ np.abs(W) ** 2 + np.sum(np.abs(Cb.conj().T @ W) ** 2, axis=0)
        blocks.append((rows, W))
        mu.append(w)
    logger.debug("dense build: N = %d, %d passive rows, coupled blocks of sizes %s",
                 N, len(passive), [len(rows) for rows, _ in blocks])
    mu = np.concatenate(mu)
    order = np.argsort(mu, kind="stable")
    dtype = np.result_type(float, *(Q for _, Q in rotations), *(W for _, W in blocks))
    return mu[order], _Eigenbasis(perm=perm, rotations=tuple(rotations), passive=passive,
                                  blocks=tuple(blocks), order=order, dtype=dtype)


def build_phi_operator(
    grid: Grid,
    family: HarmonicFamily,
    mode: str = "sampled",
    backend: str = "auto",
) -> PhiOperator:
    """Assemble the operator; dense backends eigendecompose the inverse.

    backend "auto" picks dense for N <= DENSE_LIMIT and Lanczos above.
    """
    if backend not in ("auto", "dense", "lanczos"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "auto":
        backend = "dense" if grid.total <= DENSE_LIMIT else "lanczos"
    columns = sample_family(family, grid, mode)
    basis = build_condensate_basis(grid, columns)
    if basis.deflated:
        logger.info(
            "family of %d columns deflated to numerical rank %d (threshold %g)",
            len(columns), basis.rank, RANK_RTOL,
        )
    lam = dirichlet_eigenvalues(grid)
    mu = eigenbasis = None
    if backend == "dense":
        mu, eigenbasis = _deflated_eigh(1.0 / lam, basis.col_hat)
    return PhiOperator(
        grid=grid, family=family, mode=mode, backend=backend, basis=basis,
        lam=lam, mu=mu, eigenbasis=eigenbasis,
    )


def apply_inverse(op: PhiOperator, f: GridField) -> GridField:
    """Apply A^-1 (Green operator plus rank-K update)."""
    return op._unhat(op.inverse_matvec(op._hat(f)))


def _solve_diag_plus_lowrank(d: np.ndarray, C: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (diag(d) + C C^H) x = b by the Woodbury identity."""
    bd = b / d
    if C.shape[1] == 0:
        return bd
    Cd = C / d[:, None]
    S = np.eye(C.shape[1], dtype=np.result_type(C.dtype, float)) + C.conj().T @ Cd
    return bd - Cd @ np.linalg.solve(S, C.conj().T @ bd)


def apply_forward(op: PhiOperator, f: GridField) -> GridField:
    """Apply the modified Laplacian itself, i.e. solve A^-1 x = f."""
    chat = op._hat(f)
    x = _solve_diag_plus_lowrank(1.0 / op.lam, op.basis.col_hat, chat)
    return op._unhat(x)


def shifted_solve(op: PhiOperator, f: GridField, shift: float = 1.0) -> GridField:
    """Apply (shift + A)^-1 without any eigendecomposition.

    Uses (s + A)^-1 = s^-1 (I - (I + s A^-1)^-1) with a Woodbury solve for the
    diagonal-plus-low-rank middle matrix, so it scales to Lanczos-sized grids.
    """
    if not shift > 0:
        raise ValueError("shift must be positive")
    chat = op._hat(f)
    d = 1.0 + shift / op.lam
    C = np.sqrt(shift) * op.basis.col_hat
    t = _solve_diag_plus_lowrank(d, C, chat)
    return op._unhat((chat - t) / shift)


# --- quadratic forms -------------------------------------------------------------


def _gauss_sum(Fs, nodes: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i conj(a_i) F(nodes_i) b_i for every F in Fs: a quadrature rule read off."""
    a = np.conj(a)
    return np.array([np.sum(a * F.evaluate(nodes) * b) for F in Fs])


@dataclass(frozen=True)
class LanczosResult:
    """Outcome of a Lanczos quadrature: ``value`` holds one form per function."""

    value: np.ndarray
    steps: int
    converged: bool
    breakdown: bool = False


def lanczos_quadratic_form(
    op: PhiOperator,
    Fs,
    f: GridField,
    steps: int = 200,
    tolerance: float = 1e-10,
) -> LanczosResult:
    """<f, F(-Delta_Phi) f> for every F in the tuple Fs by one Lanczos
    recursion on the inverse, started from f.

    Runs the weighted-inner-product Lanczos recursion on A^-1 with full
    (double Gram-Schmidt) reorthogonalization.  Its Gauss rule, the Ritz
    values theta with weights ||f||^2 S[0, i]^2 from the tridiagonal
    eigenvectors, gives the form of each g(mu) = F(1/mu).  Convergence is
    declared when two successive step counts agree to ``tolerance`` relative
    for every F; a near-zero new Lanczos vector (breakdown: f lay in an
    invariant subspace) returns the exact current values with a flag.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    v = op._hat(f)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ValueError("starting field must be nonzero")
    # a complex family makes the Krylov vectors complex even from a real f
    Q = np.empty((steps, v.size), dtype=np.result_type(v, op.basis.col_hat))
    Q[0] = v / nrm
    alphas: list[float] = []
    betas: list[float] = []
    value = None
    for j in range(steps):
        w = op.inverse_matvec(Q[j])
        if j > 0:
            w = w - betas[j - 1] * Q[j - 1]
        alpha = float(np.vdot(Q[j], w).real)
        alphas.append(alpha)
        w = w - alpha * Q[j]
        Qj = Q[: j + 1]
        w = w - (Qj @ w.conj()).conj() @ Qj
        w = w - (Qj @ w.conj()).conj() @ Qj
        theta, S = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        if theta.min() <= 0:
            raise RuntimeError("Ritz values left the positive axis; the inverse is not PD")
        new_value = _gauss_sum(Fs, 1.0 / theta, nrm * S[0], nrm * S[0])
        if value is not None and np.all(
            np.abs(new_value - value) <= tolerance * np.maximum(np.abs(new_value), 1e-300)
        ):
            return LanczosResult(value=new_value, steps=j + 1, converged=True)
        value = new_value
        beta = float(np.linalg.norm(w))
        scale = max(map(abs, alphas)) + (max(betas) if betas else 0.0)
        if beta <= 1e-13 * max(scale, 1e-300):
            return LanczosResult(value=new_value, steps=j + 1, converged=True, breakdown=True)
        if j + 1 < steps:
            betas.append(beta)
            Q[j + 1] = w / beta
    return LanczosResult(value=value, steps=steps, converged=False)


def _bilinear_forms(op: PhiOperator, Fs, f: GridField, g: GridField | None):
    """``quadratic_form`` for every F in Fs, with the sine coefficients of f and g."""
    if f.grid != op.grid or (g is not None and g.grid != op.grid):
        raise ValueError("fields live on a different grid")
    same = g is None or g is f or np.array_equal(f.values, g.values)
    fhat = op._hat(f)
    ghat = fhat if same else op._hat(g)
    if op.backend == "dense":
        a = op.project(fhat)
        b = a if same else op.project(ghat)
        return _gauss_sum(Fs, 1.0 / op.mu, a, b), fhat, ghat
    fv = f.values
    if same:
        terms = [(1.0, fv)]
    elif np.result_type(fv, g.values, op.basis.col_hat).kind == "c":  # complex pair or operator
        terms = [((-1j) ** k / 4.0, fv + (1j**k) * g.values) for k in range(4)]
    else:
        terms = [(0.25, fv + g.values), (-0.25, fv - g.values)]
    values = np.zeros(len(Fs), dtype=complex)
    for c, start in terms:
        if not np.any(start):
            continue
        res = lanczos_quadratic_form(op, Fs, GridField(op.grid, start))
        if not res.converged:
            raise RuntimeError(f"Lanczos did not converge in {res.steps} steps")
        values += c * res.value
    return values, fhat, ghat


def quadratic_form(op: PhiOperator, F, f: GridField, g: GridField | None = None) -> complex:
    """<f, F(-Delta_Phi) g> in the weighted inner product.

    Every function of one readout comes from one quadrature rule per start
    vector: on dense backends the eigenpairs with the projections of f and
    g; on the Lanczos backend the Gauss rule of one recursion per term of the
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
