"""Structural checks of the modified Laplacian.

Identities that follow algebraically from the inverse-plus-rank-K definition
(Krein resolvent formula, the domain decomposition, eigenvalue ordering,
reduction to the Dirichlet case) are checked at near machine precision;
statements about boundary traces and derivatives (the boundary condition with
the Dirichlet-to-Neumann map, the quadratic-form identity) are discrete only
asymptotically and are checked by mesh-refinement ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import continuum
from .harmonics import HarmonicFamily, eval_harmonic, format_family
from .lattice import (
    Grid,
    GridField,
    _dst1,
    boundary_trace_1d,
    inner_product,
    sample_function,
)
from .phi_operator import (
    PhiOperator,
    ShiftedInverse,
    _resolvent,
    apply_inverse,
    build_phi_operator,
    two_point_lhs,
)

__all__ = [
    "CheckReport",
    "krein_identity_residual",
    "domain_decomposition_check",
    "dtn_apply_1d",
    "bc_r_matrix",
    "boundary_condition_residual",
    "quadratic_form_identity",
    "ordering_check",
    "dirichlet_reduction_check",
    "split_identity_check",
    "wick_cross_check",
]


@dataclass
class CheckReport:
    """One named check: residuals against tolerances plus run context."""

    name: str
    residuals: dict[str, float]
    tolerances: dict[str, float]
    context: dict = field(default_factory=dict)
    inconclusive: bool = False

    @property
    def passed(self) -> bool:
        """False when the check could not decide: undecided is not a pass."""
        return not self.inconclusive and all(
            self.residuals[k] <= self.tolerances[k] for k in self.tolerances
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residuals": self.residuals,
            "tolerances": self.tolerances,
            "pass": self.passed,
            "context": dict(self.context, inconclusive=self.inconclusive),
        }


def _resolvent_identity(name: str, op: PhiOperator, z: float, n_fields: int,
                        seed: int) -> CheckReport:
    """Relative residual of the Krein resolvent formula at z <= 0 on
    ``n_fields`` random sine-coefficient vectors drawn from ``seed``.

    The left side is ``ShiftedInverse(z)`` read off the eigenpairs of the
    modified operator, the right side the Dirichlet resolvent plus the
    finite-rank correction S C K_z^-1 C^H S that ``shifted_solve`` applies
    (``_resolvent``).  The formula is exact matrix algebra, so anything above
    roundoff indicates an assembly bug.
    """
    # one draw of every field (column-wise), the same stream as one draw per field
    x = np.random.default_rng(seed).standard_normal((n_fields, op.grid.total)).T
    lhs = op.unproject(ShiftedInverse(z).evaluate(op.eigenvalues)[:, None] * op.project(x))
    rhs = _resolvent(op, x, -z)
    nx = np.linalg.norm(x, axis=0)
    num = float(np.max(np.linalg.norm(lhs - rhs, axis=0) / nx))
    den = float(np.max(np.linalg.norm(lhs, axis=0) / nx))
    return CheckReport(
        name=name,
        residuals={"relative": num / den if den > 0 else 0.0},
        tolerances={"relative": 1e-10},
        context={"z": z, "rank": op.basis.rank, "N": op.grid.total,
                 "n_fields": n_fields, "seed": seed},
    )


def krein_identity_residual(
    op: PhiOperator, z: float, n_fields: int = 20, seed: int = 0
) -> CheckReport:
    """The Krein resolvent formula at a spectral parameter z < 0
    (``_resolvent_identity``)."""
    if not z < 0:
        raise ValueError(f"spectral parameter must be negative, got {z}")
    return _resolvent_identity("krein_identity", op, z, n_fields, seed)


def domain_decomposition_check(op: PhiOperator, n_fields: int = 20,
                               seed: int = 0) -> CheckReport:
    """The decomposition A^-1 = G + C C^H: every u = A^-1 w is a Dirichlet
    part G w plus the combination C C^H w of the columns, so psi = u - G w
    lies in their span with least-norm coordinates C^H w (R psi = P w).  It
    is the Krein formula at z = 0, where K = I and the right side is
    x / lam + C C^H x; the left side is read off the eigenpairs, so the two
    sides share no step (``_resolvent_identity``)."""
    return _resolvent_identity("domain_decomposition", op, 0.0, n_fields, seed)


def dtn_apply_1d(grid: Grid, boundary_values) -> tuple[complex, complex]:
    """Dirichlet-to-Neumann map on an interval: outward normal derivatives of
    the harmonic (affine) extension of the two endpoint values."""
    if grid.dim != 1:
        raise ValueError("dtn_apply_1d requires a 1d grid")
    u_left, u_right = boundary_values
    slope = (u_right - u_left) / grid.lengths[0]
    return (-slope, slope)


def _endpoint_values(op: PhiOperator) -> np.ndarray:
    """T, the 2 x K matrix of the columns' exact values at -L/2 and +L/2."""
    L = op.grid.lengths[0]
    return np.array([[eval_harmonic(spec, x) for spec in op.family.specs]
                     for x in (-L / 2, L / 2)], dtype=complex)


def bc_r_matrix(op: PhiOperator):
    """The boundary operator r on the trace space of the span, as a 2x2 matrix.

    <psi, R psi> = |a|^2 for the least-norm column coordinates a of psi, and
    a = P t for psi's trace t, P the pseudo-inverse of the columns' exact
    endpoint values T (2 x K, T[e, k] = phi_k at the end e = -L/2, +L/2),
    whenever T has the columns' rank: so r = P^H P, the matrix both trace
    checks read.  Returns None when it has not (degenerate case: the trace
    map is not injective on the span).
    """
    if op.grid.dim != 1:
        raise ValueError("bc_r_matrix requires a 1d grid")
    if op.basis.rank == 0:
        return None
    T = _endpoint_values(op)
    svals = np.linalg.svd(T, compute_uv=False)
    if np.sum(svals > 1e-10 * svals[0]) != op.basis.rank:
        return None
    P = np.linalg.pinv(T, rcond=1e-10)  # K x 2
    return P.conj().T @ P


def _boundary_map(grid: Grid, r, t: np.ndarray) -> np.ndarray:
    """B t = H t - r t, H the Dirichlet-to-Neumann map: the outward derivative
    the boundary condition asks of a trace t, and the pairing <t, B t> the
    quadratic form subtracts."""
    return np.array(dtn_apply_1d(grid, t)) - r @ t


def _source(grid: Grid) -> GridField:
    """w = sin(pi s) + sin(2 pi s), s = (x + L/2) / L: the two lowest Dirichlet
    modes, one of each parity, so A^-1 w reaches the even and the odd columns.
    It is the same continuum function at every refinement."""
    L = grid.lengths[0]
    s = (grid.axis_nodes(0) + L / 2) / L
    return GridField(grid, np.sin(np.pi * s) + np.sin(2 * np.pi * s))


def _bc_residual_once(op: PhiOperator, r) -> float:
    """The boundary condition on u = A^-1 w, w = ``_source``, with trace t,
    judged on range(T), T = ``_endpoint_values``: t lies in range(T), and
    T P (d_n u - B t) = 0, T P = T T^H r its projector (r = P^H P is the
    pseudo-inverse of T T^H).  Off range(T) d_n u is free: with
    m_e = <h_e, w>, h_e the affine function that is 1 at the end e and 0
    at the other, the Green part's outward derivative is -m and t = T T^H m,
    so d_n u - B t = -(I - T P) m.  With an empty family t must vanish."""
    t, dn = boundary_trace_1d(op.grid, apply_inverse(op, _source(op.grid)))
    if r is None:
        return float(np.max(np.abs(t)))
    T = _endpoint_values(op)
    proj = T @ T.conj().T @ r
    return float(np.max(np.abs(np.r_[t - proj @ t, proj @ (dn - _boundary_map(op.grid, r, t))])))


def _refinement_check(name: str, ops: list[PhiOperator], min_ratio: float,
                      residual, context: dict) -> CheckReport:
    """residual(op, r) on each operator of the ladder ``ops`` (one family on
    one box at halved spacings), with r = ``bc_r_matrix`` (None for an empty
    family); it must fall by ``min_ratio`` or more per halving.  A trace map
    of lower rank than the columns is inconclusive."""
    residuals = []
    for op in ops:
        r = bc_r_matrix(op)
        if op.basis.rank and r is None:
            return CheckReport(name=name, residuals={}, tolerances={},
                               context={**context, "reason": "degenerate trace space"},
                               inconclusive=True)
        residuals.append(float(residual(op, r)))
    ratios = [a / b for a, b in zip(residuals, residuals[1:])]
    shortfall = max(0.0, min_ratio - min(ratios)) if ratios else 0.0
    return CheckReport(
        name=name,
        residuals={"ratio_shortfall": shortfall},
        tolerances={"ratio_shortfall": 0.0},
        context={"levels": residuals, "ratios": ratios,
                 "empirical_orders": [float(np.log2(q)) for q in ratios], **context},
    )


def boundary_condition_residual(ops: list[PhiOperator]) -> CheckReport:
    """Residual of the boundary condition (on the range of the columns'
    traces, the outward derivative equals B t = H t - r t, and the trace t
    lies in that range) on u = A^-1 w of the fixed source w = ``_source``, on
    each operator of the ladder ``ops``: one family on one box at halved
    spacings, ``ops[0]`` the coarsest.

    The continuum statement holds exactly; the discrete residual must decay
    with ratio >= 1.5 per halving.  With an empty family the condition
    degenerates to the Dirichlet trace and the trace magnitude itself is
    tracked.  A rank-deficient trace map is reported as inconclusive.
    """
    if ops[0].grid.dim != 1:
        raise ValueError("boundary condition check requires a 1d grid")
    return _refinement_check("boundary_condition", ops, 1.5, _bc_residual_once,
                             {"family": format_family(ops[0].family)})


def _gradient_sum(values: np.ndarray, h: float, t_left: complex, t_right: complex) -> float:
    """Forward-difference Dirichlet energy with prescribed boundary values."""
    diffs = np.empty(len(values) + 1, dtype=complex)
    diffs[0] = values[0] - t_left
    diffs[1:-1] = values[1:] - values[:-1]
    diffs[-1] = t_right - values[-1]
    return float(np.sum(np.abs(diffs) ** 2) / h)


def _qform_residual_once(op: PhiOperator, r) -> float:
    grid = op.grid
    w = _source(grid)
    f = apply_inverse(op, w)
    lhs = inner_product(f, w).real
    h = grid.spacing
    if r is None:
        return abs(lhs - _gradient_sum(f.values, h, 0.0, 0.0)) / abs(lhs)
    t, _ = boundary_trace_1d(grid, f)
    form = _gradient_sum(f.values, h, *t) - float((t.conj() @ _boundary_map(grid, r, t)).real)
    return abs(lhs - form) / abs(lhs)


def quadratic_form_identity(ops: list[PhiOperator]) -> CheckReport:
    """Compare <f, A f> with the boundary-corrected gradient form.

    f = A^-1 w for the fixed source w = ``_source``, the field the boundary
    condition check reads; the form is the forward-difference energy of f
    with f's extracted trace t as its end values, minus Re <t, B t>, B t =
    H t - r t the boundary map of the boundary condition check, with r =
    ``bc_r_matrix``.  <t, H t> = |t_+ - t_-|^2 / L is exactly the discrete
    energy of the sampled affine interpolant of t, the stencil-harmonic
    extension of t in d = 1.  Exact (to roundoff) for an empty family, read
    on ``ops[0]`` alone; order >= 1 in h otherwise, a ratio >= 2 per halving
    along the ladder ``ops`` (one family on one box at halved spacings).
    """
    op = ops[0]
    if op.grid.dim != 1:
        raise ValueError("quadratic form identity requires a 1d grid")
    context = {"family": format_family(op.family)}
    if op.basis.rank == 0:
        return CheckReport(
            name="quadratic_form_identity",
            residuals={"relative": float(_qform_residual_once(op, None))},
            tolerances={"relative": 1e-10},
            context=context,
        )
    return _refinement_check("quadratic_form_identity", ops, 2.0, _qform_residual_once, context)


def ordering_check(op: PhiOperator) -> CheckReport:
    """Sorted eigenvalues of the modified operator never exceed the Dirichlet
    ones (the form-order upper bound, compared eigenvalue by eigenvalue)."""
    excess = np.max(op.eigenvalues / np.sort(op.lam) - 1.0)
    return CheckReport(
        name="eigenvalue_ordering",
        residuals={"max_excess": float(max(0.0, excess))},
        tolerances={"max_excess": 1e-12},
        context={"rank": op.basis.rank, "N": op.grid.total},
    )


_REDUCTION_BLOCK = 64  # eigenvectors per pass of the reduction check


def dirichlet_reduction_check(grid: Grid) -> CheckReport:
    """With an empty family the operator must reproduce the sine-mode
    Dirichlet data: eigenvalues equal the stencil eigenvalues and eigenvectors
    equal the sampled normalized sine modes (up to sign).

    The eigenvectors stream through in blocks of ``_REDUCTION_BLOCK``, each
    unprojected from unit coefficients and compared at the nodes, so no N x N
    array is ever formed."""
    op = build_phi_operator(grid, HarmonicFamily(()))
    nu, lam = op.eigenvalues, op.lam
    dev_vals = float(np.max(np.abs(nu - np.sort(lam))))
    # analytic sampled sine modes, one per axis
    axis_modes = []
    for ax in range(grid.dim):
        n = grid.counts[ax]
        L = grid.lengths[ax]
        j = np.arange(1, n + 1)
        k = np.arange(1, n + 1)
        axis_modes.append(np.sqrt(2.0 / L) * np.sin(np.outer(j, k) * np.pi / (n + 1)))
    N = grid.total
    dev_vecs = 0.0
    for start in range(0, N, _REDUCTION_BLOCK):
        m = np.arange(start, min(start + _REDUCTION_BLOCK, N))
        b = len(m)
        # row i: the eigenvector with the m_i-th smallest eigenvalue, then at the nodes
        unit = np.zeros((N, b))
        unit[m, np.arange(b)] = 1.0
        modes = op.unproject(unit).T
        j = np.argmax(np.abs(modes), axis=1)
        nodes = modes.reshape(b, *grid.counts)
        for ax in range(grid.dim):
            nodes = _dst1(nodes, ax + 1)
        nodes = nodes.reshape(b, N) / grid.spacing ** (grid.dim / 2)
        expected = np.ones((b,) + (1,) * grid.dim)
        for ax, k in enumerate(np.unravel_index(j, grid.counts)):
            shape = [b] + [1] * grid.dim
            shape[ax + 1] = -1
            expected = expected * axis_modes[ax][:, k].T.reshape(shape)
        expected = expected.reshape(b, N)
        sgn = np.where(np.sum(expected * nodes.real, axis=1) >= 0, 1.0, -1.0)
        dev_vecs = max(dev_vecs, float(np.max(np.abs(sgn[:, None] * nodes - expected))))
        # each eigenvalue against the stencil eigenvalue of the mode it peaks on
        dev_vals = max(dev_vals, float(np.max(np.abs(nu[m] - lam[j]))))
    return CheckReport(
        name="dirichlet_reduction",
        residuals={"eigenvalue_dev": dev_vals, "eigenvector_dev": dev_vecs},
        tolerances={"eigenvalue_dev": 1e-13, "eigenvector_dev": 1e-13},
        context={"N": grid.total, "dim": grid.dim},
    )


def split_identity_check(op: PhiOperator, beta: float,
                         f: continuum.TestFunctionSpec) -> CheckReport:
    """Direct Bose evaluation versus the regular-plus-inverse split of
    <f, (e^(-beta Delta_Phi) - 1)^-1 f>, for the test function ``f`` sampled
    on the operator's grid."""
    tp = two_point_lhs(op, beta, sample_function(op.grid, partial(continuum.evaluate, f)))
    return CheckReport(
        name="split_identity",
        residuals={"relative": float(tp.split_agreement)},
        tolerances={"relative": 1e-12},
        context={"f": continuum.format_test_function(f), "beta": beta,
                 "N": op.grid.total, "rank": op.basis.rank},
    )


def wick_cross_check(n: int = 4, seed: int = 0) -> CheckReport:
    """Ryser permanent against brute pairing enumeration on a random matrix."""
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    ryser = continuum.permanent_ryser(T)
    brute = continuum.permanent_enumerate(T)
    dev = abs(ryser - brute) / max(abs(brute), 1e-300)
    return CheckReport(
        name="wick_permanent",
        residuals={"relative": float(dev)},
        tolerances={"relative": 1e-13},
        context={"n": n, "seed": seed},
    )
