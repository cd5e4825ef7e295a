"""Structural checks of the modified Laplacian.

Identities that follow algebraically from the inverse-plus-rank-K definition
(Krein resolvent formula, the domain decomposition, eigenvalue ordering,
reduction to the Dirichlet case) are checked at near machine precision;
statements about boundary traces and derivatives (the boundary condition with
the Dirichlet-to-Neumann map, the quadratic-form identity) are discrete only
asymptotically and are judged on a ladder of refinements by ``judge_ladder``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

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
    "Judgement",
    "judge_ladder",
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
        return not self.inconclusive and all(self.residuals[k] <= tol
                                                 for k, tol in self.tolerances.items())

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residuals": self.residuals,
            "tolerances": self.tolerances,
            "pass": self.passed,
            "context": dict(self.context, inconclusive=self.inconclusive),
        }


class Judgement(NamedTuple):
    """``judge_ladder``'s verdict, each step's observed order, the limit, the floor."""

    verdict: str
    orders: list
    limit: float | None
    floor: float

    @property
    def passed(self) -> bool:
        return self.verdict in ("converging", "settled")


def judge_ladder(steps, levels, min_order: float, floor: float,
                 limit: float | None = 0.0) -> Judgement:
    """Richardson's observed orders ln(e_i / e_i+1) / ln(s_i+1 / s_i) of
    ``levels`` at increasing ``steps`` (L, or 1/h), e their distances to a
    known ``limit`` (0: residuals, errors) or, if None, successive differences
    at the finer step.  The finest three levels (or two) decide: ``settled`` if
    the finest distance is at most ``floor``, ``converging`` if the levels fall
    and the finest order, where there is one, is at least ``min_order``,
    ``inconclusive`` on one level, else ``failing``.  An unknown limit comes
    back as Aitken's v3 - d2^2 / (d2 - d1) of the finest differences, if any."""
    v, s = np.asarray(levels, dtype=float), np.asarray(steps, dtype=float)
    e, s = (np.abs(np.diff(v)), s[1:]) if limit is None else (np.abs(v - limit), s)
    with np.errstate(divide="ignore", invalid="ignore"):
        orders = np.log(e[:-1] / e[1:]) / np.log(s[1:] / s[:-1])
    d = np.diff(v[-3:])
    falls = all(d < 0) and (len(orders) == 0 or orders[-1] >= min_order)
    verdict = ("inconclusive" if len(v) < 2 else "settled" if e[-1] <= floor
               else "converging" if falls else "failing")
    if limit is None and len(d) == 2 and d[1] != d[0]:
        limit = float(v[-1] - d[1] ** 2 / (d[1] - d[0]))
    return Judgement(verdict, orders.tolist(), limit, floor)


def _uniform(rng: random.Random, n: int) -> np.ndarray:
    """n values uniform on [-1, 1), the top 53 bits of each 8 bytes of ``rng``'s
    stream: n1 values then n2 are the n1 + n2 of one draw.  ``random`` is loaded
    in every process; numpy.random would add 6 MB of RSS and OpenSSL."""
    bits = np.frombuffer(rng.randbytes(8 * n), dtype="<u8") >> np.uint64(11)
    return bits * 2.0**-52 - 1.0


def _resolvent_identity(name: str, op: PhiOperator, z: float, n_fields: int,
                        seed: int) -> CheckReport:
    """Relative residual of the Krein resolvent formula at z <= 0 on
    ``n_fields`` random sine-coefficient vectors (``_uniform`` of ``seed``).

    The left side is ``ShiftedInverse(z)`` read off the eigenpairs of the
    modified operator, the right side the Dirichlet resolvent plus the
    finite-rank correction S C K_z^-1 C^H S that ``shifted_solve`` applies
    (``_resolvent``).  The formula is exact matrix algebra, so anything above
    roundoff indicates an assembly bug.
    """
    # one draw of every field (column-wise), the same stream as one draw per field
    N = op.grid.total
    x = _uniform(random.Random(seed), n_fields * N).reshape(n_fields, N).T
    lhs = op.unproject(ShiftedInverse(z).evaluate(op.eigenvalues)[:, None] * op.project(x))
    rhs = _resolvent(op, x, -z)
    nx = np.linalg.norm(x, axis=0)
    num = float(np.max(np.linalg.norm(lhs - rhs, axis=0) / nx))
    den = float(np.max(np.linalg.norm(lhs, axis=0) / nx))
    return CheckReport(
        name=name,
        residuals={"relative": num / den if den > 0 else 0.0},
        tolerances={"relative": 1e-10},
        context={"z": z, "rank": op.basis.rank, "N": N, "n_fields": n_fields, "seed": seed},
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
    slope = (boundary_values[1] - boundary_values[0]) / grid.lengths[0]
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


def _refinement_check(name: str, ops: list[PhiOperator], min_order: float,
                      residual) -> CheckReport:
    """residual(op, r), r = ``bc_r_matrix``, on the d = 1 ladder ``ops`` (one
    family, one box, halved spacings), judged in 1/h by ``judge_ladder`` at
    ``min_order`` to the floor N eps, the roundoff of a sum over the finest
    level's N nodes.  ``order_shortfall`` is 0 if it converges or settles, else
    how far its finest two orders fall short.  A trace map of lower rank than
    the columns, or one level, is inconclusive."""
    if ops[0].grid.dim != 1:
        raise ValueError(f"{name} requires a 1d grid")
    context = {"family": format_family(ops[0].family)}
    residuals = []
    for op in ops:
        r = bc_r_matrix(op)
        if op.basis.rank and r is None:
            return CheckReport(name=name, residuals={}, tolerances={},
                               context={**context, "reason": "degenerate trace space"},
                               inconclusive=True)
        residuals.append(float(residual(op, r)))
    judged = judge_ladder([1 / op.grid.spacing for op in ops], residuals, min_order,
                          np.finfo(float).eps * ops[-1].grid.total)
    shortfall = 0.0 if judged.passed else min_order - min(judged.orders[-2:], default=0.0)
    return CheckReport(
        name=name,
        residuals={"order_shortfall": shortfall},
        tolerances={"order_shortfall": 0.0},
        context={"levels": residuals, "ratios": np.exp2(judged.orders).tolist(),
                 "empirical_orders": judged.orders, "verdict": judged.verdict, **context},
        inconclusive=judged.verdict == "inconclusive",
    )


def boundary_condition_residual(ops: list[PhiOperator]) -> CheckReport:
    """The boundary condition (on the range of the columns' traces, the outward
    derivative equals B t = H t - r t, and t lies in that range) on u = A^-1 w,
    w = ``_source``, on the ladder ``ops``: its residual converges at order >=
    log2 1.5 in 1/h (``_refinement_check``); for an empty family, |t|."""
    return _refinement_check("boundary_condition", ops, np.log2(1.5), _bc_residual_once)


def _gradient_sum(values: np.ndarray, h: float, t_left: complex, t_right: complex) -> float:
    """Forward-difference Dirichlet energy with prescribed boundary values."""
    diffs = np.empty(len(values) + 1, dtype=complex)
    diffs[0] = values[0] - t_left
    diffs[1:-1] = values[1:] - values[:-1]
    diffs[-1] = t_right - values[-1]
    return float(np.sum(np.abs(diffs) ** 2) / h)


def _qform_residual_once(op: PhiOperator, r) -> float:
    w = _source(op.grid)
    f = apply_inverse(op, w)
    lhs = inner_product(f, w).real
    t = np.zeros(2) if r is None else boundary_trace_1d(op.grid, f)[0]
    pairing = 0.0 if r is None else float((t.conj() @ _boundary_map(op.grid, r, t)).real)
    return abs(lhs - (_gradient_sum(f.values, op.grid.spacing, *t) - pairing)) / abs(lhs)


def quadratic_form_identity(ops: list[PhiOperator]) -> CheckReport:
    """<f, A f> against the forward-difference energy of f = A^-1 w, w =
    ``_source``, with its extracted trace t as end values, minus Re <t, B t>
    (``_boundary_map``): <t, H t> = |t_+ - t_-|^2 / L is exactly the energy of
    the sampled affine interpolant of t, its stencil-harmonic extension.  The
    relative residual converges at order >= 1 in 1/h on the ladder ``ops``
    (``_refinement_check``); for an empty family, with t = 0, it is exact."""
    return _refinement_check("quadratic_form_identity", ops, 1.0, _qform_residual_once)


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
    unprojected from unit coefficients and taken to the nodes by one product
    per axis with that axis's n x n DST-I matrix, ``_dst1`` read on row blocks
    of the identity, so no N x N array is ever formed."""
    op = build_phi_operator(grid, HarmonicFamily(()))
    nu, lam = op.eigenvalues, op.lam
    dev_vals = float(np.max(np.abs(nu - np.sort(lam))))
    # per axis, the DST-I matrix (row j transforms the j-th unit vector), filled
    # in place: concatenating the blocks would hold it twice
    axis_dst = []
    for n in grid.counts:
        dst = np.empty((n, n))
        for s in range(0, n, _REDUCTION_BLOCK):
            dst[s:s + _REDUCTION_BLOCK] = _dst1(np.eye(min(_REDUCTION_BLOCK, n - s), n, s), 1)
        axis_dst.append(dst)
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
        for ax, dst in enumerate(axis_dst):
            nodes = np.moveaxis(np.moveaxis(nodes, ax + 1, -1) @ dst, -1, ax + 1)
        nodes = nodes.reshape(b, N) / grid.spacing ** (grid.dim / 2)
        # the analytic sampled sine mode of each row's peak, one factor per axis
        expected = np.ones((b,) + (1,) * grid.dim)
        for ax, k in enumerate(np.unravel_index(j, grid.counts)):
            n, L = grid.counts[ax], grid.lengths[ax]
            shape = [b] + [1] * grid.dim
            shape[ax + 1] = -1
            phase = np.outer(k + 1, np.arange(1, n + 1)) * np.pi / (n + 1)
            expected = expected * (np.sqrt(2.0 / L) * np.sin(phase)).reshape(shape)
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
    T = _uniform(random.Random(seed), 2 * n * n).view(complex).reshape(n, n)
    ryser = continuum.permanent_ryser(T)
    brute = continuum.permanent_enumerate(T)
    dev = abs(ryser - brute) / max(abs(brute), 1e-300)
    return CheckReport(
        name="wick_permanent",
        residuals={"relative": float(dev)},
        tolerances={"relative": 1e-13},
        context={"n": n, "seed": seed},
    )
