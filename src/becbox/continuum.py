"""Continuum-side reference values: test functions, Fourier tables, and the
momentum-space form of the two-point function.

The values are computed by quadrature in momentum space or over the support,
never on the lattice, so they serve as an oracle for the lattice modules; the
pointwise spectral functions (Bose and its regular part) are shared with the
operator side, since a second copy of one series would check nothing.  The
Fourier convention is unitary,
fhat(p) = (2pi)^(-d/2) * integral f(x) e^(-ip.x) dx, which makes
<f, F(-Delta) f> = integral F(|p|^2) |fhat|^2 dp without extra factors.

Test functions are built from the smooth compactly supported bump
psi(t) = exp(-1/(1-t^2)) on |t| < 1, tensorized per axis, so trapezoidal
quadrature over the support converges faster than any power of the step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .harmonics import _format_number, _parse_number, harmonic_factors
from .phi_operator import Bose, BoseRegular

__all__ = [
    "HypothesisError",
    "Bump",
    "Dipole",
    "TestFunctionSpec",
    "FourierTable",
    "RhsValue",
    "evaluate",
    "support_bounds",
    "fourier_oracle",
    "free_gas_integral",
    "regular_part_integral",
    "green_integral",
    "overlap_integral",
    "condensate_term",
    "two_point_rhs",
    "resolvent_reference",
    "permanent_ryser",
    "permanent_enumerate",
    "parse_test_function",
    "format_test_function",
]

ZERO_MEAN_RTOL = 1e-8

# rows of a d=2 momentum table read at a time: no temporary is table-sized
ROW_BLOCK = 32


class HypothesisError(ValueError):
    """An input violates a hypothesis of the evaluated formula
    (e.g. nonzero mean in d <= 2, where the Green integral diverges)."""


def bump_profile(t: np.ndarray) -> np.ndarray:
    """The standard bump exp(-1/(1-t^2)) on |t| < 1, exactly 0 outside."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


@dataclass(frozen=True)
class Bump:
    """amplitude * prod_i psi((x_i - c_i)/a_i); support is the box |x_i - c_i| < a_i."""

    center: tuple[float, ...]
    halfwidth: tuple[float, ...]
    amplitude: complex = 1.0

    def __post_init__(self):
        if len(self.center) != len(self.halfwidth):
            raise ValueError("center and halfwidth must have equal length")
        if any(a <= 0 for a in self.halfwidth):
            raise ValueError("halfwidths must be positive")

    @property
    def dim(self) -> int:
        return len(self.center)


@dataclass(frozen=True)
class Dipole:
    """Bump shifted by -offset minus bump shifted by +offset along one axis.

    The difference is odd about the center along that axis, so the integral
    (and hence fhat(0)) vanishes exactly.
    """

    center: tuple[float, ...]
    offset: float
    halfwidth: tuple[float, ...]
    axis: int = 0
    amplitude: complex = 1.0

    def __post_init__(self):
        if len(self.center) != len(self.halfwidth):
            raise ValueError("center and halfwidth must have equal length")
        if not 0 <= self.axis < len(self.center):
            raise ValueError("dipole axis out of range")
        if self.offset <= 0:
            raise ValueError("offset must be positive")

    @property
    def dim(self) -> int:
        return len(self.center)


TestFunctionSpec = Union[Bump, Dipole]


def _tensor_terms(spec: TestFunctionSpec):
    """Decompose into (coefficient, per-axis (center, halfwidth) factors)."""
    if isinstance(spec, Bump):
        return [(complex(spec.amplitude), tuple(zip(spec.center, spec.halfwidth)))]
    if isinstance(spec, Dipole):
        minus = list(spec.center)
        plus = list(spec.center)
        minus[spec.axis] -= spec.offset
        plus[spec.axis] += spec.offset
        amp = complex(spec.amplitude)
        return [
            (amp, tuple(zip(minus, spec.halfwidth))),
            (-amp, tuple(zip(plus, spec.halfwidth))),
        ]
    raise TypeError(f"unknown test function {spec!r}")


def evaluate(spec: TestFunctionSpec, *coords) -> np.ndarray:
    """Evaluate at broadcastable coordinate arrays; exactly 0 outside support."""
    if len(coords) != spec.dim:
        raise ValueError(f"expected {spec.dim} coordinates, got {len(coords)}")
    coords = [np.asarray(c, dtype=float) for c in coords]
    total = None
    for coeff, factors in _tensor_terms(spec):
        term = coeff
        for x, (c, a) in zip(coords, factors):
            term = term * bump_profile((x - c) / a)
        total = term if total is None else total + term
    return total


def support_bounds(spec: TestFunctionSpec) -> list[tuple[float, float]]:
    """Per-axis interval containing the support."""
    los = [np.inf] * spec.dim
    his = [-np.inf] * spec.dim
    for _, factors in _tensor_terms(spec):
        for i, (c, a) in enumerate(factors):
            los[i] = min(los[i], c - a)
            his[i] = max(his[i], c + a)
    return list(zip(los, his))


def _trapezoid_weights(n: int, step: float) -> np.ndarray:
    w = np.full(n, step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _axis_quadrature(lo: float, hi: float, quad_points: int):
    x = np.linspace(lo, hi, quad_points)
    return x, _trapezoid_weights(quad_points, x[1] - x[0])


def _axis_factors(spec, axes):
    """(coefficient, real 1d factors on ``axes``) per tensor term of a test
    function or harmonic spec."""
    if not isinstance(spec, (Bump, Dipole)):
        return harmonic_factors(spec, *axes)
    if spec.dim != len(axes):
        raise ValueError(f"expected {spec.dim} axes, got {len(axes)}")
    return [(coeff, tuple(bump_profile((x - c) / a) for x, (c, a) in zip(axes, factors)))
            for coeff, factors in _tensor_terms(spec)]


def overlap_integral(spec: TestFunctionSpec, fns, quad_points: int = 2048) -> list[complex]:
    """integral conj(f(x)) * fn(x) dx over the support of f, for each fn in ``fns``.

    Each ``fn`` is a harmonic spec, or a test function (for integral conj(f) g).
    Both f and fn are short sums of products of 1d factors, so the tensor
    trapezoid sum over the support bounding box of f is a sum of products of
    1d trapezoid sums on its per-axis nodes; f's factors are evaluated once.
    """
    axes, weights = zip(*(_axis_quadrature(lo, hi, quad_points)
                          for lo, hi in support_bounds(spec)))
    f_terms = [(np.conj(coeff), [w * u for w, u in zip(weights, factors)])
               for coeff, factors in _axis_factors(spec, axes)]
    out = []
    for fn in fns:
        total = 0.0 + 0.0j
        for coeff, factors in _axis_factors(fn, axes):
            for conj_coeff, weighted in f_terms:
                sums = [np.dot(wu, u) for wu, u in zip(weighted, factors)]
                total += conj_coeff * coeff * math.prod(sums)
        out.append(complex(total))
    return out


# --- Fourier tables ----------------------------------------------------------


@dataclass(frozen=True)
class FourierTable:
    """Tabulated unitary Fourier transform on a symmetric uniform p-grid.

    ``p`` is the common per-axis momentum grid (0 sits at index len(p)//2);
    values has shape (len(p),) in 1d and (len(p), len(p)) in 2d.
    """

    dim: int
    p: np.ndarray
    values: np.ndarray
    provenance: dict

    @property
    def p_spacing(self) -> float:
        return float(self.p[1] - self.p[0])

    @property
    def zero_index(self) -> int:
        return len(self.p) // 2

    def value_at_zero(self) -> complex:
        idx = (self.zero_index,) * self.dim
        return complex(self.values[idx])

    def parseval_sum(self) -> float:
        """delta_p-weighted sum of |fhat|^2 (should match integral |f|^2)."""
        return float(self.p_spacing**self.dim * np.sum(np.abs(self.values) ** 2))

    @cached_property
    def _peak(self) -> float:
        """max |fhat| over the table, computed once per table, ROW_BLOCK rows at a time."""
        flat = self.values.reshape(-1)
        step = ROW_BLOCK * len(self.p)
        return float(max(np.abs(flat[i : i + step]).max() for i in range(0, flat.size, step)))

    def is_zero_mean(self) -> bool:
        return abs(self.value_at_zero()) <= ZERO_MEAN_RTOL * max(self._peak, 1e-300)


def _axis_transform_centered(a: float, p: np.ndarray, quad_points: int) -> np.ndarray:
    """(2pi)^(-1/2) integral psi(x/a) e^(-ipx) dx (real, even) on a p grid
    symmetric about its middle entry, p = 0."""
    x, w = _axis_quadrature(-a, a, quad_points)
    fw = w * bump_profile(x / a)
    # the grid is symmetric about 0 and the transform even: compute p >= 0, mirror
    half = p[len(p) // 2:]
    out = np.empty(len(half))
    chunk = 512
    for i in range(0, len(half), chunk):
        out[i : i + chunk] = np.cos(np.outer(half[i : i + chunk], x)) @ fw
    out /= np.sqrt(2.0 * np.pi)
    return np.concatenate([out[:0:-1], out])


def fourier_oracle(
    spec: TestFunctionSpec,
    cutoff: float,
    p_spacing: float,
    quad_points: int = 2048,
) -> FourierTable:
    """Tabulate fhat on the symmetric grid {-M dp, ..., M dp}, M = round(P/dp).

    Trapezoid quadrature over the support is spectrally accurate for the
    smooth bump family; the result is deterministic for fixed parameters.
    """
    if cutoff <= 0 or p_spacing <= 0 or quad_points < 8:
        raise ValueError("cutoff, p_spacing must be positive and quad_points >= 8")
    M = int(round(cutoff / p_spacing))
    p = p_spacing * np.arange(-M, M + 1)
    cache: dict[float, np.ndarray] = {}

    def axis_hat(c, a):
        # shift theorem: the centered transform is real and even, and a
        # common center cancels exactly in antisymmetric combinations
        if a not in cache:
            cache[a] = _axis_transform_centered(a, p, quad_points)
        base = cache[a]
        if c == 0.0:
            return base
        return np.exp(-1j * p * c) * base

    # the tensor terms differ along one axis only (a dipole's): sum their
    # factors there, then form the one outer product in place
    terms = _tensor_terms(spec)
    axis = getattr(spec, "axis", 0)
    lead = sum(coeff * axis_hat(*factors[axis]) for coeff, factors in terms)
    if spec.dim == 1:
        values = lead
    else:
        other = axis_hat(*terms[0][1][1 - axis])
        values = np.empty((len(p), len(p)), dtype=complex)
        np.outer(*((lead, other) if axis == 0 else (other, lead)), out=values)
    prov = {"cutoff": float(cutoff), "p_spacing": float(p_spacing), "quad_points": int(quad_points)}
    return FourierTable(dim=spec.dim, p=p, values=values, provenance=prov)


def _check_compatible(table_f: FourierTable, table_g: FourierTable) -> None:
    if table_f.dim != table_g.dim or not np.array_equal(table_f.p, table_g.p):
        raise ValueError("tables live on different momentum grids")


def _grid_pieces(table: FourierTable):
    p = table.p
    w = _trapezoid_weights(len(p), table.p_spacing)
    if table.dim == 1:
        return p**2, w
    return p[:, None] ** 2 + p[None, :] ** 2, np.outer(w, w)


def _green_zero_limit(table_f: FourierTable, table_g: FourierTable) -> complex:
    """Limit of conj(fhat) ghat / |p|^2 at p = 0 by symmetric parabolic fit.

    The limit is finite only when fhat(0) = ghat(0) = 0; every integral with
    1/|p|^2 at the origin takes its p = 0 cell from here, so this is the one
    zero-mean guard.
    """
    for name, t in (("f", table_f), ("g", table_g)):
        if not t.is_zero_mean():
            raise HypothesisError(
                f"{name}hat(0) = {t.value_at_zero():.3e} is not zero; the 1/|p|^2 "
                f"integrals need zero mean in d <= 2"
            )
    # conj(fhat) ghat on shells 1 and 2 next to p = 0: the +-1, +-2 cells on each axis
    m = table_f.zero_index
    shells = [m + 1, m + 2, m - 1, m - 2]
    cells = (shells,) if table_f.dim == 1 else (shells + [m] * 4, [m] * 4 + shells)
    z = np.conj(table_f.values[cells]) * table_g.values[cells]
    dp2 = table_f.p_spacing**2
    if table_f.dim == 1:
        g1 = 0.5 * (z[0] + z[2]) / dp2
        g2 = 0.5 * (z[1] + z[3]) / (4.0 * dp2)
        return complex((4.0 * g1 - g2) / 3.0)
    limits = []
    for k in range(0, 8, 2):
        g1 = z[k] / dp2
        g2 = z[k + 1] / (4.0 * dp2)
        limits.append((4.0 * g1 - g2) / 3.0)
    return complex(np.mean(limits))


def _bilinear_integral(table_f, table_g, kernel, zero_value):
    _check_compatible(table_f, table_g)
    m = table_f.zero_index
    if table_f.dim == 1:
        psq, w = _grid_pieces(table_f)
        # the kernel may be singular at p = 0; that cell is overwritten by its limit
        with np.errstate(divide="ignore", invalid="ignore"):
            integrand = np.conj(table_f.values) * table_g.values * kernel(psq)
        integrand[m] = zero_value
        return complex(np.sum(integrand * w))
    p = table_f.p
    w = _trapezoid_weights(len(p), table_f.p_spacing)
    total = 0.0 + 0.0j
    for r in range(0, len(p), ROW_BLOCK):
        rows = slice(r, r + ROW_BLOCK)
        with np.errstate(divide="ignore", invalid="ignore"):
            block = (np.conj(table_f.values[rows]) * table_g.values[rows]
                     * kernel(p[rows, None] ** 2 + p[None, :] ** 2))
        if r <= m < r + ROW_BLOCK:
            block[m - r, m] = zero_value
        total += w[rows] @ (block @ w)
    return complex(total)


def free_gas_integral(table_f: FourierTable, beta: float, table_g: FourierTable | None = None):
    """integral conj(fhat) ghat / (e^(beta |p|^2) - 1) dp.

    The p = 0 cell uses the analytic limit (regular part plus Green limit over
    beta), which requires fhat(0) = ghat(0) = 0 in d <= 2 (HypothesisError
    otherwise).
    """
    if not beta > 0:
        raise ValueError("beta must be positive")
    table_g = table_f if table_g is None else table_g
    zf = table_f.value_at_zero()
    zg = table_g.value_at_zero()
    zero_value = -np.conj(zf) * zg / 2.0 + _green_zero_limit(table_f, table_g) / beta
    out = _bilinear_integral(table_f, table_g, Bose(beta).evaluate, zero_value)
    return out.real if table_g is table_f else out


def regular_part_integral(table_f: FourierTable, beta: float, table_g: FourierTable | None = None):
    """integral conj(fhat) ghat F(beta |p|^2) dp with F(x) = 1/(e^x-1) - 1/x."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    table_g = table_f if table_g is None else table_g
    zero_value = -np.conj(table_f.value_at_zero()) * table_g.value_at_zero() / 2.0
    out = _bilinear_integral(table_f, table_g, BoseRegular(beta).evaluate, zero_value)
    return out.real if table_g is table_f else out


def green_integral(table_f: FourierTable, table_g: FourierTable | None = None):
    """integral conj(fhat) ghat / |p|^2 dp, requiring zero mean in d <= 2."""
    table_g = table_f if table_g is None else table_g
    zero_value = _green_zero_limit(table_f, table_g)
    out = _bilinear_integral(table_f, table_g, lambda q: 1.0 / q, zero_value)
    return out.real if table_g is table_f else out


# --- right-hand side of the two-point formula --------------------------------


@dataclass(frozen=True)
class RhsValue:
    """Right side of the two-point formula split into its named terms."""

    free_gas: complex
    condensate: complex
    regular: complex
    green: complex

    @property
    def total(self) -> complex:
        return self.free_gas + self.condensate


def condensate_term(family, f: TestFunctionSpec, g: TestFunctionSpec, beta: float,
                    quad_points: int = 2048) -> complex:
    """beta^-1 sum_k (integral conj(f) phi_k) (integral conj(phi_k) g)."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    a = overlap_integral(f, family.specs, quad_points)                   # integral conj(f) phi_k
    b = a if g is f else overlap_integral(g, family.specs, quad_points)  # integral conj(g) phi_k
    total = 0.0 + 0.0j
    for a_k, b_k in zip(a, b):
        total += a_k * np.conj(b_k)
    return complex(total) / beta


def two_point_rhs(
    family,
    f: TestFunctionSpec,
    g: TestFunctionSpec,
    beta: float,
    table_f: FourierTable,
    table_g: FourierTable | None = None,
    quad_points: int = 2048,
) -> RhsValue:
    """Momentum-space two-point value plus condensate overlaps."""
    free = free_gas_integral(table_f, beta, table_g)
    reg = regular_part_integral(table_f, beta, table_g)
    grn = green_integral(table_f, table_g)
    cond = condensate_term(family, f, g, beta, quad_points)
    return RhsValue(free_gas=complex(free), condensate=cond,
                    regular=complex(reg), green=complex(grn))


# --- resolvent reference ------------------------------------------------------


def resolvent_reference(u: TestFunctionSpec, points, table: FourierTable | None = None):
    """(1 - Delta)^-1 u on R^d at the given points.

    d=1 convolves with the kernel e^(-|x-y|)/2 by Gauss-Legendre panels split
    at the kink; d=2 synthesizes from a Fourier table of u, with one phase
    matrix per axis over the distinct coordinates of the points.
    """
    if u.dim == 1:
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        (lo, hi), = support_bounds(u)
        nodes, wts = np.polynomial.legendre.leggauss(64)

        def panel(a, b, x):
            if b <= a:
                return 0.0
            y = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            w = 0.5 * (b - a) * wts
            vals = evaluate(u, y) * np.exp(-np.abs(x - y)) / 2.0
            return np.dot(w, vals)

        out = np.empty(len(pts), dtype=complex)
        for i, x in enumerate(pts):
            if lo < x < hi:
                out[i] = panel(lo, x, x) + panel(x, hi, x)
            else:
                out[i] = panel(lo, hi, x)
        if np.all(out.imag == 0):
            out = out.real
        return out
    if table is None:
        raise ValueError("d=2 synthesis needs a Fourier table of u")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    psq, w = _grid_pieces(table)
    kern = table.values * w / (1.0 + psq)
    (x1, i1), (x2, i2) = (np.unique(c, return_inverse=True) for c in pts.T)
    e1, e2 = (np.exp(1j * np.outer(x, table.p)) for x in (x1, x2))
    return (e1 @ kern @ e2.T)[i1, i2] / (2.0 * np.pi)


# --- Wick rule ----------------------------------------------------------------


def permanent_ryser(T: np.ndarray) -> complex:
    """Permanent by Ryser's inclusion-exclusion formula (n <= 12)."""
    T = np.asarray(T)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError("matrix must be square")
    n = T.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n > 12:
        raise ValueError("Ryser path is limited to n <= 12")
    total = 0.0 + 0.0j
    for S in range(1, 1 << n):
        cols = [j for j in range(n) if (S >> j) & 1]
        rows = T[:, cols].sum(axis=1)
        total += (-1) ** len(cols) * np.prod(rows)
    return complex((-1) ** n * total)


def permanent_enumerate(T: np.ndarray) -> complex:
    """Permanent by direct enumeration of all pairings (n <= 6)."""
    T = np.asarray(T)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError("matrix must be square")
    n = T.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n > 6:
        raise ValueError("enumeration path is limited to n <= 6")
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        term = 1.0 + 0.0j
        for i, j in enumerate(perm):
            term *= T[i, j]
        total += term
    return complex(total)


# --- text syntax ---------------------------------------------------------------
#
# 1d: bump:c=0,a=1,amp=1 and dipole:c=0,s=1,a=0.75,amp=1
# 2d: bump2:cx=..,cy=..,ax=..,ay=..,amp=..
#     dipole2:cx=..,cy=..,s=..,ax=..,ay=..,axis=x,amp=..
# format -> parse -> format is the identity.


def parse_test_function(text: str) -> TestFunctionSpec:
    text = text.strip()
    tag, _, body = text.partition(":")
    tag = tag.strip()
    params = {}
    if body.strip():
        for item in body.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise ValueError(f"bad parameter {item!r} in {text!r}")
            params[key.strip()] = val.strip()

    def fnum(key):
        if key not in params:
            raise ValueError(f"{tag!r} needs parameter {key!r}")
        return float(params.pop(key))

    amp = _parse_number(params.pop("amp", "1.0"))
    if tag == "bump":
        spec = Bump(center=(fnum("c"),), halfwidth=(fnum("a"),), amplitude=amp)
    elif tag == "dipole":
        spec = Dipole(center=(fnum("c"),), offset=fnum("s"), halfwidth=(fnum("a"),),
                      amplitude=amp)
    elif tag == "bump2":
        spec = Bump(center=(fnum("cx"), fnum("cy")), halfwidth=(fnum("ax"), fnum("ay")),
                    amplitude=amp)
    elif tag == "dipole2":
        axis = params.pop("axis", "x")
        if axis not in ("x", "y"):
            raise ValueError(f"dipole2 axis must be x or y, got {axis!r}")
        spec = Dipole(center=(fnum("cx"), fnum("cy")), offset=fnum("s"),
                      halfwidth=(fnum("ax"), fnum("ay")), axis=0 if axis == "x" else 1,
                      amplitude=amp)
    else:
        raise ValueError(f"unknown test function tag {tag!r}")
    if params:
        raise ValueError(f"unknown parameters {sorted(params)} for {tag!r}")
    return spec


def format_test_function(spec: TestFunctionSpec) -> str:
    amp = _format_number(spec.amplitude)
    if isinstance(spec, Bump):
        if spec.dim == 1:
            return f"bump:c={spec.center[0]!r},a={spec.halfwidth[0]!r},amp={amp}"
        return (f"bump2:cx={spec.center[0]!r},cy={spec.center[1]!r},"
                f"ax={spec.halfwidth[0]!r},ay={spec.halfwidth[1]!r},amp={amp}")
    if spec.dim == 1:
        return f"dipole:c={spec.center[0]!r},s={spec.offset!r},a={spec.halfwidth[0]!r},amp={amp}"
    return (f"dipole2:cx={spec.center[0]!r},cy={spec.center[1]!r},s={spec.offset!r},"
            f"ax={spec.halfwidth[0]!r},ay={spec.halfwidth[1]!r},"
            f"axis={'x' if spec.axis == 0 else 'y'},amp={amp}")
