"""Continuum-side reference values: test functions, Fourier tables, and the
momentum-space form of the two-point function.

The values are computed by quadrature in momentum space or over the support,
never on the lattice, so they serve as an oracle for the lattice modules.  The
Fourier convention is unitary,
fhat(p) = (2pi)^(-d/2) * integral f(x) e^(-ip.x) dx, which makes
<f, F(-Delta) f> = integral F(|p|^2) |fhat|^2 dp without extra factors.

Test functions are built from the smooth compactly supported bump
psi(t) = exp(-1/(1-t^2)) on |t| < 1, tensorized per axis, so trapezoidal
quadrature over the support converges faster than any power of the step.
Every momentum kernel here is a Laplace transform of a Gaussian (1/|p|^2,
the regular part of the Bose function, 1/(1 + |p|^2)), and a Gaussian
factorises over axes: each integral is a sum or t-integral of products of 1d
heat-kernel pairings, the same formula in every dimension.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from typing import Union

import numpy as np

from .harmonics import (_NUMBER_TEXT, _REAL_TEXT, _format_tagged, _parse_tagged,
                        _sum_of_products, harmonic_factors)

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

_LOG_EPS = 53 * math.log(2.0)  # e^-_LOG_EPS is the unit roundoff
_ORDERS = np.arange(23)  # moment orders each table records: 12 large-t series terms
_FACTORIALS = np.array([math.factorial(n) for n in _ORDERS], dtype=float)
# (odd r, -B_(r+1)(1/2) / (r+1)!): the midpoint Euler-Maclaurin terms
_EULER_MACLAURIN = ((1, 1 / 24), (3, -7 / 5760), (5, 31 / 967680), (7, -127 / 154828800))


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
    """Decompose into (amplitude as given, per-axis (center, halfwidth) factors)."""
    if isinstance(spec, Bump):
        return [(spec.amplitude, tuple(zip(spec.center, spec.halfwidth)))]
    if isinstance(spec, Dipole):
        minus = list(spec.center)
        plus = list(spec.center)
        minus[spec.axis] -= spec.offset
        plus[spec.axis] += spec.offset
        return [
            (spec.amplitude, tuple(zip(minus, spec.halfwidth))),
            (-spec.amplitude, tuple(zip(plus, spec.halfwidth))),
        ]
    raise TypeError(f"unknown test function {spec!r}")


def evaluate(spec: TestFunctionSpec, *coords) -> np.ndarray:
    """Evaluate at broadcastable coordinate arrays; exactly 0 outside support.
    The sum of products of the 1d bump factors (``_axis_factors``)."""
    return _sum_of_products(_axis_factors(spec, coords))


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
    function or harmonic spec: a test function's factors are its bumps."""
    if not isinstance(spec, (Bump, Dipole)):
        return harmonic_factors(spec, *axes)
    if spec.dim != len(axes):
        raise ValueError(f"expected {spec.dim} coordinates, got {len(axes)}")
    axes = [np.asarray(x, dtype=float) for x in axes]
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

    ``p`` is the common per-axis momentum grid (0 sits at index len(p)//2).
    The transform of a tensor test function is a product of per-axis
    transforms, so the table holds one complex ``factors`` array over ``p``
    per axis: fhat(p_1, ..., p_d) = prod_i factors[i][p_i].  Per axis it also
    holds the support bounds and the moments sum_j w_j f_i(x_j) (x_j - mid)^n/n!
    of the transform's nodes about their midpoint, for the large-t pairings.
    """

    p: np.ndarray
    factors: tuple[np.ndarray, ...]
    provenance: dict
    supports: tuple[tuple[float, float], ...] = ()
    moments: tuple[np.ndarray, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.factors)

    @property
    def p_spacing(self) -> float:
        # the step at the origin is exact; p[1] - p[0] rounds at |p| = cutoff
        m = self.zero_index
        return float(self.p[m + 1] - self.p[m])

    @property
    def zero_index(self) -> int:
        return len(self.p) // 2

    def value_at_zero(self) -> complex:
        return complex(reduce(np.multiply, (f[self.zero_index] for f in self.factors)))

    def parseval_sum(self) -> float:
        """delta_p-weighted sum of |fhat|^2 (should match integral |f|^2)."""
        return float(self.p_spacing**self.dim
                     * math.prod(np.sum(np.abs(f) ** 2) for f in self.factors))

    def is_zero_mean(self) -> bool:
        peak = math.prod(np.abs(f).max() for f in self.factors)  # max |fhat|
        return abs(self.value_at_zero()) <= ZERO_MEAN_RTOL * max(peak, 1e-300)


def _axis_transform_centered(a: float, p_spacing: float, M: int, quad_points: int):
    """(2pi)^(-1/2) integral psi(x/a) e^(-ipx) dx (real, even) on the grid
    p = k dp, |k| <= M, from the trapezoid sum of cos(k dp x) over the support
    for k >= 0, mirrored; with the nodes x and weighted values it sums.

    With k = b q + r and b = isqrt(M) + 1, cos(k dp x) is the real part of
    e^(i b q dp x) e^(i r dp x): the (M+1) x quad_points cosine table is one
    real product of two phase tables of about sqrt(M) rows each."""
    x, w = _axis_quadrature(-a, a, quad_points)
    fw = w * bump_profile(x / a)
    b = math.isqrt(M) + 1
    coarse = np.outer(p_spacing * (b * np.arange(M // b + 1)), x)
    fine = np.outer(p_spacing * np.arange(b), x)
    out = (np.cos(coarse) * fw) @ np.cos(fine).T - (np.sin(coarse) * fw) @ np.sin(fine).T
    out = out.ravel()[: M + 1] / np.sqrt(2.0 * np.pi)
    return np.concatenate([out[:0:-1], out]), x, fw


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
    # two steps per side keep the step, read at p = 0, between interior nodes;
    # a grid too coarse for a momentum integral fails there (HypothesisError)
    if not (p_spacing > 0 and cutoff / p_spacing >= 2) or quad_points < 8:
        raise ValueError("p_spacing must be positive, cutoff / p_spacing >= 2 "
                         "and quad_points >= 8")
    M = int(round(cutoff / p_spacing))
    p = p_spacing * np.arange(-M, M + 1)
    cache: dict[float, tuple] = {}

    def axis_hat(c, a, mid):
        if a not in cache:
            cache[a] = _axis_transform_centered(a, p_spacing, M, quad_points)
        base, x, fw = cache[a]
        moments = fw @ np.vander(x + (c - mid), len(_ORDERS), increasing=True) / _FACTORIALS
        # shift theorem: the centered transform is real and even, and a
        # common center cancels exactly in antisymmetric combinations
        return (base if c == 0.0 else np.exp(-1j * p * c) * base), moments

    # the tensor terms differ along one axis only (a dipole's): sum their
    # factors there; a centred real bump's factors are real, the table complex
    terms = _tensor_terms(spec)
    axis = getattr(spec, "axis", 0)
    supports = tuple(support_bounds(spec))
    factors, moments = [], []
    for i, (lo, hi) in enumerate(supports):
        used = terms if i == axis else [(1.0, terms[0][1])]
        pieces = [(coeff, *axis_hat(*fs[i], 0.5 * (lo + hi))) for coeff, fs in used]
        factors.append(sum(coeff * hat for coeff, hat, _ in pieces))
        moments.append(sum(coeff * m for coeff, _, m in pieces))
    prov = {"cutoff": float(cutoff), "p_spacing": float(p_spacing), "quad_points": int(quad_points)}
    return FourierTable(p=p, factors=tuple(f.astype(complex) for f in factors), provenance=prov,
                        supports=supports, moments=tuple(m.astype(complex) for m in moments))


def _gauss_sums(a, p, ts):
    """sum_k a[r, k] e^(-t p_k^2) for each row of ``a`` over the symmetric p-grid
    and each t in ``ts``: folded onto p >= 0, 8 t at a time in increasing order,
    each block over the p where t p^2 <= _LOG_EPS only: nothing table-sized."""
    m = len(p) // 2
    q2 = p[m:] ** 2
    folded = a[:, m:].copy()
    folded[:, 1:] += a[:, m - 1::-1]
    parts = np.concatenate([folded.real, folded.imag])  # real rows: real products
    out = np.empty((len(parts), len(ts)))
    order = np.argsort(ts)
    for j in range(0, len(ts), 8):
        block = order[j:j + 8]
        k = np.searchsorted(q2, _LOG_EPS / ts[block[0]], "right")
        out[:, block] = parts[:, :k] @ np.exp(-np.outer(q2[:k], ts[block]))
    return out[:len(a)] + 1j * out[len(a):]


def _pair_series(table_f: FourierTable, table_g: FourierTable):
    """Large-t heat pairings: per-axis sigma[i, k], S_i(t) = (4 pi t)^(-1/2)
    sum_k sigma[i, k] t^-k for t >= t_c; t_c; P(t) = sum_k c_k t^-s_k as (c, s).

    S_i(t) = (4 pi t)^(-1/2) integral integral conj(f_i(x)) g_i(y) e^(-(x-y)^2/4t); the
    moments m_n of x - y have generating function e^(s delta) conj(A(s)) B(-s) (A, B the
    tables' moments, delta their midpoints' distance): sigma[i, k] = m_2k / (k! (-4)^k).
    At t_c the series and e^(-t P^2) at the cutoff P reach roundoff; the grid sum holds to
    t_c unless a Poisson image of the pair, 2pi/dp away, is in reach (HypothesisError)."""
    if len(table_f.factors) != len(table_g.factors) or not np.array_equal(table_f.p, table_g.p):
        raise ValueError("tables live on different momentum grids")
    K = len(_ORDERS) // 2 + 1
    sigma, widths = [], []
    for a, (lo_f, hi_f), b, (lo_g, hi_g) in zip(table_f.moments, table_f.supports,
                                                table_g.moments, table_g.supports):
        delta = 0.5 * (lo_f + hi_f - lo_g - hi_g)
        egf = np.convolve(np.convolve(np.conj(a), b * (-1.0) ** _ORDERS),
                          delta ** _ORDERS / _FACTORIALS)[:len(_ORDERS)]
        sigma.append(egf[::2] * _FACTORIALS[::2] / (_FACTORIALS[:K] * (-4.0) ** np.arange(K)))
        widths.append(max(hi_f - lo_g, hi_g - lo_f))  # the largest |x - y|
    width, dp, cutoff = max(widths), table_f.p_spacing, table_f.p[-1]
    reach = (math.exp(-_LOG_EPS) * math.factorial(K)) ** (1 / K)  # (R^2/4t)^K/K! = eps
    t_c = max(width**2 / (4 * reach), _LOG_EPS / cutoff**2)
    image = 2 * np.pi / dp - width
    if image <= 0 or image**2 < 4 * _LOG_EPS * t_c:
        raise HypothesisError(
            f"p_spacing {dp:.3g} is too coarse for test functions {width:.3g} wide at cutoff "
            f"{cutoff:.3g}: the heat pairings need p_spacing <= "
            f"{2 * np.pi / (width + 2 * math.sqrt(_LOG_EPS * t_c)):.3g}")
    c = reduce(np.convolve, sigma) / (4 * np.pi) ** (len(sigma) / 2)
    return np.array(sigma), t_c, c, len(sigma) / 2 + np.arange(len(c))


def _heat_pairings(table_f: FourierTable, table_g: FourierTable, ts):
    """P(t) = prod_i S_i(t), S_i(t) = integral conj(fhat_i) ghat_i e^(-t p^2) dp,
    for each t in ``ts``: the trapezoid sum over the table's p axis below the
    crossover t_c, the moment series from t_c on (``_pair_series``)."""
    sigma, t_c, _, _ = _pair_series(table_f, table_g)
    w = _trapezoid_weights(len(table_f.p), table_f.p_spacing)
    z = np.array([w * np.conj(a) * b for a, b in zip(table_f.factors, table_g.factors)])
    grid, far = ts < t_c, ts[ts >= t_c]
    S = np.empty((len(z), len(ts)), dtype=complex)
    S[:, grid] = _gauss_sums(z, table_f.p, ts[grid])
    S[:, ~grid] = (sigma @ np.vander(1 / far, sigma.shape[1], increasing=True).T
                   / np.sqrt(4 * np.pi * far))
    return S.prod(axis=0)


def _finite_rule(T: float, cutoff: float):
    """Trapezoid nodes and weights, step 1/4 in x, for integral_0^T dt by t = T/(1 + e^-x),
    from where e^(-t p^2) is 1 to roundoff on the grid: the integrand vanishes like e^-|x|
    at both ends, so the sum converges geometrically (a finite end makes it 2nd order)."""
    x = np.arange(-_LOG_EPS - math.log(T * cutoff**2), _LOG_EPS + 0.25, 0.25)
    s = 1.0 / (1.0 + np.exp(-x))
    return T * s, 0.25 * T * s * (1.0 - s)


def free_gas_integral(table_f: FourierTable, beta: float, table_g: FourierTable | None = None):
    """integral conj(fhat) ghat / (e^(beta |p|^2) - 1) dp = regular part + Green / beta, as
    1/(e^x - 1) = F(x) + 1/x; requires fhat(0) = ghat(0) = 0 in d <= 2 (HypothesisError)."""
    return regular_part_integral(table_f, beta, table_g) + green_integral(table_f, table_g) / beta


def regular_part_integral(table_f: FourierTable, beta: float, table_g: FourierTable | None = None):
    """integral conj(fhat) ghat F(beta |p|^2) dp with F(x) = 1/(e^x-1) - 1/x, finite at
    any mean: as F(beta p^2) = sum_(n>=1) e^(-n beta p^2) - integral_0^inf e^(-t p^2) dt/beta,
    it is sum_n P(n beta) - integral P dt / beta (``_heat_pairings``) to (N + 1/2) beta, past
    the crossover, plus the Euler-Maclaurin tail of h(u) = P(beta u) = sum_k C_k u^-s_k."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    table_g = table_f if table_g is None else table_g
    _, t_c, c, s = _pair_series(table_f, table_g)
    n = max(32, math.ceil(t_c / beta))
    ts, wts = _finite_rule(beta * (n + 0.5), table_f.p[-1])
    P = _heat_pairings(table_f, table_g, np.concatenate([beta * np.arange(1, n + 1), ts]))
    C, a = c * beta ** -s, n + 0.5
    tail = -sum(e * np.sum(C * np.prod(s[:, None] + np.arange(r), axis=1) * a ** (-s - r))
                for r, e in _EULER_MACLAURIN)  # sum_j e_j h^(r_j)(a), odd r_j
    total = complex(P[:n].sum() - wts @ P[n:] / beta + tail)
    return total.real if table_g is table_f else total


def green_integral(table_f: FourierTable, table_g: FourierTable | None = None):
    """integral conj(fhat) ghat / |p|^2 dp = integral_0^inf P(t) dt
    (``_heat_pairings``), requiring zero mean in d <= 2.  Past the crossover
    the product series integrates exactly, less its leading term, the product
    of the axes' zeroth moments: zero mean removes it, and left in it diverges."""
    table_g = table_f if table_g is None else table_g
    for name, t in (("f", table_f), ("g", table_g)):
        if not t.is_zero_mean():
            raise HypothesisError(f"{name}hat(0) = {t.value_at_zero():.3e} is not zero; the "
                                  f"1/|p|^2 integrals need zero mean in d <= 2")
    _, t_c, c, s = _pair_series(table_f, table_g)
    ts, wts = _finite_rule(t_c, table_f.p[-1])
    total = complex(wts @ _heat_pairings(table_f, table_g, ts)
                    + np.sum(c[1:] * t_c ** (1 - s[1:]) / (s[1:] - 1)))
    return total.real if table_g is table_f else total


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
    """Momentum-space two-point value plus condensate overlaps; the free gas
    is the regular part plus the Green integral over beta."""
    grn = green_integral(table_f, table_g)
    reg = regular_part_integral(table_f, beta, table_g)
    cond = condensate_term(family, f, g, beta, quad_points)
    return RhsValue(free_gas=complex(reg + grn / beta), condensate=cond,
                    regular=complex(reg), green=complex(grn))


# --- resolvent reference ------------------------------------------------------


def resolvent_reference(u: TestFunctionSpec, points, table: FourierTable | None = None):
    """(1 - Delta)^-1 u on R^d at the given points.

    d=1 convolves with the kernel e^(-|x-y|)/2 by Gauss-Legendre panels split
    at the kink.  Otherwise 1/(1 + |p|^2) = integral_0^inf e^(-t(1 + |p|^2)) dt
    factorises the synthesis from a Fourier table of u into (2pi)^(-d/2) times
    integral e^(-t) prod_i L_i(x_i, t) dt, L_i the phase sums
    sum_p w fhat_i(p) e^(i p x_i - t p^2) at the points' distinct coordinates.
    """
    if u.dim == 1:
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        (lo, hi), = support_bounds(u)
        nodes, wts = np.polynomial.legendre.leggauss(64)

        def panel(a, b, x):
            if b <= a:
                return 0.0
            y = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            return np.dot(0.5 * (b - a) * wts, evaluate(u, y) * np.exp(-np.abs(x - y)) / 2.0)

        return np.array([panel(lo, x, x) + panel(x, hi, x) if lo < x < hi else panel(lo, hi, x)
                         for x in pts])
    if table is None:
        raise ValueError("the synthesis needs a Fourier table of u")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    coords = [np.unique(c, return_inverse=True) for c in pts.T]
    ts, wts = _finite_rule(2 * _LOG_EPS, table.p[-1])  # e^(-t) is below roundoff past it
    w = _trapezoid_weights(len(table.p), table.p_spacing)
    sums = [_gauss_sums(np.exp(1j * np.outer(x, table.p)) * (w * f), table.p, ts)
            for (x, _), f in zip(coords, table.factors)]
    # the t-sum of prod_i L_i on the distinct coordinates, the last axis by a product
    head = wts * np.exp(-ts)
    for L in sums[:-1]:
        head = head[..., None, :] * L
    values = head @ sums[-1].T
    return values[tuple(i for _, i in coords)] / (2.0 * np.pi) ** (table.dim / 2)


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
    # one row per nonempty column subset S: (-1)^|S| prod_i sum_(j in S) T_ij
    S = (np.arange(1, 1 << n)[:, None] >> np.arange(n)) & 1
    sign = 1 - 2 * (S.sum(axis=1) % 2)
    return complex((-1) ** n * (sign @ np.prod(S @ T.T, axis=1)))


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
# A test function is TAG:key=value,... in the grammar of the harmonic specs
# (``harmonics._parse_tagged``): bump or dipole with the axis count's suffix,
# one key per axis for a per-axis field, and none for a defaulted field (axis,
# amp) that is left out; a dipole names its axis only where there is a choice:
# 1d: bump:c=0,a=1,amp=1 and dipole:c=0,s=1,a=0.75,amp=1
# 2d: bump2:cx=..,cy=..,ax=..,ay=..,amp=..
#     dipole2:cx=..,cy=..,s=..,ax=..,ay=..,axis=x,amp=..
# format -> parse -> format is the identity.

_AXIS_LETTERS = ("x", "y")


def _axis_index(text: str) -> int:
    if text not in _AXIS_LETTERS:
        raise ValueError(f"dipole axis must be x or y, got {text!r}")
    return _AXIS_LETTERS.index(text)


_AMP = ("amplitude", "amp", _NUMBER_TEXT)
_TF_TAGS = {
    "bump": (Bump, (("center", ("c",), _REAL_TEXT), ("halfwidth", ("a",), _REAL_TEXT), _AMP)),
    "dipole": (Dipole, (("center", ("c",), _REAL_TEXT), ("offset", "s", _REAL_TEXT),
                        ("halfwidth", ("a",), _REAL_TEXT), _AMP)),
    "bump2": (Bump, (("center", ("cx", "cy"), _REAL_TEXT),
                     ("halfwidth", ("ax", "ay"), _REAL_TEXT), _AMP)),
    "dipole2": (Dipole, (("center", ("cx", "cy"), _REAL_TEXT), ("offset", "s", _REAL_TEXT),
                         ("halfwidth", ("ax", "ay"), _REAL_TEXT),
                         ("axis", "axis", (_axis_index, _AXIS_LETTERS.__getitem__)), _AMP)),
}
# (class, axis count) -> tag; the count is that of the row's first field, center
_TF_TAG_OF = {(cls, len(row[0][1])): tag for tag, (cls, row) in _TF_TAGS.items()}


def parse_test_function(text: str) -> TestFunctionSpec:
    return _parse_tagged(text, _TF_TAGS, "test function")


def format_test_function(spec: TestFunctionSpec) -> str:
    tag = _TF_TAG_OF.get((type(spec), spec.dim))
    if tag is None:
        raise ValueError(f"test functions have a text form in d = 1, 2, not d = {spec.dim}")
    return _format_tagged(tag, spec, _TF_TAGS[tag][1])
