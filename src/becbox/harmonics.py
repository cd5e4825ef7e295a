"""Catalog of globally harmonic functions and their grid realizations.

Every variant satisfies Laplace's equation on all of R^d: constants, affine
functions on R, real/imaginary parts of complex polynomials (x+iy-z0)^n, and
the exponential-cosine family e^(kx) cos(ky + phase).  Families are finite,
ordered lists; the pointwise square-summability required of infinite families
is automatic here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce
from typing import Union

import numpy as np

from .lattice import Grid, GridField, harmonic_extension, sample_function

__all__ = [
    "Constant",
    "Affine1D",
    "HarmonicPoly2D",
    "ExpCos2D",
    "HarmonicSpec",
    "HarmonicFamily",
    "eval_harmonic",
    "harmonic_factors",
    "sample_family",
    "parse_harmonic",
    "format_harmonic",
    "parse_family",
    "format_family",
]


@dataclass(frozen=True)
class Constant:
    """phi(x) = c on R^d (any d)."""

    c: complex = 1.0


@dataclass(frozen=True)
class Affine1D:
    """phi(x) = a + b x on R."""

    a: complex = 0.0
    b: complex = 1.0


@dataclass(frozen=True)
class HarmonicPoly2D:
    """phi(x, y) = coefficient * Re/Im((x + iy - center)^degree), degree >= 1."""

    degree: int
    part: str = "re"
    center: complex = 0.0
    coefficient: complex = 1.0

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.part not in ("re", "im"):
            raise ValueError(f"part must be 're' or 'im', got {self.part!r}")


@dataclass(frozen=True)
class ExpCos2D:
    """phi(x, y) = e^(k x) cos(k y + phase)."""

    k: float = 1.0
    phase: float = 0.0


HarmonicSpec = Union[Constant, Affine1D, HarmonicPoly2D, ExpCos2D]


@dataclass(frozen=True)
class HarmonicFamily:
    """Ordered finite list of harmonic functions (possibly empty)."""

    specs: tuple[HarmonicSpec, ...] = ()

    def __len__(self) -> int:
        return len(self.specs)


def spec_dim(spec: HarmonicSpec) -> int | None:
    """Dimensionality a spec is tied to; None means any dimension."""
    if isinstance(spec, Constant):
        return None
    if isinstance(spec, Affine1D):
        return 1
    return 2


def eval_harmonic(spec: HarmonicSpec, *coords):
    """Evaluate a harmonic function at broadcastable coordinates, one (scalar
    or array) for 1d variants, two (x, y) for 2d ones: the sum of products
    of ``harmonic_factors``, which broadcast like the coordinates."""
    return _sum_of_products(harmonic_factors(spec, *coords))


def _sum_of_products(terms):
    """sum_j c_j prod_i u_ji over [(c_j, (u_j0, u_j1, ...))], each product
    taken left to right from c_j; the factors broadcast against each other."""
    return reduce(np.add, (reduce(np.multiply, factors, coeff) for coeff, factors in terms))


def harmonic_factors(spec: HarmonicSpec, *axes) -> list[tuple[complex, tuple]]:
    """The spec as a short sum of products of real 1d factors, one per axis:
    its one definition.  Returns [(c_j, (u_j0, u_j1, ...))] with u_ji on
    ``axes[i]`` and c_j as the spec gives it (real stays real), so that
    sum_j c_j prod_i u_ji is the spec on the tensor mesh of the axes, or at
    broadcastable coordinates (``eval_harmonic``).
    """
    d = spec_dim(spec)
    if d is not None and len(axes) != d:
        raise ValueError(f"{type(spec).__name__} expects {d} coordinate(s), got {len(axes)}")
    axes = [np.asarray(x, dtype=float) for x in axes]
    if isinstance(spec, Constant):
        return [(spec.c, tuple(np.ones_like(x) for x in axes))]
    if isinstance(spec, Affine1D):
        x, = axes
        return [(spec.a, (np.ones_like(x),)), (spec.b, (x,))]
    if isinstance(spec, HarmonicPoly2D):
        # (X + iY)^n = sum_j C(n, j) i^j X^(n-j) Y^j; the real part keeps even
        # j, the imaginary part odd j, each with sign (-1)^(j // 2)
        n, z0 = spec.degree, complex(spec.center)
        X, Y = axes[0] - z0.real, axes[1] - z0.imag
        first = 0 if spec.part == "re" else 1
        return [(spec.coefficient, (math.comb(n, j) * (-1) ** (j // 2) * X ** (n - j), Y ** j))
                for j in range(first, n + 1, 2)]
    if isinstance(spec, ExpCos2D):
        # cos(ky + phase) = cos(ky) cos(phase) - sin(ky) sin(phase)
        x, y = axes
        ex = np.exp(spec.k * x)
        return [(math.cos(spec.phase), (ex, np.cos(spec.k * y))),
                (-math.sin(spec.phase), (ex, np.sin(spec.k * y)))]
    raise TypeError(f"unknown harmonic spec {spec!r}")


def boundary_values_1d(spec: HarmonicSpec, grid: Grid) -> tuple[complex, complex]:
    """Exact values of phi at the interval endpoints -L/2, +L/2."""
    if grid.dim != 1:
        raise ValueError("boundary_values_1d requires a 1d grid")
    L = grid.lengths[0]
    return complex(eval_harmonic(spec, -L / 2)), complex(eval_harmonic(spec, L / 2))


def sample_family(family: HarmonicFamily, grid: Grid, mode: str = "sampled") -> list[GridField]:
    """Realize the family on the grid.

    mode "sampled": pointwise evaluation at the nodes.  mode
    "discrete-harmonic": solve stencil*v = 0 with boundary data phi on the
    boundary lattice points (``harmonic_extension``), so v is exactly
    stencil-harmonic in the interior.
    """
    if mode not in ("sampled", "discrete-harmonic"):
        raise ValueError(f"mode must be 'sampled' or 'discrete-harmonic', got {mode!r}")
    realize = sample_function if mode == "sampled" else harmonic_extension
    out = []
    for spec in family.specs:
        d = spec_dim(spec)
        if d is not None and d != grid.dim:
            raise ValueError(f"spec {spec!r} is {d}d but grid is {grid.dim}d")
        out.append(realize(grid, partial(eval_harmonic, spec)))
    return out


# --- text syntax -------------------------------------------------------------
#
# One spec is TAG:key=value,key=value with tags const, affine, hpoly2, expcos;
# families join specs with ';'.  A tag's row pairs each key with the field it
# sets, in canonical order; a field's value reads and writes by _FIELD_TEXT, a
# number otherwise.  continuum's test functions share the split.
# format -> parse -> format is the identity.

_TAGS = {
    "const": (Constant, (("c", "c"),)),
    "affine": (Affine1D, (("a", "a"), ("b", "b"))),
    "hpoly2": (HarmonicPoly2D, (("n", "degree"), ("part", "part"), ("z0", "center"),
                                ("coeff", "coefficient"))),
    "expcos": (ExpCos2D, (("k", "k"), ("phase", "phase"))),
}
_TAG_OF = {cls: tag for tag, (cls, _) in _TAGS.items()}


def _parse_number(text: str):
    try:
        z = complex(text)
    except ValueError:
        raise ValueError(f"cannot parse number {text!r}") from None
    if z.imag == 0:
        return z.real
    return z


def _format_number(value) -> str:
    z = complex(value)
    if z.imag == 0:
        return repr(z.real)
    return repr(z).strip("()")


# field -> (parse, format) of its value text, where it is not a number
_FLOAT_TEXT, _NUMBER_TEXT = (float, lambda v: repr(float(v))), (_parse_number, _format_number)
_FIELD_TEXT = {"degree": (int, str), "part": (str.lower, str),
               "k": _FLOAT_TEXT, "phase": _FLOAT_TEXT}


def _split_tagged(text: str) -> tuple[str, dict[str, str]]:
    """The tag and the stripped key -> value items of ``tag:key=value,...``;
    an item without '=' or a key given twice is a ValueError."""
    tag, _, body = text.strip().partition(":")
    items: dict[str, str] = {}
    for item in body.split(",") if body.strip() else ():
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"bad parameter {item!r} in {text!r}")
        if key in items:
            raise ValueError(f"duplicate parameter {key!r} in {text!r}")
        items[key] = value.strip()
    return tag.strip(), items


def _join_tagged(tag: str, items) -> str:
    """``tag:key=value,...`` from (key, value text) pairs."""
    return f"{tag}:{','.join(f'{key}={value}' for key, value in items)}"


def parse_harmonic(text: str) -> HarmonicSpec:
    """Parse one spec string like ``affine:a=1,b=0.5``."""
    tag, items = _split_tagged(text)
    if tag not in _TAGS:
        raise ValueError(f"unknown harmonic tag {tag!r} in {text!r}")
    cls, keys = _TAGS[tag]
    field_of = dict(keys)
    kwargs = {}
    for key, value in items.items():
        if key not in field_of:
            raise ValueError(f"bad parameter {key!r} for harmonic {tag!r}")
        name = field_of[key]
        kwargs[name] = _FIELD_TEXT.get(name, _NUMBER_TEXT)[0](value)
    return cls(**kwargs)


def format_harmonic(spec: HarmonicSpec) -> str:
    """Canonical text form of a spec (round-trips through parse_harmonic)."""
    tag = _TAG_OF[type(spec)]
    return _join_tagged(tag, ((key, _FIELD_TEXT.get(name, _NUMBER_TEXT)[1](getattr(spec, name)))
                              for key, name in _TAGS[tag][1]))


def parse_family(text: str) -> HarmonicFamily:
    """Parse a ';'-separated family string; empty/blank means the empty family."""
    text = text.strip()
    if not text:
        return HarmonicFamily(())
    return HarmonicFamily(tuple(parse_harmonic(p) for p in text.split(";") if p.strip()))


def format_family(family: HarmonicFamily) -> str:
    return ";".join(format_harmonic(s) for s in family.specs)
