"""Catalog of globally harmonic functions and their grid realizations.

Every variant satisfies Laplace's equation on all of R^d: constants, affine
functions on R, real/imaginary parts of complex polynomials (x+iy-z0)^n, and
the exponential-cosine family e^(kx) cos(ky + phase).  Families are finite,
ordered lists; the pointwise square-summability required of infinite families
is automatic here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import MISSING, dataclass, fields
from functools import partial, reduce
from typing import Union

import numpy as np

from .lattice import Grid, GridField, sample_function

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
    """phi(x, y) = coefficient * Re/Im((x + iy - center)^degree), 1 <= degree <= 40.

    ``harmonic_factors`` expands (X + iY)^n by the binomial theorem, whose
    terms cancel by up to 2^(n/2) on the diagonal |X| = |Y|: at (0.9, 0.9)
    the value is 1.7e-11 off at n = 40 and 4.2e-5 at n = 80, and past a few
    hundred the terms overflow.  So the degree is bounded.
    """

    degree: int
    part: str = "re"
    center: complex = 0.0
    coefficient: complex = 1.0

    def __post_init__(self):
        if not 1 <= self.degree <= 40:
            raise ValueError(f"degree must lie in [1, 40], got {self.degree}")
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


def sample_family(family: HarmonicFamily, grid: Grid) -> list[GridField]:
    """The family's columns: each spec evaluated pointwise at the nodes."""
    out = []
    for spec in family.specs:
        d = spec_dim(spec)
        if d is not None and d != grid.dim:
            raise ValueError(f"spec {spec!r} is {d}d but grid is {grid.dim}d")
        out.append(sample_function(grid, partial(eval_harmonic, spec)))
    return out


# --- text syntax -------------------------------------------------------------
#
# One spec is TAG:key=value,key=value with tags const, affine, hpoly2, expcos;
# families join specs with ';'.  Both catalogs, these specs and continuum's
# test functions, keep only a table, tag -> (class, row): the row lists each
# field in canonical order with its key (a tuple of keys, one per axis, for a
# per-axis field) and the (parse, format) pair of its value text.
# _parse_tagged and _format_tagged read every table by one rule: a field
# without a default must be given, an unknown key is an error, and every
# number read, real or complex, is finite.
# format -> parse -> format is the identity.


def _finite(x, text: str):
    """x, the number ``text`` reads as, if it is finite."""
    if not cmath.isfinite(x):
        raise ValueError(f"number {text!r} is not finite")
    return x


def _parse_number(text: str):
    try:
        z = complex(text)
    except ValueError:
        raise ValueError(f"cannot parse number {text!r}") from None
    _finite(z, text)
    if z.imag == 0:
        return z.real
    return z


def _format_number(value) -> str:
    z = complex(value)
    if z.imag == 0:
        return repr(z.real)
    return repr(z).strip("()")


# the (parse, format) pairs of a real and of a real-or-complex value text
_REAL_TEXT = (lambda text: _finite(float(text), text), lambda v: repr(float(v)))
_NUMBER_TEXT = (_parse_number, _format_number)

_TAGS = {
    "const": (Constant, (("c", "c", _NUMBER_TEXT),)),
    "affine": (Affine1D, (("a", "a", _NUMBER_TEXT), ("b", "b", _NUMBER_TEXT))),
    "hpoly2": (HarmonicPoly2D, (("degree", "n", (int, str)), ("part", "part", (str.lower, str)),
                                ("center", "z0", _NUMBER_TEXT),
                                ("coefficient", "coeff", _NUMBER_TEXT))),
    "expcos": (ExpCos2D, (("k", "k", _REAL_TEXT), ("phase", "phase", _REAL_TEXT))),
}
_TAG_OF = {cls: tag for tag, (cls, _) in _TAGS.items()}


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


def _parse_tagged(text: str, tags: dict, kind: str):
    """The spec that ``tag:key=value,...`` names in ``tags``, a table of tag ->
    (class, row) of ``kind``; a field is given by all of its keys or by none."""
    tag, items = _split_tagged(text)
    if tag not in tags:
        raise ValueError(f"unknown {kind} tag {tag!r} in {text!r}")
    cls, row = tags[tag]
    required = {f.name for f in fields(cls) if f.default is MISSING}
    kwargs = {}
    for name, keys, (parse, _) in row:
        per_axis = isinstance(keys, tuple)
        keys = keys if per_axis else (keys,)
        missing = [key for key in keys if key not in items]
        if missing and name in required:
            raise ValueError(f"{tag!r} needs parameter {missing[0]!r}")
        if not missing:
            values = tuple(parse(items.pop(key)) for key in keys)
            kwargs[name] = values if per_axis else values[0]
    if items:
        raise ValueError(f"unknown parameters {sorted(items)} for {tag!r}")
    return cls(**kwargs)


def _format_tagged(tag: str, spec, row) -> str:
    """The canonical ``tag:key=value,...`` of a spec by its tag's row."""
    items = []
    for name, keys, (_, fmt) in row:
        value = getattr(spec, name)
        items += zip(keys, map(fmt, value)) if isinstance(keys, tuple) else [(keys, fmt(value))]
    return f"{tag}:{','.join(f'{key}={value}' for key, value in items)}"


def parse_harmonic(text: str) -> HarmonicSpec:
    """Parse one spec string like ``affine:a=1,b=0.5``."""
    return _parse_tagged(text, _TAGS, "harmonic")


def format_harmonic(spec: HarmonicSpec) -> str:
    """Canonical text form of a spec (round-trips through parse_harmonic)."""
    tag = _TAG_OF[type(spec)]
    return _format_tagged(tag, spec, _TAGS[tag][1])


def parse_family(text: str) -> HarmonicFamily:
    """Parse a ';'-separated family string; empty/blank means the empty family."""
    text = text.strip()
    if not text:
        return HarmonicFamily(())
    return HarmonicFamily(tuple(parse_harmonic(p) for p in text.split(";") if p.strip()))


def format_family(family: HarmonicFamily) -> str:
    return ";".join(format_harmonic(s) for s in family.specs)
