"""Catalog of globally harmonic functions and their grid realizations.

Every variant satisfies Laplace's equation on all of R^d: constants, affine
functions on R, real/imaginary parts of complex polynomials (x+iy-z0)^n, and
the exponential-cosine family e^(kx) cos(ky + phase).  Families are finite,
ordered lists; the pointwise square-summability required of infinite families
is automatic here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
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


def _check_coords(spec: HarmonicSpec, coords) -> None:
    d = spec_dim(spec)
    if d is not None and len(coords) != d:
        raise ValueError(
            f"{type(spec).__name__} expects {d} coordinate(s), got {len(coords)}"
        )


def eval_harmonic(spec: HarmonicSpec, *coords):
    """Evaluate a harmonic function at broadcastable coordinates.

    One coordinate (scalar or array) for 1d variants, two (x, y) for 2d ones.
    """
    _check_coords(spec, coords)
    if isinstance(spec, Constant):
        shape = np.broadcast(*[np.asarray(c) for c in coords]).shape
        return np.broadcast_to(np.asarray(spec.c), shape).copy() if shape else spec.c
    if isinstance(spec, Affine1D):
        x = np.asarray(coords[0])
        return spec.a + spec.b * x
    if isinstance(spec, HarmonicPoly2D):
        x, y = (np.asarray(c) for c in coords)
        w = (x + 1j * y - spec.center) ** spec.degree
        part = np.real(w) if spec.part == "re" else np.imag(w)
        return spec.coefficient * part
    if isinstance(spec, ExpCos2D):
        x, y = (np.asarray(c) for c in coords)
        return np.exp(spec.k * x) * np.cos(spec.k * y + spec.phase)
    raise TypeError(f"unknown harmonic spec {spec!r}")


def harmonic_factors(spec: HarmonicSpec, *axes) -> list[tuple[complex, tuple]]:
    """The spec as a short sum of products of real 1d factors, one per axis.

    Returns [(c_j, (u_j0, u_j1, ...))] with u_ji evaluated on ``axes[i]``, so
    that eval_harmonic(spec, *mesh) = sum_j c_j prod_i u_ji on the tensor mesh
    of the axes, up to roundoff.
    """
    _check_coords(spec, axes)
    axes = [np.asarray(x, dtype=float) for x in axes]
    if isinstance(spec, Constant):
        return [(complex(spec.c), tuple(np.ones_like(x) for x in axes))]
    if isinstance(spec, Affine1D):
        x, = axes
        return [(complex(spec.a), (np.ones_like(x),)), (complex(spec.b), (x,))]
    if isinstance(spec, HarmonicPoly2D):
        # (X + iY)^n = sum_j C(n, j) i^j X^(n-j) Y^j; the real part keeps even
        # j, the imaginary part odd j, each with sign (-1)^(j // 2).  The
        # coefficient multiplies last, as in eval_harmonic.
        n, z0 = spec.degree, complex(spec.center)
        X, Y = axes[0] - z0.real, axes[1] - z0.imag
        first = 0 if spec.part == "re" else 1
        return [(complex(spec.coefficient), (math.comb(n, j) * (-1) ** (j // 2) * X ** (n - j),
                                             Y ** j))
                for j in range(first, n + 1, 2)]
    if isinstance(spec, ExpCos2D):
        # cos(ky + phase) = cos(ky) cos(phase) - sin(ky) sin(phase)
        x, y = axes
        ex = np.exp(spec.k * x)
        return [(complex(math.cos(spec.phase)), (ex, np.cos(spec.k * y))),
                (complex(-math.sin(spec.phase)), (ex, np.sin(spec.k * y)))]
    raise TypeError(f"unknown harmonic spec {spec!r}")


def boundary_values_1d(spec: HarmonicSpec, grid: Grid) -> tuple[complex, complex]:
    """Exact values of phi at the interval endpoints -L/2, +L/2."""
    if grid.dim != 1:
        raise ValueError("boundary_values_1d requires a 1d grid")
    L = grid.lengths[0]
    return (
        complex(np.asarray(eval_harmonic(spec, -L / 2)).item()),
        complex(np.asarray(eval_harmonic(spec, L / 2)).item()),
    )


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
# families join specs with ';'.  format -> parse -> format is the identity.

_TAGS = {
    "const": (Constant, {"c": "c"}),
    "affine": (Affine1D, {"a": "a", "b": "b"}),
    "hpoly2": (HarmonicPoly2D, {"n": "degree", "part": "part", "z0": "center", "coeff": "coefficient"}),
    "expcos": (ExpCos2D, {"k": "k", "phase": "phase"}),
}
_TAG_OF = {Constant: "const", Affine1D: "affine", HarmonicPoly2D: "hpoly2", ExpCos2D: "expcos"}
_KEY_OF = {tag: {field: key for key, field in mapping.items()} for tag, (_, mapping) in _TAGS.items()}


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


def parse_harmonic(text: str) -> HarmonicSpec:
    """Parse one spec string like ``affine:a=1,b=0.5``."""
    text = text.strip()
    tag, _, body = text.partition(":")
    tag = tag.strip()
    if tag not in _TAGS:
        raise ValueError(f"unknown harmonic tag {tag!r} in {text!r}")
    cls, mapping = _TAGS[tag]
    kwargs = {}
    if body.strip():
        for item in body.split(","):
            key, eq, val = item.partition("=")
            key = key.strip()
            if not eq or key not in mapping:
                raise ValueError(f"bad parameter {item!r} for harmonic {tag!r}")
            field = mapping[key]
            val = val.strip()
            if field == "degree":
                kwargs[field] = int(val)
            elif field == "part":
                kwargs[field] = val.lower()
            elif field in ("k", "phase"):
                kwargs[field] = float(val)
            else:
                kwargs[field] = _parse_number(val)
    return cls(**kwargs)


def format_harmonic(spec: HarmonicSpec) -> str:
    """Canonical text form of a spec (round-trips through parse_harmonic)."""
    tag = _TAG_OF[type(spec)]
    keys = _KEY_OF[tag]
    parts = []
    for f in fields(spec):
        val = getattr(spec, f.name)
        if f.name == "degree":
            txt = str(val)
        elif f.name == "part":
            txt = val
        elif f.name in ("k", "phase"):
            txt = repr(float(val))
        else:
            txt = _format_number(val)
        parts.append(f"{keys[f.name]}={txt}")
    return f"{tag}:{','.join(parts)}"


def parse_family(text: str) -> HarmonicFamily:
    """Parse a ';'-separated family string; empty/blank means the empty family."""
    text = text.strip()
    if not text:
        return HarmonicFamily(())
    return HarmonicFamily(tuple(parse_harmonic(p) for p in text.split(";") if p.strip()))


def format_family(family: HarmonicFamily) -> str:
    return ";".join(format_harmonic(s) for s in family.specs)
