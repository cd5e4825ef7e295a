"""Fuzz tests of the text inputs: config files and spec strings.

A config text either parses into a config whose numeric values are all finite
and in range, or raises ``ConfigError``; nothing else may escape, since the
CLI maps ``ConfigError`` to exit 2 and anything else to a traceback.  A spec
string of either catalog likewise parses into a spec whose numbers are all
finite, or raises ``ValueError`` (which the commands report as a config
error).  Spec strings round-trip: parsing the canonical text of a spec gives
the spec back.  No command is run here.
"""

import cmath
import math
from dataclasses import astuple, fields

import pytest

import becbox as bb
from becbox import continuum as ct
from becbox.config import ConfigError, ExperimentConfig, parse_config_text

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

# --- config fuzz -------------------------------------------------------------------

FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
NUMBER_WORDS = ["nan", "-nan", "inf", "-inf", "1e999", "-1e999", "1e-320", "0", "-0.0",
                "0x10", "1_000", "", "few", "2,3", "1e308"]

numbers = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(NUMBER_WORDS),
)


def value_text(key):
    if key == "L_steps":
        return st.one_of(st.integers(-5, 2000).map(str), st.sampled_from(NUMBER_WORDS))
    if key == "L_list":
        return st.lists(numbers, min_size=0, max_size=6).map(",".join)
    if FIELD_TYPES[key] in ("int", "float"):
        return numbers
    if FIELD_TYPES[key] == "bool":
        return st.sampled_from(["true", "no", "1", "maybe"])
    return st.text(max_size=12)


@st.composite
def config_texts(draw):
    keys = draw(st.lists(st.sampled_from(sorted(FIELD_TYPES)), max_size=10))
    lines = [f"{key} = {draw(value_text(key))}" for key in keys]
    lines += draw(st.lists(st.text(max_size=20), max_size=2))
    return "\n".join(draw(st.permutations(lines)))


def _assert_in_range(cfg: ExperimentConfig) -> None:
    for name, ftype in FIELD_TYPES.items():
        if ftype == "float":
            assert math.isfinite(getattr(cfg, name)), name
    Ls = cfg.lengths()
    assert all(math.isfinite(L) and L > 0 for L in Ls)
    assert all(b > a for a, b in zip(Ls, Ls[1:]))
    assert min(cfg.beta, cfg.h, cfg.cutoff, cfg.p_spacing) > 0
    assert 0 <= cfg.h_richardson < cfg.h
    assert cfg.cutoff / cfg.p_spacing >= 2 and cfg.quad_points >= 8
    assert cfg.window_margin >= 0 and cfg.seed >= 0
    assert 1 <= cfg.wick_n <= 12


@settings(max_examples=300)
@given(text=st.one_of(config_texts(), st.text(max_size=60)))
def test_config_parse_raises_only_config_error(text):
    try:
        cfg = parse_config_text(text)
    except ConfigError:
        return
    _assert_in_range(cfg)


# --- spec string fuzz --------------------------------------------------------------

# tag -> its keys, per catalog, each with one tag neither catalog knows
SPEC_KEYS = {
    "harmonic": {"const": ["c"], "affine": ["a", "b"], "hpoly2": ["n", "part", "z0", "coeff"],
                 "expcos": ["k", "phase"], "legendre": ["n"]},
    "test function": {"bump": ["c", "a", "amp"], "dipole": ["c", "s", "a", "amp"],
                      "bump2": ["cx", "cy", "ax", "ay", "amp"],
                      "dipole2": ["cx", "cy", "s", "ax", "ay", "axis", "amp"], "gauss": ["c"]},
}
PARSERS = {"harmonic": bb.parse_harmonic, "test function": ct.parse_test_function}
SPEC_WORDS = ["nan", "-inf", "1e999", "1+2j", "x", "re", ""]

spec_values = st.one_of(st.sampled_from(SPEC_WORDS), st.integers(-2, 5).map(str),
                        st.floats(allow_nan=False, allow_infinity=False).map(repr))


@st.composite
def spec_texts(draw):
    """(catalog, text): some keys of a tag left out, some unknown, some repeated."""
    catalog = draw(st.sampled_from(sorted(SPEC_KEYS)))
    tag = draw(st.sampled_from(sorted(SPEC_KEYS[catalog])))
    known = SPEC_KEYS[catalog][tag]
    keys = [key for key in known if draw(st.integers(0, 3))]  # mostly given
    keys += draw(st.lists(st.sampled_from(known + ["q", "width"]), max_size=2))
    items = [f"{key}={draw(spec_values)}" for key in draw(st.permutations(keys))]
    return catalog, f"{tag}:{','.join(items)}"


def _numbers(spec):
    """Every number a spec holds, per-axis tuples unpacked."""
    for value in astuple(spec):
        for x in value if isinstance(value, tuple) else (value,):
            if not isinstance(x, str):
                yield x


@settings(max_examples=400)
@given(case=spec_texts())
@example(case=("harmonic", "hpoly2:part=re"))
@example(case=("harmonic", "affine:a=nan,b=1"))
@example(case=("test function", "bump:c=0,a=inf"))
def test_spec_parse_raises_only_value_error(case):
    catalog, text = case
    try:
        spec = PARSERS[catalog](text)
    except ValueError:
        return
    assert all(cmath.isfinite(x) for x in _numbers(spec)), spec


# --- spec string round trips --------------------------------------------------------

reals = st.floats(allow_nan=False, allow_infinity=False)
positives = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
complexes = st.builds(complex, reals, reals)
numbers_or_complex = st.one_of(reals, complexes)


@st.composite
def tf_specs(draw):
    dim = draw(st.integers(1, 2))
    center = tuple(draw(reals) for _ in range(dim))
    halfwidth = tuple(draw(positives) for _ in range(dim))
    amplitude = draw(numbers_or_complex)
    if draw(st.booleans()):
        return ct.Bump(center=center, halfwidth=halfwidth, amplitude=amplitude)
    return ct.Dipole(center=center, offset=draw(positives), halfwidth=halfwidth,
                     axis=draw(st.integers(0, dim - 1)), amplitude=amplitude)


harmonic_specs = st.one_of(
    st.builds(bb.Constant, numbers_or_complex),
    st.builds(bb.Affine1D, numbers_or_complex, numbers_or_complex),
    st.builds(bb.HarmonicPoly2D, st.integers(1, 40), st.sampled_from(["re", "im"]),
              numbers_or_complex, numbers_or_complex),
    st.builds(bb.ExpCos2D, reals, reals),
)


@settings(max_examples=200)
@given(spec=tf_specs())
def test_test_function_text_round_trip(spec):
    assert ct.parse_test_function(ct.format_test_function(spec)) == spec


@settings(max_examples=200)
@given(specs=st.lists(harmonic_specs, max_size=4))
def test_harmonic_text_round_trip(specs):
    family = bb.HarmonicFamily(tuple(specs))
    for spec in specs:
        assert bb.parse_harmonic(bb.format_harmonic(spec)) == spec
    assert bb.parse_family(bb.format_family(family)) == family
