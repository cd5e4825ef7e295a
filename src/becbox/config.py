"""Flat key-value experiment configuration with a strict schema.

A config file is plain text: one ``key = value`` per line, ``#`` comments,
blank lines ignored.  Unknown keys are rejected outright so typos cannot
silently fall back to defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "parse_config_text"]


MAX_BOXES = 64  # longest box schedule; each box is one operator build


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


@dataclass
class ExperimentConfig:
    """Everything an experiment run needs, with documented defaults.

    The defaults reproduce the standard d=1 thermodynamic-limit study:
    family {x}, a zero-mean dipole pair, beta 1, L doubling from 8 to 64 at
    h = 1/16.
    """

    kind: str = "converge"                  # converge | srs | verify | wick | fourier
    dim: int = 1
    beta: float = 1.0
    family: str = "affine:a=0,b=1"          # ';'-separated harmonic specs ('' = empty)
    f: str = "dipole:c=0,s=1,a=0.75"        # test function (converge, fourier)
    g: str = ""                             # second test function; '' means g = f
    u: str = "bump:c=1,a=1"                 # test function for srs runs
    L_start: float = 8.0
    L_factor: float = 2.0
    L_steps: int = 4
    L_list: str = ""                        # explicit comma list, overrides the schedule
    h: float = 0.0625
    h_richardson: float = 0.0               # second (finer) spacing; 0 disables
    backend: str = "auto"                   # auto | dense | lanczos
    sampling_mode: str = "sampled"          # sampled | discrete-harmonic
    cutoff: float = 80.0                    # momentum cutoff of the Fourier oracle
    p_spacing: float = 0.02                 # momentum grid spacing
    quad_points: int = 2048                 # spatial quadrature points per axis
    window_margin: float = 2.0              # srs comparison window beyond supp u
    krein_z: str = "-1,-2.5"                # spectral parameters for the verify suite
    n_random: int = 20                      # random fields per randomized check
    wick_n: int = 3                         # matrix size for the wick demo
    seed: int = 1234
    zero_wall_time: bool = False            # zero the wall_time_s column (golden runs)
    svg: bool = True
    out: str = "out"
    label: str = "run"

    def lengths(self) -> list[float]:
        try:
            if self.L_list.strip():
                Ls = [float(t) for t in self.L_list.split(",") if t.strip()]
            else:
                steps = min(self.L_steps, MAX_BOXES + 1)
                Ls = [self.L_start * self.L_factor**i for i in range(steps)]
        except (ValueError, OverflowError) as e:
            raise ConfigError(f"bad L schedule: {e}") from None
        _require(1 <= len(Ls) <= MAX_BOXES, f"the L schedule needs 1 to {MAX_BOXES} boxes")
        _require(all(math.isfinite(L) and L > 0 for L in Ls),
                 f"L schedule entries must be finite and positive, got {Ls}")
        _require(all(b > a for a, b in zip(Ls, Ls[1:])),
                 f"L schedule must be strictly increasing, got {Ls}")
        return Ls

    def krein_shifts(self) -> list[float]:
        try:
            zs = [float(t) for t in self.krein_z.split(",") if t.strip()]
        except ValueError as e:
            raise ConfigError(f"bad krein_z: {e}") from None
        _require(len(zs) >= 1, "krein_z needs at least one shift")
        _require(all(math.isfinite(z) and z < 0 for z in zs),
                 "krein_z entries must be finite and negative")
        return zs

    def validate(self) -> None:
        """Reject unknown choices and numeric values that are not finite or in range."""
        if self.kind not in ("converge", "srs", "verify", "wick", "fourier"):
            raise ConfigError(f"unknown kind {self.kind!r}")
        if self.dim not in (1, 2):
            raise ConfigError(f"dim must be 1 or 2, got {self.dim}")
        if self.backend not in ("auto", "dense", "lanczos"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.sampling_mode not in ("sampled", "discrete-harmonic"):
            raise ConfigError(f"unknown sampling_mode {self.sampling_mode!r}")
        for key in ("beta", "h", "cutoff", "p_spacing"):
            value = getattr(self, key)
            _require(math.isfinite(value) and value > 0,
                     f"{key} must be finite and positive, got {value}")
        _require(self.h_richardson == 0 or 0 < self.h_richardson < self.h,
                 f"h_richardson must be 0 (off) or finer than h, got {self.h_richardson}")
        Ls = self.lengths()
        for h in [self.h] + ([self.h_richardson] if self.h_richardson else []):
            for L in Ls:
                ratio = L / h
                _require(math.isfinite(ratio)
                         and abs(ratio - round(ratio)) <= 1e-9 * max(1.0, ratio),
                         f"h = {h} does not divide L = {L}")
                _require(round(ratio) >= 2, f"h = {h} leaves no interior node in L = {L}")
        # the Green limit at p = 0 reads two momentum shells on each side
        _require(2 <= self.cutoff / self.p_spacing < math.inf,
                 "cutoff / p_spacing must be finite and >= 2")
        _require(math.isfinite(self.window_margin) and self.window_margin >= 0,
                 f"window_margin must be finite and >= 0, got {self.window_margin}")
        for key, low in (("quad_points", 8), ("n_random", 1), ("wick_n", 1), ("seed", 0)):
            _require(getattr(self, key) >= low, f"{key} must be >= {low}, got {getattr(self, key)}")
        _require(self.wick_n <= 12, "wick_n must be <= 12, the limit of the Ryser permanent")
        self.krein_shifts()

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse config text, rejecting unknown keys; values get schema types."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        if not eq:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        val = val.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        ftype = _FIELD_TYPES[key]
        try:
            if ftype == "bool":
                values[key] = _bool(val)
            elif ftype == "int":
                values[key] = int(val)
            elif ftype == "float":
                values[key] = float(val)
            else:
                values[key] = val
        except ValueError as e:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {e}") from None
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def parse_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    return parse_config_text(text)
