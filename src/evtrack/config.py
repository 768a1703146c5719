"""Run configuration: one flat namespace over every tunable.

Config files are flat "key = value" text; [section] headers are allowed
for grouping but carry no meaning, and '#' starts a comment. Unknown keys
are rejected. Command-line overrides beat file values, which beat
defaults.

Each key belongs to exactly one dataclass: the tracker fields to
`TrackerConfig`, the training fields to `TrainConfig`, and the
synthetic-data fields to `RunConfig` itself. Each dataclass declares its
fields' defaults and checks their values when it is built, so a bad value
fails in `load_config`, before any model exists. `TrackerConfig` is the
only tracker schema: the encoders, fusion and refiner read it directly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .pipeline import TrackerConfig
from .training import TrainConfig


@dataclass
class RunConfig:
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    # synthetic data
    scenes: int = 3
    synth_width: int = 64
    synth_height: int = 64
    sprites: int = 2
    duration_us: int = 600_000
    frame_period_us: int = 100_000
    theta: float = 0.2
    dt_sim_us: int = 1000
    translate_only: bool = False
    speed_min: float = 25.0
    speed_max: float = 55.0

    def __post_init__(self):
        for name, low in (("scenes", 1), ("synth_width", 1), ("synth_height", 1), ("sprites", 1),
                          ("duration_us", 1), ("frame_period_us", 1), ("dt_sim_us", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not 0 < self.theta < np.inf:
            raise ConfigError(f"theta must be positive and finite, got {self.theta}")
        for name in ("speed_min", "speed_max"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be >= 0 and finite, got {getattr(self, name)}")
        if self.speed_min > self.speed_max:
            raise ConfigError("speed_min exceeds speed_max")


_SECTIONS = {"tracker": TrackerConfig, "train": TrainConfig}
# flat key -> (section the key is routed to, or None for RunConfig's own; its field)
_KEYS = {f.name: (section, f) for section, cls in _SECTIONS.items()
         for f in dataclasses.fields(cls)}
_KEYS.update({f.name: (None, f) for f in dataclasses.fields(RunConfig)
              if f.name not in _SECTIONS})


def _coerce(key: str, raw: str):
    if key not in _KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    # every config module defers annotations, so a field's type is its source string
    kind = _KEYS[key][1].type.removesuffix(" | None")  # an optional value parses as its type
    raw = raw.strip()
    try:
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def parse_config_text(text: str) -> dict:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            continue  # grouping only
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno} is not 'key = value': {line.strip()!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        values[key] = _coerce(key, raw)
    return values


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then file values, then overrides; validated as a whole."""
    values = {}
    if path is not None:
        with open(path) as f:
            values.update(parse_config_text(f.read()))
    for key, raw in (overrides or {}).items():
        values[key] = _coerce(key, raw) if isinstance(raw, str) else raw
    routed = {section: {} for section in (*_SECTIONS, None)}
    for key, value in values.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        routed[_KEYS[key][0]][key] = value
    return RunConfig(**{section: cls(**routed[section]) for section, cls in _SECTIONS.items()},
                     **routed[None])
