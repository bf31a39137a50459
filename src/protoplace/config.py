"""Run configuration: a JSON file of nested sections, strictly validated.

Unknown keys are rejected by name before any work starts; omitted keys take
the defaults of the section's dataclass, collected in DEFAULTS.  A single seed
drives every stage; per-stage streams are derived from it with fixed labels.
"""
from __future__ import annotations

import copy
import json
from dataclasses import fields
from pathlib import Path

from .data import SynthConfig
from .errors import ConfigError
from .hallucinate import HalluConfig
from .prototypes import TrainConfig, train_config_from
from .refine import SofConfig
from .rng import DEFAULT_SEED


def _defaults(cls) -> dict:
    """A section's defaults: its dataclass's, less the fields a section does
    not set (the top-level seed, the train mode, which only the CLI's --mode
    picks, and the hallucination section)."""
    return {f.name: f.default for f in fields(cls)
            if f.name not in ("seed", "mode", "hallucination")}


DEFAULTS: dict = {
    "seed": DEFAULT_SEED,
    "synth": _defaults(SynthConfig),
    "sof": _defaults(SofConfig),
    "train": _defaults(TrainConfig),
    "hallucination": _defaults(HalluConfig),
    "eval": {"delta_start": 0.0, "delta_stop": 1.0, "delta_step": 0.02},
}


def _merge(defaults: dict, user: dict, prefix: str = "") -> dict:
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        path = f"{prefix}{key}"
        if key not in defaults:
            raise ConfigError(f"unknown config key '{path}'")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key '{path}' must be a section")
            out[key] = _merge(defaults[key], value, prefix=f"{path}.")
        else:
            out[key] = value
    return out


def load_config(path) -> dict:
    """Parse, validate, and materialize every default."""
    try:
        user = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = _merge(DEFAULTS, user)
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    """Instantiate every typed sub-config so range errors surface up front."""
    try:
        synth_config(cfg)
        sof_config(cfg)
        train_config(cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    ev = cfg["eval"]
    if ev["delta_step"] <= 0 or ev["delta_stop"] < ev["delta_start"]:
        raise ConfigError("eval delta grid must ascend with positive step")


def synth_config(cfg: dict) -> SynthConfig:
    s = cfg["synth"]
    return SynthConfig(seed=cfg["seed"], **s)


def sof_config(cfg: dict, seed: int | None = None) -> SofConfig:
    s = cfg["sof"]
    return SofConfig(seed=cfg["seed"] if seed is None else seed, **s)


def train_config(cfg: dict, mode: str = TrainConfig.mode,
                 seed: int | None = None) -> TrainConfig:
    return train_config_from({**cfg["train"], "hallucination": cfg["hallucination"],
                              "mode": mode,
                              "seed": cfg["seed"] if seed is None else seed})


def delta_range(start: float, stop: float, step: float) -> list[float]:
    """The calibrated-stacking grid start, start + step, ... up to stop
    inclusive, each value rounded to 10 decimals.  The only grid builder:
    the config's `eval` section and the CLI's `start:stop:step` both use it."""
    if step <= 0 or stop < start:
        raise ConfigError("delta grid must ascend with positive step")
    grid = []
    d = start
    while d <= stop + 1e-12:
        grid.append(round(d, 10))
        d += step
    return grid


def delta_grid(cfg: dict) -> list[float]:
    ev = cfg["eval"]
    return delta_range(ev["delta_start"], ev["delta_stop"], ev["delta_step"])
