"""Run configuration: a JSON file of nested sections, strictly validated.

Unknown keys are rejected by name before any work starts; omitted keys take
the defaults of the section's dataclass, collected in DEFAULTS.  A single seed
drives every stage; per-stage streams are derived from it with fixed labels.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields

from .data import SynthConfig, read_json
from .errors import ConfigError, require_real
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


@dataclass(frozen=True)
class RunConfig:
    """A loaded config: `record`, the merged dict that manifests record, and
    its typed sections.  `train` is in s2v_baseline mode, which hallucinates
    nothing; dataclasses.replace, which checks again, gives a run its mode,
    seed or hallucination value, and so the n_neighbors bound of its mode."""
    record: dict
    synth: SynthConfig
    sof: SofConfig
    train: TrainConfig
    grid: list[float]


def load_config(path) -> RunConfig:
    """Parse, validate, and materialize every default; each typed section
    and the delta grid is built once, here, so errors surface up front."""
    try:
        user = read_json(path)
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:  # not JSON, or a repeated key
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    record = _merge(DEFAULTS, user)
    seed = record["seed"]
    try:
        return RunConfig(
            record=record,
            synth=SynthConfig(seed=seed, **record["synth"]),
            sof=SofConfig(seed=seed, **record["sof"]),
            train=train_config_from({**record["train"], "mode": "s2v_baseline",
                                     "hallucination": record["hallucination"],
                                     "seed": seed}),
            grid=delta_grid(record))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


# The most deltas a delta range may hold; each costs the sweep one pass over
# the scores.
MAX_DELTAS = 100_000
# The most values the ranges of `sweep --values` may expand to, and the most
# seeds of `ablate --seeds`; each value, or each seed's ladder, trains.
MAX_SERIES = 10_000


def delta_range(start: float, stop: float, step: float) -> list[float]:
    """The calibrated-stacking grid start, start + step, ... up to stop
    inclusive, each value rounded to 10 decimals.  The only grid builder:
    the config's `eval` section and the CLI's `start:stop:step` both use it.

    ParameterError (errors.require_real) unless start, stop and step are
    real numbers; ConfigError unless they are finite, step > 0 and
    stop >= start, and the grid holds at most MAX_DELTAS deltas.  The walk
    runs while d <= end = stop + 1e-12, so a range with
    (end - start) / step >= MAX_DELTAS fails before any grid is built.
    Rounding can still make a step move d by less than `step`, or not at
    all where `step` is below the float spacing, so the walk itself stops
    past MAX_DELTAS deltas too."""
    for name, value in (("start", start), ("stop", stop), ("step", step)):
        require_real(f"delta grid {name}", value)
        if not -math.inf < value < math.inf:
            raise ConfigError(f"delta grid {name} must be a finite number, "
                              f"got {value!r}")
    if step <= 0 or stop < start:
        raise ConfigError("delta grid must ascend with positive step")
    end = stop + 1e-12
    too_long = f"delta grid {start}:{stop}:{step} holds more than {MAX_DELTAS} deltas"
    if not (end - start) / step < MAX_DELTAS:
        raise ConfigError(too_long)
    grid = []
    d = start
    while d <= end:
        if len(grid) == MAX_DELTAS:
            raise ConfigError(too_long)
        grid.append(round(d, 10))
        d += step
    return grid


def delta_grid(cfg: dict) -> list[float]:
    ev = cfg["eval"]
    return delta_range(ev["delta_start"], ev["delta_stop"], ev["delta_step"])
