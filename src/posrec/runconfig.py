"""Run-configuration files.

A run config is a YAML mapping with up to six sections — preset, data,
model, encoding, sweep, out — validated strictly: an unknown key anywhere
is an error, never silently ignored.  CLI flags overlay the file
(`cli._run_config`), and the file overlays the preset.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field

import yaml

from .data import (DEFAULT_MIN_INTERACTIONS, InteractionDataset, load_attributes,
                   load_interactions, read_input)
from .encodings import EncodingConfig
from .errors import UserError, require_int
from .model import ModelConfig
from .presets import get_preset

TOP_KEYS = {"preset", "data", "model", "encoding", "sweep", "out"}
DATA_KEYS = {"path", "attributes", "min_interactions"}
MODEL_KEYS = {f.name for f in dataclasses.fields(ModelConfig)} - {"encoding"}
ENCODING_KEYS = {f.name for f in dataclasses.fields(EncodingConfig)}
SWEEP_KEYS = {"seeds", "jobs"}


class _ConfigLoader(yaml.SafeLoader):
    """SafeLoader plus the YAML 1.2 float rule, so that `5e-3` and `1e-4`,
    which YAML 1.1 reads as strings for want of a dot, are floats."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+.0123456789"),
)


def _check_keys(section: str, mapping: dict, allowed: set) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise UserError(
            f"unknown key '{unknown[0]}' in {section}; "
            f"allowed keys: {', '.join(sorted(allowed))}"
        )


def _require_mapping(section: str, value) -> dict:
    if not isinstance(value, dict):
        raise UserError(f"{section} must be a mapping, got {type(value).__name__}")
    return value


@dataclass
class RunConfig:
    preset: str | None = None
    data: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    encoding: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    out: str | None = None


def parse_run_config(raw) -> RunConfig:
    if raw is None:
        raw = {}
    raw = _require_mapping("run config", raw)
    _check_keys("run config", raw, TOP_KEYS)

    data = _require_mapping("section 'data'", raw.get("data") or {})
    _check_keys("section 'data'", data, DATA_KEYS)

    model = _require_mapping("section 'model'", raw.get("model") or {})
    if "encoding" in model:
        raise UserError("the encoding belongs in its own 'encoding' section, "
                        "not under 'model'")
    _check_keys("section 'model'", model, MODEL_KEYS)

    encoding = raw.get("encoding") or {}
    if isinstance(encoding, str):
        encoding = {"variant": encoding}
    encoding = _require_mapping("section 'encoding'", encoding)
    _check_keys("section 'encoding'", encoding, ENCODING_KEYS)

    sweep = _require_mapping("section 'sweep'", raw.get("sweep") or {})
    _check_keys("section 'sweep'", sweep, SWEEP_KEYS)
    if not isinstance(sweep.get("seeds", []), list):
        raise UserError("sweep.seeds must be a list of integers")
    for seed in sweep.get("seeds", []):
        require_int("sweep.seeds entry", seed)
    if "jobs" in sweep:
        require_int("sweep.jobs", sweep["jobs"])

    preset = raw.get("preset")
    if preset is not None:
        get_preset(str(preset))  # fail early with the list of names

    out = raw.get("out")
    return RunConfig(
        preset=None if preset is None else str(preset),
        data=data,
        model=model,
        encoding=encoding,
        sweep=sweep,
        out=None if out is None else str(out),
    )


def load_run_config(path: str) -> RunConfig:
    text = read_input(path, "config")
    try:
        raw = yaml.load(text, Loader=_ConfigLoader)
    except yaml.YAMLError as err:
        raise UserError(f"config {path} is not valid YAML: {err}") from None
    return parse_run_config(raw)


def build_model_config(rc: RunConfig) -> ModelConfig:
    """The preset overlaid by the `model` and `encoding` sections; ModelConfig
    fills in and checks the rest."""
    kwargs = {**(get_preset(rc.preset) if rc.preset is not None else {}), **rc.model}
    return ModelConfig(encoding=EncodingConfig(**rc.encoding), **kwargs)


def resolve_dataset(data: dict) -> InteractionDataset:
    """The log that a `data:` section names, with its sidecar."""
    if data.get("path") is None:
        raise UserError("no data source: give data.path in the config, or pass --data")
    minimum = require_int("data.min_interactions",
                          data.get("min_interactions", DEFAULT_MIN_INTERACTIONS))
    if minimum < 1:
        raise UserError(f"data.min_interactions (--min-interactions) must be >= 1, got {minimum}")
    ds = load_interactions(str(data["path"]), minimum)
    if data.get("attributes"):
        load_attributes(str(data["attributes"]), ds)
    return ds
