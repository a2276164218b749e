"""Run-configuration files.

A run config is a YAML mapping with up to six sections — preset, data,
model, encoding, sweep, out — validated strictly: an unknown key anywhere
is an error, never silently ignored.  CLI flags overlay the file, and the
file overlays the preset.
"""

from __future__ import annotations

import dataclasses
import os
import re
from dataclasses import dataclass, field

import yaml

from . import synth
from .data import InteractionDataset, load_attributes, load_interactions
from .encodings import EncodingConfig
from .errors import UserError, require_int
from .model import ModelConfig
from .presets import get_preset

TOP_KEYS = {"preset", "data", "model", "encoding", "sweep", "out"}
DATA_KEYS = {"path", "attributes", "min_interactions", "synth"}
SYNTH_KEYS = {"profile", "users", "items", "seq_len", "seed", "shift"}
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
    source_path: str | None = None


def parse_run_config(raw, source_path: str | None = None) -> RunConfig:
    if raw is None:
        raw = {}
    raw = _require_mapping("run config", raw)
    _check_keys("run config", raw, TOP_KEYS)

    data = _require_mapping("section 'data'", raw.get("data") or {})
    _check_keys("section 'data'", data, DATA_KEYS)
    if "synth" in data:
        sy = _require_mapping("section 'data.synth'", data["synth"])
        _check_keys("section 'data.synth'", sy, SYNTH_KEYS)
        if "path" in data:
            raise UserError("section 'data' must give either 'path' or 'synth', not both")

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
        source_path=source_path,
    )


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_ConfigLoader)
    except OSError as err:
        raise UserError(f"cannot read config {path}: {err}") from None
    except yaml.YAMLError as err:
        raise UserError(f"config {path} is not valid YAML: {err}") from None
    return parse_run_config(raw, source_path=os.path.abspath(path))


def build_model_config(rc: RunConfig, overrides: dict | None = None) -> ModelConfig:
    """preset < file < flags; ModelConfig fills in and checks the rest."""
    kwargs: dict = {}
    if rc.preset:
        kwargs.update(get_preset(rc.preset))
    kwargs.update(rc.model)

    enc = dict(rc.encoding)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key == "encoding":
            enc["variant"] = value
        else:
            kwargs[key] = value

    return ModelConfig(encoding=EncodingConfig(**enc), **kwargs)


def resolve_dataset(data_section: dict, path_override: str | None = None) -> InteractionDataset:
    data = dict(data_section)
    if path_override is not None:
        data["path"] = path_override
        data.pop("synth", None)

    if "synth" in data:
        sy = {"seed": 0, **data["synth"]}
        for required in ("profile", "users", "items", "seq_len"):
            if required not in sy:
                raise UserError(f"data.synth needs '{required}'")
        counts = {key: require_int(f"data.synth.{key}", value)
                  for key, value in sy.items() if key != "profile"}
        return synth.build_dataset(str(sy["profile"]), **counts)

    if "path" not in data:
        raise UserError("no data source: give data.path / data.synth in the "
                        "config, or pass --data")
    path = str(data["path"])
    if path.endswith(".npz") and "min_interactions" in data:
        raise UserError("min_interactions applies to raw logs, not .npz caches")
    if "min_interactions" in data:
        ds = load_interactions(path, min_interactions=require_int("data.min_interactions",
                                                                  data["min_interactions"]))
    else:
        ds = load_interactions(path)
    if "attributes" in data and data["attributes"]:
        load_attributes(str(data["attributes"]), ds)
    return ds
