"""Declarative run configuration: loading, validation, canonical hashing.

A single YAML (or JSON) file drives every CLI command. Paths are resolved
against the config file's directory at load time, so the canonical config
embedded in a run manifest replays from anywhere.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import yaml

from .errors import ConfigError
from .hmc import SamplerConfig
from .ingest import SvxCoeffs, SynthSpec, TempSpec
from .predictive import PpdMode, VolMode

_MISSING = object()


def _absolute(path, base: Path) -> str:
    """`path` made absolute against `base`; config paths must be strings."""
    if not isinstance(path, str):
        raise ConfigError(f"expected a path string, got {path!r}")
    p = Path(path)
    return str(p if p.is_absolute() else (base / p).resolve())


def typed(where, mapping: dict, key: str, kind, default=_MISSING,
          lo=None, hi=None):
    """``mapping[key]`` converted by `kind` (`integer`, float, str, an
    enum or `model_family`) and, when given, bounded to [lo, hi].

    An absent or null key gives `default`, unconverted, and is an error
    when no default is given. `where` names the mapping (None for the
    config root) in the ``ConfigError`` raised for a missing key, a value
    that does not convert or one out of bounds.
    """
    name = f"{where}.{key}" if where else key
    value = mapping.get(key)
    if value is None:
        if default is _MISSING:
            raise ConfigError(f"config key '{name}' is required")
        return default
    try:
        value = kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config key '{name}': {value!r} is not a "
                          f"valid {kind.__name__}") from None
    if lo is not None and value < lo or hi is not None and value > hi:
        bounds = " and ".join(f"{op} {b}" for op, b in ((">=", lo), ("<=", hi))
                              if b is not None)
        raise ConfigError(f"config key '{name}' must be {bounds}, "
                          f"got {value!r}")
    return value


def integer(value) -> int:
    """`value` if it is an int already, for `typed`: no float, string or
    bool passes as one."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(value)
    return value


def model_family(value) -> str:
    """`value` if it names a model family, for `typed`."""
    if value not in ("baseline", "svx"):
        raise ValueError(value)
    return value


def _coefficients(where: str, mapping, cls):
    """`cls` built from the config mapping at `where`: every field a float,
    an absent or null field its default, an unknown key a ``ConfigError``."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"config key '{where}' must be a mapping, "
                          f"got {mapping!r}")
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = [key for key in mapping if key not in defaults]
    if unknown:
        raise ConfigError(f"config key '{where}': unknown keys {unknown!r}; "
                          f"expected some of {list(defaults)}")
    return cls(**{name: typed(where, mapping, name, float, default)
                  for name, default in defaults.items()})


@dataclass
class RunConfig:
    raw: dict

    @classmethod
    def load(cls, path) -> "RunConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        try:
            raw = yaml.safe_load(path.read_text())
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a mapping")
        return cls.from_dict(raw, base_dir=path.parent)

    @classmethod
    def from_dict(cls, raw: dict, base_dir=None) -> "RunConfig":
        raw = dict(raw)
        base = Path(base_dir) if base_dir is not None else Path.cwd()
        if "data" in raw:
            raw["data"] = _normalize_data(raw["data"], base)
        if "output_dir" in raw:
            raw["output_dir"] = _absolute(raw["output_dir"], base)
        cfg = cls(raw)
        diag = cfg.section("diagnose")
        if diag.get("fit"):
            raw["diagnose"] = {**diag, "fit": _absolute(diag["fit"], base)}
        cfg.seed, cfg.hour, cfg.zone, cfg.model  # a bad value fails the load
        return cfg

    # -- generic access -----------------------------------------------------

    def get(self, *keys, default=None):
        node = self.raw
        for k in keys:
            if not isinstance(node, dict) or k not in node:
                return default
            node = node[k]
        return node

    def section(self, name: str) -> dict:
        """The top-level mapping `name`; ``{}`` when it is absent or null."""
        node = self.raw.get(name)
        if node is None:
            return {}
        if not isinstance(node, dict):
            raise ConfigError(f"config key {name!r} must be a mapping, "
                              f"got {node!r}")
        return node

    # -- typed accessors ----------------------------------------------------

    @property
    def seed(self) -> int:
        return typed(None, self.raw, "seed", integer)

    @property
    def output_dir(self) -> Path:
        return Path(typed(None, self.raw, "output_dir", str))

    @property
    def hour(self) -> int:
        return typed(None, self.raw, "hour", integer, 14, 0, 23)

    @property
    def zone(self) -> int:
        return typed(None, self.raw, "zone", integer, 1, 1, 2)

    @property
    def model(self) -> str:
        return typed(None, self.raw, "model", model_family, "baseline")

    def data_path(self, kind: str, zone: int) -> Path:
        table = self.get("data", kind)
        if not table:
            raise ConfigError(f"config key data.{kind} is required")
        path = table.get(str(zone))
        if path is None:
            raise ConfigError(f"no data.{kind} entry for zone {zone}")
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"data.{kind} path {p} does not exist")
        return p

    def sampler_config(self) -> SamplerConfig:
        section = self.section("sampler")
        keys = {"chains": ("n_chains", integer), "warmup": ("warmup", integer),
                "draws": ("draws", integer),
                "leapfrog_steps": ("leapfrog_steps", integer),
                "target_accept": ("target_accept", float),
                "max_workers": ("max_workers", integer)}
        return SamplerConfig(**{
            attr: typed("sampler", section, key, kind)
            for key, (attr, kind) in keys.items()
            if section.get(key) is not None})

    def forecast_settings(self) -> dict:
        value = partial(typed, "forecast", self.section("forecast"))
        return {
            "horizon": value("horizon", integer, 7),
            "n_draws": value("n_draws", integer, 1000, 1),
            "mode": value("mode", PpdMode, PpdMode.POINT_ESTIMATE),
            "vol_mode": value("vol_mode", VolMode, VolMode.PROPAGATE),
        }

    def synth_spec(self) -> SynthSpec:
        section = self.section("synth")
        value = partial(typed, "synth", section)
        svx = section.get("svx")
        return SynthSpec(
            mu=value("mu", float),
            phi=value("phi", float),
            sigma=value("sigma", float),
            n_days=value("n_days", integer),
            mean_price=value("mean_price", float),
            seed=self.seed,
            start_date=value("start_date", str, "2020-01-01"),
            hour=value("hour", integer, self.hour),
            zone=value("zone", integer, self.zone, 1, 2),
            hourly_amp_price=value("hourly_amp_price", float, 0.0),
            hourly_amp_temp=value("hourly_amp_temp", float, 0.0),
            svx=_coefficients("synth.svx", svx, SvxCoeffs) if svx else None,
            temp=_coefficients("synth.temp", section.get("temp") or {},
                               TempSpec),
        )

    # -- canonical form -----------------------------------------------------

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _normalize_data(data, base: Path) -> dict:
    if not isinstance(data, dict):
        raise ConfigError("config key 'data' must be a mapping")
    out = {}
    for kind, table in data.items():
        if isinstance(table, str):
            table = {1: table}
        if not isinstance(table, dict):
            raise ConfigError(f"data.{kind} must be a path or zone->path mapping")
        norm = {}
        for zone, path in table.items():
            try:
                z = int(zone)
            except (TypeError, ValueError):
                raise ConfigError(f"data.{kind} zone key {zone!r} is not an integer")
            norm[str(z)] = _absolute(path, base)
        out[kind] = norm
    return out

