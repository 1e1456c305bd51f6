"""Experiment configuration: one JSON file describing data, tasks, and methods.

Task definitions use the compact grammar of :mod:`mtlhouse.tasks`
(``region:SA3``, ``school:primary:1-40``, ``station:4000``,
``facility:2:shop,market``, ``intersect(region:SA3, station:4000)``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Union

from .backtest import GRIDS, MethodSpec
from .data import Dataset, FeatureSchema, load_dataset, melbourne_schema
from .design import WeightMatrix
from .solver import SolverParams
from .synthetic import SyntheticConfig, generate_synthetic, synthetic_schema
from .tasks import TaskDefinition, parse_definition
from .values import is_integer, is_real


class ConfigError(ValueError):
    """The experiment configuration file is invalid."""


TOP_LEVEL_KEYS = ("data", "task_definitions", "methods", "k", "benchmark", "out_dir")
DATA_KEYS = ("path", "schema", "n_features", "synthetic")
METHOD_KEYS = ("label", "kind", "solver") + GRIDS


def _section(raw, where: str, accepted) -> dict:
    """``raw``, which must be a mapping whose keys are among ``accepted``."""
    accepted = list(accepted)
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a mapping with keys among {accepted}, got {raw!r}")
    for key in raw:
        if key not in accepted:
            raise ConfigError(f"{where} has unknown key {key!r}; accepted keys are {accepted}")
    return raw


def _require_integer(name: str, value) -> None:
    if not is_integer(value):
        raise ConfigError(f"{name!r} must be an integer, got {value!r}")


def _require_string(name: str, value) -> None:
    if not isinstance(value, str):
        raise ConfigError(f"{name!r} must be a string, got {value!r}")


@dataclass(frozen=True)
class FileSource:
    """A data file read with the melbourne schema, or the synthetic one of n_features."""

    path: str
    schema: str = "melbourne"  # melbourne | synthetic
    n_features: Optional[int] = None

    def __post_init__(self):
        _require_string("path", self.path)
        if self.schema not in ("melbourne", "synthetic"):
            raise ConfigError(f"'schema' must be 'melbourne' or 'synthetic', got {self.schema!r}")
        if (self.schema == "synthetic") != (self.n_features is not None):
            raise ConfigError(
                "'n_features' is required with schema 'synthetic' and allowed only there"
            )
        if self.n_features is not None:
            _require_integer("n_features", self.n_features)
            if self.n_features < 1:
                raise ConfigError(f"'n_features' must be >= 1, got {self.n_features}")

    def feature_schema(self) -> FeatureSchema:
        if self.schema == "synthetic":
            return synthetic_schema(self.n_features)
        return melbourne_schema()


@dataclass(frozen=True)
class ExperimentConfig:
    source: Union[FileSource, SyntheticConfig]
    definition_texts: tuple[str, ...]
    methods: tuple[MethodSpec, ...]
    k: int = 3
    benchmark: Optional[str] = None
    out_dir: str = "results"
    raw: Optional[dict] = None  # the dict this config was loaded from

    def __post_init__(self):
        if not self.definition_texts:
            raise ConfigError("need at least one task definition")
        if not self.methods:
            raise ConfigError("need at least one method")
        _require_integer("k", self.k)
        _require_string("out_dir", self.out_dir)
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        labels = [m.label for m in self.methods]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate method labels in {labels}")
        if self.benchmark is not None and self.benchmark not in labels:
            raise ConfigError(f"benchmark {self.benchmark!r} not among methods {labels}")
        for text in self.definition_texts:
            parse_definition(text)  # raises a position-bearing ParseError

    @property
    def benchmark_label(self) -> str:
        return self.benchmark if self.benchmark is not None else self.methods[0].label

    def definitions(self) -> tuple[TaskDefinition, ...]:
        return tuple(parse_definition(t) for t in self.definition_texts)

    def resolve_dataset(self) -> tuple[Dataset, Optional[WeightMatrix]]:
        """Load the file source or generate the synthetic source."""
        if isinstance(self.source, SyntheticConfig):
            return generate_synthetic(self.source)
        return load_dataset(self.source.path, self.source.feature_schema()), None


def _method_from_dict(raw: dict) -> MethodSpec:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError(f"method entry {raw} is missing 'kind'")
    kind = raw["kind"]
    _require_string("kind", kind)
    label = raw.get("label", kind)
    _require_string("label", label)
    _section(raw, f"method {label!r}", METHOD_KEYS)
    solver_raw = _section(
        raw.get("solver", {}), f"method {label!r}: 'solver'", [f.name for f in fields(SolverParams)]
    )
    try:
        solver = SolverParams(**solver_raw)
    except ValueError as exc:
        raise ConfigError(f"method {label!r}: {exc}") from None

    def grid(name) -> tuple[float, ...]:
        values = raw.get(name, ())
        if not isinstance(values, (list, tuple)):
            values = (values,)
        for v in values:
            if not is_real(v):
                raise ValueError(f"{name} values must be real numbers, got {v!r}")
        return tuple(float(v) for v in values)

    try:
        return MethodSpec(label=label, kind=kind, solver=solver, **{g: grid(g) for g in GRIDS})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"method {label!r}: {exc}") from None


def _source_from_dict(data: dict) -> Union[FileSource, SyntheticConfig]:
    """``{"synthetic": {...}}`` alone, or a file's ``path``, ``schema`` and ``n_features``."""
    if "synthetic" not in data:
        if "path" not in data:
            raise ConfigError("'data' section needs 'path' or 'synthetic'")
        return FileSource(**data)
    for key in data:
        if key != "synthetic":
            raise ConfigError(f"'data' section: {key!r} is not allowed next to 'synthetic'")
    required = [f.name for f in fields(SyntheticConfig)]
    section = _section(data["synthetic"], "'synthetic' section", required)
    missing = [name for name in required if name not in section]
    if missing:
        raise ConfigError(f"'synthetic' section is missing keys {missing}")
    try:
        return SyntheticConfig.from_dict(section)
    except ValueError as exc:
        raise ConfigError(f"'synthetic' section: {exc}") from None


def config_from_dict(raw: dict) -> ExperimentConfig:
    _section(raw, "config", TOP_LEVEL_KEYS)
    if "data" not in raw:
        raise ConfigError("config is missing the 'data' section")
    texts = raw.get("task_definitions", [])
    if not (isinstance(texts, list) and all(isinstance(t, str) for t in texts)):
        raise ConfigError(f"'task_definitions' must be a list of strings, got {texts!r}")
    methods = raw.get("methods", [])
    if not isinstance(methods, list):
        raise ConfigError(f"'methods' must be a list of method entries, got {methods!r}")
    settings = {key: raw[key] for key in ("k", "benchmark", "out_dir") if key in raw}
    return ExperimentConfig(
        source=_source_from_dict(_section(raw["data"], "'data' section", DATA_KEYS)),
        definition_texts=tuple(texts),
        methods=tuple(_method_from_dict(m) for m in methods),
        raw=raw,
        **settings,
    )


def load_config(path: Union[str, Path]) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8-sig"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    return config_from_dict(raw)
