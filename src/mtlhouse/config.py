"""Experiment configuration: one JSON file describing data, tasks, and methods.

Task definitions use the compact grammar of :mod:`mtlhouse.tasks`
(``region:SA3``, ``school:primary:1-40``, ``station:4000``,
``facility:2:shop,market``, ``intersect(region:SA3, station:4000)``).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, Union

from .backtest import MethodSpec
from .data import Dataset, FeatureSchema, load_dataset, melbourne_schema
from .design import WeightMatrix
from .solver import SolverParams
from .synthetic import SyntheticConfig, generate_synthetic, synthetic_schema
from .tasks import TaskDefinition, parse_definition


class ConfigError(ValueError):
    """The experiment configuration file is invalid."""


@dataclass(frozen=True)
class DataSource:
    path: Optional[str] = None
    schema: str = "melbourne"  # melbourne | synthetic
    n_features: Optional[int] = None
    synthetic: Optional[SyntheticConfig] = None

    def __post_init__(self):
        if (self.path is None) == (self.synthetic is None):
            raise ConfigError("data source needs exactly one of 'path' or 'synthetic'")
        if self.path is not None:
            if self.schema not in ("melbourne", "synthetic"):
                raise ConfigError(f"unknown schema {self.schema!r}")
            if self.schema == "synthetic" and self.n_features is None:
                raise ConfigError("schema 'synthetic' needs n_features")

    def resolve_schema(self) -> FeatureSchema:
        if self.synthetic is not None:
            return synthetic_schema(self.synthetic.n_features)
        if self.schema == "synthetic":
            return synthetic_schema(self.n_features)
        return melbourne_schema()


@dataclass(frozen=True)
class ExperimentConfig:
    source: DataSource
    definition_texts: tuple[str, ...]
    methods: tuple[MethodSpec, ...]
    k: int = 3
    h: int = 1
    benchmark: Optional[str] = None
    out_dir: str = "results"
    seed: Optional[int] = None
    raw: Optional[dict] = None  # the dict this config was loaded from

    def __post_init__(self):
        if not self.definition_texts:
            raise ConfigError("need at least one task definition")
        if not self.methods:
            raise ConfigError("need at least one method")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.h != 1:
            raise ConfigError("only a one-month horizon (h = 1) is supported")
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

    def with_seed(self, seed: Optional[int]) -> "ExperimentConfig":
        if seed is None:
            return self
        return replace(self, seed=seed)

    def effective_seed(self) -> Optional[int]:
        if self.seed is not None:
            return self.seed
        if self.source.synthetic is not None:
            return self.source.synthetic.seed
        return None

    def resolve_dataset(self) -> tuple[Dataset, Optional[WeightMatrix]]:
        """Load the file source or generate the synthetic source."""
        if self.source.synthetic is not None:
            synth = self.source.synthetic
            if self.seed is not None and self.seed != synth.seed:
                synth = replace(synth, seed=self.seed)
            return generate_synthetic(synth)
        dataset = load_dataset(self.source.path, self.source.resolve_schema())
        return dataset, None


def _method_from_dict(raw: dict) -> MethodSpec:
    if "kind" not in raw:
        raise ConfigError(f"method entry {raw} is missing 'kind'")
    kind = raw["kind"]
    label = raw.get("label", kind)
    solver_raw = raw.get("solver", {})
    accepted = [f.name for f in fields(SolverParams)]
    if not isinstance(solver_raw, dict) or not set(solver_raw) <= set(accepted):
        raise ConfigError(
            f"method {label!r}: 'solver' must be a mapping with keys among {accepted},"
            f" got {solver_raw!r}"
        )
    try:
        solver = SolverParams(**solver_raw)
    except ValueError as exc:
        raise ConfigError(f"method {label!r}: {exc}") from None

    def grid(name) -> tuple[float, ...]:
        value = raw.get(name, ())
        if isinstance(value, (int, float)):
            value = (value,)
        return tuple(float(v) for v in value)

    try:
        return MethodSpec(
            label=label,
            kind=kind,
            theta1=grid("theta1"),
            theta2=grid("theta2"),
            penalty=grid("penalty"),
            solver=solver,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"method {label!r}: {exc}") from None


def _integer(raw: dict, name: str, default: Optional[int]) -> Optional[int]:
    """``raw[name]``, which must be an integer and not a bool; ``default`` if absent or null."""
    value = raw.get(name)
    if value is None:
        return default
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigError(f"{name!r} must be an integer, got {value!r}")
    return value


def config_from_dict(raw: dict) -> ExperimentConfig:
    if "data" not in raw:
        raise ConfigError("config is missing the 'data' section")
    data = raw["data"]
    synthetic = None
    if "synthetic" in data:
        section = data["synthetic"]
        required = [f.name for f in fields(SyntheticConfig)]
        if not isinstance(section, dict):
            raise ConfigError(f"'synthetic' must be a mapping with keys {required}")
        missing = [name for name in required if name not in section]
        if missing:
            raise ConfigError(f"'synthetic' section is missing keys {missing}")
        synthetic = SyntheticConfig.from_dict(section)
    source = DataSource(
        path=data.get("path"),
        schema=data.get("schema", "melbourne"),
        n_features=data.get("n_features"),
        synthetic=synthetic,
    )
    methods = tuple(_method_from_dict(m) for m in raw.get("methods", []))
    return ExperimentConfig(
        source=source,
        definition_texts=tuple(raw.get("task_definitions", ())),
        methods=methods,
        k=_integer(raw, "k", 3),
        h=_integer(raw, "h", 1),
        benchmark=raw.get("benchmark"),
        out_dir=raw.get("out_dir", "results"),
        seed=_integer(raw, "seed", None),
        raw=raw,
    )


def load_config(path: Union[str, Path]) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    return config_from_dict(raw)
