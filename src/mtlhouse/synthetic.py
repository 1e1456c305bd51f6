"""Calibrated synthetic transaction data with planted multi-task structure.

Numeric features are drawn uniformly inside realistic Melbourne-style ranges.
Each record belongs to one planted task (exposed through the SA3 region code,
with SA4 a coarser grouping of four tasks apiece); log prices follow a shared
sparse linear model plus small per-task coefficient deviations and optional
observation noise, and the planted weight matrix is returned for recovery
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .data import Dataset, FeatureSchema, month_index, sort_codes
from .design import INTERCEPT, WeightMatrix
from .values import is_integer, is_real

# (name, low, high) inventory used to calibrate generated numeric features;
# the first n_features entries are used, generic unit-range features beyond.
NUMERIC_RANGES: tuple[tuple[str, float, float], ...] = (
    ("LAND_SIZE", 340.0, 2500.0),
    ("INCOME", 935.0, 2836.0),
    ("DIST_STATION", 23.0, 5040.0),
    ("TIME_STATION", 1.0, 126.0),
    ("DIST_CBD", 1300.0, 82600.0),
    ("TIME_CBD", 6.0, 101.0),
    ("DRIVE_DIST_CBD", 1245.0, 83497.0),
    ("DRIVE_TIME_CBD", 10.0, 120.0),
    ("DIST_SHOP", 5.0, 4999.0),
    ("DIST_HOSPITAL", 15.0, 5000.0),
    ("DIST_GP", 8.0, 4999.0),
    ("DIST_MARKET", 25.0, 5000.0),
    ("BEDROOMS", 1.0, 5.0),
    ("BATHROOMS", 1.0, 3.0),
    ("PARKING", 1.0, 5.0),
)

START_MONTH = month_index("2014-10")
BASE_LOG_PRICE = 13.4  # roughly the log of a typical sale price
TASK_KEY = "SA3"
COARSE_KEY = "SA4"
TASKS_PER_COARSE_REGION = 4

MonthlyCount = Union[int, tuple[int, int]]


@dataclass(frozen=True)
class SyntheticConfig:
    n_tasks: int
    n_features: int
    samples_per_task_per_month: Union[MonthlyCount, Sequence[MonthlyCount]]
    months: int
    shared_support_size: int
    coefficient_noise: float
    observation_noise: float
    seed: int

    def __post_init__(self):
        for name in ("n_tasks", "n_features", "months", "shared_support_size", "seed"):
            if not is_integer(getattr(self, name)):
                raise ValueError(f"{name!r} must be an integer, got {getattr(self, name)!r}")
        for name in ("coefficient_noise", "observation_noise"):
            value = getattr(self, name)
            if not is_real(value):
                raise ValueError(f"{name!r} must be a real number, got {value!r}")
        if min(self.n_tasks, self.n_features, self.months, self.shared_support_size) < 1:
            raise ValueError("all counts must be >= 1")
        if self.shared_support_size > self.n_features:
            raise ValueError("shared_support_size cannot exceed n_features")
        if self.coefficient_noise < 0 or self.observation_noise < 0:
            raise ValueError("noise parameters must be nonnegative")
        spec = self.samples_per_task_per_month
        for lo, hi in self.monthly_count_bounds():
            if lo < 0 or hi < max(lo, 1):
                if _is_count(spec) and not is_integer(spec):  # one pair for every task
                    raise ValueError(
                        f"'samples_per_task_per_month' {list(spec)}: a two-integer list is one"
                        " [low, high] range for every task and needs 0 <= low <= high, high >= 1;"
                        f" per-task counts for two tasks are written [[{lo}, {lo}], [{hi}, {hi}]]"
                    )
                raise ValueError(f"bad monthly sample bounds ({lo}, {hi})")

    def monthly_count_bounds(self) -> tuple[tuple[int, int], ...]:
        """Per-task (low, high) bounds for the monthly sample count draw."""
        spec = self.samples_per_task_per_month
        if _is_count(spec):
            return (_count_bounds(spec),) * self.n_tasks
        if not isinstance(spec, (tuple, list)) or not all(_is_count(e) for e in spec):
            raise ValueError(
                "'samples_per_task_per_month' must be an integer or a [low, high] pair of"
                f" integers, or a list of those with one per task; got {spec!r}"
            )
        if len(spec) != self.n_tasks:
            raise ValueError(
                f"per-task sample spec has {len(spec)} entries for {self.n_tasks} tasks"
            )
        return tuple(_count_bounds(e) for e in spec)

    def to_dict(self) -> dict:
        spec = self.samples_per_task_per_month
        if not isinstance(spec, int):
            spec = [list(e) if not isinstance(e, int) else e for e in spec]
        return {
            "n_tasks": self.n_tasks,
            "n_features": self.n_features,
            "samples_per_task_per_month": spec,
            "months": self.months,
            "shared_support_size": self.shared_support_size,
            "coefficient_noise": float(self.coefficient_noise),
            "observation_noise": float(self.observation_noise),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "SyntheticConfig":
        spec = raw["samples_per_task_per_month"]
        if isinstance(spec, list):
            spec = tuple(tuple(e) if isinstance(e, list) else e for e in spec)
        return cls(
            n_tasks=raw["n_tasks"],
            n_features=raw["n_features"],
            samples_per_task_per_month=spec,
            months=raw["months"],
            shared_support_size=raw["shared_support_size"],
            coefficient_noise=raw["coefficient_noise"],
            observation_noise=raw["observation_noise"],
            seed=raw["seed"],
        )


def _is_count(value) -> bool:
    """A monthly count: an integer, or a (low, high) pair of integers."""
    return is_integer(value) or (
        isinstance(value, (tuple, list)) and len(value) == 2 and all(map(is_integer, value))
    )


def _count_bounds(count) -> tuple[int, int]:
    return (count, count) if is_integer(count) else tuple(count)


def feature_ranges(n_features: int) -> tuple[tuple[str, float, float], ...]:
    ranges = list(NUMERIC_RANGES[:n_features])
    for i in range(len(ranges), n_features):
        ranges.append((f"X{i:02d}", 0.0, 1.0))
    return tuple(ranges)


def range_stats(n_features: int) -> tuple[np.ndarray, np.ndarray]:
    """Population mean and standard deviation of each uniform feature draw."""
    ranges = feature_ranges(n_features)
    means = np.array([(lo + hi) / 2.0 for _, lo, hi in ranges])
    stds = np.array([(hi - lo) / math.sqrt(12.0) for _, lo, hi in ranges])
    return means, stds


def synthetic_schema(n_features: int) -> FeatureSchema:
    numeric = tuple(name for name, _, _ in feature_ranges(n_features))
    return FeatureSchema(numeric=numeric, keys=(COARSE_KEY, TASK_KEY))


def task_code(p: int) -> str:
    return f"R{p:03d}"


def coarse_code(p: int) -> str:
    return f"A{p // TASKS_PER_COARSE_REGION:02d}"


def generate_synthetic(config: SyntheticConfig) -> tuple[Dataset, WeightMatrix]:
    """Deterministically generate a dataset and its planted weight matrix.

    Columns of the returned matrix are per-task weights over the features,
    each standardized by its range's mean and standard deviation
    (:func:`range_stats`), plus a trailing intercept.
    """
    rng = np.random.default_rng(config.seed)
    n, p_count = config.n_features, config.n_tasks
    ranges = feature_ranges(n)
    lows = np.array([lo for _, lo, hi in ranges])
    highs = np.array([hi for _, lo, hi in ranges])
    means, stds = range_stats(n)
    names = [name for name, _, _ in ranges]

    support = np.sort(rng.choice(n, size=config.shared_support_size, replace=False))
    magnitudes = rng.uniform(0.15, 0.5, size=config.shared_support_size)
    signs = rng.choice([-1.0, 1.0], size=config.shared_support_size)
    shared = np.zeros(n + 1)
    shared[support] = magnitudes * signs
    shared[-1] = BASE_LOG_PRICE

    planted = np.tile(shared[:, None], (1, p_count))
    deviation_rows = np.append(support, n)  # support features plus the intercept
    planted[deviation_rows, :] += rng.normal(
        0.0, config.coefficient_noise, size=(len(deviation_rows), p_count)
    )

    bounds = config.monthly_count_bounds()
    months = [np.empty(0, dtype=np.int64)]
    tasks = [np.empty(0, dtype=np.int32)]
    raws = [np.empty((0, n))]
    prices = [np.empty(0)]
    for month_offset in range(config.months):
        month = START_MONTH + month_offset
        for p in range(p_count):
            lo, hi = bounds[p]
            count = int(rng.integers(lo, hi + 1))
            if count == 0:
                continue
            raw = rng.uniform(lows, highs, size=(count, n))
            standardized = (raw - means) / stds
            noise = rng.normal(0.0, config.observation_noise, size=count)
            log_prices = standardized @ planted[:-1, p] + planted[-1, p] + noise
            months.append(np.full(count, month, dtype=np.int64))
            tasks.append(np.full(count, p, dtype=np.int32))
            raws.append(raw)
            prices.append(np.exp(log_prices))

    task = np.concatenate(tasks)
    coarse = task // TASKS_PER_COARSE_REGION
    used = np.unique(task).tolist()
    codes, inventories = {}, {}
    codes[COARSE_KEY], inventories[COARSE_KEY] = sort_codes(
        coarse, {coarse_code(p): p // TASKS_PER_COARSE_REGION for p in used}
    )
    codes[TASK_KEY], inventories[TASK_KEY] = sort_codes(task, {task_code(p): p for p in used})
    dataset = Dataset(
        schema=synthetic_schema(n),
        months=np.concatenate(months),
        prices=np.concatenate(prices),
        numeric=np.concatenate(raws),
        codes=codes,
        inventories=inventories,
    )
    weights = WeightMatrix(
        values=planted,
        task_ids=tuple(task_code(p) for p in range(p_count)),
        columns=tuple(names) + (INTERCEPT,),
    )
    return dataset, weights
