"""Per-task design matrices: encoding, standardization, and the weight matrix.

Every task shares one column layout: standardized numeric features, one-hot
dummies for categorical/key columns not consumed by the active task
definition, and a trailing intercept column of ones. Dummy inventories come
from the full dataset so the layout is identical across rolling windows.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import Dataset
from .tasks import TaskDefinition, TaskSet, used_key_columns

logger = logging.getLogger(__name__)

INTERCEPT = "(intercept)"


@dataclass(frozen=True)
class DesignLayout:
    """Fixed column layout shared by all tasks and rolling rounds."""

    numeric: tuple[str, ...]
    dummies: tuple[tuple[str, tuple[str, ...]], ...]  # (feature, category inventory)
    columns: tuple[str, ...]

    @classmethod
    def from_dataset(cls, dataset: Dataset, definition: Optional[TaskDefinition]) -> "DesignLayout":
        schema = dataset.schema
        excluded = set(used_key_columns(definition, schema)) if definition is not None else set()
        numeric = schema.numeric_names()
        dummy_sources = [
            name
            for name in schema.categorical_names() + schema.key_names()
            if name not in excluded
        ]
        dummies = [(name, dataset.inventories[name]) for name in dummy_sources]
        columns = list(numeric)
        for name, categories in dummies:
            columns.extend(f"{name}={c}" for c in categories)
        columns.append(INTERCEPT)
        return cls(numeric=numeric, dummies=tuple(dummies), columns=tuple(columns))

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    def raw_rows(self, dataset: Dataset, rows: np.ndarray) -> np.ndarray:
        """Encode dataset rows without standardization (numerics raw, dummies 0/1)."""
        if self.numeric != dataset.schema.numeric_names() or any(
            categories != dataset.inventories[name] for name, categories in self.dummies
        ):
            raise ValueError("the layout was not built from this dataset")
        out = np.zeros((len(rows), self.n_columns))
        out[:, : len(self.numeric)] = dataset.numeric[rows]
        j = len(self.numeric)
        for name, categories in self.dummies:
            out[np.arange(len(rows)), j + dataset.codes[name][rows]] = 1.0
            j += len(categories)
        out[:, -1] = 1.0
        return out


@dataclass(frozen=True)
class Standardizer:
    """Column statistics of the training window; applied to train and test rows."""

    means: np.ndarray
    stds: np.ndarray

    @classmethod
    def fit(cls, raw_numeric: np.ndarray) -> "Standardizer":
        means = raw_numeric.mean(axis=0)
        stds = raw_numeric.std(axis=0)
        return cls(means=means, stds=stds)

    def apply(self, rows: np.ndarray, layout: DesignLayout) -> np.ndarray:
        out = rows.copy()
        k = len(layout.numeric)
        for j in range(k):
            if self.stds[j] == 0.0:
                out[:, j] = 0.0
            else:
                out[:, j] = (rows[:, j] - self.means[j]) / self.stds[j]
        return out


@dataclass(frozen=True)
class TaskData:
    """Training matrices per task: x_p is m_p x D with a trailing ones column."""

    task_ids: tuple[str, ...]
    xs: tuple[np.ndarray, ...]
    ys: tuple[np.ndarray, ...]
    layout: Optional[DesignLayout] = None
    standardizer: Optional[Standardizer] = None
    window: Optional[tuple[int, int]] = None

    def __post_init__(self):
        if not (len(self.task_ids) == len(self.xs) == len(self.ys)):
            raise ValueError("task_ids, xs and ys must align")
        if not self.xs:
            raise ValueError("need at least one task")
        d = self.xs[0].shape[1]
        for x, y in zip(self.xs, self.ys):
            if x.ndim != 2 or x.shape[1] != d:
                raise ValueError("all design matrices must share one column count")
            if x.shape[0] < 1:
                raise ValueError("every task needs at least one row")
            if y.shape != (x.shape[0],):
                raise ValueError("targets must match design rows")

    @property
    def n_tasks(self) -> int:
        return len(self.task_ids)

    @property
    def n_columns(self) -> int:
        return self.xs[0].shape[1]

    @property
    def columns(self) -> tuple[str, ...]:
        if self.layout is not None:
            return self.layout.columns
        return tuple(f"x{j}" for j in range(self.n_columns - 1)) + (INTERCEPT,)

    def mean_prices(self) -> np.ndarray:
        """Average raw sale price per task over the training rows."""
        return np.array([float(np.mean(np.exp(y))) for y in self.ys])

    @classmethod
    def from_arrays(cls, xs, ys, task_ids=None) -> "TaskData":
        xs = tuple(np.asarray(x, dtype=float) for x in xs)
        ys = tuple(np.asarray(y, dtype=float).reshape(-1) for y in ys)
        if task_ids is None:
            task_ids = tuple(f"task{p}" for p in range(len(xs)))
        return cls(task_ids=tuple(task_ids), xs=xs, ys=ys)


@dataclass(frozen=True)
class WeightMatrix:
    """D x P coefficient matrix; column p is the weight vector of task p."""

    values: np.ndarray
    task_ids: tuple[str, ...]
    columns: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError("weights must be a 2-d matrix")
        d, p = self.values.shape
        if p != len(self.task_ids):
            raise ValueError("one column per task required")
        index = {task_id: k for k, task_id in enumerate(self.task_ids)}
        if len(index) != p:
            raise ValueError("task ids must be unique")
        object.__setattr__(self, "_index", index)
        if d != len(self.columns):
            raise ValueError("one row per design column required")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("weights must be finite")

    def column(self, task_id: str) -> np.ndarray:
        try:
            p = self._index[task_id]
        except KeyError:
            raise KeyError(f"unknown task id {task_id!r}") from None
        return self.values[:, p]

    def to_dict(self) -> dict:
        """Per-task weights keyed by design column name."""
        return {
            task_id: {
                column: float(self.values[i, p]) for i, column in enumerate(self.columns)
            }
            for p, task_id in enumerate(self.task_ids)
        }


def build_task_data(
    dataset: Dataset,
    taskset: TaskSet,
    window: tuple[int, int],
    layout: Optional[DesignLayout] = None,
) -> TaskData:
    """Assemble standardized per-task training data for one month window.

    Tasks with no records inside the window are dropped with a notice. The
    kept tasks' rows are gathered in task order, and standardization
    statistics are computed from those window rows only.
    """
    if window[0] > window[1]:
        raise ValueError(f"empty window {window}")
    if layout is None:
        layout = DesignLayout.from_dataset(dataset, taskset.definition)

    kept_ids: list[str] = []
    kept_rows: list[tuple[int, ...]] = []
    for task_id, rows in taskset.rows_in(window).items():
        if not rows:
            logger.info("task %s has no records in window %s; excluded", task_id, window)
            continue
        kept_ids.append(task_id)
        kept_rows.append(rows)
    if not kept_ids:
        raise ValueError(f"no task has records in window {window}")

    all_rows = np.fromiter(itertools.chain.from_iterable(kept_rows), np.intp)
    raw = layout.raw_rows(dataset, all_rows)
    n_numeric = len(layout.numeric)
    standardizer = Standardizer.fit(raw[:, :n_numeric])
    for j, name in enumerate(layout.numeric):
        if standardizer.stds[j] == 0.0:
            logger.info("feature %s has zero variance in window %s; standardized to zeros", name, window)
    encoded = standardizer.apply(raw, layout)
    targets = dataset.log_prices[all_rows]

    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    offset = 0
    for rows in kept_rows:
        block = slice(offset, offset + len(rows))
        offset += len(rows)
        xs.append(encoded[block])
        ys.append(targets[block])
    return TaskData(
        task_ids=tuple(kept_ids),
        xs=tuple(xs),
        ys=tuple(ys),
        layout=layout,
        standardizer=standardizer,
        window=window,
    )


def design_rows(
    dataset: Dataset, rows: np.ndarray, layout: DesignLayout, standardizer: Standardizer
) -> np.ndarray:
    """Encode dataset rows with an existing layout and training statistics."""
    return standardizer.apply(layout.raw_rows(dataset, rows), layout)
