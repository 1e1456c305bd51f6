"""Per-task design matrices: encoding, standardization, and the weight matrix.

Every task shares one column layout: standardized numeric features, one-hot
dummies for key columns not consumed by the active task
definition, and a trailing intercept column of ones. Dummy inventories come
from the full dataset so the layout is identical across rolling windows.
:func:`design_rows` is the one encoder of a round's training, test and
validation matrices; the standardizer works on the numeric block only.
"""

from __future__ import annotations

import functools
import logging
import math
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
    def from_dataset(cls, dataset: Dataset, definition: TaskDefinition) -> "DesignLayout":
        schema = dataset.schema
        excluded = set(used_key_columns(definition, schema))
        dummies = [
            (name, dataset.inventories[name]) for name in schema.keys if name not in excluded
        ]
        columns = list(schema.numeric)
        for name, categories in dummies:
            columns.extend(f"{name}={c}" for c in categories)
        columns.append(INTERCEPT)
        return cls(numeric=schema.numeric, dummies=tuple(dummies), columns=tuple(columns))

    @property
    def n_columns(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class Standardizer:
    """Column statistics of the training window; applied to train and test rows."""

    means: np.ndarray
    stds: np.ndarray

    @classmethod
    def fit(cls, numeric: np.ndarray) -> "Standardizer":
        return cls(means=numeric.mean(axis=0), stds=numeric.std(axis=0))

    def apply(self, numeric: np.ndarray) -> np.ndarray:
        """The N x K numeric block standardized; zero-variance columns become 0."""
        zero = self.stds == 0.0
        scaled = (numeric - self.means) / np.where(zero, 1.0, self.stds)
        return np.where(zero, 0.0, scaled)


@dataclass(frozen=True)
class SupportGrams:
    """The tasks of one support width: ``tasks`` (ascending), each one's
    support ``columns`` (n x w, ascending, so the intercept is last), its Gram
    matrix x_p^T x_p (n x w x w) and its moment x_p^T y_p (n x w) on them."""

    tasks: np.ndarray
    columns: np.ndarray
    grams: np.ndarray
    moments: np.ndarray

    def __post_init__(self):
        for array in (self.tasks, self.columns, self.grams, self.moments):
            array.flags.writeable = False  # shared by every fit of this data


@dataclass(frozen=True)
class ProfiledGrams:
    """The tasks of one support width w with each task's free intercept
    minimized out: ``tasks`` (ascending) and their penalized support
    ``columns`` (n x (w - 1), ascending; the last design column c_p, always
    in the support, is left out). With P_p projecting task p's rows off c_p,
    each task's Gram matrix X_p^T P_p X_p (n x (w - 1) x (w - 1)), its top
    eigenvalue (NaN where the matrix is not finite) and its moment X_p^T P_p
    y_p on those columns. ``offsets`` (c_p^T X_p / c_p^T c_p on the columns)
    and ``levels`` (c_p^T y_p / c_p^T c_p) give the intercept's
    least-squares value levels - offsets · w_p. ``last_norms`` holds c_p^T
    c_p; where it is 0 there is nothing to profile: P_p is the identity and
    offsets and level are 0."""

    tasks: np.ndarray
    columns: np.ndarray
    grams: np.ndarray
    top_eigenvalues: np.ndarray
    moments: np.ndarray
    offsets: np.ndarray
    levels: np.ndarray
    last_norms: np.ndarray

    def __post_init__(self):
        for array in vars(self).values():
            array.flags.writeable = False  # shared by every fit of this data


@dataclass(frozen=True)
class TaskData:
    """A round's rows: x is N x D with a trailing ones column, y the N log targets.

    Task p's rows are the contiguous block of ``sizes[p]`` rows at ``starts[p]``,
    in ``task_ids`` order; ``xs``/``ys`` are views of those blocks. ``window`` is
    the month window the rows were asked for; ``row_months`` the first and last
    month of the rows actually gathered.
    """

    task_ids: tuple[str, ...]
    x: np.ndarray
    y: np.ndarray
    sizes: np.ndarray
    layout: Optional[DesignLayout] = None
    standardizer: Optional[Standardizer] = None
    window: Optional[tuple[int, int]] = None
    row_months: Optional[tuple[int, int]] = None

    def __post_init__(self):
        sizes = np.asarray(self.sizes, dtype=np.intp)
        object.__setattr__(self, "sizes", sizes)
        if not self.task_ids or sizes.shape != (len(self.task_ids),):
            raise ValueError("task_ids and sizes must align, with at least one task")
        if sizes.min() < 1:
            raise ValueError("every task needs at least one row")
        if self.x.ndim != 2 or self.x.shape[0] != sizes.sum():
            raise ValueError("the task blocks must cover the design rows")
        if self.y.shape != (self.x.shape[0],):
            raise ValueError("targets must match design rows")

    @functools.cached_property
    def starts(self) -> np.ndarray:
        return np.cumsum(self.sizes) - self.sizes

    @functools.cached_property
    def xs(self) -> tuple[np.ndarray, ...]:
        return tuple(np.split(self.x, self.starts[1:]))

    @functools.cached_property
    def ys(self) -> tuple[np.ndarray, ...]:
        return tuple(np.split(self.y, self.starts[1:]))

    @functools.cached_property
    def supports(self) -> tuple[np.ndarray, ...]:
        """Each task's support: the columns with a nonzero (or NaN) entry in
        its rows, plus the trailing intercept, which is always kept. A column
        outside a task's support is zero in every one of its rows."""
        used = np.logical_or.reduceat(self.x != 0.0, self.starts, axis=0)
        used[:, -1] = True
        out = tuple(np.flatnonzero(row) for row in used)
        for support in out:
            support.flags.writeable = False  # shared by every fit of this data
        return out

    @functools.cached_property
    def support_grams(self) -> tuple[SupportGrams, ...]:
        """The tasks' Gram matrices and moments on their supports, one stack
        per support width, widths ascending. The squared loss of task p sees
        its data only through x_p^T x_p, x_p^T y_p and y_p^T y_p, and the rows
        and columns of x_p^T x_p off its support are 0, so the support Gram is
        all of it that is not zero. Each product is that task's own ``x.T @ x``
        and ``x.T @ y`` on its support columns, whatever the other tasks."""
        widths = np.array([len(support) for support in self.supports])
        out = []
        for width in np.unique(widths):
            tasks = np.flatnonzero(widths == width)
            columns = np.stack([self.supports[p] for p in tasks])
            xs = [self.xs[p][:, support] for p, support in zip(tasks, columns)]
            with np.errstate(over="ignore"):  # an overflowed Gram makes its task's L NaN
                grams = np.stack([x.T @ x for x in xs])
                moments = np.stack([x.T @ self.ys[p] for p, x in zip(tasks, xs)])
            out.append(SupportGrams(tasks=tasks, columns=columns, grams=grams, moments=moments))
        return tuple(out)

    @functools.cached_property
    def profiled_grams(self) -> tuple[ProfiledGrams, ...]:
        """The squared loss with each task's free intercept minimized out, in
        Gram form: one stack per support width, widths ascending. For fixed
        penalized weights w_p the best intercept leaves task p the residual
        P_p (X_p w_p - y_p), so the loss sees w_p only through X_p^T P_p X_p
        and X_p^T P_p y_p. Each task's support rows and targets are projected
        off c_p before the products are taken (for the ones column, centred),
        which stays exact where the Schur complement of the raw Gram matrix
        would cancel. Every number of a task comes from its own rows alone,
        and each width's top eigenvalues from one stacked ``eigvalsh``."""
        widths = np.array([len(support) for support in self.supports])
        out = []
        for width in np.unique(widths):
            tasks = np.flatnonzero(widths == width)
            supports = np.stack([self.supports[p] for p in tasks])
            sizes = self.sizes[tasks]
            starts = np.cumsum(sizes) - sizes
            owner = np.repeat(np.arange(len(tasks)), sizes)
            # the width's support rows and targets, task after task
            x = np.concatenate([self.xs[p][:, support] for p, support in zip(tasks, supports)])
            y = np.concatenate([self.ys[p] for p in tasks])
            c, x = x[:, -1], x[:, :-1]
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite Gram makes its task's L NaN
                norms = np.add.reduceat(c * c, starts)
                profiled = norms > 0.0
                scale = np.where(profiled, norms, 1.0)
                offsets = np.where(profiled[:, None], np.add.reduceat(c[:, None] * x, starts) / scale[:, None], 0.0)
                levels = np.where(profiled, np.add.reduceat(c * y, starts) / scale, 0.0)
                x = x - c[:, None] * offsets[owner]
                y = y - c * levels[owner]
                blocks = [x[a:b] for a, b in zip(starts.tolist(), (starts + sizes).tolist())]
                grams = np.stack([block.T @ block for block in blocks])
                moments = np.add.reduceat(x * y[:, None], starts)
            out.append(
                ProfiledGrams(
                    tasks=tasks,
                    columns=supports[:, :-1],
                    grams=grams,
                    top_eigenvalues=_top_eigenvalues(grams),
                    moments=moments,
                    offsets=offsets,
                    levels=levels,
                    last_norms=norms,
                )
            )
        return tuple(out)

    @property
    def n_tasks(self) -> int:
        return len(self.task_ids)

    @property
    def n_columns(self) -> int:
        return self.x.shape[1]

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
        """Stack per-task blocks, checked one by one: totals can balance out a mismatch."""
        xs = [np.asarray(x, dtype=float) for x in xs]
        ys = [np.asarray(y, dtype=float).reshape(-1) for y in ys]
        if task_ids is None:
            task_ids = tuple(f"task{p}" for p in range(len(xs)))
        if not (len(task_ids) == len(xs) == len(ys)):
            raise ValueError("task_ids, xs and ys must align")
        for x, y in zip(xs, ys):
            if x.ndim != 2 or x.shape[1] != xs[0].shape[1]:
                raise ValueError("all design matrices must share one column count")
            if y.shape != (x.shape[0],):
                raise ValueError("targets must match design rows")
        return cls(
            task_ids=tuple(task_ids),
            x=np.vstack(xs),
            y=np.concatenate(ys),
            sizes=[x.shape[0] for x in xs],
        )


def _top_eigenvalues(grams: np.ndarray) -> np.ndarray:
    """lambda_max of each matrix of the stack; NaN where one is not finite,
    0 where they are 0 x 0."""
    if not grams.shape[1]:
        return np.zeros(len(grams))
    finite = np.all(np.isfinite(grams), axis=(1, 2))
    top = np.linalg.eigvalsh(np.where(finite[:, None, None], grams, 0.0))[:, -1]
    return np.where(finite, top, math.nan)


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

    rows, counts = taskset.rows_in(window)
    for p in np.flatnonzero(counts == 0):
        logger.info("task %s has no records in window %s; excluded", taskset.tasks[p], window)
    kept = np.flatnonzero(counts)
    if not kept.size:
        raise ValueError(f"no task has records in window {window}")

    standardizer = Standardizer.fit(dataset.numeric[rows])
    for j, name in enumerate(layout.numeric):
        if standardizer.stds[j] == 0.0:
            logger.info("feature %s has zero variance in window %s; standardized to zeros", name, window)
    return TaskData(
        task_ids=tuple(taskset.tasks[p] for p in kept),
        x=design_rows(dataset, rows, layout, standardizer),
        y=dataset.log_prices[rows],
        sizes=counts[kept],
        layout=layout,
        standardizer=standardizer,
        window=window,
        row_months=month_span(dataset, rows),
    )


def month_span(dataset: Dataset, rows: np.ndarray) -> tuple[int, int]:
    """The first and last sale month of the (non-empty) ``rows``."""
    months = dataset.months[rows]
    return int(months.min()), int(months.max())


def design_rows(
    dataset: Dataset, rows: np.ndarray, layout: DesignLayout, standardizer: Standardizer
) -> np.ndarray:
    """Encode dataset rows with a layout built from ``dataset`` and a window's
    statistics: standardized numerics, one-hot dummies, then the intercept."""
    if layout.numeric != dataset.schema.numeric or any(
        categories != dataset.inventories[name] for name, categories in layout.dummies
    ):
        raise ValueError("the layout was not built from this dataset")
    out = np.zeros((len(rows), layout.n_columns))
    out[:, : len(layout.numeric)] = standardizer.apply(dataset.numeric[rows])
    j = len(layout.numeric)
    for name, categories in layout.dummies:
        out[np.arange(len(rows)), j + dataset.codes[name][rows]] = 1.0
        j += len(categories)
    out[:, -1] = 1.0
    return out
