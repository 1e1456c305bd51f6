"""Single-task baselines: per-task OLS, ridge, and lasso.

Each task is fitted independently on its own rows; no information crosses
tasks. OLS is the minimum-norm least-squares fit, so rank-deficient tasks
(too few rows, or a dummy column equal to the intercept) still get weights
and rolling comparisons can score data-starved tasks. Ridge uses exact normal
equations with a free intercept. OLS, ridge and ridge CV run on each task's
support columns (``TaskData.supports``): a column that is zero in every row
of the task gets weight 0 from min-norm least squares and from ridge alike,
so it is left out of the fit and given that 0 directly, and a task pays for
the columns it uses, not for the full design width. Ridge CV and ridge run
once per support width: the tasks of one width pick their penalties in one
stacked cross-validation pass and solve their ridge systems in one stacked
call on the Gram matrices that ``TaskData.support_grams`` caches, and each
task's numbers stay those of a fit of that task alone.
OLS runs task by task. Per-task lasso is the joint lasso: its loss and l1 penalty
separate by task, and the solver runs each task's column on its own, so one
solver call fits every task.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .design import TaskData, WeightMatrix
from .solver import RegularizerSpec, fit

if TYPE_CHECKING:  # backtest imports this module
    from .backtest import MethodSpec

# Penalty grid searched by per-task RIDGE_CV_FOLDS-fold cross-validation when
# a ridge penalty is not given explicitly.
RIDGE_CV_GRID: tuple[float, ...] = tuple(10.0 ** e for e in range(-4, 3))
RIDGE_CV_FOLDS = 5


def fit_stl(data: TaskData, spec: MethodSpec, penalty: Optional[float] = None) -> WeightMatrix:
    """Fit every task independently with ``spec.kind`` (ols, ridge or lasso) and
    assemble the D x P weight matrix. ols ignores the penalty; ridge without one
    picks it per task by cross-validation; lasso runs ``spec.solver``. ols and
    ridge fit each task on its support columns and weight every other column 0;
    ridge handles the tasks of one support width together."""
    if penalty is not None and penalty < 0:
        raise ValueError("penalty must be nonnegative")
    if spec.kind == "lasso":
        if penalty is None:
            raise ValueError("lasso needs an explicit penalty")
        return fit(data, RegularizerSpec(kind="lasso", theta1=penalty), spec.solver).weights
    if spec.kind not in ("ols", "ridge"):
        raise ValueError(f"{spec.kind!r} is not a per-task baseline kind")
    values = np.zeros((data.n_columns, data.n_tasks))
    if spec.kind == "ols":
        for p, (x, y, support) in enumerate(zip(data.xs, data.ys, data.supports)):
            values[support, p] = np.linalg.lstsq(x[:, support], y, rcond=None)[0]
        return WeightMatrix(values=values, task_ids=data.task_ids, columns=data.columns)
    for group in data.support_grams:
        tasks, supports = group.tasks, group.columns
        if penalty is None:
            xs = [data.xs[p][:, support] for p, support in zip(tasks, supports)]
            penalties = cv_ridge_penalty(xs, [data.ys[p] for p in tasks])
        else:
            penalties = np.full(len(tasks), penalty)
        systems = group.grams + penalties[:, None, None] * _ridge_shrink(supports.shape[1])
        values[supports, tasks[:, None]] = np.linalg.solve(systems, group.moments[..., None])[..., 0]
    return WeightMatrix(values=values, task_ids=data.task_ids, columns=data.columns)


def _ridge_shrink(d: int) -> np.ndarray:
    """Identity with a zero for the trailing intercept, which is never penalized."""
    shrink = np.eye(d)
    shrink[-1, -1] = 0.0
    return shrink


def cv_ridge_penalty(
    xs: Sequence[np.ndarray],
    ys: Sequence[np.ndarray],
    grid: tuple[float, ...] = RIDGE_CV_GRID,
) -> np.ndarray:
    """Pick each task's ridge penalty by deterministic k-fold cross-validation.

    ``xs`` and ``ys`` hold the rows and targets of tasks that share one column
    count; the result holds one penalty per task. Folds are contiguous row
    blocks, so a task's choice depends only on its own rows. A task with m
    rows has min(m, RIDGE_CV_FOLDS) folds; a task of one row cannot be split
    and gets the middle of the grid.

    Every task's folds are padded with zero rows into one block, and one
    batched product gives every fold's Gram matrix and right-hand side. A
    fold's training system is the sum of the other folds' Grams in fold order
    plus the penalty, so a task with fewer folds adds exact zeros. The (task,
    penalty) systems are solved one fold at a time, and each penalty's
    held-out SSE adds the folds in fold order. A task takes the first penalty
    of strictly smallest SSE: a NaN SSE is never chosen, and when every SSE is
    NaN the result is ``grid[0]``.
    """
    grid_values = np.asarray(grid, dtype=float)
    penalties = np.full(len(xs), grid_values[len(grid) // 2])
    sizes = np.array([x.shape[0] for x in xs])
    split = np.flatnonzero(sizes >= 2)
    if split.size == 0:
        return penalties
    sizes = sizes[split]
    # Each row's (task, fold, position): np.array_split's folds, in which the
    # first m % k folds are one row longer than the other m // k-row folds.
    base, longer = np.divmod(sizes, np.minimum(sizes, RIDGE_CV_FOLDS))
    task = np.repeat(np.arange(split.size), sizes)
    row = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    base, longer = base[task], longer[task]
    fold = np.where(row < longer * (base + 1), row // (base + 1), (row - longer) // base)
    position = row - fold * base - np.minimum(fold, longer)
    # Each fold's rows, with the target as one more column, padded with zero
    # rows to the longest fold: one batched product then gives every fold's
    # Gram matrix and right-hand side, (task, fold, d + 1, d + 1).
    d = xs[0].shape[1]
    held = np.zeros((split.size, RIDGE_CV_FOLDS, int(position.max()) + 1, d + 1))
    slots = held.reshape(-1, d + 1)
    index = (task * RIDGE_CV_FOLDS + fold) * held.shape[2] + position
    slots[index, :d] = np.concatenate([xs[t] for t in split])
    slots[index, d] = np.concatenate([ys[t] for t in split])
    products = held.swapaxes(-1, -2) @ held
    shrinks = grid_values[:, None, None] * _ridge_shrink(d)
    sse = np.zeros((split.size, len(grid)))
    for f in range(RIDGE_CV_FOLDS):
        train = sum(products[:, g] for g in range(RIDGE_CV_FOLDS) if g != f)
        # (task, penalty, d, 1): the weights of every penalty on this fold's training rows
        ws = np.linalg.solve(train[:, None, :d, :d] + shrinks, train[:, None, :d, d:])
        # One dot per (held-out row, penalty), (task, row, penalty), whatever
        # the padding: a matrix product rounds a row by where it sits, and
        # penalties that tie exactly (one training row and a free intercept)
        # must not be split by rounding noise that a one-task fit would not
        # produce. The rows' squares then add in row order.
        fitted = (held[:, f, :, None, None, :d] @ ws[:, None])[..., 0, 0]
        residuals = fitted - held[:, f, :, None, d]
        sse += np.sum(residuals * residuals, axis=1)
    best = np.argmin(np.where(np.isnan(sse), np.inf, sse), axis=1)
    penalties[split] = grid_values[best]
    return penalties
