"""Single-task baselines: per-task OLS, ridge, and lasso.

Each task is fitted independently on its own rows; no information crosses
tasks. OLS is the minimum-norm least-squares fit, so rank-deficient tasks
(too few rows, or a dummy column equal to the intercept) still get weights
and rolling comparisons can score data-starved tasks. Ridge uses exact normal
equations with a free intercept. OLS, ridge and ridge CV run on each task's
support columns (``TaskData.supports``): a column that is zero in every row
of the task gets weight 0 from min-norm least squares and from ridge alike,
so it is left out of the fit and given that 0 directly, and a task pays for
the columns it uses, not for the full design width. Per-task lasso is the
joint lasso: its loss and l1 penalty separate by task, and the solver runs
each task's column on its own, so one solver call fits every task.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

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
    ridge fit each task on its support columns and weight every other column 0."""
    if penalty is not None and penalty < 0:
        raise ValueError("penalty must be nonnegative")
    if spec.kind == "lasso":
        if penalty is None:
            raise ValueError("lasso needs an explicit penalty")
        return fit(data, RegularizerSpec(kind="lasso", theta1=penalty), spec.solver).weights
    if spec.kind not in ("ols", "ridge"):
        raise ValueError(f"{spec.kind!r} is not a per-task baseline kind")
    values = np.zeros((data.n_columns, data.n_tasks))
    for p, (x, y, support) in enumerate(zip(data.xs, data.ys, data.supports)):
        x = x[:, support]
        if spec.kind == "ols":
            w = np.linalg.lstsq(x, y, rcond=None)[0]
        elif penalty is None:
            w = _solve_ridge(x, y, cv_ridge_penalty(x, y))
        else:
            w = _solve_ridge(x, y, penalty)
        values[support, p] = w
    return WeightMatrix(values=values, task_ids=data.task_ids, columns=data.columns)


def _ridge_shrink(d: int) -> np.ndarray:
    """Identity with a zero for the trailing intercept, which is never penalized."""
    shrink = np.eye(d)
    shrink[-1, -1] = 0.0
    return shrink


def _solve_ridge(x: np.ndarray, y: np.ndarray, penalty: float) -> np.ndarray:
    return np.linalg.solve(x.T @ x + penalty * _ridge_shrink(x.shape[1]), x.T @ y)


def cv_ridge_penalty(
    x: np.ndarray,
    y: np.ndarray,
    grid: tuple[float, ...] = RIDGE_CV_GRID,
) -> float:
    """Pick the ridge penalty by deterministic k-fold cross-validation.

    Folds are contiguous row blocks, so the choice depends only on this task's
    own rows. Tasks too small to split fall back to the middle of the grid.

    Each fold's normal matrix is formed once, exactly as :func:`_solve_ridge`
    forms it, and the ridge systems of every (fold, penalty) pair are solved
    in one stacked ``np.linalg.solve`` call. The grid is walked in order and a
    penalty replaces the best so far only when its held-out SSE is strictly
    smaller: the first minimum wins, a NaN SSE is never chosen, and when every
    SSE is NaN the result is ``grid[0]``.
    """
    m, d = x.shape
    if m < 2:
        return grid[len(grid) // 2]
    shrinks = np.asarray(grid, dtype=float)[:, None, None] * _ridge_shrink(d)
    folds = np.array_split(np.arange(m), min(RIDGE_CV_FOLDS, m))
    systems = np.empty((len(folds), len(grid), d, d))
    rhs = np.empty((len(folds), len(grid), d, 1))
    for f, fold in enumerate(folds):
        mask = np.ones(m, dtype=bool)
        mask[fold] = False
        xt, yt = x[mask], y[mask]
        np.add(xt.T @ xt, shrinks, out=systems[f])
        rhs[f] = (xt.T @ yt)[:, None]
    # (folds, grid, D): the weights of every (fold, penalty) pair
    ws = np.linalg.solve(systems, rhs)[..., 0]
    # One matrix-vector product and one dot per (fold, penalty), summed in
    # fold order: a matrix-matrix product rounds differently, and penalties
    # that tie exactly (e.g. one training row and a free intercept) must not
    # be split by rounding noise that a per-penalty fit would not produce.
    sse = [0.0] * len(grid)
    for fold, fold_ws in zip(folds, ws):
        x_held, y_held = x[fold], y[fold]
        for g, w in enumerate(fold_ws):
            residual = x_held @ w - y_held
            sse[g] += float(residual @ residual)
    best_penalty, best_sse = grid[0], np.inf
    for penalty, value in zip(grid, sse):
        if value < best_sse:
            best_penalty, best_sse = penalty, value
    return best_penalty
