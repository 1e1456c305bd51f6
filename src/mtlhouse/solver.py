"""Jointly regularized multi-task least squares, solved by accelerated
proximal gradient descent (monotone FISTA with restart).

The estimator minimizes

    sum_p ||x_p w_p - y_p||^2  +  penalty(W)

with one of three penalties: entrywise l1 (sparsity), row-wise l2,1 (group
sparsity: a feature is kept or dropped jointly across tasks), or a task-graph
quadratic coupling r_pq * ||w_p - w_q||^2 plus an l2,1 term. Graph edge
weights are the min/max ratio of the tasks' average sale prices, so similarly
priced tasks are pulled together hardest. The trailing intercept row is
never penalized.

The smooth part is a quadratic, so the Lipschitz constant L of its gradient
is computed once per fit from eigenvalues and every step is exactly 1/L; no
line search is needed. The residual is affine in W, so the residual at the
extrapolated point is combined from those of the last two iterates, and an
accelerated step costs one residual and one gradient product.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .design import TaskData, WeightMatrix

REGULARIZER_KINDS = ("lasso", "group_l21", "graph")


class DivergenceError(RuntimeError):
    """The objective became non-finite during optimization."""


@dataclass(frozen=True)
class RegularizerSpec:
    kind: str
    theta1: float = 0.0
    theta2: Optional[float] = None

    def __post_init__(self):
        if self.kind not in REGULARIZER_KINDS:
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if self.theta1 < 0:
            raise ValueError("theta1 must be nonnegative")
        if self.kind == "graph":
            if self.theta2 is None or self.theta2 < 0:
                raise ValueError("graph regularizer needs nonnegative theta2")
        elif self.theta2 is not None:
            raise ValueError(f"theta2 only applies to the graph kind, not {self.kind!r}")


@dataclass(frozen=True)
class SolverParams:
    max_iters: int = 1000
    rel_tol: float = 1e-6

    def __post_init__(self):
        if (
            not isinstance(self.max_iters, numbers.Integral)
            or isinstance(self.max_iters, bool)
            or self.max_iters < 1
        ):
            raise ValueError(f"max_iters must be a positive integer, got {self.max_iters!r}")
        if (
            not isinstance(self.rel_tol, numbers.Real)
            or isinstance(self.rel_tol, bool)
            or not (math.isfinite(self.rel_tol) and self.rel_tol > 0)
        ):
            raise ValueError(f"rel_tol must be a finite positive number, got {self.rel_tol!r}")


@dataclass(frozen=True)
class TaskGraph:
    """Symmetric task-relatedness weights in (0, 1] with a unit diagonal."""

    weights: np.ndarray

    def __post_init__(self):
        w = self.weights
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("graph weights must be a square matrix")
        if not np.allclose(w, w.T, rtol=0, atol=0):
            raise ValueError("graph weights must be symmetric")
        if not np.allclose(np.diag(w), 1.0, rtol=0, atol=0):
            raise ValueError("graph diagonal must be 1")
        if np.any(w <= 0) or np.any(w > 1):
            raise ValueError("graph weights must lie in (0, 1]")

    @property
    def n_tasks(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class FitResult:
    weights: WeightMatrix
    objective_trace: tuple[float, ...]
    iterations: int
    converged: bool

    def __post_init__(self):
        trace = self.objective_trace
        for a, b in zip(trace, trace[1:]):
            if b > a:
                raise ValueError("objective trace must be nonincreasing")

    def to_dict(self) -> dict:
        """Report form: named per-task weights, trace, and convergence flag."""
        return {
            "weights": self.weights.to_dict(),
            "objective_trace": [float(v) for v in self.objective_trace],
            "iterations": self.iterations,
            "converged": self.converged,
        }


def build_task_graph(data: TaskData) -> TaskGraph:
    """Edge weights min(avg_p, avg_q) / max(avg_p, avg_q) of raw mean prices."""
    averages = data.mean_prices()
    lo = np.minimum.outer(averages, averages)
    hi = np.maximum.outer(averages, averages)
    weights = lo / hi
    np.fill_diagonal(weights, 1.0)
    return TaskGraph(weights=weights)


def _values(W: Union[WeightMatrix, np.ndarray]) -> np.ndarray:
    return W.values if isinstance(W, WeightMatrix) else np.asarray(W, dtype=float)


def _check_shapes(W: np.ndarray, data: TaskData, reg: RegularizerSpec, graph) -> None:
    if W.shape != (data.n_columns, data.n_tasks):
        raise ValueError(
            f"weights shape {W.shape} does not match data ({data.n_columns}, {data.n_tasks})"
        )
    if reg.kind == "graph":
        if graph is None:
            raise ValueError("graph regularizer needs a TaskGraph")
        if graph.n_tasks != data.n_tasks:
            raise ValueError("graph size does not match the task count")
    elif graph is not None:
        raise ValueError(f"a TaskGraph was supplied for kind {reg.kind!r}")


def _graph_laplacian(weights: np.ndarray) -> np.ndarray:
    """Laplacian diag(s) - off of the task graph, s the off-diagonal row sums."""
    off = weights - np.diag(np.diag(weights))
    return np.diag(off.sum(axis=1)) - off


def _graph_quadratic(V: np.ndarray, laplacian: np.ndarray) -> float:
    """sum over ordered pairs p != q of r_pq * ||v_p - v_q||^2 = 2 <V Lap, V>.

    Evaluated on row-centred V, which leaves the term unchanged (Lap 1 = 0);
    near consensus the centred rows are small, so the Laplacian form does not
    cancel catastrophically and the restart and stopping tests are not swamped
    by noise.
    """
    centred = V - V.mean(axis=1, keepdims=True)
    return 2.0 * float(np.einsum("dp,dp->", centred @ laplacian, centred))


def smooth_objective(
    W: Union[WeightMatrix, np.ndarray],
    data: TaskData,
    reg: RegularizerSpec,
    graph: Optional[TaskGraph] = None,
) -> float:
    """Squared loss plus, for the graph kind, the quadratic coupling term."""
    w = _values(W)
    _check_shapes(w, data, reg, graph)
    return _Smooth(data, reg, graph).value(w)


def nonsmooth_penalty(
    W: Union[WeightMatrix, np.ndarray], reg: RegularizerSpec
) -> float:
    w = _values(W)[:-1]
    if reg.kind == "lasso":
        return float(reg.theta1 * np.abs(w).sum())
    if reg.kind == "group_l21":
        return float(reg.theta1 * np.linalg.norm(w, axis=1).sum())
    return float(reg.theta2 * np.linalg.norm(w, axis=1).sum())


def objective(
    W: Union[WeightMatrix, np.ndarray],
    data: TaskData,
    reg: RegularizerSpec,
    graph: Optional[TaskGraph] = None,
) -> float:
    """Full objective value: loss + graph coupling (if any) + sparsity penalty."""
    return smooth_objective(W, data, reg, graph) + nonsmooth_penalty(W, reg)


def smooth_gradient(
    W: Union[WeightMatrix, np.ndarray],
    data: TaskData,
    reg: RegularizerSpec,
    graph: Optional[TaskGraph] = None,
) -> np.ndarray:
    """Gradient of :func:`smooth_objective`; the l1/l2,1 parts are handled by prox."""
    w = _values(W)
    _check_shapes(w, data, reg, graph)
    return _Smooth(data, reg, graph).gradient(w)


def prox_l1(V: np.ndarray, threshold: float, skip_intercept_row: bool = True) -> np.ndarray:
    """Entrywise soft threshold; optionally passes the last row through."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    out = np.sign(V) * np.maximum(np.abs(V) - threshold, 0.0)
    if skip_intercept_row:
        out[-1] = V[-1]
    return out


def prox_l21(V: np.ndarray, threshold: float, skip_intercept_row: bool = True) -> np.ndarray:
    """Row shrinkage by max(0, 1 - threshold/||row||); zero rows stay zero."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    norms = np.linalg.norm(V, axis=1)
    scale = np.zeros_like(norms)
    positive = norms > 0
    scale[positive] = np.maximum(0.0, 1.0 - threshold / norms[positive])
    out = V * scale[:, None]
    if skip_intercept_row:
        out[-1] = V[-1]
    return out


def _prox(reg: RegularizerSpec, V: np.ndarray, step: float) -> np.ndarray:
    if reg.kind == "lasso":
        return prox_l1(V, step * reg.theta1)
    if reg.kind == "group_l21":
        return prox_l21(V, step * reg.theta1)
    return prox_l21(V, step * reg.theta2)


class _Smooth:
    """Stacked row view of the data for fast, cancellation-free evaluation.

    Losses and gradients are computed from residuals rather than expanded
    Gram quadratics; near a minimizer the expanded form is dominated by
    rounding noise, which breaks the restart and stopping tests.
    """

    def __init__(self, data: TaskData, reg: RegularizerSpec, graph: Optional[TaskGraph]):
        self.reg = reg
        self.xs = data.xs
        self.n_tasks = data.n_tasks
        self.rows = np.vstack(data.xs)
        self.targets = np.concatenate(data.ys)
        self.task_of_row = np.repeat(
            np.arange(data.n_tasks), [x.shape[0] for x in data.xs]
        )
        self.row_index = np.arange(self.rows.shape[0])
        self.laplacian = _graph_laplacian(graph.weights) if reg.kind == "graph" else None

    def _residual(self, W: np.ndarray) -> np.ndarray:
        predictions = np.einsum("nd,dn->n", self.rows, W[:, self.task_of_row])
        return predictions - self.targets

    def value(self, W: np.ndarray) -> float:
        return self.value_from_residual(W, self._residual(W))

    def gradient(self, W: np.ndarray) -> np.ndarray:
        return self.gradient_from_residual(W, self._residual(W))

    def value_from_residual(self, W: np.ndarray, residual: np.ndarray) -> float:
        loss = float(residual @ residual)
        if self.reg.kind == "graph":
            loss += self.reg.theta1 * _graph_quadratic(W[:-1], self.laplacian)
        return loss

    def gradient_from_residual(self, W: np.ndarray, residual: np.ndarray) -> np.ndarray:
        scattered = np.zeros((self.rows.shape[0], self.n_tasks))
        scattered[self.row_index, self.task_of_row] = residual
        grad = 2.0 * (self.rows.T @ scattered)
        if self.reg.kind == "graph":
            # d/dV of the ordered-pair quadratic 2 <V Lap, V>
            grad[:-1] += 4.0 * self.reg.theta1 * (W[:-1] @ self.laplacian)
        return grad

    def lipschitz(self) -> float:
        """Lipschitz constant L of the gradient, or NaN if a Gram matrix is not finite.

        The loss Hessian is block diagonal with blocks 2 x_p^T x_p; the graph
        term adds 4 theta1 Lap on every row but the intercept. L is the Hessian's
        largest eigenvalue for lasso and group_l21; for the graph kind it is the
        sum of the two parts' largest eigenvalues, an upper bound on it.
        """
        with np.errstate(over="ignore"):  # an overflowed Gram is caught just below
            grams = [x.T @ x for x in self.xs]
        if not all(np.all(np.isfinite(g)) for g in grams):
            return math.nan
        L = 2.0 * max(float(np.linalg.eigvalsh(g)[-1]) for g in grams)
        if self.reg.kind == "graph":
            L += 4.0 * self.reg.theta1 * float(np.linalg.eigvalsh(self.laplacian)[-1])
        return L


def fit(
    data: TaskData,
    reg: RegularizerSpec,
    params: SolverParams = SolverParams(),
) -> FitResult:
    """Estimate the weight matrix by monotone accelerated proximal gradient.

    Every step is 1/L, with L the Lipschitz constant of the smooth part's
    gradient; there is no line search. On an objective increase the momentum
    is restarted and a plain descent step is taken, so the recorded trace is
    nonincreasing. Stops when the relative objective change drops below
    ``params.rel_tol`` or ``params.max_iters`` is reached.
    """
    graph = build_task_graph(data) if reg.kind == "graph" else None
    smooth = _Smooth(data, reg, graph)
    d, n_tasks = data.n_columns, data.n_tasks

    W = np.zeros((d, n_tasks))
    W_prev = W
    r = r_prev = smooth._residual(W)
    t, t_old = 1.0, 0.0
    current = smooth.value_from_residual(W, r) + nonsmooth_penalty(W, reg)
    if not math.isfinite(current):
        # the first step would evaluate this point; inf - inf in its residual would be NaN
        raise DivergenceError("objective became non-finite at iteration 1")
    L = smooth.lipschitz()
    step = 1.0 if L == 0.0 else 1.0 / L  # L = 0: the smooth part is constant
    if not step > 0.0:  # NaN or overflowed L
        raise DivergenceError("step size underflow at iteration 1")
    trace = [current]
    iterations = 0
    converged = False

    for iteration in range(1, params.max_iters + 1):
        iterations = iteration
        alpha = (t_old - 1.0) / t
        search = W + alpha * (W - W_prev)
        r_search = r + alpha * (r - r_prev)  # the residual is affine in W
        candidate, r_candidate, value = _prox_step(smooth, reg, search, r_search, step, iteration)

        if value > current:
            # momentum overshot: restart and take a plain descent step
            t, t_old = 1.0, 0.0
            candidate, r_candidate, value = _prox_step(smooth, reg, W, r, step, iteration)
            if value > current:
                # numerically stationary; keep the previous iterate
                candidate, r_candidate, value = W, r, current

        W_prev, W = W, candidate
        r_prev, r = r, r_candidate
        trace.append(value)
        t_old, t = t, 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))

        current = value
        change = abs(trace[-2] - trace[-1])
        if change <= params.rel_tol * max(abs(trace[-2]), 1e-12):
            converged = True
            break

    weights = WeightMatrix(values=W, task_ids=data.task_ids, columns=data.columns)
    return FitResult(
        weights=weights,
        objective_trace=tuple(trace),
        iterations=iterations,
        converged=converged,
    )


def _prox_step(smooth, reg, point, r_point, step, iteration):
    """One proximal gradient step from ``point``, whose residual is ``r_point``.

    The candidate's residual is computed directly, so the cached residuals
    never drift from the iterates. Returns the candidate, its residual and its
    full objective value.
    """
    f_point = smooth.value_from_residual(point, r_point)
    g_point = smooth.gradient_from_residual(point, r_point)
    if not (math.isfinite(f_point) and np.all(np.isfinite(g_point))):
        raise DivergenceError(f"objective became non-finite at iteration {iteration}")
    candidate = _prox(reg, point - step * g_point, step)
    r_candidate = smooth._residual(candidate)
    value = smooth.value_from_residual(candidate, r_candidate) + nonsmooth_penalty(candidate, reg)
    if not math.isfinite(value):
        raise DivergenceError(f"objective became non-finite at iteration {iteration}")
    return candidate, r_candidate, value


def predict(W: WeightMatrix, data_row: np.ndarray, task_id: str) -> float:
    """Predicted log price: inner product of the encoded row with the task column."""
    column = W.column(task_id)
    row = np.asarray(data_row, dtype=float).reshape(-1)
    if row.shape[0] != column.shape[0]:
        raise ValueError(f"row length {row.shape[0]} does not match weights {column.shape[0]}")
    return float(row @ column)
