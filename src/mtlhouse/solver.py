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

The l1 penalty and the squared loss both separate by task, so the lasso kind
is P independent FISTA runs, one per column, swept together: column p has its
own step 1/L_p (L_p = 2 lambda_max(x_p^T x_p)), momentum, restart test and
stop, and once it stops it stays fixed. Every operation stays inside one
task's rows, so a column's iterates are those of a single-task fit of that
task, bit for bit. The joint kinds are one run over all columns.
"""

from __future__ import annotations

import functools
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
    """A fitted weight matrix and how the solver got there.

    ``task_iterations`` holds the steps each task's column took and
    ``iterations`` their maximum: the number of sweeps, the entries of
    ``objective_trace`` after its starting value. For the lasso kind columns
    stop one by one and the trace is the sum of their objectives; for the
    joint kinds every column takes every step. ``converged`` means every
    column stopped on the relative-change test before ``max_iters``.
    """

    weights: WeightMatrix
    objective_trace: tuple[float, ...]
    iterations: int
    converged: bool
    task_iterations: tuple[int, ...] = ()

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
    """Full objective value: loss + graph coupling (if any) + sparsity penalty.

    For lasso it is the sum of the per-task objectives, added as :func:`fit`
    adds its trace, so a fit's last trace entry is this value exactly.
    """
    w = _values(W)
    _check_shapes(w, data, reg, graph)
    smooth = _Smooth(data, reg, graph)
    return float(np.sum(_objective_values(smooth, reg, w, smooth._residual(w))))


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


def prox_l1(
    V: np.ndarray, threshold: Union[float, np.ndarray], skip_intercept_row: bool = True
) -> np.ndarray:
    """Entrywise soft threshold, one threshold or one per column; optionally
    passes the last row through."""
    if np.min(threshold) < 0:
        raise ValueError("threshold must be nonnegative")
    # V minus its clip to [-threshold, threshold]: sign(V) * max(|V| - threshold, 0)
    out = V - np.minimum(np.maximum(V, -threshold), threshold)
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


def _prox(reg: RegularizerSpec, V: np.ndarray, step: Union[float, np.ndarray]) -> np.ndarray:
    if reg.kind == "lasso":
        return prox_l1(V, step * reg.theta1)
    if reg.kind == "group_l21":
        return prox_l21(V, step * reg.theta1)
    return prox_l21(V, step * reg.theta2)


class _Smooth:
    """The smooth part over the data's stacked rows, fast and cancellation-free.

    Losses and gradients are computed from residuals rather than expanded
    Gram quadratics; near a minimizer the expanded form is dominated by
    rounding noise, which breaks the restart and stopping tests. Each task's
    rows form one contiguous block, and per-task sums run over that block
    alone (``np.add.reduceat``), in O(N·D) for any task count.
    """

    def __init__(self, data: TaskData, reg: RegularizerSpec, graph: Optional[TaskGraph]):
        self.reg = reg
        self.data = data
        # 2 X^T, D x N: each task's block is contiguous in every feature row
        self.twice_columns = 2.0 * data.x.T.copy()
        self.task_of_row = np.repeat(np.arange(data.n_tasks), data.sizes)
        self.laplacian = _graph_laplacian(graph.weights) if reg.kind == "graph" else None

    def _residual(self, W: np.ndarray) -> np.ndarray:
        # each row's own dot product with its task's column; the summation
        # order depends on the row alone, not on how many rows are stacked
        predictions = np.einsum("nd,nd->n", self.data.x, W.T[self.task_of_row])
        return predictions - self.data.y

    def value(self, W: np.ndarray) -> float:
        return self.value_from_residual(W, self._residual(W))

    def gradient(self, W: np.ndarray) -> np.ndarray:
        return self.gradient_from_residual(W, self._residual(W))

    def value_from_residual(self, W: np.ndarray, residual: np.ndarray) -> float:
        loss = float(residual @ residual)
        if self.reg.kind == "graph":
            loss += self.reg.theta1 * _graph_quadratic(W[:-1], self.laplacian)
        return loss

    def task_losses(self, residual: np.ndarray) -> np.ndarray:
        """Each task's squared loss, summed over its own rows."""
        return np.add.reduceat(residual * residual, self.data.starts)

    def gradient_from_residual(self, W: np.ndarray, residual: np.ndarray) -> np.ndarray:
        # column p is 2 x_p^T r_p, summed over task p's rows alone
        grad = np.add.reduceat(self.twice_columns * residual, self.data.starts, axis=1)
        if self.reg.kind == "graph":
            # d/dV of the ordered-pair quadratic 2 <V Lap, V>
            grad[:-1] += 4.0 * self.reg.theta1 * (W[:-1] @ self.laplacian)
        return grad

    def task_lipschitz(self) -> np.ndarray:
        """2 lambda_max(x_p^T x_p) of each task; NaN where the Gram matrix is not finite."""
        out = np.empty(self.data.n_tasks)
        for p, x in enumerate(self.data.xs):
            with np.errstate(over="ignore"):  # an overflowed Gram is caught just below
                gram = x.T @ x
            finite = np.all(np.isfinite(gram))
            out[p] = 2.0 * float(np.linalg.eigvalsh(gram)[-1]) if finite else math.nan
        return out

    def lipschitz(self) -> float:
        """Lipschitz constant L of the gradient, or NaN if a Gram matrix is not finite.

        The loss Hessian is block diagonal with blocks 2 x_p^T x_p; the graph
        term adds 4 theta1 Lap on every row but the intercept. L is the Hessian's
        largest eigenvalue for lasso and group_l21; for the graph kind it is the
        sum of the two parts' largest eigenvalues, an upper bound on it.
        """
        L = float(np.max(self.task_lipschitz()))  # NaN if any task's is
        if self.reg.kind == "graph":
            L += 4.0 * self.reg.theta1 * float(np.linalg.eigvalsh(self.laplacian)[-1])
        return L


def _objective_values(
    smooth: _Smooth, reg: RegularizerSpec, W: np.ndarray, residual: np.ndarray
) -> Union[float, np.ndarray]:
    """Full objective: one value per task's column for lasso, one in all for the joint kinds."""
    if reg.kind == "lasso":
        # accumulate adds each column's entries in row order whatever the column count
        penalties = reg.theta1 * np.add.accumulate(np.abs(W[:-1]), axis=0)[-1]
        return smooth.task_losses(residual) + penalties
    return smooth.value_from_residual(W, residual) + nonsmooth_penalty(W, reg)


def _all_finite(v: Union[float, np.ndarray]) -> bool:
    return math.isfinite(v) if isinstance(v, float) else bool(np.isfinite(v).all())


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
    ``params.rel_tol`` or ``params.max_iters`` is reached. For the lasso kind
    every task's column does all of this on its own, with its own L_p.
    """
    graph = build_task_graph(data) if reg.kind == "graph" else None
    smooth = _Smooth(data, reg, graph)
    W = np.zeros((data.n_columns, data.n_tasks))
    r = smooth._residual(W)
    current = _objective_values(smooth, reg, W, r)
    if not _all_finite(current):
        # the first step would evaluate this point; inf - inf in its residual would be NaN
        raise DivergenceError("objective became non-finite at iteration 1")
    if reg.kind == "lasso":
        L = smooth.task_lipschitz()
        step = 1.0 / np.where(L == 0.0, 1.0, L)  # L_p = 0: the task's loss is constant
        solve = _fista_columns
    else:
        L = smooth.lipschitz()
        step = 1.0 if L == 0.0 else 1.0 / L  # L = 0: the smooth part is constant
        solve = _fista
    if not np.all(step > 0.0):  # NaN or overflowed L
        raise DivergenceError("step size underflow at iteration 1")
    W, trace, task_iterations, converged = solve(smooth, reg, W, r, current, step, params)
    return FitResult(
        weights=WeightMatrix(values=W, task_ids=data.task_ids, columns=data.columns),
        objective_trace=tuple(trace),
        iterations=len(trace) - 1,
        converged=converged,
        task_iterations=task_iterations,
    )


def _fista(smooth, reg, W, r, current, step, params):
    """One FISTA run over all columns (the joint kinds)."""
    W_prev, r_prev = W, r
    momentum = _momentum(params.max_iters)
    since = 0  # steps since the last (re)start
    trace = [current]
    converged = False

    for iteration in range(1, params.max_iters + 1):
        alpha = momentum[since]
        search = W + alpha * (W - W_prev)
        r_search = r + alpha * (r - r_prev)  # the residual is affine in W
        candidate, r_candidate, value = _prox_step(smooth, reg, search, r_search, step, iteration)

        if value > current:
            # momentum overshot: restart and take a plain descent step
            since = 0
            candidate, r_candidate, value = _prox_step(smooth, reg, W, r, step, iteration)
            if value > current:
                # numerically stationary; keep the previous iterate
                candidate, r_candidate, value = W, r, current

        W_prev, W = W, candidate
        r_prev, r = r, r_candidate
        trace.append(value)
        since += 1

        stopped = abs(current - value) <= params.rel_tol * max(abs(current), 1e-12)
        current = value
        if stopped:
            converged = True
            break

    return W, trace, (len(trace) - 1,) * W.shape[1], converged


def _fista_columns(smooth, reg, W, r, current, step, params):
    """One FISTA run per task's column (the lasso kind), all advanced in one sweep.

    Column p's step, momentum, restart and stop are its own, exactly as in
    :func:`_fista` on task p alone, and a column that has stopped keeps its
    iterate while the others go on. Vectors with one entry per column
    broadcast over W's columns; ``on_rows`` repeats them over each task's
    residual rows. The trace holds the sum of the columns' objectives.
    """
    W_prev, r_prev = W, r
    n_tasks = W.shape[1]
    momentum = _momentum(params.max_iters)
    since = np.zeros(n_tasks, dtype=np.intp)  # steps since the column's last (re)start
    active = np.ones(n_tasks, dtype=bool)
    all_active = True
    stopped_at = np.full(n_tasks, params.max_iters)
    trace = [float(current.sum())]

    def on_rows(v: np.ndarray) -> np.ndarray:
        return v[smooth.task_of_row]

    for iteration in range(1, params.max_iters + 1):
        alpha = momentum[since]
        search = W + alpha * (W - W_prev)
        r_search = r + on_rows(alpha) * (r - r_prev)
        candidate, r_candidate, values = _prox_step(smooth, reg, search, r_search, step, iteration)

        restart = values > current
        if not all_active:
            restart &= active
        if restart.any():
            # as in _fista: a plain descent step, or the previous iterate if that rises too
            since[restart] = 0
            plain, r_plain, plain_values = _prox_step(smooth, reg, W, r, step, iteration)
            stuck = plain_values > current
            candidate = np.where(restart, np.where(stuck, W, plain), candidate)
            r_candidate = np.where(
                on_rows(restart), np.where(on_rows(stuck), r, r_plain), r_candidate
            )
            values = np.where(restart, np.where(stuck, current, plain_values), values)
        if not all_active:  # stopped columns keep their iterate
            candidate = np.where(active, candidate, W)
            r_candidate = np.where(on_rows(active), r_candidate, r)
            values = np.where(active, values, current)

        W_prev, W = W, candidate
        r_prev, r = r, r_candidate
        trace.append(float(values.sum()))
        since += 1

        # no abs() needed: objectives are nonnegative and no column's ever rises
        stopped = current - values <= params.rel_tol * np.maximum(current, 1e-12)
        if not all_active:
            stopped &= active
        current = values
        if stopped.any():
            stopped_at[stopped] = iteration
            active &= ~stopped
            all_active = False
            if not active.any():
                break

    return W, trace, tuple(int(n) for n in stopped_at), not active.any()


@functools.lru_cache(maxsize=4)
def _momentum(n_steps: int) -> np.ndarray:
    """FISTA's extrapolation weight (t_{j-1} - 1) / t_j for step j after a (re)start.

    t_0 = 1 and t_{j+1} = (1 + sqrt(1 + 4 t_j^2)) / 2; the (re)starting step
    j = 0 takes no momentum. Tabulated once per ``max_iters``.
    """
    alphas = np.zeros(n_steps)
    t = 1.0
    for j in range(1, n_steps):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        alphas[j] = (t - 1.0) / t_next
        t = t_next
    alphas.flags.writeable = False
    return alphas


def _prox_step(smooth, reg, point, r_point, step, iteration):
    """One proximal gradient step from ``point``, whose residual is ``r_point``.

    The candidate's residual is computed directly, so the cached residuals
    never drift from the iterates. Returns the candidate, its residual and
    its full objective value (one per column for lasso).
    """
    g_point = smooth.gradient_from_residual(point, r_point)
    # a non-finite residual entry makes its task's intercept gradient non-finite
    if not np.isfinite(g_point).all():
        raise DivergenceError(f"objective became non-finite at iteration {iteration}")
    candidate = _prox(reg, point - step * g_point, step)
    r_candidate = smooth._residual(candidate)
    value = _objective_values(smooth, reg, candidate, r_candidate)
    if not _all_finite(value):
        raise DivergenceError(f"objective became non-finite at iteration {iteration}")
    return candidate, r_candidate, value


def predict(W: WeightMatrix, data_row: np.ndarray, task_id: str) -> float:
    """Predicted log price: inner product of the encoded row with the task column."""
    column = W.column(task_id)
    row = np.asarray(data_row, dtype=float).reshape(-1)
    if row.shape[0] != column.shape[0]:
        raise ValueError(f"row length {row.shape[0]} does not match weights {column.shape[0]}")
    return float(row @ column)
