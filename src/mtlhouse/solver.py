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

One FISTA loop advances blocks of W's columns together; each block has its
own step 1/L, momentum, restart test and stop, and once it stops it stays
fixed. The joint kinds couple every column, so they are one block: all
columns take every step, with one L. The l1 penalty and the squared loss
both separate by task, so the lasso kind has one block per task's column,
with its own L_p = 2 lambda_max(x_p^T x_p). Every operation on a lasso block
stays inside its task's rows, so a column's iterates are those of a
single-task fit of that task, bit for bit.

A block stops when its objective's relative change over one step is at most
``rel_tol``. For the lasso and l2,1 kinds at theta1 > 0 that test only
triggers the stop: the block stops once its relative duality gap
(P(W) - D(u)) / P(W) is also at most GAP_TOL, which bounds how far its
objective can lie above the optimum. The gap is computed only in a sweep in
which the relative-change test fires, and once for the returned weights
(``FitResult.gap``). The dual point u starts from the gradient of the loss,
twice the residual. Each task's u is projected onto the complement of its
last design column (for the ones column, centring), so the unpenalized
intercept row of X^T u is 0, and u is then scaled by
min(1, theta1 / ||X^T u||) over the penalized rows, with the l-infinity norm
of each task's column for lasso and the largest row l2 norm for l2,1, which
makes it dual feasible. The graph kind and theta1 = 0 have no such
certificate here (at theta1 = 0 the scaled dual point is 0 and the gap is the
whole objective), so they stop on the relative-change test alone.

A fit may start from given weights (``init``); a grid of theta1 values solved
from the largest down, each fit started from the previous solution, is what
that is for.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .design import TaskData, WeightMatrix
from .values import is_integer, is_real

REGULARIZER_KINDS = ("lasso", "group_l21", "graph")

# The largest relative duality gap at which a lasso or l2,1 block may stop.
GAP_TOL = 1e-3


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
        if not is_integer(self.max_iters) or self.max_iters < 1:
            raise ValueError(f"max_iters must be a positive integer, got {self.max_iters!r}")
        if not (is_real(self.rel_tol) and math.isfinite(self.rel_tol) and self.rel_tol > 0):
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

    The solver runs FISTA over blocks of columns: one block per task's column
    for the lasso kind, one block of all columns for the joint kinds. Each
    block steps, restarts and stops on its own. ``task_iterations`` holds the
    steps each task's block took and ``iterations`` their maximum: the number
    of sweeps, the entries of ``objective_trace`` after its starting value.
    Each trace entry is the sum of the blocks' objectives. ``converged`` means
    every block stopped within ``max_iters``: the relative-change test fired
    and, for the lasso and l2,1 kinds at theta1 > 0, its relative duality gap
    was at most ``GAP_TOL``. ``gap`` is the largest relative duality gap of the
    blocks at the returned weights, an upper bound on each block's
    (P(W) - P(W*)) / P(W); it is None where the fit has no certificate (the
    graph kind and theta1 = 0).
    """

    weights: WeightMatrix
    objective_trace: tuple[float, ...]
    iterations: int
    converged: bool
    task_iterations: tuple[int, ...] = ()
    gap: Optional[float] = None

    def __post_init__(self):
        trace = self.objective_trace
        for a, b in zip(trace, trace[1:]):
            if b > a:
                raise ValueError("objective trace must be nonincreasing")


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
    # the row means as V.mean(axis=1) computes them, without that call's overhead
    centred = V - np.add.reduce(V, axis=1, keepdims=True) / V.shape[1]
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
        return float(reg.theta1 * _row_norms(w).sum())
    return float(reg.theta2 * _row_norms(w).sum())


def _row_norms(V: np.ndarray) -> np.ndarray:
    """The l2 norm of each row, as ``np.linalg.norm(V, axis=1)`` computes it,
    without that call's argument handling (it runs twice per solver step)."""
    return np.sqrt(np.add.reduce(V * V, axis=1))


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
    return _shrink_l1(V, threshold, skip_intercept_row)


def prox_l21(V: np.ndarray, threshold: float, skip_intercept_row: bool = True) -> np.ndarray:
    """Row shrinkage by max(0, 1 - threshold/||row||); zero rows stay zero."""
    if not threshold >= 0:
        raise ValueError("threshold must be nonnegative")
    return _shrink_l21(V, threshold, skip_intercept_row)


def _shrink_l1(V, threshold, skip_intercept_row=True):
    """:func:`prox_l1` without the threshold check."""
    # V minus its clip to [-threshold, threshold]: sign(V) * max(|V| - threshold, 0)
    out = V - np.minimum(np.maximum(V, -threshold), threshold)
    if skip_intercept_row:
        out[-1] = V[-1]
    return out


def _shrink_l21(V, threshold, skip_intercept_row=True):
    """:func:`prox_l21` without the threshold check.

    A zero row's factor 1 - threshold/0 is -inf (or NaN at threshold 0), and
    a NaN row's is NaN; ``fmax`` takes 0 over either, so those rows get the
    factor 0 that masking them out would give.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.fmax(1.0 - threshold / _row_norms(V), 0.0)
    out = V * scale[:, None]
    if skip_intercept_row:
        out[-1] = V[-1]
    return out


def _prox(reg: RegularizerSpec, V: np.ndarray, step: Union[float, np.ndarray]) -> np.ndarray:
    """The penalty's prox at ``step``. :func:`fit` has made sure once that every
    threshold is nonnegative (step > 0 and theta >= 0), so no step checks it."""
    if reg.kind == "lasso":
        return _shrink_l1(V, step * reg.theta1)
    if reg.kind == "group_l21":
        return _shrink_l21(V, step * reg.theta1)
    return _shrink_l21(V, step * reg.theta2)


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
        predictions = np.einsum("nd,nd->n", self.data.x, W.T.take(self.task_of_row, axis=0))
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
        return 2.0 * self.data.top_gram_eigenvalues

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
    """Full objective of each block: one per task's column for lasso, shape (P,);
    one in all for the joint kinds, a Python float."""
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
    init: Optional[WeightMatrix] = None,
) -> FitResult:
    """Estimate the weight matrix by monotone accelerated proximal gradient.

    Starts from ``init``, matched to the data's tasks by task id (a task it
    does not hold starts at 0, and its tasks the data lacks are ignored), or
    from 0. Every step is 1/L, with L the Lipschitz constant of the smooth
    part's gradient; there is no line search. On an objective increase the
    momentum is restarted and a plain descent step is taken, so the recorded
    trace is nonincreasing. Stops when the relative objective change drops
    below ``params.rel_tol`` and, where the kind has one, the duality gap
    certifies the point (see the module docstring), or when
    ``params.max_iters`` is reached. For the lasso kind every task's column
    does all of this on its own, with its own L_p.
    """
    graph = build_task_graph(data) if reg.kind == "graph" else None
    smooth = _Smooth(data, reg, graph)
    W = _starting_weights(data, init)
    r = smooth._residual(W)
    current = _objective_values(smooth, reg, W, r)
    if not _all_finite(current):
        # the first step would evaluate this point; inf - inf in its residual would be NaN
        raise DivergenceError("objective became non-finite at iteration 1")
    if reg.kind == "lasso":
        L = smooth.task_lipschitz()
        step = 1.0 / np.where(L == 0.0, 1.0, L)  # L = 0: the block's smooth part is constant
    else:
        L = smooth.lipschitz()
        step = 1.0 / (L if L != 0.0 else 1.0)
    if not np.all(step > 0.0):  # NaN or overflowed L
        raise DivergenceError("step size underflow at iteration 1")
    # step > 0 here, and theta >= 0 (a NaN theta has made `current` non-finite
    # above), so every prox threshold of this fit is nonnegative
    W, trace, stopped_at, converged, gap = _fista(smooth, reg, W, r, current, step, params)
    return FitResult(
        weights=WeightMatrix(values=W, task_ids=data.task_ids, columns=data.columns),
        objective_trace=tuple(trace),
        iterations=len(trace) - 1,
        converged=converged,
        task_iterations=tuple(int(n) for n in np.broadcast_to(stopped_at, data.n_tasks)),
        gap=gap,
    )


def _starting_weights(data: TaskData, init: Optional[WeightMatrix]) -> np.ndarray:
    """``init``'s column of each of the data's tasks, 0 for a task it lacks."""
    W = np.zeros((data.n_columns, data.n_tasks))
    if init is not None:
        if init.columns != data.columns:
            raise ValueError("init weights have other design columns than the data")
        known = set(init.task_ids)
        for p, task_id in enumerate(data.task_ids):
            if task_id in known:
                W[:, p] = init.column(task_id)
    return W


def _relative_gaps(smooth: _Smooth, reg: RegularizerSpec, W, r, values):
    """Relative duality gap (P(W) - D(u)) / P(W) of each block at ``W``.

    ``r`` is W's residual and ``values`` its blocks' objectives (see
    :func:`_objective_values`). The dual of the squared loss plus penalty is
    D(u) = -<u, y> - ||u||^2 / 4 over the u with the intercept row of X^T u
    equal to 0 and the penalized rows' dual norm at most theta1. With
    u = 2 s v, where v is the residual projected off each task's last column
    and s the feasibility scale, D = -2 s <v, y> - s^2 ||v||^2 per task.
    """
    data = smooth.data
    last = data.x[:, -1]
    last_norms = np.add.reduceat(last * last, data.starts)
    along = np.add.reduceat(last * r, data.starts)
    shares = np.divide(along, last_norms, out=np.zeros_like(along), where=last_norms > 0.0)
    v = r - shares.take(smooth.task_of_row) * last
    dual_rows = np.add.reduceat(smooth.twice_columns * v, data.starts, axis=1)[:-1]  # X^T u, s = 1
    if reg.kind == "lasso":
        dual_norm = np.max(np.abs(dual_rows), axis=0, initial=0.0)
    else:
        dual_norm = np.max(_row_norms(dual_rows), initial=0.0)
    with np.errstate(divide="ignore"):
        scale = np.minimum(1.0, reg.theta1 / dual_norm)
    vy = np.add.reduceat(v * data.y, data.starts)
    vv = np.add.reduceat(v * v, data.starts)
    if reg.kind != "lasso":  # one block
        vy, vv = vy.sum(), vv.sum()
    gaps = (values + 2.0 * scale * vy + scale * scale * vv) / np.maximum(np.abs(values), 1e-12)
    return gaps if reg.kind == "lasso" else float(gaps)


def _fista(smooth, reg, W, r, current, step, params):
    """FISTA over blocks of W's columns, all advanced in one sweep.

    A block is one task's column for the lasso kind and all columns for the
    joint kinds. Each block has its own step, momentum, restart and stop, and
    a block that has stopped keeps its iterate while the others go on. The
    trace holds the sum of the blocks' objectives.

    Block state (``current``, ``values``, ``since``, ``alpha``, ``step``, the
    restart and stop masks) has one entry per block. The lasso kind's state
    is arrays of shape (P,), which broadcast over W's columns; ``on_rows``
    repeats a per-task entry over that task's residual rows. The one joint
    block keeps its state in Python scalars, which spares every sweep numpy's
    per-call overhead on 0-d arrays. The helpers that pick, test and combine
    block state (``where``, ``any_``, ``maximum``, ``on_rows``, ``total``) are
    chosen once per fit to match; the floating-point operations and their
    order are the same either way.
    """
    if isinstance(current, float):  # one block
        momentum = _momentum(params.max_iters).tolist()
        since, active, stopped_at = 0, True, params.max_iters
        where, any_, maximum, on_rows, total = _pick, bool, max, _same, float
    else:
        momentum = _momentum(params.max_iters)
        since = np.zeros(current.shape, dtype=np.intp)  # steps since the block's last (re)start
        active = np.ones(current.shape, dtype=bool)
        stopped_at = np.full(current.shape, params.max_iters)
        where, any_, maximum, total = np.where, np.ndarray.any, np.maximum, _sum
        task_of_row = smooth.task_of_row

        def on_rows(v: np.ndarray) -> np.ndarray:
            return v.take(task_of_row)

    W_prev, r_prev = W, r
    all_active = True
    certified = reg.kind != "graph" and reg.theta1 > 0.0
    trace = [total(current)]

    for iteration in range(1, params.max_iters + 1):
        alpha = momentum[since]
        search = W + alpha * (W - W_prev)
        r_search = r + on_rows(alpha) * (r - r_prev)  # the residual is affine in W
        candidate, r_candidate, values = _prox_step(smooth, reg, search, r_search, step, iteration)

        restart = values > current
        if not all_active:
            restart &= active
        if any_(restart):
            # momentum overshot: restart and take a plain descent step, or keep
            # the previous iterate if that rises too (numerically stationary)
            since = where(restart, 0, since)
            plain, r_plain, plain_values = _prox_step(smooth, reg, W, r, step, iteration)
            stuck = plain_values > current
            candidate = where(restart, where(stuck, W, plain), candidate)
            r_candidate = where(
                on_rows(restart), where(on_rows(stuck), r, r_plain), r_candidate
            )
            values = where(restart, where(stuck, current, plain_values), values)
        if not all_active:  # stopped blocks keep their iterate (several blocks only)
            candidate = np.where(active, candidate, W)
            r_candidate = np.where(on_rows(active), r_candidate, r)
            values = np.where(active, values, current)

        W_prev, W = W, candidate
        r_prev, r = r, r_candidate
        trace.append(total(values))
        since += 1

        stopped = abs(current - values) <= params.rel_tol * maximum(abs(current), 1e-12)
        if not all_active:
            stopped &= active
        current = values
        if certified and any_(stopped):
            stopped &= _relative_gaps(smooth, reg, W, r, current) <= GAP_TOL
        if any_(stopped):
            stopped_at = where(stopped, iteration, stopped_at)
            active = where(stopped, False, active)
            all_active = False
            if not any_(active):
                break

    gap = float(np.max(_relative_gaps(smooth, reg, W, r, current))) if certified else None
    return W, trace, stopped_at, not any_(active), gap


def _pick(condition: bool, a, b):
    return a if condition else b


def _same(v):
    return v


def _sum(v: np.ndarray) -> float:
    return float(v.sum())


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
    candidate = _prox(reg, point - step * g_point, step)
    r_candidate = smooth._residual(candidate)
    value = _objective_values(smooth, reg, candidate, r_candidate)
    # a non-finite gradient entry makes its block's candidate, residual and so
    # objective non-finite, so this test also stands for a test of the gradient
    if not _all_finite(value):
        raise DivergenceError(f"objective became non-finite at iteration {iteration}")
    return candidate, r_candidate, value
