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

Each task's intercept is free, so it is minimized out before the loop, as
glmnet centres its data (Friedman, Hastie & Tibshirani 2010). At fixed
penalized weights w_p, task p's best intercept is c_p^T (y_p - X_p w_p) /
c_p^T c_p, c_p its last design column (the ones column), which leaves the
residual P_p (X_p w_p - y_p), P_p projecting rows off c_p. The loop runs
on that profiled problem, over the penalized rows alone; after it each
intercept is set to that least-squares value. The problem and its optimum
are the same; what changes is the conditioning. Inside a task the intercept
correlates with every column's mean, and where a dummy column is constant on
a task (an SA4 dummy of an SA3 task) it is the ones column; left in the
loop, it would slow FISTA along those directions.

The smooth part is a quadratic, so the Lipschitz constant L of its gradient
is computed once per fit from eigenvalues and every step is exactly 1/L; no
line search is needed.

The loss sees the data only through each task's profiled Gram matrix
G_p = X_p^T P_p X_p and moment b_p = X_p^T P_p y_p on its penalized support
columns. ``TaskData.profiled_grams`` builds them once per data set from the
task's support rows projected off c_p, one stack per support width, and each
fit lays them out in slots (see :class:`_Smooth`). So the loop never forms an
N-row residual: the gradient is 2(G_p w_p - b_p), one batched product over
the tasks, and a step costs O(P·w^2) for supports w wide, whatever N. The
loop keeps q = G·W of its iterates; q is linear in W, so q at the
extrapolated point is combined from those of the last two iterates, and an
accelerated step costs one Gram product. The objective is a running value:
it starts from the exact value of the profiled start and adds each step's
change d^T (q_C - q_W) + 2 d^T (q_W - b), d = C - W. That difference comes
from quantities as small as d, not as the difference of two objective
values, whose rounding error is of the size of the objective itself and
swamps a step near a minimizer (see :class:`_Smooth`). The trace starts on
the exact objective of the start as given and ends on that of the returned
weights, both from the residual (:func:`_exact_values`).

One FISTA loop advances blocks of W's columns together; each block has its
own step 1/L, momentum, restart test and stop, and once it stops it stays
fixed. The joint kinds couple every column, so they are one block: all
columns take every step, with one L. The l1 penalty and the squared loss
both separate by task, so the lasso kind has one block per task's column,
with its own L_p = 2 lambda_max(G_p). Every operation on a lasso block
stays inside its task's Gram matrix and slots, so a column's iterates are
those of a single-task fit of that task, bit for bit, whatever the other
tasks. A restart's plain step and a gap are computed only for the columns
that need them, and a stopped column leaves the loop.

A block stops when its objective's relative change over one step is at most
``rel_tol``. Where the fit has a certificate (:func:`_certified`: lasso and
l2,1 at theta1 > 0, the graph kind at theta2 > 0) that test only triggers the
stop: the block stops once its relative duality gap (P(W) - D(u)) / P(W) is
also at most GAP_TOL, which bounds how far its objective can lie above the
optimum. The gap is computed only in a sweep in which the relative-change
test fires, and once for the returned weights (``FitResult.gap``). The dual
point u is the gradient of the profiled loss, twice the profiled residual,
scaled by min(1, theta / ||X^T u||) over the penalized rows, with the
l-infinity norm of each task's column for lasso and the largest row l2 norm
for the l2,1 term, which makes it dual feasible. The profiled residual is
orthogonal to each task's last column, so u is also a dual point of the
problem with the intercepts free, and the gap is that problem's at the
returned weights. Every term comes from Gram quantities: X^T u / 2 is q - b.
The graph kind's coupling is theta1 Q(V) = ||A V||^2 for a linear map A, as
the Laplacian is positive semidefinite, so its smooth part is a
least-squares loss on the loss rows and on extra rows with target 0; its
dual is the l2,1 one at theta2 over that augmented residual (see
:func:`_relative_gaps`). At a zero l1 or l2,1 weight there is no certificate
(the scaled dual point is 0 and the gap is the whole objective), so such a
fit stops on the relative-change test alone.

A fit may start from given weights (``init``): a grid of theta1 values solved
from the largest down, each fit started from the previous solution, and a
rolling protocol's round started from the previous round's fits are what that
is for. The certificate makes the stop the same wherever a fit starts.
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

# The largest relative duality gap at which a certified block may stop.
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
    Each trace entry is the sum of the blocks' objectives: the first is the
    exact objective of the start as given, the last that of the returned
    weights, and the ones between are the running values the loop compared.
    The loop starts from the same penalized weights with each intercept at
    its least-squares value, whose objective can only be lower than the
    first. An entry that rounding left above the first is lowered to it, and
    one that rounding left below the last is raised to it. ``converged``
    means every block stopped within ``max_iters``: the relative-change test
    fired and, where the fit has a certificate (lasso and l2,1 at
    theta1 > 0, the graph kind at theta2 > 0), its relative duality gap was
    at most ``GAP_TOL``. ``gap`` is the largest relative duality gap of the
    blocks at the returned weights, an upper bound on each block's
    (P(W) - P(W*)) / P(W); it is None where the fit has no certificate.
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
    centred = _centred(V)
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
    laplacian = None if graph is None else _graph_laplacian(graph.weights)
    return _total(_exact_values(data, reg, laplacian, w)[0])


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
    laplacian = None if graph is None else _graph_laplacian(graph.weights)
    return _total(_exact_values(data, reg, laplacian, w)[1])


def smooth_gradient(
    W: Union[WeightMatrix, np.ndarray],
    data: TaskData,
    reg: RegularizerSpec,
    graph: Optional[TaskGraph] = None,
) -> np.ndarray:
    """Gradient of :func:`smooth_objective`; the l1/l2,1 parts are handled by prox."""
    w = _values(W)
    _check_shapes(w, data, reg, graph)
    # column p is 2 x_p^T r_p, summed over task p's rows alone
    twice_columns = 2.0 * data.x.T.copy()
    grad = np.add.reduceat(twice_columns * _residual(data, w), data.starts, axis=1)
    if reg.kind == "graph":
        # d/dV of the ordered-pair quadratic 2 <V Lap, V>
        grad[:-1] += 4.0 * reg.theta1 * (w[:-1] @ _graph_laplacian(graph.weights))
    return grad


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
    """:func:`prox_l21` without the threshold check."""
    out = V * _l21_factors(_row_norms(V), threshold)[:, None]
    if skip_intercept_row:
        out[-1] = V[-1]
    return out


def _l21_factors(norms: np.ndarray, threshold) -> np.ndarray:
    """Each row's l2,1 shrink factor max(0, 1 - threshold/norm).

    A zero row's factor 1 - threshold/0 is -inf (or NaN at threshold 0), and
    a NaN row's is NaN; ``fmax`` takes 0 over either, so those rows get the
    factor 0 that masking them out would give.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.fmax(1.0 - threshold / norms, 0.0)


class _Smooth:
    """The smooth part in the Gram form the FISTA loop runs on: the squared
    loss with each task's free intercept minimized out, plus the coupling for
    the graph kind.

    At fixed penalized weights w_p, task p's best intercept leaves it the
    residual P_p (X_p w_p - y_p), with P_p projecting its rows off its last
    design column c_p. So the profiled loss sees w_p only through G_p =
    X_p^T P_p X_p and b_p = X_p^T P_p y_p on its penalized support columns
    (``TaskData.profiled_grams``), and its gradient is 2(G_p w_p - b_p) at
    O(P·w^2) per step for supports w wide, whatever N. The loop holds the
    penalized weights alone, in slots laid out here from those stacks: row
    k < w_p - 1 of task p's column is its k-th penalized support column, and
    the rows below it are padding, 0. The lasso and l2,1 kinds hold them in
    that compact S x P layout, S the widest penalized support; a column off
    a task's support has zero loss gradient, so it stays 0 there. The graph
    kind's coupling reaches every penalized row, so it holds them dense,
    (D - 1) x P, and gathers each task's support entries for its loss: its
    Gram matrices are the same stacks, sum_p w_p^2 numbers, not P·D^2. The
    intercepts are set once, after the loop (:meth:`intercepts`). Exact
    values come from the residual instead (:func:`_exact_values`).

    The loop keeps the products ``h`` of its iterates: q = G·W (in slots) and,
    for the graph kind, the coupling's M = centred(V)·Lap below them, with V
    the penalized rows. Both are linear in W, so the products at the
    extrapolated point are combined from those of the last two iterates. A
    step's change of the smooth part comes from products, not as the
    difference of two values:

        f(C) - f(W) = d^T (q_C - q_W) + 2 d^T (q_W - b),  d = C - W,

    plus theta1 · 2 <d, M_C + M_W> for the coupling. It is free of
    cancellation: near a minimizer its subtractions are of nearby numbers
    (q_C of q_W, and q_W of b, as X^T P r = q - b is small there), which
    floating point subtracts exactly or nearly so, and the rest multiplies
    and adds small numbers. Its rounding error is of the size of d times the
    gradient. A difference of two objective values rounds at the size of f
    itself, which swamps a step near a minimizer and breaks the restart and
    stopping tests. Every per-task sum over slots adds in row order, and
    every per-task product is that task's own matrix product, so a task's
    numbers do not depend on the other tasks or on S.
    """

    def __init__(self, data: TaskData, reg: RegularizerSpec, graph: Optional[TaskGraph]):
        self.reg = reg
        self.data = data
        self.laplacian = _graph_laplacian(graph.weights) if reg.kind == "graph" else None
        self.dense = reg.kind == "graph"
        groups = data.profiled_grams
        n_slots = groups[-1].columns.shape[1]  # the widest penalized support
        shape = (n_slots, data.n_tasks)
        penalized = data.n_columns - 1
        # each slot's design column (the intercept's for padding, which no
        # slot holds), and the moments and intercept offsets in slots, 0 in padding
        columns = np.full(shape, penalized)
        moments, offsets = np.zeros(shape), np.zeros(shape)
        eigenvalues, levels, last_norms = np.empty((3, data.n_tasks))
        stacks = []
        for group in groups:
            width = group.columns.shape[1]
            at = (slice(width), group.tasks)
            columns[at] = group.columns.T
            moments[at] = group.moments.T
            offsets[at] = group.offsets.T
            eigenvalues[group.tasks] = group.top_eigenvalues
            levels[group.tasks] = group.levels
            last_norms[group.tasks] = group.last_norms
            if width:
                stacks.append((group.tasks, group.grams))
        self.slot_columns = columns
        self.flat_columns = columns.ravel()
        # each slot's index in V.ravel() for the dense (D - 1) x P penalized
        # rows V; a padding slot's is (D - 1)·P, one past the end
        padding = columns == penalized
        in_dense = columns * data.n_tasks + np.arange(data.n_tasks)
        self.in_dense = np.where(padding, penalized * data.n_tasks, in_dense).ravel()
        self.padding = np.flatnonzero(padding.ravel())
        self.eigenvalues, self.levels, self.last_norms, self.offsets = eigenvalues, levels, last_norms, offsets
        self.all = _GramColumns(stacks, moments)

    def task_lipschitz(self) -> np.ndarray:
        """2 lambda_max(X_p^T P_p X_p) of each task; NaN where the Gram matrix is not finite."""
        return 2.0 * self.eigenvalues

    def lipschitz(self) -> float:
        """Lipschitz constant L of the gradient, or NaN if a Gram matrix is not finite.

        The profiled loss's Hessian is block diagonal with blocks
        2 X_p^T P_p X_p; the graph term adds 4 theta1 Lap on every penalized
        row. L is the Hessian's largest eigenvalue for lasso and group_l21;
        for the graph kind it is the sum of the two parts' largest
        eigenvalues, an upper bound on it.
        """
        L = float(np.max(self.task_lipschitz()))  # NaN if any task's is
        if self.reg.kind == "graph":
            L += 4.0 * self.reg.theta1 * float(np.linalg.eigvalsh(self.laplacian)[-1])
        return L

    def profile(self, r: np.ndarray) -> np.ndarray:
        """The N-row residual ``r`` projected off each task's last design
        column c_p: the residual at the same penalized weights with every
        intercept at its least-squares value."""
        c = self.data.x[:, -1]
        with np.errstate(invalid="ignore"):  # a non-finite residual stays non-finite
            along = np.add.reduceat(c * r, self.data.starts)
            shares = np.divide(along, self.last_norms, out=np.zeros_like(along), where=self.last_norms > 0.0)
            return r - c * np.repeat(shares, self.data.sizes)

    def intercepts(self, Z: np.ndarray, start: np.ndarray) -> np.ndarray:
        """Each task's least-squares intercept c_p^T (y_p - X_p w_p) / c_p^T c_p
        at the penalized weights ``Z``, in the loop's layout; ``start``'s
        where c_p = 0, as the intercept does not enter that task's loss."""
        slots = self.compact(Z) if self.dense else Z
        return np.where(self.last_norms > 0.0, self.levels - _column_sums(self.offsets * slots), start)

    def weights(self, Z: np.ndarray, intercepts: np.ndarray) -> np.ndarray:
        """The dense D x P weights with the penalized rows ``Z``, in the loop's
        layout, and the ``intercepts``."""
        return np.vstack((Z if self.dense else self.expand(Z), intercepts))

    # ``cols`` holds the columns given, None for all

    def compact(self, V: np.ndarray) -> np.ndarray:
        """Each task's support entries of the dense penalized rows V, in slots."""
        Z = V.take(self.in_dense, mode="clip")  # padding reads V's last entry ...
        Z[self.padding] = 0.0  # ... and is set to 0
        return Z.reshape(self.slot_columns.shape)

    def expand(self, Z: np.ndarray) -> np.ndarray:
        """The dense (D - 1) x P penalized rows with slots ``Z`` and 0 off every support."""
        penalized, n_tasks = self.data.n_columns - 1, self.data.n_tasks
        V = np.zeros(penalized * n_tasks + 1)  # the last entry takes the padding
        V[self.in_dense] = Z.ravel()
        return V[:-1].reshape(penalized, n_tasks)

    def products(self, W: np.ndarray, cols: Optional["_GramColumns"] = None) -> np.ndarray:
        """h(W): q = G·W in slots, and for the graph kind M below it."""
        if not self.dense:
            return _gram_products(W, cols or self.all)
        n_slots = self.slot_columns.shape[0]
        h = np.empty((n_slots + W.shape[0], W.shape[1]))
        h[:n_slots] = _gram_products(self.compact(W), self.all)
        np.matmul(_centred(W), self.laplacian, out=h[n_slots:])
        return h

    def gradient_from_products(self, h: np.ndarray, cols: Optional["_GramColumns"] = None) -> np.ndarray:
        """The smooth part's gradient at the point whose products are ``h``."""
        moments = (cols or self.all).moments
        n_slots = moments.shape[0]
        grad = 2.0 * (h[:n_slots] - moments)
        if self.dense:
            grad = self.expand(grad)
            grad += 4.0 * self.reg.theta1 * h[n_slots:]
        return grad

    def change(self, d, h_to, h_from, cols: Optional["_GramColumns"] = None):
        """f(C) - f(W) with d = C - W and the products ``h_to`` of C and ``h_from``
        of W: one per column for lasso, one float for the joint kinds."""
        moments = (cols or self.all).moments
        n_slots = moments.shape[0]
        q_to, q_from = h_to[:n_slots], h_from[:n_slots]
        terms = (self.compact(d) if self.dense else d) * ((q_to - q_from) + 2.0 * (q_from - moments))
        if self.reg.kind == "lasso":
            return _column_sums(terms)
        change = float(np.add.reduce(terms, axis=None))
        if self.dense:  # the coupling's 2 <d, M_C + M_W>
            coupling = np.add.reduce(d * (h_to[n_slots:] + h_from[n_slots:]), axis=None)
            change += self.reg.theta1 * 2.0 * float(coupling)
        return change

    def group_norms(self, V: np.ndarray) -> np.ndarray:
        """The l2 norm over the tasks of each design row, from the slots ``V``;
        the intercept's entry gathers the padding, 0."""
        squares = np.bincount(self.flat_columns, weights=(V * V).ravel(), minlength=self.data.n_columns)
        return np.sqrt(squares)

    def prox(self, V: np.ndarray, step):
        """The penalty's prox at ``step`` in the loop's layout, and the penalty
        of the point it returns: one per column for lasso, one float for the
        joint kinds. :func:`fit` has made sure once that every threshold is
        nonnegative (step > 0 and theta >= 0), so no step checks it."""
        reg = self.reg
        if reg.kind == "lasso":
            out = _shrink_l1(V, step * reg.theta1, skip_intercept_row=False)
            return out, reg.theta1 * _column_sums(np.abs(out))
        # the l2,1 part: each design row's factor applied to that row (on
        # slots, to its slot in every task)
        theta = reg.theta2 if self.dense else reg.theta1
        threshold = step * theta
        if self.dense:
            norms = _row_norms(V)
            out = V * _l21_factors(norms, threshold)[:, None]
        else:
            norms = self.group_norms(V)
            out = V * _l21_factors(norms, threshold)[self.slot_columns]
            norms = norms[:-1]  # less the padding's entry
        # a shrunk row's norm is max(norm - threshold, 0); a NaN one stays NaN
        shrunk = np.maximum(norms - threshold, 0.0)
        return out, float(theta * np.add.reduce(shrunk))


class _GramColumns:
    """The Gram form of some of the tasks' columns, in slots: per penalized
    support width the columns' positions and their Gram matrices, and the
    moments b. ``flat_slots`` holds each width's slots as indices into the
    flattened S x C array of these C columns, one row per column. A column
    whose task has no penalized support column is in no stack."""

    def __init__(self, stacks: Optional[list], moments: np.ndarray):
        self.stacks = stacks
        if stacks is not None:
            self.flat_slots = [np.arange(grams.shape[1]) * moments.shape[1] + at[:, None] for at, grams in stacks]
        self.moments = moments

    def take(self, positions: Optional[np.ndarray], grams: bool = True) -> "_GramColumns":
        """The columns at ``positions`` (ascending) among these, all of them if
        None; without their Gram matrices if ``grams`` is false (the duality
        gap needs none)."""
        if positions is None:
            return self
        stacks = None
        if grams:
            stacks, (width_of, row_of) = [], self.stack_rows
            width_of, row_of = width_of[positions], row_of[positions]
            for i, (_, stack) in enumerate(self.stacks):
                kept = np.flatnonzero(width_of == i)
                if kept.size:
                    stacks.append((kept, stack[row_of[kept]]))
        return _GramColumns(stacks, self.moments[:, positions])

    @functools.cached_property
    def stack_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Each column's stack (its position in ``stacks``, -1 for none) and
        its row in that stack."""
        width_of, row_of = np.full((2, self.moments.shape[1]), -1, dtype=np.intp)
        for i, (at, _) in enumerate(self.stacks):
            width_of[at], row_of[at] = i, np.arange(len(at))
        return width_of, row_of


def _gram_products(Z: np.ndarray, cols: _GramColumns) -> np.ndarray:
    """q = G·Z in slots: each column's Gram matrix times its slots, one
    batched product per support width."""
    q = np.zeros(Z.size)
    for flat, (_, grams) in zip(cols.flat_slots, cols.stacks):
        q[flat] = (grams @ Z.take(flat)[:, :, None])[:, :, 0]
    return q.reshape(Z.shape)


def _centred(V: np.ndarray) -> np.ndarray:
    # the row means as V.mean(axis=1) computes them, without that call's overhead
    return V - np.add.reduce(V, axis=1, keepdims=True) / V.shape[1]


def _column_sums(V: np.ndarray) -> np.ndarray:
    """Each column's sum, its entries added in row order whatever the column count."""
    return np.add.accumulate(V, axis=0)[-1] if len(V) else np.zeros(V.shape[1])


def _residual(data: TaskData, W: np.ndarray) -> np.ndarray:
    """Each row's prediction at dense ``W`` minus its target."""
    # each row's own dot product with its task's column; the summation
    # order depends on the row alone, not on how many rows are stacked
    task_of_row = np.repeat(np.arange(data.n_tasks), data.sizes)
    predictions = np.einsum("nd,nd->n", data.x, W.T.take(task_of_row, axis=0))
    return predictions - data.y


def _exact_values(data: TaskData, reg: RegularizerSpec, laplacian: Optional[np.ndarray], W: np.ndarray):
    """The exact smooth part and full objective of each block at dense ``W``,
    from the residual (see :func:`_residual_values`)."""
    return _residual_values(data, reg, laplacian, W, _residual(data, W))


def _residual_values(data: TaskData, reg: RegularizerSpec, laplacian: Optional[np.ndarray], W: np.ndarray, r):
    """The smooth part and full objective of each block at dense ``W``, with
    the loss taken from the N-row residual ``r``: one per task's column for
    lasso, shape (P,), each task's loss summed over its own rows; one in all
    for the joint kinds, a Python float. ``laplacian`` is the task graph's,
    for the graph kind."""
    if reg.kind == "lasso":
        smooth_part = np.add.reduceat(r * r, data.starts)
        return smooth_part, smooth_part + reg.theta1 * _column_sums(np.abs(W[:-1]))
    smooth_part = float(r @ r)
    if reg.kind == "graph":
        smooth_part += reg.theta1 * _graph_quadratic(W[:-1], laplacian)
    return smooth_part, smooth_part + nonsmooth_penalty(W, reg)


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
    from 0; for the lasso and l2,1 kinds its entries off a task's support are
    set to 0. Each task's intercept is minimized out before the loop, which
    runs on the penalized weights alone (see :class:`_Smooth`), and is set to
    its least-squares value at the returned penalized weights after it; a
    task whose last design column is 0 keeps its start's intercept. Every
    step is 1/L, with L the Lipschitz constant of the profiled smooth part's
    gradient; there is no line search. On an objective increase the
    momentum is restarted and a plain descent step is taken, so the recorded
    trace is nonincreasing. Stops when the relative objective change drops
    below ``params.rel_tol`` and, where the kind has one, the duality gap
    certifies the point (see the module docstring), or when
    ``params.max_iters`` is reached. For the lasso kind every task's column
    does all of this on its own, with its own L_p.
    """
    graph = build_task_graph(data) if reg.kind == "graph" else None
    smooth = _Smooth(data, reg, graph)
    start = _starting_weights(data, init)
    # the loop's layout: slots, or dense for the graph kind; compact drops
    # the entries off the supports
    Z = start[:-1] if smooth.dense else smooth.compact(start[:-1])
    start = smooth.weights(Z, start[-1])
    r = _residual(data, start)
    first = _total(_residual_values(data, reg, smooth.laplacian, start, r)[1])
    # the loop starts from the same penalized weights with the intercepts
    # profiled out, whose objective can only be lower
    smooth_part, current = _residual_values(data, reg, smooth.laplacian, start, smooth.profile(r))
    if not _all_finite(current):
        # the first step would evaluate this point; inf - inf in its products would be NaN
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
    Z, h, trace, stopped_at, converged = _fista(
        smooth, Z, smooth.products(Z), smooth_part, current, step, params
    )
    W = smooth.weights(Z, smooth.intercepts(Z, start[-1]))
    smooth_part, final = _exact_values(data, reg, smooth.laplacian, W)
    _pin_ends(trace, first, _total(final))
    gap = None
    if _certified(reg):
        gap = float(np.max(_relative_gaps(smooth, Z, h, smooth_part, final)))
    return FitResult(
        weights=WeightMatrix(values=W, task_ids=data.task_ids, columns=data.columns),
        objective_trace=tuple(trace),
        iterations=len(trace) - 1,
        converged=converged,
        task_iterations=tuple(int(n) for n in np.broadcast_to(stopped_at, data.n_tasks)),
        gap=gap,
    )


def _pin_ends(trace: list, first: float, last: float) -> None:
    """Set the trace's ends to the exact objectives of the start as given
    (``first``) and of the returned weights (``last``), in place. The entries
    between are the loop's running values, from the profiled start on. Those
    that rounding left above the first are lowered to it, and those (the
    first too) that rounding left below the last are raised to it, so the
    trace stays nonincreasing."""
    trace[0], trace[-1] = first, last
    for i in range(1, len(trace) - 1):
        if trace[i] <= first:
            break
        trace[i] = first
    for i in range(len(trace) - 2, -1, -1):
        if trace[i] >= last:
            break
        trace[i] = last


def _certified(reg: RegularizerSpec) -> bool:
    """Whether a duality gap certifies the fit's stop: its l1 or l2,1 weight
    is positive (theta1 for lasso and l2,1, theta2 for the graph kind)."""
    return (reg.theta2 if reg.kind == "graph" else reg.theta1) > 0.0


def _total(values: Union[float, np.ndarray]) -> float:
    return values if isinstance(values, float) else float(values.sum())


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


def _relative_gaps(smooth: _Smooth, Z, h, smooth_part, values, cols=None):
    """Relative duality gap (P(W) - D(u)) / P(W) of each block at ``Z``, in the
    loop's layout.

    ``h`` holds Z's products, ``smooth_part`` and ``values`` its blocks' smooth
    part and objective, with the intercepts profiled out; ``cols`` holds Z's
    columns (None for all). The profiled problem is least squares on the rows
    P X and targets P y, P projecting each task's rows off its last column,
    plus the penalty. Its dual is D(u) = -<u, P y> - ||u||^2 / 4 over the u
    whose X^T P u has dual norm at most theta: the l-infinity norm of each
    task's column for lasso, the largest row l2 norm for the l2,1 term. With
    u = 2 s r, r = P (X w - y) the profiled residual and s the feasibility
    scale min(1, theta / ||X^T P u||), D = -2 s <r, P y> - s^2 ||r||^2 per
    task. Every term comes from Gram quantities, so no residual is formed:
    X^T P r = q - b, <r, P y> = w^T X^T P r - ||r||^2, and ||r||^2 is the loss.
    As r is orthogonal to each task's last column, u is the dual point of the
    problem with the intercepts free, so the gap is that problem's at the
    returned weights.

    For the graph kind the coupling theta1 Q(V) is ||A V||^2 for a linear map
    A, as the Laplacian is positive semidefinite: least squares on extra rows
    with target 0, and r holds their residual A V too. Those rows add
    A^T A V = 2 theta1 M (half the coupling's gradient; M = centred(V) Lap is
    in ``h``) to X^T P r, laid out dense, and theta1 Q to ||r||^2; they add
    nothing to <r, P y>, and the loss part of the smooth part alone is the
    loss rows' ||r||^2. The dual norm ball is theta2's.
    """
    reg = smooth.reg
    cols = cols or smooth.all
    n_slots = cols.moments.shape[0]
    half_dual = h[:n_slots] - cols.moments  # X^T P r = X^T u / 2 at s = 1
    slots = smooth.compact(Z) if smooth.dense else Z
    vy = _column_sums(slots * half_dual)  # <r, P y> + ||r||^2
    if reg.kind == "lasso":
        half_norm = np.maximum.reduce(np.abs(half_dual), axis=0, initial=0.0)
        # theta1 / (2 half_norm), the 2 exact: the bits of theta1 / ||X^T P u||
        ratio = np.divide(0.5 * reg.theta1, half_norm, out=np.full_like(half_norm, np.inf), where=half_norm > 0.0)
        scale = np.minimum(1.0, ratio)
        return (values + 2.0 * scale * (vy - smooth_part) + scale * scale * smooth_part) / np.maximum(
            np.abs(values), 1e-12
        )
    if smooth.dense:
        theta = reg.theta2
        M = h[n_slots:]
        coupling = reg.theta1 * 2.0 * float(np.einsum("dp,dp->", M, _centred(Z)))  # theta1 Q
        loss = smooth_part - coupling
        half_norm = float(np.max(_row_norms(smooth.expand(half_dual) + 2.0 * reg.theta1 * M), initial=0.0))
    else:
        theta, loss = reg.theta1, smooth_part
        half_norm = float(np.max(smooth.group_norms(half_dual)[:-1], initial=0.0))
    scale = min(1.0, 0.5 * theta / half_norm) if half_norm > 0.0 else 1.0
    vy = float(vy.sum()) - loss
    return (values + 2.0 * scale * vy + scale * scale * smooth_part) / max(abs(values), 1e-12)


def _fista(smooth, W, h, smooth_part, current, step, params):
    """FISTA over blocks of W's columns, all advanced in one sweep.

    A block is one task's column for the lasso kind and all columns for the
    joint kinds. Each block has its own step, momentum, restart and stop.
    ``smooth_part`` and ``current`` hold each block's smooth part and
    objective at the start; from there on both are running values, updated by
    each step's change (see :class:`_Smooth`). The trace holds the sum of the
    blocks' objectives.

    Block state has one entry per running block. A restart's plain step and
    a gap are computed only for the blocks that need them: ``which`` gives
    their positions among the running blocks, and :func:`_pick` and
    :func:`_put` read and write their entries of any state or of W's
    columns. A block that stops leaves the loop: its iterate is put into the
    returned weights, and the loop goes on with the blocks still running
    (``live`` holds their columns and ``cols`` their Gram form). The lasso
    kind's state is arrays with one entry per column, which broadcast over
    W's columns. The one joint block keeps its state in Python scalars,
    which spares every sweep numpy's per-call overhead on 0-d arrays; its
    ``which`` gives None, all of it, so its stop ends the loop. The helpers
    that test and combine block state are chosen once per fit to match; the
    floating-point operations are the same either way.
    """
    certified = _certified(smooth.reg)
    if isinstance(current, float):  # one block
        momentum = _momentum(params.max_iters).tolist()
        since, stopped_at = 0, params.max_iters
        live = out = out_h = all_values = None  # the block is all columns, and the trace its value
        which, where, any_, all_, maximum = _none, _choose, bool, bool, max
    else:
        momentum = _momentum(params.max_iters)
        since = np.zeros(current.shape, dtype=np.intp)  # steps since the block's last (re)start
        stopped_at = np.full(current.shape, params.max_iters)
        live = np.arange(current.size)
        out, out_h = np.empty_like(W), np.empty_like(h)  # the returned weights and their products
        all_values = current.copy()  # every block's objective, a stopped one's last
        which, where, any_, all_, maximum = _positions, np.where, np.ndarray.any, np.ndarray.all, np.maximum
    W_prev, h_prev = W, h
    cols = smooth.all
    converged = False
    trace = [_total(current)]

    for iteration in range(1, params.max_iters + 1):
        alpha = momentum[since]
        search = W + alpha * (W - W_prev)
        h_search = h + alpha * (h - h_prev)  # the products are linear in W
        candidate, h_candidate, smooth_candidate, values = _prox_step(
            smooth, W, h, smooth_part, search, h_search, step, cols, iteration
        )
        restart = values > current
        if any_(restart):
            # momentum overshot: restart and take a plain descent step, or keep
            # the previous iterate if that rises too (numerically stationary)
            R = which(restart)
            since = _put(since, R, 0)
            kept = _pick(W, R), _pick(h, R), _pick(smooth_part, R), _pick(current, R)
            plain = _prox_step(smooth, *kept[:3], *kept[:2], _pick(step, R), cols.take(R), iteration)
            stuck = plain[3] > kept[3]
            candidate, h_candidate, smooth_candidate, values = (
                _put(v, R, where(stuck, a, b))
                for v, a, b in zip((candidate, h_candidate, smooth_candidate, values), kept, plain)
            )

        W_prev, W = W, candidate
        h_prev, h = h, h_candidate
        smooth_part = smooth_candidate
        since += 1
        stopped = abs(current - values) <= params.rel_tol * maximum(abs(current), 1e-12)
        current = values
        all_values = _put(all_values, live, values)
        trace.append(_total(all_values))
        if not any_(stopped):
            continue
        if certified:
            F = which(stopped)
            gaps = _relative_gaps(
                smooth, _pick(W, F), _pick(h, F), _pick(smooth_part, F), _pick(values, F), cols.take(F, grams=False)
            )
            stopped = _put(stopped, F, gaps <= GAP_TOL)
            if not any_(stopped):
                continue
        S = which(stopped)
        done = _pick(live, S)  # the stopped blocks' columns
        stopped_at = _put(stopped_at, done, iteration)
        out, out_h = _put(out, done, _pick(W, S)), _put(out_h, done, _pick(h, S))
        if all_(stopped):
            converged = True
            break
        K = which(~stopped)  # several blocks only: the one joint block has stopped
        live, cols = live[K], cols.take(K)
        W, W_prev, h, h_prev = W[:, K], W_prev[:, K], h[:, K], h_prev[:, K]
        smooth_part, current, since, step = smooth_part[K], current[K], since[K], step[K]

    if not converged:
        out, out_h = _put(out, live, W), _put(out_h, live, h)
    return out, out_h, trace, stopped_at, converged


def _none(mask) -> None:
    return None


def _positions(mask: np.ndarray) -> np.ndarray:
    # np.flatnonzero without its ravel, for a 1-d mask
    return mask.nonzero()[0]


def _choose(condition: bool, a, b):
    return a if condition else b


def _pick(v, positions):
    """The entries of block state ``v`` (or W's columns) at ``positions``; all
    of ``v`` if None."""
    if positions is None:
        return v
    return v[positions] if v.ndim == 1 else v[:, positions]


def _put(v, positions, x):
    """``v`` with its entries at ``positions`` set to ``x``, in place; ``x`` if
    None (all of ``v``)."""
    if positions is None:
        return x
    if v.ndim == 1:
        v[positions] = x
    else:
        v[:, positions] = x
    return v


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


def _prox_step(smooth, W, h, smooth_part, point, h_point, step, cols, iteration):
    """One proximal gradient step from ``point``, whose products are ``h_point``,
    for the columns ``cols`` (None for all).

    The candidate's products are computed directly, so the cached products
    never drift from the iterates; its smooth part is W's (``smooth_part``)
    plus the change from W to it. Returns the candidate, its products, its
    smooth part and its full objective value (one per column for lasso).
    """
    candidate, penalty = smooth.prox(point - step * smooth.gradient_from_products(h_point, cols), step)
    h_candidate = smooth.products(candidate, cols)
    smooth_candidate = smooth_part + smooth.change(candidate - W, h_candidate, h, cols)
    value = smooth_candidate + penalty
    # a non-finite gradient entry makes its block's candidate, products and so
    # objective non-finite, so this test also stands for a test of the gradient
    if not _all_finite(value):
        raise DivergenceError(f"objective became non-finite at iteration {iteration}")
    return candidate, h_candidate, smooth_candidate, value
