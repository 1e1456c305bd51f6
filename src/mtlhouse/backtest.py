"""Rolling monthly prediction protocol and method comparison.

Each round trains every method on the k months preceding one test month and
scores per-task predictions for that month. A round's training data, and the
held-out data that multi-point grids are resolved on, are built once and
shared by every method; a grid point's held-out score is ``rmse`` over the
pooled validation rows. Reports aggregate the per-round task means, run
rank-sum significance tests against a benchmark method, and tabulate
Win-Loss-Draw records inside quartile groups of task sample counts.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .baselines import fit_stl
from .data import Dataset, month_text
from .design import DesignLayout, TaskData, WeightMatrix, build_task_data, design_rows, month_span
from .metrics import (
    MethodSummary,
    MetricRecord,
    RankSumOutcome,
    aggregate,
    mae,
    mean_left_to_right,
    rmse,
    wilcoxon_rank_sum,
    win_loss_draw,
)
from .solver import RegularizerSpec, SolverParams, _certified, fit
from .tasks import (
    GROUP_LABELS,
    TaskDefinition,
    TaskSet,
    define_tasks,
    format_definition,
    quartile_groups,
)

logger = logging.getLogger(__name__)

# Each method kind: the solver regularizer kind it fits with (None for the
# ols and ridge baselines, fitted by fit_stl), the grids it takes, in
# grid-point order, and the grids it needs. A grid it takes but does not need
# may be left empty; the fit then picks that value itself (ridge: per-task
# CV). The per-task lasso at penalty λ is the solver's lasso at theta1 = λ:
# the loss and the l1 penalty separate by task.
METHODS: dict[str, tuple[Optional[str], tuple[str, ...], tuple[str, ...]]] = {
    "mtl_lasso": ("lasso", ("theta1",), ("theta1",)),
    "mtl_l21": ("group_l21", ("theta1",), ("theta1",)),
    "mtl_graph": ("graph", ("theta1", "theta2"), ("theta1", "theta2")),
    "ols": (None, (), ()),
    "ridge": (None, ("penalty",), ()),
    "lasso": ("lasso", ("penalty",), ("penalty",)),
}
GRIDS = ("theta1", "theta2", "penalty")

# The protocol predicts the month right after each training window.
HORIZON = 1


@dataclass(frozen=True)
class Round:
    train_window: tuple[int, int]
    test_month: int


@dataclass(frozen=True)
class RollingPlan:
    rounds: tuple[Round, ...]
    k: int

    def __post_init__(self):
        previous_test = None
        for r in self.rounds:
            lo, hi = r.train_window
            if hi - lo + 1 != self.k or hi + HORIZON != r.test_month:
                raise ValueError(f"malformed round {r}")
            if previous_test is not None and r.test_month <= previous_test:
                raise ValueError("test months must be strictly increasing")
            previous_test = r.test_month

    def __len__(self) -> int:
        return len(self.rounds)

    @property
    def train_span(self) -> tuple[int, int]:
        return self.rounds[0].train_window[0], self.rounds[-1].train_window[1]


def make_rolling_plan(dataset: Dataset, k: int) -> RollingPlan:
    """One round per month whose k preceding months lie inside the dataset."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not len(dataset):
        raise ValueError("dataset has no rows")
    first, last = dataset.month_range
    if last - first + 1 < k + HORIZON:
        raise ValueError(
            f"dataset spans {last - first + 1} months; need at least {k + HORIZON}"
        )
    rounds = tuple(
        Round(train_window=(m - k, m - 1), test_month=m)
        for m in range(first + k, last + 1)
    )
    return RollingPlan(rounds=rounds, k=k)


@dataclass(frozen=True)
class MethodSpec:
    """A method of one of the METHODS kinds plus its hyperparameter grids.

    Multi-point grids are resolved per round by refitting on the window minus
    its last month and scoring that month; the best point is then refitted on
    the full window. A ridge spec with an empty grid delegates to per-task
    cross-validation.
    """

    label: str
    kind: str
    theta1: tuple[float, ...] = ()
    theta2: tuple[float, ...] = ()
    penalty: tuple[float, ...] = ()
    solver: SolverParams = field(default_factory=SolverParams)

    def __post_init__(self):
        if self.kind not in METHODS:
            raise ValueError(f"unknown method kind {self.kind!r}")
        _, takes, needs = METHODS[self.kind]
        for name in needs:
            if not getattr(self, name):
                raise ValueError(f"{self.kind} needs a {name} grid")
        for name in GRIDS:
            values = getattr(self, name)
            if values and name not in takes:
                takers = [kind for kind, (_, grids, _) in METHODS.items() if name in grids]
                raise ValueError(
                    f"{self.kind} takes no {name} grid; only {', '.join(takers)} take one"
                )
            for value in values:
                if not (math.isfinite(value) and value >= 0):
                    raise ValueError(f"{name} values must be finite and >= 0, got {value!r}")
        if self.kind == "ridge" and not all(p > 0 for p in self.penalty):
            raise ValueError("ridge penalties must be > 0; a ridge penalty of 0 is the ols method")

    def grid_points(self) -> tuple[tuple[Optional[float], ...], ...]:
        """The product of the kind's grids in table order; an empty grid gives None."""
        _, takes, _ = METHODS[self.kind]
        return tuple(itertools.product(*(getattr(self, name) or (None,) for name in takes)))


def _fit_point(
    data: TaskData,
    spec: MethodSpec,
    point: tuple,
    fits: dict,
    where: str,
    init: Optional[WeightMatrix] = None,
    starts: Optional[dict] = None,
) -> WeightMatrix:
    """The weights of ``spec`` at grid point ``point`` on ``data``.

    ``fits`` holds the weights already fitted on ``data``, keyed by the
    problem they solve: its kind, the point's values bit for bit, and the
    solver parameters; a problem already in it is not solved again, whatever
    start it was solved from. An ``mtl_lasso`` and a ``lasso`` method that
    agree on the point solve one problem and share one fit. A solver fit
    starts from ``init`` (see :func:`fit`); a certified one without it starts
    from the fit of the same problem in ``starts``, the previous round's fits,
    if there is one. Its duality gap stops it at the same accuracy wherever it
    starts. The closed-form ols and ridge fits ignore any start. A fit that
    does not converge is logged as a warning that begins with ``where``.
    """
    reg_kind = METHODS[spec.kind][0]
    values = tuple(v if v is None else float(v).hex() for v in point)  # 0.0 is not -0.0
    key = (reg_kind or spec.kind, values, spec.solver)
    if key not in fits:
        if reg_kind is None:
            fits[key] = fit_stl(data, spec, *point)
        else:
            reg = RegularizerSpec(reg_kind, *point)
            if init is None and starts and _certified(reg):
                init = starts.get(key)
            result = fit(data, reg, spec.solver, init=init)
            if not result.converged:
                _, takes, _ = METHODS[spec.kind]
                logger.warning(
                    "%s: %s fit at %s on months %s..%s did not converge in %d iterations "
                    "(relative duality gap %s)",
                    where,
                    spec.label,
                    ", ".join(f"{name}={value!r}" for name, value in zip(takes, point)),
                    month_text(data.window[0]),
                    month_text(data.window[1]),
                    result.iterations,
                    "not certified" if result.gap is None else f"{result.gap:.2e}",
                )
            fits[key] = result.weights
    return fits[key]


@dataclass(frozen=True)
class ComparisonReport:
    benchmark: str
    summaries: dict[str, MethodSummary]
    rank_sum: dict[str, RankSumOutcome]
    quartile_boundaries: Optional[tuple[int, int, int]]
    quartile_tasks: dict[str, tuple[str, ...]]
    quartile_wld: dict[str, dict[str, tuple[int, int, int]]]
    skipped_rounds: tuple[int, ...]


def run_backtest(
    dataset: Dataset,
    taskdef: TaskDefinition,
    methods: Sequence[MethodSpec],
    plan: RollingPlan,
    benchmark: Optional[str] = None,
) -> tuple[list[MetricRecord], ComparisonReport]:
    """Run the full rolling protocol for one task definition.

    Per round: build training data on the window, fit every method, predict
    the test month, and record per-task RMSE/MAE for tasks that have both
    training and test samples. Each distinct problem is fitted once per
    round and on each of its data sets (see :func:`_fit_point`); every
    multi-point grid is solved as one warm-started path (see
    :func:`_select_grid_point`). A certified solver fit without a start of
    its own, a path's first or a single-point method's, starts from the
    previous fitted round's fit of the same problem, on its window if it had
    one there and else on its inner window. Those windows end before this
    round's validation month, so no fit starts from weights that saw the
    month it is scored on. A solver fit that does not converge is logged as a
    warning.
    Rounds with no usable training data are skipped, and logged as one
    warning after the last round.
    """
    labels = [m.label for m in methods]
    if len(set(labels)) != len(labels):
        raise ValueError("method labels must be unique")
    if benchmark is None:
        benchmark = labels[0]
    if benchmark not in labels:
        raise ValueError(f"benchmark {benchmark!r} not among methods {labels}")

    definition = format_definition(taskdef)
    taskset = define_tasks(dataset, taskdef)
    layout = DesignLayout.from_dataset(dataset, taskdef)
    needs_held_out = any(len(spec.grid_points()) > 1 for spec in methods)
    records: list[MetricRecord] = []
    skipped: list[int] = []
    starts: dict = {}  # the previous fitted round's fits, by problem

    for round_index, round_ in enumerate(plan.rounds):
        try:
            data, test = _round_data(
                dataset, taskset, layout, round_.train_window, round_.test_month
            )
        except ValueError:
            skipped.append(round_index)
            continue
        if test is None:
            logger.info("round %d: no test samples for any trained task", round_index)
            continue

        held_out = _held_out(dataset, taskset, layout, round_) if needs_held_out else None
        fits, inner_fits = {}, {}  # this round's fits on its window and on its inner window
        where = f"{definition} round {round_index}"
        for spec in methods:
            point, start = _select_grid_point(spec, held_out, inner_fits, where, starts)
            weights = _fit_point(data, spec, point, fits, where, start, starts)
            for task_id, x, actual in zip(test.task_ids, test.xs, test.ys):
                predicted = x @ weights.column(task_id)
                records.append(
                    MetricRecord(
                        round_index=round_index,
                        task_id=task_id,
                        n=len(actual),
                        rmse=rmse(actual, predicted),
                        mae=mae(actual, predicted),
                        method=spec.label,
                    )
                )
        starts = {**inner_fits, **fits}  # a problem's full-window fit over its inner one

    if skipped:
        logger.warning(
            "%s: no task has training data in %d of %d rounds (first %d, last %d); skipped",
            definition,
            len(skipped),
            len(plan.rounds),
            skipped[0],
            skipped[-1],
        )
    if not records:
        raise ValueError("backtest produced no metric records")
    return records, _build_report(records, taskset, plan, labels, benchmark, skipped)


def _assert_no_leakage(
    train: TaskData, scored_month: int, scored: Optional[TaskData] = None
) -> None:
    """Fail unless the training rows, and the window they were asked for, end
    before ``scored_month`` and every ``scored`` row lies in that month."""
    if train.window[1] >= scored_month or train.row_months[1] >= scored_month:
        raise AssertionError(
            f"leakage: training rows span months {train.row_months} (window "
            f"{train.window}), reaching scored month {scored_month}"
        )
    if scored is not None and scored.row_months != (scored_month, scored_month):
        raise AssertionError(
            f"leakage: scored rows span months {scored.row_months}, "
            f"not only scored month {scored_month}"
        )


def _test_rows_by_task(
    dataset, taskset: TaskSet, data: TaskData, test_month: int
) -> Optional[TaskData]:
    """Standardized test rows and log targets of the tasks trained this round,
    encoded in one call; None if no trained task has test rows."""
    rows, counts = taskset.rows_in((test_month, test_month))
    trained = np.isin(taskset.tasks, data.task_ids)
    for p in np.flatnonzero((counts > 0) & ~trained):
        task_id = taskset.tasks[p]
        logger.info("task %s has test samples but no training window data; excluded", task_id)
    kept = (counts > 0) & trained
    if not kept.any():
        return None
    rows = rows[np.repeat(kept, counts)]
    return TaskData(
        task_ids=tuple(taskset.tasks[p] for p in np.flatnonzero(kept)),
        x=design_rows(dataset, rows, data.layout, data.standardizer),
        y=dataset.log_prices[rows],
        sizes=counts[kept],
        layout=data.layout,
        standardizer=data.standardizer,
        window=(test_month, test_month),
        row_months=month_span(dataset, rows),
    )


def _round_data(dataset, taskset, layout, window, scored_month):
    """Training data on ``window`` and the scored month's rows of its tasks (None if
    there are none). Raises ValueError when no task has training rows."""
    train = build_task_data(dataset, taskset, window, layout)
    test = _test_rows_by_task(dataset, taskset, train, scored_month)
    _assert_no_leakage(train, scored_month, test)
    return train, test


def _held_out(dataset, taskset, layout, round_: Round):
    """Inner-window data and last-training-month validation rows, or None if either is empty."""
    lo, hi = round_.train_window
    if lo == hi:
        return None
    try:
        inner, validation = _round_data(dataset, taskset, layout, (lo, hi - 1), hi)
    except ValueError:
        return None
    return (inner, validation) if validation is not None else None


def _select_grid_point(
    spec: MethodSpec, held_out, inner_fits: dict, where: str, starts: Optional[dict] = None
):
    """The grid point with the least held-out RMSE, the first in table order on
    a tie, and the start of its full-window fit.

    Without held-out data, or with one point, that is the first point and no
    start. Otherwise the grid is solved as a path on the inner window
    (``inner_fits`` holds the round's fits there): from the largest first
    grid value down, equal values in table order, each fit started from the
    one before it. The first takes its start from ``starts``, the previous
    round's fits (see :func:`_fit_point`). The full-window fit starts from the
    chosen point's inner fit.
    """
    points = spec.grid_points()
    if len(points) == 1 or held_out is None:
        return points[0], None
    inner, validation = held_out
    weights, start = [None] * len(points), None
    path = sorted(range(len(points)), key=lambda i: -points[i][0])  # stable: ties keep table order
    for i in path:
        weights[i] = start = _fit_point(inner, spec, points[i], inner_fits, where, start, starts)
    best, best_score = 0, np.inf
    for i, w in enumerate(weights):
        predictions = [
            x @ w.column(task_id) for task_id, x in zip(validation.task_ids, validation.xs)
        ]
        score = rmse(validation.y, np.concatenate(predictions))
        if score < best_score:
            best, best_score = i, score
    return points[best], weights[best]


def _build_report(records, taskset, plan, labels, benchmark, skipped) -> ComparisonReport:
    summaries = aggregate(records)
    for label in labels:
        if label not in summaries:
            raise ValueError(f"method {label!r} produced no records")

    rank_sum = {}
    bench_rounds = dict(zip(summaries[benchmark].rounds, summaries[benchmark].round_rmse))
    for label in labels:
        summary = summaries[label]
        common = [r for r in summary.rounds if r in bench_rounds]
        a = [summary.round_rmse[summary.rounds.index(r)] for r in common]
        b = [bench_rounds[r] for r in common]
        rank_sum[label] = wilcoxon_rank_sum(a, b)

    boundaries = None
    group_tasks: dict[str, tuple[str, ...]] = {}
    group_wld: dict[str, dict[str, tuple[int, int, int]]] = {}
    if len(taskset.tasks) >= 4:
        grouping = quartile_groups(taskset, plan.train_span)
        boundaries = grouping.boundaries
        by_task: dict[str, dict[str, list[float]]] = {}
        for record in records:
            by_task.setdefault(record.method, {}).setdefault(record.task_id, []).append(
                record.rmse
            )
        task_score = {
            method: {t: mean_left_to_right(v) for t, v in tasks.items()}
            for method, tasks in by_task.items()
        }
        for label_text, ids in zip(GROUP_LABELS, grouping.groups):
            group_tasks[label_text] = ids
            scored = [
                t
                for t in ids
                if all(t in task_score[m] for m in labels)
            ]
            group_wld[label_text] = {
                m: win_loss_draw(
                    [task_score[m][t] for t in scored],
                    [task_score[benchmark][t] for t in scored],
                )
                for m in labels
            }
    return ComparisonReport(
        benchmark=benchmark,
        summaries=summaries,
        rank_sum=rank_sum,
        quartile_boundaries=boundaries,
        quartile_tasks=group_tasks,
        quartile_wld=group_wld,
        skipped_rounds=tuple(skipped),
    )
