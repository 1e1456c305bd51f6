"""Prediction metrics and statistical comparison utilities.

RMSE/MAE per task, two-level mean aggregation (tasks within a round, then
rounds), Wilcoxon's rank-sum test (exact by enumeration for small tie-free
samples, mid-rank normal approximation with tie correction otherwise), and
Win-Loss-Draw records at table precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Sample-size limit for the exact rank-sum null distribution.
EXACT_RANKSUM_LIMIT = 20

# Scores are compared at table precision: draws are ties after rounding.
WLD_DECIMALS = 3

# Two-sided rank-sum p-values at or below this level are marked significant.
SIGNIFICANCE_LEVEL = 0.05


@dataclass(frozen=True)
class MetricRecord:
    """Per-task, per-round prediction quality for one method."""

    round_index: int
    task_id: str
    n: int
    rmse: float
    mae: float
    method: str

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a metric record needs at least one test sample")
        if self.mae < 0 or self.rmse < self.mae - 1e-12 * max(1.0, self.mae):
            raise ValueError(f"need rmse >= mae >= 0, got {self.rmse}, {self.mae}")


@dataclass(frozen=True)
class MethodSummary:
    """Two-level means: per-round task means plus their overall mean."""

    method: str
    rounds: tuple[int, ...]
    round_rmse: tuple[float, ...]
    round_mae: tuple[float, ...]
    overall_rmse: float
    overall_mae: float


@dataclass(frozen=True)
class RankSumOutcome:
    statistic: float
    p_value: float
    significant: bool


def rmse(actual: Sequence[float], predicted: Sequence[float]) -> float:
    diff = _differences(actual, predicted)
    return math.sqrt(mean_left_to_right(diff * diff))


def mae(actual: Sequence[float], predicted: Sequence[float]) -> float:
    diff = _differences(actual, predicted)
    return mean_left_to_right(np.abs(diff))


def _differences(actual: Sequence[float], predicted: Sequence[float]) -> np.ndarray:
    _check_pairs(actual, predicted)
    return np.asarray(actual, dtype=float) - np.asarray(predicted, dtype=float)


def mean_left_to_right(values: Sequence[float]) -> float:
    """Mean with the sum taken in index order, as Python 3.11's ``sum`` adds floats;
    ``np.sum`` adds pairwise, and Python 3.12's ``sum`` compensates."""
    return float(np.add.accumulate(values)[-1]) / len(values)


def _check_pairs(actual, predicted) -> None:
    if len(actual) == 0:
        raise ValueError("need at least one prediction")
    if len(actual) != len(predicted):
        raise ValueError(f"length mismatch: {len(actual)} vs {len(predicted)}")


def aggregate(records: Sequence[MetricRecord]) -> dict[str, MethodSummary]:
    """Mean over tasks within each round, then mean over rounds, per method."""
    if not records:
        raise ValueError("no records to aggregate")
    by_method: dict[str, dict[int, list[MetricRecord]]] = {}
    for record in records:
        by_method.setdefault(record.method, {}).setdefault(record.round_index, []).append(record)
    summaries = {}
    for method in sorted(by_method):
        rounds = sorted(by_method[method])
        round_rmse = []
        round_mae = []
        for r in rounds:
            bucket = by_method[method][r]
            round_rmse.append(mean_left_to_right([rec.rmse for rec in bucket]))
            round_mae.append(mean_left_to_right([rec.mae for rec in bucket]))
        summaries[method] = MethodSummary(
            method=method,
            rounds=tuple(rounds),
            round_rmse=tuple(round_rmse),
            round_mae=tuple(round_mae),
            overall_rmse=mean_left_to_right(round_rmse),
            overall_mae=mean_left_to_right(round_mae),
        )
    return summaries


def _midranks(values: Sequence[float]) -> tuple[list[float], list[int]]:
    """Each value's mid-rank, and the size of each group of two or more equal
    values in ascending order of value, from one sort."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    tie_sizes = []
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        if j > i:
            tie_sizes.append(j - i + 1)
        i = j + 1
    return ranks, tie_sizes


def _exact_ranksum_tail(n: int, m: int, w: int) -> tuple[float, float]:
    """P(W <= w) and P(W >= w) for the sum of n ranks drawn from {1..n+m}."""
    total = n + m
    max_sum = total * (total + 1) // 2
    # ways[k][s]: number of k-subsets of {1..total} with rank sum s
    ways = [[0] * (max_sum + 1) for _ in range(n + 1)]
    ways[0][0] = 1
    for value in range(1, total + 1):
        for k in range(min(n, value), 0, -1):
            row, prev = ways[k], ways[k - 1]
            for s in range(max_sum, value - 1, -1):
                if prev[s - value]:
                    row[s] += prev[s - value]
    distribution = ways[n]
    count = sum(distribution)
    le = sum(distribution[: w + 1])
    ge = sum(distribution[w:])
    return le / count, ge / count


def wilcoxon_rank_sum(a: Sequence[float], b: Sequence[float]) -> RankSumOutcome:
    """Two-sided rank-sum test of ``a`` vs ``b`` at ``SIGNIFICANCE_LEVEL``.

    Exact enumeration of the null distribution when the pooled sample is
    tie-free and no larger than ``EXACT_RANKSUM_LIMIT``; otherwise mid-ranks
    with the tie-corrected normal approximation.
    """
    a, b = list(a), list(b)
    if not a or not b:
        raise ValueError("both samples must be nonempty")
    n, m = len(a), len(b)
    ranks, tie_sizes = _midranks(a + b)
    statistic = sum(ranks[:n])

    if not tie_sizes and n + m <= EXACT_RANKSUM_LIMIT:
        le, ge = _exact_ranksum_tail(n, m, round(statistic))
        p_value = min(1.0, 2.0 * min(le, ge))
    else:
        total = n + m
        mean = n * (total + 1) / 2.0
        tie_term = sum(t**3 - t for t in tie_sizes)
        variance = n * m / 12.0 * ((total + 1) - tie_term / (total * (total - 1)))
        if variance <= 0:
            p_value = 1.0
        else:
            z = statistic - mean
            z -= 0.5 * (1 if z > 0 else -1 if z < 0 else 0)  # continuity correction
            p_value = math.erfc(abs(z) / math.sqrt(2.0 * variance))
        p_value = min(1.0, max(p_value, 0.0))
    return RankSumOutcome(
        statistic=statistic, p_value=p_value, significant=p_value <= SIGNIFICANCE_LEVEL
    )


def win_loss_draw(
    scores_m1: Sequence[float], scores_m2: Sequence[float]
) -> tuple[int, int, int]:
    """Per-unit error comparison at ``WLD_DECIMALS`` precision, lower wins; returns m1's record."""
    if len(scores_m1) != len(scores_m2):
        raise ValueError(f"length mismatch: {len(scores_m1)} vs {len(scores_m2)}")
    win = loss = draw = 0
    for s1, s2 in zip(scores_m1, scores_m2):
        r1, r2 = round(s1, WLD_DECIMALS), round(s2, WLD_DECIMALS)
        if r1 == r2:
            draw += 1
        elif r1 < r2:
            win += 1
        else:
            loss += 1
    return win, loss, draw
