import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from mtlhouse.metrics import (
    MetricRecord,
    _midranks,
    aggregate,
    mae,
    mean_left_to_right,
    rmse,
    wilcoxon_rank_sum,
    win_loss_draw,
)


class TestRmseMae:
    def test_perfect_prediction(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_errors(self):
        assert rmse([0.0, 0.0], [1.0, 1.0]) == 1.0
        assert mae([0.0, 0.0], [1.0, -1.0]) == 1.0

    def test_empty_and_mismatched_rejected(self):
        with pytest.raises(ValueError):
            rmse([], [])
        with pytest.raises(ValueError):
            mae([1.0], [1.0, 2.0])

    def test_matches_high_precision_oracle(self):
        import numpy as np

        rng = np.random.default_rng(3)
        actual = [float(v) for v in rng.normal(13, 1, 100)]
        predicted = [float(v) for v in rng.normal(13, 1, 100)]
        # exact rational accumulation, then a 50-digit square root
        squares = sum(
            (Fraction(a) - Fraction(p)) ** 2 for a, p in zip(actual, predicted)
        ) / len(actual)
        absolutes = sum(
            abs(Fraction(a) - Fraction(p)) for a, p in zip(actual, predicted)
        ) / len(actual)
        with mpmath.workdps(50):
            expected_rmse = float(mpmath.sqrt(mpmath.mpf(squares.numerator) / squares.denominator))
        assert rmse(actual, predicted) == pytest.approx(expected_rmse, abs=1e-12)
        assert mae(actual, predicted) == pytest.approx(float(absolutes), abs=1e-12)

    def test_arrays_give_the_python_float_sums_bit_for_bit(self):
        # Reports are compared byte for byte, so numpy inputs must give what
        # sums of Python floats give: each square exactly rounded, as d * d
        # is, and the terms added left to right.
        import numpy as np

        def python_sums(actual, predicted):
            pairs = list(zip(actual.tolist(), predicted.tolist()))
            squares = sum((y - z) * (y - z) for y, z in pairs)
            return math.sqrt(squares / len(pairs)), sum(abs(y - z) for y, z in pairs) / len(pairs)

        rng = np.random.default_rng(12)
        for n in (1, 2, 9, 45, 300, 2000):
            actual = rng.normal(13, 1, n)
            predicted = actual + rng.normal(0, 0.3, n)
            expected = python_sums(actual, predicted)
            assert (rmse(actual, predicted), mae(actual, predicted)) == expected
        # every square is the exactly rounded one, also where the C library's
        # pow(d, 2) is not (glibc's misses about one d in a thousand)
        odd = [v for v in rng.normal(0, 1, 400_000).tolist() if v ** 2 != v * v][:40]
        for a, b in zip(odd[::2], odd[1::2]):
            squares = float(Fraction(a) ** 2) + float(Fraction(b) ** 2)
            assert rmse([a, b], [0.0, 0.0]) == math.sqrt(squares / 2)

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
            min_size=1,
            max_size=30,
        )
    )
    def test_rmse_dominates_mae(self, pairs):
        actual = [a for a, _ in pairs]
        predicted = [p for _, p in pairs]
        assert rmse(actual, predicted) >= mae(actual, predicted) - 1e-12


def record(round_index, task, value, method="m", n=1):
    return MetricRecord(
        round_index=round_index,
        task_id=task,
        n=n,
        rmse=value,
        mae=value * 0.8,
        method=method,
    )


class TestMetricRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            MetricRecord(0, "t", 0, 1.0, 0.5, "m")  # n < 1
        with pytest.raises(ValueError):
            MetricRecord(0, "t", 1, 0.5, 1.0, "m")  # rmse < mae
        with pytest.raises(ValueError):
            MetricRecord(0, "t", 1, 0.5, -0.1, "m")


class TestAggregate:
    def test_single_record(self):
        summary = aggregate([record(0, "a", 0.4)])["m"]
        assert summary.round_rmse == (0.4,)
        assert summary.overall_rmse == 0.4

    def test_mean_over_rounds(self):
        records = [record(0, "a", 0.1), record(1, "a", 0.3)]
        summary = aggregate(records)["m"]
        assert summary.overall_rmse == pytest.approx(0.2)

    def test_two_level_mean_on_unbalanced_fixture(self):
        # round 0 has three tasks, round 1 has one: the two-level mean weights
        # rounds equally and must differ from the flat mean over records
        records = [
            record(0, "a", 0.1),
            record(0, "b", 0.2),
            record(0, "c", 0.3),
            record(1, "a", 0.8),
        ]
        summary = aggregate(records)["m"]
        round_means = [(0.1 + 0.2 + 0.3) / 3, 0.8]
        expected = sum(round_means) / 2
        flat = (0.1 + 0.2 + 0.3 + 0.8) / 4
        assert summary.overall_rmse == pytest.approx(expected, rel=1e-12)
        assert abs(expected - flat) > 1e-3  # the fixture actually distinguishes them
        assert summary.round_rmse == tuple(pytest.approx(v) for v in round_means)

    def test_multiple_methods_grouped(self):
        records = [record(0, "a", 0.1, "m1"), record(0, "a", 0.4, "m2")]
        summaries = aggregate(records)
        assert set(summaries) == {"m1", "m2"}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_means_add_left_to_right(self):
        # ten 0.1s add to 0.9999999999999999 left to right, and to 1.0 in the
        # compensated float sum() of Python >= 3.12
        left_to_right = 0.9999999999999999 / 10
        in_one_round = aggregate([record(0, f"t{i}", 0.1) for i in range(10)])["m"]
        assert in_one_round.round_rmse == (left_to_right,)
        over_rounds = aggregate([record(r, "a", 0.1) for r in range(10)])["m"]
        assert over_rounds.overall_rmse == left_to_right
        assert mean_left_to_right([0.1] * 10) == left_to_right


def enumeration_p_value(a, b):
    """Exhaustive two-sided rank-sum oracle over all rank assignments."""
    n, total = len(a), len(a) + len(b)
    pooled = sorted(a + b)
    ranks_of_a = sum(pooled.index(v) + 1 for v in a)
    sums = [sum(c) for c in combinations(range(1, total + 1), n)]
    le = sum(1 for s in sums if s <= ranks_of_a) / len(sums)
    ge = sum(1 for s in sums if s >= ranks_of_a) / len(sums)
    return min(1.0, 2.0 * min(le, ge))


class TestWilcoxon:
    def test_extreme_separation_small_samples(self):
        outcome = wilcoxon_rank_sum([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert outcome.statistic == 6.0
        assert outcome.p_value == pytest.approx(0.1, abs=1e-12)
        assert not outcome.significant

    def test_identical_samples_not_significant(self):
        outcome = wilcoxon_rank_sum([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert outcome.p_value == 1.0
        assert not outcome.significant

    def test_six_by_six_matches_full_enumeration(self):
        import numpy as np

        rng = np.random.default_rng(8)
        for _ in range(10):
            a = [float(v) for v in rng.normal(0, 1, 6)]
            b = [float(v) for v in rng.normal(0.5, 1, 6)]
            expected = enumeration_p_value(a, b)
            assert wilcoxon_rank_sum(a, b).p_value == pytest.approx(expected, abs=1e-12)

    def test_exact_and_normal_branches_agree(self):
        import numpy as np

        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(50):
            a = [float(v) for v in rng.normal(0, 1, 10)]
            b = [float(v) for v in rng.normal(rng.uniform(-1, 1), 1, 10)]
            exact = wilcoxon_rank_sum(a, b).p_value  # 20 values: exact branch
            # push the same data through the approximate branch by inflating
            # the sample with a far-away tie pair that cannot change ranksums
            # of the original values relative to each other; instead compare
            # against the internal normal approximation directly
            from mtlhouse import metrics as m

            ranks = m._midranks(a + b)[0]
            w = sum(ranks[:10])
            mean = 10 * 21 / 2.0
            variance = 10 * 10 / 12.0 * 21
            z = w - mean
            z -= 0.5 * (1 if z > 0 else -1 if z < 0 else 0)
            approx = min(1.0, math.erfc(abs(z) / math.sqrt(2.0 * variance)))
            worst = max(worst, abs(exact - approx))
        assert worst <= 0.01

    def test_ties_route_to_normal_branch(self):
        outcome = wilcoxon_rank_sum([1.0, 1.0, 2.0], [1.0, 3.0, 4.0])
        assert 0.0 < outcome.p_value <= 1.0

    def test_large_samples_use_normal_branch(self):
        a = [float(i) for i in range(15)]
        b = [float(i) + 0.5 for i in range(15)]
        outcome = wilcoxon_rank_sum(a, b)
        assert 0.0 < outcome.p_value <= 1.0

    def test_strong_separation_significant(self):
        a = [float(i) for i in range(8)]
        b = [float(i) + 100 for i in range(8)]
        assert wilcoxon_rank_sum(a, b).significant

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_rank_sum([], [1.0])

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.lists(st.floats(-50, 50), min_size=1, max_size=12),
        b=st.lists(st.floats(-50, 50), min_size=1, max_size=12),
    )
    def test_p_value_in_unit_interval(self, a, b):
        outcome = wilcoxon_rank_sum(a, b)
        assert 0.0 < outcome.p_value <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([-1.5, 0.0, 2.0]), max_size=30))
    def test_tie_sizes_count_each_repeated_value(self, values):
        counts = Counter(values)
        _, tie_sizes = _midranks(values)
        assert tie_sizes == [counts[v] for v in sorted(counts) if counts[v] > 1]


class TestWinLossDraw:
    def test_identical_scores_all_draws(self):
        scores = [0.1, 0.2, 0.3]
        assert win_loss_draw(scores, scores) == (0, 0, 3)

    def test_direct_comparison(self):
        assert win_loss_draw([0.1, 0.3], [0.2, 0.2]) == (1, 1, 0)

    def test_rounding_to_three_decimals(self):
        assert win_loss_draw([0.1234], [0.1231]) == (0, 0, 1)  # both round to 0.123
        assert win_loss_draw([0.1236], [0.1231]) == (0, 1, 0)

    def test_seventeen_unit_fixture_matches_loop(self):
        import numpy as np

        rng = np.random.default_rng(12)
        a = [float(v) for v in rng.uniform(0.1, 0.5, 17)]
        b = [float(v) for v in rng.uniform(0.1, 0.5, 17)]
        win = loss = draw = 0
        for x, y in zip(a, b):
            rx, ry = round(x, 3), round(y, 3)
            if rx < ry:
                win += 1
            elif rx > ry:
                loss += 1
            else:
                draw += 1
        assert win_loss_draw(a, b) == (win, loss, draw)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            win_loss_draw([1.0], [1.0, 2.0])

    @settings(max_examples=100, deadline=None)
    @given(
        scores=st.lists(
            st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=40
        )
    )
    def test_counts_sum_to_units(self, scores):
        a = [x for x, _ in scores]
        b = [y for _, y in scores]
        w, l, d = win_loss_draw(a, b)
        assert w + l + d == len(scores)
