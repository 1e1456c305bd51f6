import math

import numpy as np
import pytest

from mtlhouse.synthetic import (
    SyntheticConfig,
    feature_ranges,
    generate_synthetic,
    range_stats,
    synthetic_schema,
)


def planted_design(dataset, n_features):
    """Rows in the planted basis: range-standardized numerics plus intercept."""
    names = [name for name, _, _ in feature_ranges(n_features)]
    columns = [dataset.schema.numeric.index(name) for name in names]
    means, stds = range_stats(n_features)
    rows = np.ones((len(dataset), n_features + 1))
    rows[:, :-1] = (dataset.numeric[:, columns] - means) / stds
    return rows


def small_config(**overrides):
    base = dict(
        n_tasks=4,
        n_features=5,
        samples_per_task_per_month=6,
        months=5,
        shared_support_size=3,
        coefficient_noise=0.05,
        observation_noise=0.1,
        seed=123,
    )
    base.update(overrides)
    return SyntheticConfig(**base)


class TestConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_tasks": 0},
            {"months": 0},
            {"shared_support_size": 0},
            {"shared_support_size": 6},
            {"coefficient_noise": -0.1},
            {"observation_noise": -1.0},
            {"samples_per_task_per_month": (3, 2)},
            {"samples_per_task_per_month": (-1, 2)},
            {"samples_per_task_per_month": (1, 2, 3)},
        ],
    )
    def test_invalid_configs(self, overrides):
        with pytest.raises(ValueError):
            small_config(**overrides)

    def test_monthly_bounds_forms(self):
        assert small_config().monthly_count_bounds() == ((6, 6),) * 4
        ranged = small_config(samples_per_task_per_month=(2, 5))
        assert ranged.monthly_count_bounds() == ((2, 5),) * 4
        per_task = small_config(samples_per_task_per_month=(1, (2, 4), 3, 9))
        assert per_task.monthly_count_bounds() == ((1, 1), (2, 4), (3, 3), (9, 9))

    def test_two_integers_are_one_range_for_every_task(self):
        ranged = small_config(n_tasks=2, samples_per_task_per_month=(3, 5))
        assert ranged.monthly_count_bounds() == ((3, 5), (3, 5))
        with pytest.raises(ValueError) as excinfo:
            small_config(n_tasks=2, samples_per_task_per_month=(5, 3))
        assert str(excinfo.value) == (
            "'samples_per_task_per_month' [5, 3]: a two-integer list is one [low, high] range"
            " for every task and needs 0 <= low <= high, high >= 1; per-task counts for two"
            " tasks are written [[5, 5], [3, 3]]"
        )
        per_task = small_config(n_tasks=2, samples_per_task_per_month=((5, 5), (3, 3)))
        assert per_task.monthly_count_bounds() == ((5, 5), (3, 3))

    def test_dict_round_trip(self):
        for config in (
            small_config(),
            small_config(samples_per_task_per_month=(2, 5)),
            small_config(samples_per_task_per_month=((1, 2), 5, (3, 8), 4)),
        ):
            assert SyntheticConfig.from_dict(config.to_dict()) == config


class TestGeneration:
    def test_deterministic(self):
        a, wa = generate_synthetic(small_config())
        b, wb = generate_synthetic(small_config())
        assert a.records == b.records
        assert np.array_equal(wa.values, wb.values)

    def test_different_seeds_differ(self):
        a, _ = generate_synthetic(small_config())
        b, _ = generate_synthetic(small_config(seed=124))
        assert a.records != b.records

    def test_month_span_matches_config(self):
        dataset, _ = generate_synthetic(small_config(n_tasks=20, months=39))
        assert dataset.n_months == 39

    def test_exact_counts_for_fixed_monthly_rate(self):
        config = small_config()
        dataset, _ = generate_synthetic(config)
        assert len(dataset) == 4 * 5 * 6

    def test_land_size_within_calibrated_range(self):
        dataset, _ = generate_synthetic(small_config(months=8))
        values = [r.values["LAND_SIZE"] for r in dataset.records]
        assert min(values) >= 340.0 and max(values) <= 2500.0

    def test_all_features_within_declared_ranges(self):
        config = small_config(n_features=12)
        dataset, _ = generate_synthetic(config)
        for name, lo, hi in feature_ranges(config.n_features):
            values = [r.values[name] for r in dataset.records]
            assert lo <= min(values) and max(values) <= hi

    def test_noiseless_records_satisfy_planted_model(self):
        config = small_config(coefficient_noise=0.0, observation_noise=0.0)
        dataset, planted = generate_synthetic(config)
        assert np.allclose(planted.values, planted.values[:, :1])  # columns all shared
        rows = planted_design(dataset, config.n_features)
        shared = planted.values[:, 0]
        for row, record in zip(rows, dataset.records):
            assert math.log(record.price) == pytest.approx(float(row @ shared), abs=1e-10)

    def test_coefficient_noise_perturbs_only_support_and_intercept(self):
        config = small_config(coefficient_noise=0.5)
        _, planted = generate_synthetic(config)
        shared_rows = np.all(planted.values == planted.values[:, :1], axis=1)
        # exactly n_features - support rows are untouched zero rows
        untouched = int(np.sum(shared_rows))
        assert untouched == config.n_features - config.shared_support_size
        assert np.all(planted.values[shared_rows] == 0.0)

    def test_task_keys_partition_records(self):
        config = small_config()
        dataset, planted = generate_synthetic(config)
        codes = {r.values["SA3"] for r in dataset.records}
        assert codes == set(planted.task_ids)
        coarse = {r.values["SA4"] for r in dataset.records}
        assert len(coarse) == math.ceil(config.n_tasks / 4)

    def test_starved_tasks_respect_bounds(self):
        config = small_config(
            n_tasks=3, samples_per_task_per_month=((1, 2), 5, (0, 1)), months=12
        )
        dataset, _ = generate_synthetic(config)
        per_task_month = {}
        for r in dataset.records:
            key = (r.values["SA3"], r.sale_month)
            per_task_month[key] = per_task_month.get(key, 0) + 1
        for (code, _), count in per_task_month.items():
            if code == "R000":
                assert 1 <= count <= 2
            elif code == "R001":
                assert count == 5
            else:
                assert count == 1  # zero-count months simply have no entry

    def test_schema_shape(self):
        schema = synthetic_schema(5)
        assert schema.keys == ("SA4", "SA3")
        assert len(schema.numeric) == 5
        assert schema.names[-4:] == ("SA4", "SA3", "DATE", "PRICE")

    def test_range_stats_match_uniform_moments(self):
        means, stds = range_stats(2)
        assert means[0] == pytest.approx((340 + 2500) / 2)
        assert stds[0] == pytest.approx((2500 - 340) / math.sqrt(12))
