import math

import numpy as np
import pytest

from mtlhouse.baselines import StlSpec, fit_stl
from mtlhouse.design import DesignLayout, TaskData, WeightMatrix, build_task_data, design_rows
from mtlhouse.solver import RegularizerSpec, SolverParams, fit
from mtlhouse.synthetic import SyntheticConfig, generate_synthetic
from mtlhouse.tasks import RegionDef, StationDef, define_tasks

from conftest import make_dataset


def synthetic_case(seed=21, months=6, tasks=4):
    config = SyntheticConfig(
        n_tasks=tasks,
        n_features=3,
        samples_per_task_per_month=(2, 6),
        months=months,
        shared_support_size=2,
        coefficient_noise=0.05,
        observation_noise=0.1,
        seed=seed,
    )
    dataset, _ = generate_synthetic(config)
    return dataset, define_tasks(dataset, RegionDef("SA3"))


class TestLayout:
    def test_grouping_key_excluded_other_keys_dummied(self):
        dataset, _ = synthetic_case()
        layout = DesignLayout.from_dataset(dataset, RegionDef("SA3"))
        assert all(not c.startswith("SA3=") for c in layout.columns)
        assert any(c.startswith("SA4=") for c in layout.columns)
        assert layout.columns[-1] == "(intercept)"

    def test_dummy_inventory_comes_from_full_dataset(self):
        rows = [
            {"month": 0, "REGION": "A", "OTHER": "X"},
            {"month": 5, "REGION": "B", "OTHER": "Y"},
        ]
        dataset = make_dataset(rows, key=("REGION", "OTHER"))
        layout = DesignLayout.from_dataset(dataset, RegionDef("REGION"))
        assert "OTHER=X" in layout.columns and "OTHER=Y" in layout.columns

    def test_test_month_only_category_carries_no_training_signal(self):
        # The dummy inventory comes from the whole dataset, test month
        # included. That is accepted: a category first seen in the test
        # month gets a column that is zero in every training row, so every
        # method fits it a zero weight and it cannot carry target information.
        rng = np.random.default_rng(5)
        rows = [
            {
                "month": month,
                "SIZE": float(rng.normal(600, 80)),
                "REGION": region,
                "OTHER": "XY"[i % 2] if month < 4 else "Z",
                "price": float(np.exp(rng.normal(13, 0.3))),
            }
            for month in range(5)
            for region in "AB"
            for i in range(4)
        ]
        dataset = make_dataset(rows, numeric=("SIZE",), key=("REGION", "OTHER"))
        taskset = define_tasks(dataset, RegionDef("REGION"))
        layout = DesignLayout.from_dataset(dataset, RegionDef("REGION"))
        assert "OTHER=Z" in layout.columns
        data = build_task_data(dataset, taskset, (0, 3), layout)
        j = layout.columns.index("OTHER=Z")
        assert all(np.all(x[:, j] == 0.0) for x in data.xs)

        params = SolverParams(max_iters=200)
        joint = [
            RegularizerSpec("lasso", 1.0),
            RegularizerSpec("group_l21", 1.0),
            RegularizerSpec("graph", 0.5, 1.0),
        ]
        for reg in joint:
            assert np.all(fit(data, reg, params).weights.values[j] == 0.0), reg.kind
        for spec in (StlSpec("ridge", 1.0), StlSpec("ridge"), StlSpec("lasso", 1.0)):
            assert np.all(fit_stl(data, spec, params).values[j] == 0.0), spec
        ols = fit_stl(data, StlSpec("ols")).values[j]
        assert np.max(np.abs(ols)) <= 1e-12

    def test_intersection_excludes_both_keys(self):
        rows = [
            {"month": 0, "REGION": "A", "STATION_ID": "S1", "DIST_STATION": 10.0},
        ]
        dataset = make_dataset(rows, numeric=("DIST_STATION",), key=("REGION", "STATION_ID"))
        from mtlhouse.tasks import IntersectionDef

        layout = DesignLayout.from_dataset(
            dataset, IntersectionDef(RegionDef("REGION"), StationDef(100.0))
        )
        assert all("REGION=" not in c and "STATION_ID=" not in c for c in layout.columns)
        assert "DIST_STATION" in layout.columns


class TestBuildTaskData:
    def test_single_task_single_record(self):
        rows = [{"month": 3, "SIZE": 700.0, "REGION": "A", "price": 500000.0}]
        dataset = make_dataset(rows, numeric=("SIZE",), key=("REGION",))
        taskset = define_tasks(dataset, RegionDef("REGION"))
        data = build_task_data(dataset, taskset, (3, 3))
        assert data.xs[0].shape == (1, data.n_columns)
        assert data.xs[0][0, -1] == 1.0
        assert data.ys[0][0] == pytest.approx(math.log(500000.0), abs=1e-14)

    def test_standardized_columns_have_zero_mean_unit_variance(self):
        dataset, taskset = synthetic_case()
        window = (dataset.month_range[0], dataset.month_range[0] + 2)
        data = build_task_data(dataset, taskset, window)
        stacked = np.vstack(data.xs)
        n_numeric = len(data.layout.numeric)
        means = stacked[:, :n_numeric].mean(axis=0)
        variances = stacked[:, :n_numeric].var(axis=0)
        assert np.all(np.abs(means) < 1e-9)
        assert np.all(np.abs(variances - 1.0) < 1e-9)

    def test_row_counts_match_window_filter_oracle(self):
        dataset, taskset = synthetic_case(seed=33, months=8)
        lo = dataset.month_range[0] + 2
        window = (lo, lo + 2)
        data = build_task_data(dataset, taskset, window)
        for task in taskset.tasks:
            expected = sum(
                1
                for i in task.member_indices
                if lo <= dataset.records[i].sale_month <= lo + 2
            )
            if expected == 0:
                assert task.task_id not in data.task_ids
            else:
                assert data.xs[data.task_ids.index(task.task_id)].shape[0] == expected

    def test_zero_variance_feature_standardized_to_zeros(self):
        rows = [
            {"month": 0, "CONST": 7.0, "VAR": float(i), "REGION": "A"} for i in range(5)
        ]
        dataset = make_dataset(rows, numeric=("CONST", "VAR"), key=("REGION",))
        taskset = define_tasks(dataset, RegionDef("REGION"))
        data = build_task_data(dataset, taskset, (0, 0))
        const_col = data.layout.columns.index("CONST")
        assert np.all(data.xs[0][:, const_col] == 0.0)

    def test_tasks_without_window_records_are_excluded(self):
        rows = [
            {"month": 0, "REGION": "A"},
            {"month": 9, "REGION": "B"},
        ]
        dataset = make_dataset(rows, key=("REGION",))
        taskset = define_tasks(dataset, RegionDef("REGION"))
        data = build_task_data(dataset, taskset, (0, 1))
        assert data.task_ids == ("A",)

    def test_no_tasks_in_window_raises(self):
        rows = [{"month": 0, "REGION": "A"}, {"month": 9, "REGION": "A"}]
        dataset = make_dataset(rows, key=("REGION",))
        taskset = define_tasks(dataset, RegionDef("REGION"))
        with pytest.raises(ValueError, match="window"):
            build_task_data(dataset, taskset, (3, 5))

    def test_empty_window_rejected(self):
        dataset, taskset = synthetic_case()
        with pytest.raises(ValueError, match="empty window"):
            build_task_data(dataset, taskset, (5, 3))


class TestDesignRows:
    def test_test_rows_use_training_statistics(self):
        dataset, taskset = synthetic_case(seed=5)
        lo, hi = dataset.month_range
        data = build_task_data(dataset, taskset, (lo, hi - 1))
        test_records = [r for r in dataset.records if r.sale_month == hi]
        rows = design_rows(test_records, data.layout, data.standardizer)
        j = data.layout.columns.index(data.layout.numeric[0])
        name = data.layout.numeric[0]
        expected = (
            test_records[0].values[name] - data.standardizer.means[j]
        ) / data.standardizer.stds[j]
        assert rows[0, j] == pytest.approx(expected, abs=1e-12)
        assert np.all(rows[:, -1] == 1.0)


class TestWeightMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightMatrix(np.zeros((2, 3)), task_ids=("a",), columns=("x", "(intercept)"))
        with pytest.raises(ValueError):
            WeightMatrix(
                np.array([[np.inf]]), task_ids=("a",), columns=("(intercept)",)
            )

    def test_column_lookup(self):
        weights = WeightMatrix(
            np.array([[1.0, 2.0], [3.0, 4.0]]),
            task_ids=("a", "b"),
            columns=("x", "(intercept)"),
        )
        assert list(weights.column("b")) == [2.0, 4.0]
        with pytest.raises(KeyError):
            weights.column("zzz")


class TestTaskDataValidation:
    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            TaskData.from_arrays(
                [np.ones((2, 3)), np.ones((2, 4))], [np.ones(2), np.ones(2)]
            )

    def test_target_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TaskData.from_arrays([np.ones((2, 3))], [np.ones(3)])

    def test_mean_prices_recovers_raw_scale(self):
        data = TaskData.from_arrays(
            [np.ones((2, 1))], [np.log(np.array([500.0, 1000.0]))]
        )
        assert data.mean_prices()[0] == pytest.approx(750.0, rel=1e-12)
