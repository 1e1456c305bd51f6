import math

import numpy as np
import pytest

from mtlhouse.backtest import MethodSpec, _test_rows_by_task, make_rolling_plan
from mtlhouse.baselines import fit_stl
from mtlhouse.design import (
    DesignLayout,
    Standardizer,
    TaskData,
    WeightMatrix,
    build_task_data,
    design_rows,
)
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
        ridge = MethodSpec("ridge", "ridge", solver=params)
        lasso = MethodSpec("lasso", "lasso", penalty=(1.0,), solver=params)
        for spec, penalty in ((ridge, 1.0), (ridge, None), (lasso, 1.0)):
            assert np.all(fit_stl(data, spec, penalty).values[j] == 0.0), spec
        ols = fit_stl(data, MethodSpec("ols", "ols")).values[j]
        assert np.all(ols == 0.0)

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
        for p, task_id in enumerate(taskset.tasks):
            expected = sum(
                1
                for i in np.flatnonzero(taskset.codes == p).tolist()
                if lo <= dataset.records[i].sale_month <= lo + 2
            )
            if expected == 0:
                assert task_id not in data.task_ids
            else:
                assert data.xs[data.task_ids.index(task_id)].shape[0] == expected

    def test_zero_variance_feature_standardized_to_zeros(self):
        rows = [
            {"month": 0, "CONST": 7.0, "VAR": float(i), "REGION": "A"} for i in range(5)
        ]
        dataset = make_dataset(rows, numeric=("CONST", "VAR"), key=("REGION",))
        taskset = define_tasks(dataset, RegionDef("REGION"))
        data = build_task_data(dataset, taskset, (0, 0))
        const_col = data.layout.columns.index("CONST")
        assert np.all(data.xs[0][:, const_col] == 0.0)

    def test_zero_variance_column_is_zero_on_rows_off_the_mean(self):
        standardizer = Standardizer(means=np.array([7.0, 1.0]), stds=np.array([0.0, 2.0]))
        out = standardizer.apply(np.array([[9.0, 5.0], [-3.0, 1.0]]))
        assert out.tolist() == [[0.0, 2.0], [0.0, 0.0]]

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

    def test_support_is_numerics_own_categories_and_intercept(self):
        rows = [
            {"month": 0, "CONST": 7.0, "VAR": float(i), "REGION": "AB"[i % 2], "OTHER": other}
            for i, other in enumerate("XZYZXZ")
        ]
        dataset = make_dataset(rows, numeric=("CONST", "VAR"), key=("REGION", "OTHER"))
        taskset = define_tasks(dataset, RegionDef("REGION"))
        data = build_task_data(dataset, taskset, (0, 0))
        assert data.layout.columns == (
            "CONST", "VAR", "OTHER=X", "OTHER=Y", "OTHER=Z", "(intercept)"
        )
        # CONST has zero variance, so it is standardized to zeros in every row
        supports = [[data.layout.columns[j] for j in s] for s in data.supports]
        assert supports == [
            ["VAR", "OTHER=X", "OTHER=Y", "(intercept)"],
            ["VAR", "OTHER=Z", "(intercept)"],
        ]



def oracle_raw_rows(layout, records):
    """Row-by-row encoding of records: numerics raw, one-hot dummies, intercept."""
    rows = np.zeros((len(records), layout.n_columns))
    for i, record in enumerate(records):
        j = 0
        for name in layout.numeric:
            rows[i, j] = float(record.values[name])
            j += 1
        for name, categories in layout.dummies:
            value = str(record.values[name])
            if value in categories:
                rows[i, j + categories.index(value)] = 1.0
            j += len(categories)
        rows[i, -1] = 1.0
    return rows


def window_members(dataset, taskset, window):
    """(task id, its rows inside ``window``) of every task, by a scan of the row view."""
    lo, hi = window
    codes = taskset.codes.tolist()
    months = [r.sale_month for r in dataset.records]
    return [
        (task_id, [i for i, m in enumerate(months) if codes[i] == p and lo <= m <= hi])
        for p, task_id in enumerate(taskset.tasks)
    ]


def oracle_task_data(dataset, taskset, window, layout):
    """Window rows per task from the row view, gathered in task order and standardized."""
    kept = [(t, rows) for t, rows in window_members(dataset, taskset, window) if rows]
    records = [dataset.records[i] for _, rows in kept for i in rows]
    encoded = oracle_raw_rows(layout, records)
    k = len(layout.numeric)
    standardizer = Standardizer.fit(encoded[:, :k])
    encoded[:, :k] = standardizer.apply(encoded[:, :k])
    xs, ys, offset = [], [], 0
    for _, rows in kept:
        xs.append(encoded[offset : offset + len(rows)])
        ys.append(np.array([math.log(dataset.records[i].price) for i in rows]))
        offset += len(rows)
    return [t for t, _ in kept], xs, ys


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def category_seen_only_in_test_month():
    rng = np.random.default_rng(8)
    rows = [
        {
            "month": month,
            "SIZE": float(rng.normal(600, 80)),
            "ROOMS": float(rng.integers(1, 5)),
            "REGION": region,
            "OTHER": "Z" if month == 4 and i == 0 else "XY"[i % 2],
            "price": float(np.exp(rng.normal(13, 0.3))),
        }
        for month in range(5)
        for region in "ABC"
        for i in range(3)
        if not (region == "C" and month in (1, 2))  # C has a round with no training rows
    ]
    return make_dataset(rows, numeric=("SIZE", "ROOMS"), key=("REGION", "OTHER"))


class TestColumnarEncodingOracle:
    @pytest.mark.parametrize("case", ["test_only_category", "synthetic"])
    def test_rounds_match_row_by_row_oracle_bit_for_bit(self, case):
        if case == "synthetic":
            dataset, _ = synthetic_case(seed=44, months=7, tasks=6)
        else:
            dataset = category_seen_only_in_test_month()
            assert "OTHER=Z" in DesignLayout.from_dataset(dataset, RegionDef("REGION")).columns
        definition = RegionDef("SA3" if case == "synthetic" else "REGION")
        taskset = define_tasks(dataset, definition)
        layout = DesignLayout.from_dataset(dataset, definition)
        plan = make_rolling_plan(dataset, k=2)
        skipped_tasks = 0
        for round_ in plan.rounds:
            data = build_task_data(dataset, taskset, round_.train_window, layout)
            ids, xs, ys = oracle_task_data(dataset, taskset, round_.train_window, layout)
            skipped_tasks += len(taskset.tasks) - len(ids)
            assert list(data.task_ids) == ids
            assert all(same_bits(a, b) for a, b in zip(data.xs, xs))
            assert all(same_bits(a, b) for a, b in zip(data.ys, ys))

            test_rows = _test_rows_by_task(dataset, taskset, data, round_.test_month)
            expected = {}
            for task_id, rows in window_members(dataset, taskset, (round_.test_month,) * 2):
                if rows and task_id in data.task_ids:
                    records = [dataset.records[i] for i in rows]
                    x = oracle_raw_rows(layout, records)
                    k = len(layout.numeric)
                    x[:, :k] = data.standardizer.apply(x[:, :k])
                    expected[task_id] = (x, np.array([math.log(r.price) for r in records]))
            assert list(test_rows.task_ids) == list(expected)
            for (x, y), test_x, test_y in zip(expected.values(), test_rows.xs, test_rows.ys):
                assert same_bits(test_x, x)
                assert same_bits(test_y, y)
        assert skipped_tasks > 0 or case == "synthetic"


class TestDesignRows:
    def test_test_rows_use_training_statistics(self):
        dataset, taskset = synthetic_case(seed=5)
        lo, hi = dataset.month_range
        data = build_task_data(dataset, taskset, (lo, hi - 1))
        test_rows = np.flatnonzero(dataset.months == hi)
        test_records = [dataset.records[i] for i in test_rows]
        rows = design_rows(dataset, test_rows, data.layout, data.standardizer)
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

    def test_duplicate_task_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            WeightMatrix(np.zeros((1, 2)), task_ids=("a", "a"), columns=("(intercept)",))


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

    def test_ids_and_blocks_must_align(self):
        with pytest.raises(ValueError, match="align"):
            TaskData(task_ids=("a",), x=np.ones((4, 2)), y=np.ones(4), sizes=[2, 2])
        with pytest.raises(ValueError, match="align"):
            TaskData.from_arrays([np.ones((2, 2))], [np.ones(2)], task_ids=("a", "b"))

    def test_zero_row_block_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            TaskData(task_ids=("a", "b"), x=np.ones((2, 2)), y=np.ones(2), sizes=[2, 0])
        with pytest.raises(ValueError, match="at least one row"):
            TaskData.from_arrays([np.ones((2, 2)), np.ones((0, 2))], [np.ones(2), np.ones(0)])

    @pytest.mark.parametrize("sizes", [[2, 1], [2, 3]])
    def test_block_sizes_must_sum_to_row_count(self, sizes):
        with pytest.raises(ValueError, match="cover"):
            TaskData(task_ids=("a", "b"), x=np.ones((4, 2)), y=np.ones(4), sizes=sizes)

    def test_per_task_mismatch_that_balances_in_total_rejected(self):
        with pytest.raises(ValueError, match="targets"):
            TaskData.from_arrays(
                [np.ones((2, 3)), np.ones((3, 3))], [np.ones(3), np.ones(2)]
            )

    def test_supports_are_each_blocks_nonzero_columns_and_the_intercept(self):
        xs = [
            np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 2.0, 0.0]]),
            np.array([[0.0, math.nan, 0.0, 1.0]]),
            np.array([[0.0, -3.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]]),
        ]
        data = TaskData.from_arrays(xs, [np.ones(2), np.ones(1), np.ones(2)])
        # the intercept is kept even where it is zero, and NaN counts as nonzero
        assert [s.tolist() for s in data.supports] == [[0, 2, 3], [1, 3], [1, 3]]
        assert data.supports is data.supports
        assert not any(s.flags.writeable for s in data.supports)

    def test_blocks_are_views_of_the_stacked_rows_in_task_order(self):
        xs = [np.full((2, 3), 1.0), np.full((1, 3), 2.0), np.full((3, 3), 3.0)]
        ys = [np.full(2, 1.0), np.full(1, 2.0), np.full(3, 3.0)]
        data = TaskData.from_arrays(xs, ys, ("c", "a", "b"))
        assert data.x.shape == (6, 3) and list(data.sizes) == [2, 1, 3]
        assert list(data.starts) == [0, 2, 3]
        for x, y, expected_x, expected_y in zip(data.xs, data.ys, xs, ys):
            assert np.shares_memory(x, data.x) and np.shares_memory(y, data.y)
            assert np.array_equal(x, expected_x) and np.array_equal(y, expected_y)
