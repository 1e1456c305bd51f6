import logging
import re
from types import SimpleNamespace

import numpy as np
import pytest

from mtlhouse import backtest, baselines
from mtlhouse.backtest import (
    MethodSpec,
    RollingPlan,
    Round,
    _assert_no_leakage,
    make_rolling_plan,
    run_backtest,
)
from mtlhouse.data import month_text
from mtlhouse.design import DesignLayout, build_task_data
from mtlhouse.reports import write_records_csv
from mtlhouse.solver import GAP_TOL, RegularizerSpec, SolverParams, build_task_graph, fit, objective
from mtlhouse.synthetic import SyntheticConfig, generate_synthetic
from mtlhouse.tasks import RegionDef, TaskSet, define_tasks

from conftest import make_dataset


def span_dataset(months):
    rows = [{"month": m, "REGION": "A"} for m in range(months)]
    rows += [{"month": m, "REGION": "B"} for m in range(months)]
    return make_dataset(rows, key=("REGION",))


class TestRollingPlan:
    def test_default_protocol_thirty_nine_months(self):
        config = SyntheticConfig(
            n_tasks=3,
            n_features=2,
            samples_per_task_per_month=2,
            months=39,
            shared_support_size=1,
            coefficient_noise=0.0,
            observation_noise=0.0,
            seed=1,
        )
        dataset, _ = generate_synthetic(config)
        plan = make_rolling_plan(dataset, k=3)
        assert len(plan) == 36

    def test_minimal_span(self):
        plan = make_rolling_plan(span_dataset(4), k=3)
        assert len(plan) == 1

    def test_twelve_months_enumeration(self):
        plan = make_rolling_plan(span_dataset(12), k=3)
        assert len(plan) == 9
        expected = [((m - 3, m - 1), m) for m in range(3, 12)]
        assert [(r.train_window, r.test_month) for r in plan.rounds] == expected

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="^dataset has no rows$"):
            make_rolling_plan(span_dataset(0), k=3)

    def test_short_span_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            make_rolling_plan(span_dataset(3), k=3)

    def test_plan_invariants_enforced(self):
        with pytest.raises(ValueError):
            RollingPlan(rounds=(Round((0, 2), 4),), k=3)  # gap before test month
        with pytest.raises(ValueError):
            RollingPlan(rounds=(Round((0, 2), 3), Round((0, 2), 3)), k=3)

    def test_leakage_assertion(self):
        dataset = span_dataset(6)
        taskset = define_tasks(dataset, RegionDef("REGION"))
        data = build_task_data(dataset, taskset, (0, 3))
        for scored_month in (2, 3):
            with pytest.raises(AssertionError, match="leakage"):
                _assert_no_leakage(data, scored_month)
        _assert_no_leakage(data, 4)


def record_builds(monkeypatch, widen_months=None):
    """Log every window ``run_backtest`` builds data for.

    A window of ``widen_months`` months is widened by one month, so it
    reaches the month it is scored on.
    """
    windows = []
    real = backtest.build_task_data

    def logged(dataset, taskset, window, layout=None):
        windows.append(window)
        lo, hi = window
        if hi - lo + 1 == widen_months:
            window = (lo, hi + 1)
        return real(dataset, taskset, window, layout)

    monkeypatch.setattr(backtest, "build_task_data", logged)
    return windows


def record_fits(monkeypatch):
    """Log every fit ``run_backtest`` makes, in call order: solver fits and the
    closed-form ols and ridge fits, which take no start (their ``init`` is None)."""
    calls = []
    real_fit, real_stl = backtest.fit, backtest.fit_stl

    def log(data, reg, point, init, result, weights):
        calls.append(
            SimpleNamespace(
                data=data, window=data.window, reg=reg, point=point, init=init, result=result, weights=weights
            )
        )

    def logged_fit(data, reg, params, init=None):
        result = real_fit(data, reg, params, init=init)
        point = (reg.theta1,) if reg.theta2 is None else (reg.theta1, reg.theta2)
        log(data, reg, point, init, result, result.weights)
        return result

    def logged_stl(data, spec, *point):
        weights = real_stl(data, spec, *point)
        log(data, None, point, None, None, weights)
        return weights

    monkeypatch.setattr(backtest, "fit", logged_fit)
    monkeypatch.setattr(backtest, "fit_stl", logged_stl)
    return calls


def small_market(months=6):
    config = SyntheticConfig(
        n_tasks=3,
        n_features=2,
        samples_per_task_per_month=6,
        months=months,
        shared_support_size=1,
        coefficient_noise=0.02,
        observation_noise=0.1,
        seed=5,
    )
    return generate_synthetic(config)[0]


def mtl_ols_methods(theta1=1.0):
    return [
        MethodSpec(label="mtl_l21", kind="mtl_l21", theta1=(theta1,)),
        MethodSpec(label="ols", kind="ols"),
    ]


class TestRunBacktest:
    def test_noiseless_recovery(self):
        config = SyntheticConfig(
            n_tasks=4,
            n_features=3,
            samples_per_task_per_month=12,
            months=5,
            shared_support_size=2,
            coefficient_noise=0.0,
            observation_noise=0.0,
            seed=2,
        )
        dataset, _ = generate_synthetic(config)
        plan = make_rolling_plan(dataset, k=3)
        records, report = run_backtest(
            dataset, RegionDef("SA3"), [MethodSpec(label="ols", kind="ols")], plan
        )
        assert report.summaries["ols"].overall_rmse <= 1e-6

    def test_self_comparison_is_all_draws_and_insignificant(self):
        config = SyntheticConfig(
            n_tasks=5,
            n_features=3,
            samples_per_task_per_month=8,
            months=6,
            shared_support_size=2,
            coefficient_noise=0.05,
            observation_noise=0.1,
            seed=3,
        )
        dataset, _ = generate_synthetic(config)
        plan = make_rolling_plan(dataset, k=3)
        records, report = run_backtest(
            dataset, RegionDef("SA3"), [MethodSpec(label="ols", kind="ols")], plan
        )
        outcome = report.rank_sum["ols"]
        assert outcome.p_value == 1.0
        assert not outcome.significant
        for per_method in report.quartile_wld.values():
            w, l, d = per_method["ols"]
            assert (w, l) == (0, 0)

    def test_records_follow_plan_and_never_leak(self):
        config = SyntheticConfig(
            n_tasks=3,
            n_features=2,
            samples_per_task_per_month=(1, 4),
            months=8,
            shared_support_size=1,
            coefficient_noise=0.02,
            observation_noise=0.1,
            seed=4,
        )
        dataset, _ = generate_synthetic(config)
        plan = make_rolling_plan(dataset, k=3)
        records, _ = run_backtest(
            dataset, RegionDef("SA3"), [MethodSpec(label="ols", kind="ols")], plan
        )
        for record in records:
            round_ = plan.rounds[record.round_index]
            assert round_.train_window[1] < round_.test_month
            assert record.rmse >= record.mae >= 0.0
            assert record.n >= 1

    def test_round_with_empty_training_window_skipped(self, caplog):
        rows = [{"month": m, "REGION": r} for m in (0, 1, 2, 7, 8, 9) for r in "AB"]
        dataset = make_dataset(rows, key=("REGION",))
        plan = make_rolling_plan(dataset, k=3)
        with caplog.at_level(logging.WARNING, logger="mtlhouse.backtest"):
            records, report = run_backtest(
                dataset, RegionDef("REGION"), [MethodSpec(label="ols", kind="ols")], plan
            )
        # test months 6 and 7 train on the all-empty spans 3-5 and 4-6
        skipped_tests = [plan.rounds[i].test_month for i in report.skipped_rounds]
        assert skipped_tests == [6, 7]
        # the skipped rounds are logged once, after the loop
        assert [m for m in caplog.messages if "no task has training data" in m] == [
            "region:REGION: no task has training data in 2 of 7 rounds (first 3, last 4); skipped"
        ]

    def test_task_without_training_data_excluded_from_round(self):
        rows = [{"month": m, "REGION": "A"} for m in range(5)]
        rows += [{"month": 4, "REGION": "B"}]  # B appears only in the test month
        dataset = make_dataset(rows, key=("REGION",))
        plan = make_rolling_plan(dataset, k=3)
        records, _ = run_backtest(
            dataset, RegionDef("REGION"), [MethodSpec(label="ols", kind="ols")], plan
        )
        assert all(record.task_id == "A" for record in records)

    @pytest.mark.parametrize("widen_months", [3, 2], ids=["training", "inner"])
    def test_widened_window_trips_leakage_guard(self, monkeypatch, widen_months):
        record_builds(monkeypatch, widen_months)
        dataset = small_market()
        methods = [MethodSpec(label="l21", kind="mtl_l21", theta1=(1.0, 3.0))]
        with pytest.raises(AssertionError, match="leakage"):
            run_backtest(dataset, RegionDef("SA3"), methods, make_rolling_plan(dataset, k=3))

    @pytest.mark.parametrize("widen_months", [3, 2, 1], ids=["training", "inner", "scored"])
    def test_rows_past_the_window_trip_leakage_guard(self, monkeypatch, widen_months):
        # the windows are asked for as planned, but the rows come from one month more
        real = TaskSet.rows_in

        def widened(taskset, window):
            lo, hi = window
            return real(taskset, (lo, hi + 1) if hi - lo + 1 == widen_months else window)

        monkeypatch.setattr(TaskSet, "rows_in", widened)
        dataset = small_market()
        methods = [MethodSpec(label="l21", kind="mtl_l21", theta1=(1.0, 3.0))]
        with pytest.raises(AssertionError, match="leakage") as excinfo:
            run_backtest(dataset, RegionDef("SA3"), methods, make_rolling_plan(dataset, k=3))
        if widen_months == 1:
            assert "scored rows span" in str(excinfo.value)
        else:
            lo, hi = map(int, re.search(r"window \((\d+), (\d+)\)", str(excinfo.value)).groups())
            assert hi - lo + 1 == widen_months

    def test_standardizer_reads_only_the_window_rows(self, monkeypatch):
        # every fit's statistics are those of all rows sold in its window and
        # of no other row, on the round's window and on its inner window
        seen = []
        real = backtest.fit

        def recorded(data, reg, params, init=None):
            seen.append(data)
            return real(data, reg, params, init=init)

        monkeypatch.setattr(backtest, "fit", recorded)
        dataset = small_market()
        plan = make_rolling_plan(dataset, k=3)
        methods = [MethodSpec(label="l21", kind="mtl_l21", theta1=(1.0, 3.0))]
        run_backtest(dataset, RegionDef("SA3"), methods, plan)
        windows = [r.train_window for r in plan.rounds]
        assert {data.window for data in seen} == {w for lo, hi in windows for w in ((lo, hi), (lo, hi - 1))}
        for data in seen:
            lo, hi = data.window
            numeric = dataset.numeric[(dataset.months >= lo) & (dataset.months <= hi)]
            assert data.x.shape[0] == numeric.shape[0]
            assert np.allclose(data.standardizer.means, numeric.mean(axis=0), rtol=1e-12, atol=0)
            assert np.allclose(data.standardizer.stds, numeric.std(axis=0), rtol=1e-12, atol=0)

    def test_unknown_benchmark_rejected(self):
        dataset = span_dataset(5)
        plan = make_rolling_plan(dataset, k=3)
        with pytest.raises(ValueError, match="benchmark"):
            run_backtest(
                dataset,
                RegionDef("REGION"),
                [MethodSpec(label="ols", kind="ols")],
                plan,
                benchmark="nope",
            )

    def test_duplicate_labels_rejected(self):
        dataset = span_dataset(5)
        plan = make_rolling_plan(dataset, k=3)
        methods = [MethodSpec(label="m", kind="ols"), MethodSpec(label="m", kind="ols")]
        with pytest.raises(ValueError, match="unique"):
            run_backtest(dataset, RegionDef("REGION"), methods, plan)


class TestGridSelection:
    def test_grid_picks_the_useful_point(self, monkeypatch):
        config = SyntheticConfig(
            n_tasks=4,
            n_features=4,
            samples_per_task_per_month=10,
            months=6,
            shared_support_size=3,
            coefficient_noise=0.02,
            observation_noise=0.1,
            seed=6,
        )
        dataset, _ = generate_synthetic(config)
        plan = make_rolling_plan(dataset, k=3)
        absurd = 1e7  # zeroes every feature row; validation must reject it
        chosen = []
        select = backtest._select_grid_point

        def recorded(*args):
            chosen.append(select(*args)[0])
            return chosen[-1], None

        monkeypatch.setattr(backtest, "_select_grid_point", recorded)
        gridded = [MethodSpec(label="mtl_l21", kind="mtl_l21", theta1=(absurd, 1.0))]
        run_backtest(dataset, RegionDef("SA3"), gridded, plan)
        assert chosen == [(1.0,)] * len(plan)

    @pytest.mark.parametrize("k", [1, 3])
    def test_multi_point_grids_share_one_inner_build_per_round(self, monkeypatch, k):
        windows = record_builds(monkeypatch)
        dataset = small_market()
        plan = make_rolling_plan(dataset, k=k)
        methods = [
            MethodSpec(label="l21", kind="mtl_l21", theta1=(1.0, 3.0)),
            MethodSpec(label="lasso", kind="lasso", penalty=(0.1, 1.0)),
            MethodSpec(label="ols", kind="ols"),
        ]
        run_backtest(dataset, RegionDef("SA3"), methods, plan)
        expected = []
        for round_ in plan.rounds:
            lo, hi = round_.train_window
            expected += [(lo, hi), (lo, hi - 1)] if hi > lo else [(lo, hi)]
        assert windows == expected

    def test_single_point_grids_build_only_training_data(self, monkeypatch):
        windows = record_builds(monkeypatch)
        dataset = small_market()
        plan = make_rolling_plan(dataset, k=3)
        methods = [
            MethodSpec(label="l21", kind="mtl_l21", theta1=(1.0,)),
            MethodSpec(label="ridge", kind="ridge"),
            MethodSpec(label="ols", kind="ols"),
        ]
        run_backtest(dataset, RegionDef("SA3"), methods, plan)
        assert windows == [round_.train_window for round_ in plan.rounds]

    def test_grid_points_are_scored_by_rmse_on_the_pooled_validation_rows(self, monkeypatch):
        dataset = small_market()
        definition = RegionDef("SA3")
        held_out = backtest._held_out(
            dataset,
            define_tasks(dataset, definition),
            DesignLayout.from_dataset(dataset, definition),
            make_rolling_plan(dataset, k=3).rounds[0],
        )
        inner, validation = held_out
        assert validation.n_tasks > 1
        scored = []
        real = backtest.rmse

        def logged(actual, predicted):
            scored.append((actual, predicted, real(actual, predicted)))
            return scored[-1][2]

        monkeypatch.setattr(backtest, "rmse", logged)
        spec = MethodSpec(label="l21", kind="mtl_l21", theta1=(1.0, 1e7, 3.0))
        fits = {}
        chosen, start = backtest._select_grid_point(spec, held_out, fits, "round 0")
        points = spec.grid_points()
        assert len(scored) == len(points)
        for point, (actual, predicted, _) in zip(points, scored):
            weights = backtest._fit_point(inner, spec, point, fits, "round 0")
            pooled = [x @ weights.column(t) for t, x in zip(validation.task_ids, validation.xs)]
            assert np.array_equal(actual, validation.y)
            assert np.array_equal(predicted, np.concatenate(pooled))
        assert chosen == points[int(np.argmin([score for _, _, score in scored]))]
        assert start is backtest._fit_point(inner, spec, chosen, fits, "round 0")

    @pytest.mark.parametrize("theta1", [(1.0, 3.0), (3.0, 1.0), (2.0, 5.0, 2.0)])
    def test_score_ties_pick_the_first_point_in_table_order(self, monkeypatch, theta1):
        dataset = small_market()
        definition = RegionDef("SA3")
        held_out = backtest._held_out(
            dataset,
            define_tasks(dataset, definition),
            DesignLayout.from_dataset(dataset, definition),
            make_rolling_plan(dataset, k=3).rounds[0],
        )
        monkeypatch.setattr(backtest, "rmse", lambda actual, predicted: 0.25)
        spec = MethodSpec(label="l21", kind="mtl_l21", theta1=theta1)
        fits = {}
        chosen, start = backtest._select_grid_point(spec, held_out, fits, "round 0")
        assert chosen == (theta1[0],)
        assert start is backtest._fit_point(held_out[0], spec, chosen, fits, "round 0")

    @pytest.mark.parametrize(
        "spec",
        [
            MethodSpec(label="l21", kind="mtl_l21", theta1=(1.0, 3.0, 2.0)),
            MethodSpec(label="mtl_lasso", kind="mtl_lasso", theta1=(1.0, 3.0, 2.0)),
            MethodSpec(label="lasso", kind="lasso", penalty=(1.0, 3.0, 2.0)),
            MethodSpec(label="graph", kind="mtl_graph", theta1=(0.5, 1.0), theta2=(0.5, 1.0)),
            MethodSpec(label="ridge", kind="ridge", penalty=(1.0, 3.0, 2.0)),
        ],
        ids=lambda spec: spec.label,
    )
    def test_every_grid_is_solved_as_a_warm_started_path(self, monkeypatch, spec):
        calls = record_fits(monkeypatch)
        dataset = small_market()
        plan = make_rolling_plan(dataset, k=3)
        run_backtest(dataset, RegionDef("SA3"), [spec], plan)
        points = spec.grid_points()
        path = sorted(points, key=lambda point: -point[0])  # stable: ties keep table order
        size = len(points) + 1  # the inner-window fits and one full-window fit
        assert len(calls) == size * len(plan)
        previous = {}  # the previous round's fit of each point, the full-window one over the inner one
        for n, round_ in enumerate(plan.rounds):
            *inner, full = round_calls = calls[size * n : size * (n + 1)]
            lo, hi = round_.train_window
            assert [c.window for c in round_calls] == [(lo, hi - 1)] * len(points) + [(lo, hi)]
            assert [c.point for c in inner] == path
            chosen = [c for c in inner if c.point == full.point]
            assert len(chosen) == 1
            if spec.kind == "ridge":
                # closed-form fits take no start: the path gives a table-order solve's weights
                table = [baselines.fit_stl(inner[0].data, spec, *point) for point in points]
                for c in inner:
                    assert np.array_equal(c.weights.values, table[points.index(c.point)].values)
                continue
            # the path's first fit starts from the previous round's fit of its
            # point (round 0's from 0), and each later one from the one before
            assert inner[0].init is previous.get(path[0]) and (n == 0) == (inner[0].init is None)
            assert all(c.init is before.weights for before, c in zip(inner, inner[1:]))
            # the full-window fit starts from the chosen point's inner fit
            assert full.init is chosen[0].weights
            previous = {c.point: c.weights for c in round_calls}

    def test_graph_grid_is_solved_as_a_warm_started_path(self, monkeypatch):
        calls = record_fits(monkeypatch)
        dataset = small_market()
        plan = make_rolling_plan(dataset, k=3)
        spec = MethodSpec(label="g", kind="mtl_graph", theta1=(0.5, 1.0), theta2=(1.0, 0.5))
        run_backtest(dataset, RegionDef("SA3"), [spec], plan)
        assert len(calls) == 5 * len(plan)  # four inner-window fits and one full-window fit
        # from the largest theta1 down; equal theta1 keep table order
        path = [(1.0, 1.0), (1.0, 0.5), (0.5, 1.0), (0.5, 0.5)]
        previous = {}  # the previous round's fit of each point, the full-window one over the inner one
        for n in range(len(plan)):
            *inner, full = round_calls = calls[5 * n : 5 * n + 5]
            assert [c.point for c in inner] == path and full.point in path
            # round 0's first point starts from 0, a later round's from the
            # previous round's fit of that point
            assert inner[0].init is previous.get(path[0]) and (n == 0) == (inner[0].init is None)
            # each later point starts from the one before it
            assert all(c.init is before.weights for before, c in zip(inner, inner[1:]))
            # the full-window fit starts from the chosen point's inner fit
            assert full.init is inner[path.index(full.point)].weights
            previous = {c.point: c.weights for c in round_calls}

    def test_starts_never_saw_the_scored_month(self, monkeypatch):
        # every start is the weights of an earlier fit whose window ends before
        # the month the starting fit is scored on (the validation month of an
        # inner fit, the test month of a full one): no inner fit starts from a
        # full-window fit of its own round, which saw its validation month
        calls = record_fits(monkeypatch)
        dataset = small_market(months=8)
        plan = make_rolling_plan(dataset, k=3)
        methods = [  # a full-window fit of each kind solved before an inner fit of the same problem
            MethodSpec(label="mtl_lasso", kind="mtl_lasso", theta1=(3.0,)),
            MethodSpec(label="lasso", kind="lasso", penalty=(1.0, 3.0)),
            MethodSpec(label="l21_one", kind="mtl_l21", theta1=(3.0,)),
            MethodSpec(label="l21", kind="mtl_l21", theta1=(1.0, 3.0)),
            MethodSpec(label="g_one", kind="mtl_graph", theta1=(0.5,), theta2=(1.0,)),
            MethodSpec(label="g", kind="mtl_graph", theta1=(0.5, 1.0), theta2=(1.0,)),
        ]
        run_backtest(dataset, RegionDef("SA3"), methods, plan)
        across = set()
        for n, call in enumerate(calls):
            if call.init is None:
                continue
            sources = [earlier for earlier in calls[:n] if earlier.weights is call.init]
            assert len(sources) == 1
            scored_month = call.window[1] + 1  # either window ends the month before it is scored
            assert sources[0].window[1] < scored_month
            if sources[0].window[0] < call.window[0]:  # an earlier round's window
                across.add(call.reg.kind)
        assert across == {"lasso", "group_l21", "graph"}

    def test_later_round_starts_stop_within_the_gap_of_a_tight_solve(self, monkeypatch):
        calls = record_fits(monkeypatch)
        dataset = small_market(months=8)
        plan = make_rolling_plan(dataset, k=3)
        methods = [
            MethodSpec(label="mtl_lasso", kind="mtl_lasso", theta1=(1.0,)),
            MethodSpec(label="mtl_l21", kind="mtl_l21", theta1=(1.0,)),
            MethodSpec(label="mtl_graph", kind="mtl_graph", theta1=(0.5,), theta2=(1.0,)),
        ]
        run_backtest(dataset, RegionDef("SA3"), methods, plan)
        tight = SolverParams(max_iters=100000, rel_tol=1e-14)
        later = [c for c in calls if c.init is not None]
        assert {c.reg.kind for c in later} == {"lasso", "group_l21", "graph"}
        for call in later:
            graph = build_task_graph(call.data) if call.reg.kind == "graph" else None
            value = objective(call.weights, call.data, call.reg, graph)
            best = objective(fit(call.data, call.reg, tight).weights, call.data, call.reg, graph)
            assert call.result.converged and call.result.gap <= GAP_TOL
            assert value >= best - 1e-12 * abs(best)
            assert (value - best) / value <= call.result.gap

    def test_unconverged_fits_are_logged_as_warnings(self, caplog):
        dataset = small_market()
        plan = make_rolling_plan(dataset, k=3)
        few = SolverParams(max_iters=3)
        methods = [
            MethodSpec(label="l21", kind="mtl_l21", theta1=(1.0, 3.0), solver=few),
            MethodSpec(label="g", kind="mtl_graph", theta1=(0.5,), theta2=(1.0,), solver=few),
            MethodSpec(label="ols", kind="ols"),
        ]
        with caplog.at_level(logging.WARNING, logger="mtlhouse.backtest"):
            run_backtest(dataset, RegionDef("SA3"), methods, plan)
        month = r"\d{4}-\d{2}"
        l21 = re.compile(
            rf"^region:SA3 round (\d): l21 fit at theta1=([13])\.0 on months ({month})\.\.({month}) "
            r"did not converge in 3 iterations \(relative duality gap \d\.\d\de[+-]\d\d\)$"
        )
        graph = re.compile(
            rf"^region:SA3 round (\d): g fit at theta1=0\.5, theta2=1\.0 on months ({month})\.\.({month}) "
            r"did not converge in 3 iterations \(relative duality gap \d\.\d\de[+-]\d\d\)$"
        )
        messages = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(messages) == 4 * len(plan)  # two inner and one full l21 fit, one graph fit
        assert all(l21.match(m) or graph.match(m) for m in messages)
        first = [m for m in messages if m.startswith("region:SA3 round 0:")]
        windows = {(l21.match(m) or graph.match(m)).groups()[-2:] for m in first}
        lo, hi = plan.rounds[0].train_window
        assert windows == {(month_text(lo), month_text(hi - 1)), (month_text(lo), month_text(hi))}

    @pytest.mark.parametrize(
        "kind, grids, missing",
        [
            ("mtl_l21", {}, "theta1"),
            ("mtl_graph", {"theta2": (1.0,)}, "theta1"),
            ("mtl_graph", {"theta1": (0.1,)}, "theta2"),
            ("lasso", {}, "penalty"),
        ],
    )
    def test_method_spec_needs_its_grids(self, kind, grids, missing):
        with pytest.raises(ValueError, match=f"{kind} needs a {missing} grid"):
            MethodSpec(label="x", kind=kind, **grids)

    def test_method_spec_validation(self):
        for kind in ("boosting", "svr"):
            with pytest.raises(ValueError, match="unknown method kind"):
                MethodSpec(label="x", kind=kind)
        with pytest.raises(ValueError, match="penalty values must be finite and >= 0"):
            MethodSpec(label="x", kind="ridge", penalty=(-1.0,))

    @pytest.mark.parametrize(
        "kind, grids",
        [
            ("ols", {"theta1": (1.0, 3.0)}),
            ("ridge", {"theta1": (1.0,)}),
            ("ridge", {"theta2": (1.0,)}),
            ("lasso", {"penalty": (1.0,), "theta1": (1.0,)}),
            ("ols", {"penalty": (1.0,)}),
            ("mtl_lasso", {"theta1": (1.0,), "theta2": (5.0,)}),
            ("mtl_lasso", {"theta1": (1.0,), "penalty": (2.0,)}),
            ("mtl_l21", {"theta1": (1.0,), "theta2": (5.0,)}),
            ("mtl_graph", {"theta1": (1.0,), "theta2": (5.0,), "penalty": (2.0,)}),
        ],
    )
    def test_method_spec_rejects_grids_the_kind_ignores(self, kind, grids):
        with pytest.raises(ValueError, match=f"{kind} takes no"):
            MethodSpec(label="x", kind=kind, **grids)

    def test_graph_grid_is_cartesian(self):
        spec = MethodSpec(
            label="g", kind="mtl_graph", theta1=(0.1, 1.0), theta2=(0.2, 2.0)
        )
        assert len(spec.grid_points()) == 4

    def test_ridge_without_grid_uses_per_task_cv(self):
        spec = MethodSpec(label="r", kind="ridge")
        assert spec.grid_points() == ((None,),)

    def test_each_kind_sends_its_grid_points_to_its_fit(self, monkeypatch):
        calls = []

        def fake_fit(data, reg, params, init):
            assert init is None
            calls.append(("fit", reg, params))
            return SimpleNamespace(weights="joint", converged=True)

        def fake_fit_stl(data, spec, *penalty):
            calls.append(("fit_stl", spec, penalty))
            return "per-task"

        monkeypatch.setattr(backtest, "fit", fake_fit)
        monkeypatch.setattr(backtest, "fit_stl", fake_fit_stl)
        params = SolverParams(max_iters=7)
        specs = [
            MethodSpec("a", "mtl_lasso", theta1=(1.0, 3.0), solver=params),
            MethodSpec("b", "mtl_l21", theta1=(2.0,), solver=params),
            MethodSpec("c", "mtl_graph", theta1=(0.5, 1.0), theta2=(2.0, 4.0), solver=params),
            MethodSpec("d", "ols"),
            MethodSpec("e", "ridge"),
            MethodSpec("f", "ridge", penalty=(0.5, 2.0)),
            MethodSpec("g", "lasso", penalty=(0.1,), solver=params),
        ]
        for spec in specs:
            expected = "per-task" if spec.kind in ("ols", "ridge") else "joint"
            for point in spec.grid_points():
                assert backtest._fit_point("data", spec, point, {}, "round 0") == expected
        a, b, c, d, e, f, g = specs
        assert calls == [
            ("fit", RegularizerSpec("lasso", 1.0), params),
            ("fit", RegularizerSpec("lasso", 3.0), params),
            ("fit", RegularizerSpec("group_l21", 2.0), params),
            ("fit", RegularizerSpec("graph", 0.5, 2.0), params),
            ("fit", RegularizerSpec("graph", 0.5, 4.0), params),
            ("fit", RegularizerSpec("graph", 1.0, 2.0), params),
            ("fit", RegularizerSpec("graph", 1.0, 4.0), params),
            ("fit_stl", d, ()),
            ("fit_stl", e, (None,)),
            ("fit_stl", f, (0.5,)),
            ("fit_stl", f, (2.0,)),
            ("fit", RegularizerSpec("lasso", 0.1), params),
        ]

    def test_ridge_penalty_of_zero_points_to_ols(self):
        # ridge at 0 is ols, and its normal equations are singular on dummy columns
        with pytest.raises(ValueError, match="ols"):
            MethodSpec(label="r", kind="ridge", penalty=(1.0, 0.0))
        # stl lasso at 0 is still allowed
        assert MethodSpec(label="l", kind="lasso", penalty=(0.0,)).penalty == (0.0,)


class TestRoundSharesFits:
    """A round solves each distinct problem once: the per-task lasso at penalty
    λ is the joint lasso at theta1 = λ on the same data."""

    def run(self, monkeypatch, methods):
        """The data window and theta1 of every lasso solve, and the records."""
        solves = []
        for module in (backtest, baselines):

            def counted(data, reg, params, init=None, real=module.fit):
                if reg.kind == "lasso":
                    solves.append((data.window, reg.theta1))
                return real(data, reg, params, init=init)

            monkeypatch.setattr(module, "fit", counted)
        dataset = small_market(months=7)
        plan = make_rolling_plan(dataset, k=3)
        records, _ = run_backtest(dataset, RegionDef("SA3"), methods, plan)
        return solves, records

    @staticmethod
    def csv_rows(tmp_path, records, method):
        path = tmp_path / f"{method}.csv"
        write_records_csv(path, [("SA3", r) for r in records if r.method == method])
        return [line.split(",", 2)[2] for line in path.read_text().splitlines()[1:]]

    @pytest.mark.parametrize("lasso_first", [False, True], ids=["mtl_first", "lasso_first"])
    def test_equal_points_share_one_solve(self, monkeypatch, tmp_path, lasso_first):
        methods = [
            MethodSpec(label="mtl_lasso", kind="mtl_lasso", theta1=(1.0,)),
            MethodSpec(label="lasso", kind="lasso", penalty=(1.0,)),
        ]
        if lasso_first:
            methods.reverse()
        solves, records = self.run(monkeypatch, methods)
        rounds = {r.round_index for r in records}
        assert len(rounds) == 4
        assert len(solves) == len(set(solves)) == len(rounds)  # one full-window solve per round
        assert all(hi - lo + 1 == 3 for (lo, hi), _ in solves)
        shared = self.csv_rows(tmp_path, records, "lasso")
        assert shared and shared == self.csv_rows(tmp_path, records, "mtl_lasso")

    def test_different_points_solve_apart(self, monkeypatch, tmp_path):
        methods = [
            MethodSpec(label="mtl_lasso", kind="mtl_lasso", theta1=(3.0,)),
            MethodSpec(label="lasso", kind="lasso", penalty=(1.0,)),
        ]
        solves, records = self.run(monkeypatch, methods)
        rounds = {r.round_index for r in records}
        assert sorted(theta for _, theta in solves) == [1.0] * len(rounds) + [3.0] * len(rounds)
        assert self.csv_rows(tmp_path, records, "lasso") != self.csv_rows(
            tmp_path, records, "mtl_lasso"
        )

    def test_grid_selection_shares_inner_window_solves(self, monkeypatch):
        # both grids are (1.0, 3.0): two inner-window solves and one full-window
        # solve per round, however many methods ask for them
        methods = [
            MethodSpec(label="mtl_lasso", kind="mtl_lasso", theta1=(1.0, 3.0)),
            MethodSpec(label="lasso", kind="lasso", penalty=(1.0, 3.0)),
        ]
        solves, records = self.run(monkeypatch, methods)
        rounds = {r.round_index for r in records}
        assert len(solves) == len(set(solves)) == 3 * len(rounds)
        by_method = {
            label: [(r.round_index, r.task_id, r.rmse, r.mae) for r in records if r.method == label]
            for label in ("mtl_lasso", "lasso")
        }
        assert by_method["lasso"] == by_method["mtl_lasso"]


class TestQuartileReport:
    def test_groups_cover_all_tasks(self):
        config = SyntheticConfig(
            n_tasks=8,
            n_features=3,
            samples_per_task_per_month=tuple([(1, 2)] * 2 + [(5, 9)] * 6),
            months=7,
            shared_support_size=2,
            coefficient_noise=0.02,
            observation_noise=0.1,
            seed=7,
        )
        dataset, _ = generate_synthetic(config)
        plan = make_rolling_plan(dataset, k=3)
        _, report = run_backtest(dataset, RegionDef("SA3"), mtl_ols_methods(), plan)
        grouped = [t for ids in report.quartile_tasks.values() for t in ids]
        assert sorted(grouped) == sorted(f"R{p:03d}" for p in range(8))
        for per_method in report.quartile_wld.values():
            for w, l, d in per_method.values():
                assert w + l + d >= 0

    def test_fewer_than_four_tasks_skips_quartiles(self):
        config = SyntheticConfig(
            n_tasks=2,
            n_features=2,
            samples_per_task_per_month=6,
            months=5,
            shared_support_size=1,
            coefficient_noise=0.0,
            observation_noise=0.1,
            seed=8,
        )
        dataset, _ = generate_synthetic(config)
        plan = make_rolling_plan(dataset, k=3)
        _, report = run_backtest(
            dataset, RegionDef("SA3"), [MethodSpec(label="ols", kind="ols")], plan
        )
        assert report.quartile_boundaries is None
        assert report.quartile_wld == {}
