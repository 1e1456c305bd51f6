from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import mtlhouse.baselines
from mtlhouse.backtest import MethodSpec
from mtlhouse.baselines import (
    RIDGE_CV_GRID,
    _solve_ridge,
    cv_ridge_penalty,
    fit_stl,
)
from mtlhouse.design import TaskData
from mtlhouse.solver import RegularizerSpec, SolverParams, fit


def well_conditioned(seed=14, n_tasks=4, rows=30, cols=5):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for _ in range(n_tasks):
        x = np.hstack([rng.normal(0, 1, (rows, cols - 1)), np.ones((rows, 1))])
        w = rng.normal(0, 0.5, cols)
        w[-1] = 13.0
        xs.append(x)
        ys.append(x @ w + rng.normal(0, 0.1, rows))
    return TaskData.from_arrays(xs, ys)


def sparse_task(rng, m, n_categories=6):
    """One task's rows in a layout wider than the task uses: three numeric
    columns, one of them zero throughout; one-hot dummies of which the task
    touches only a few categories; and the intercept, which the dummies sum to."""
    numeric = rng.normal(0, 1, (m, 3))
    numeric[:, rng.integers(3)] = 0.0
    own = rng.choice(n_categories, size=rng.integers(1, 4), replace=False)
    dummies = np.zeros((m, n_categories))
    dummies[np.arange(m), rng.choice(own, size=m)] = 1.0
    x = np.hstack([numeric, dummies, np.ones((m, 1))])
    y = x @ rng.normal(0, 1, x.shape[1]) + rng.normal(0, 0.5, m)
    return x, y


def fold_sses(x, y, grid=RIDGE_CV_GRID):
    """Held-out SSE of each penalty over cv_ridge_penalty's contiguous folds."""
    m = x.shape[0]
    sses = []
    for penalty in grid:
        sse = 0.0
        for fold in np.array_split(np.arange(m), min(5, m)):
            mask = np.ones(m, dtype=bool)
            mask[fold] = False
            residual = x[fold] @ _solve_ridge(x[mask], y[mask], penalty) - y[fold]
            sse += float(residual @ residual)
        sses.append(sse)
    return sses


OLS = MethodSpec("ols", "ols")
RIDGE = MethodSpec("ridge", "ridge")


def lasso(penalty, solver=SolverParams()):
    return MethodSpec("lasso", "lasso", penalty=(penalty,), solver=solver)


class TestDirectCalls:
    def test_bad_kind_or_penalty_rejected(self):
        data = well_conditioned()
        for spec, penalty in (
            (MethodSpec("m", "mtl_lasso", theta1=(1.0,)), 1.0),
            (RIDGE, -1.0),
            (lasso(0.5), None),
        ):
            with pytest.raises(ValueError):
                fit_stl(data, spec, penalty)


class TestOlsRidge:
    def test_ridge_zero_penalty_equals_ols(self):
        data = well_conditioned()
        ols = fit_stl(data, OLS)
        ridge = fit_stl(data, RIDGE, 0.0)
        assert np.max(np.abs(ols.values - ridge.values)) <= 1e-10

    def test_one_sample_ridge_matches_tiny_system_oracle(self):
        x = np.array([[2.0, -1.0, 1.0]])  # one record, intercept last
        y = np.array([13.2])
        data = TaskData.from_arrays([x], [y])
        result = fit_stl(data, RIDGE, 1.0)
        shrink = np.diag([1.0, 1.0, 0.0])
        expected = np.linalg.solve(x.T @ x + shrink, x.T @ y)
        assert np.max(np.abs(result.values[:, 0] - expected)) <= 1e-12

    def test_singular_ols_lstsq_fallback_is_minimum_norm(self):
        rng = np.random.default_rng(4)
        x = np.hstack([rng.normal(0, 1, (2, 4)), np.ones((2, 1))])
        y = np.array([13.0, 13.5])
        data = TaskData.from_arrays([x], [y])
        result = fit_stl(data, OLS)
        expected = np.linalg.pinv(x) @ y
        assert np.max(np.abs(result.values[:, 0] - expected)) <= 1e-10
        # the fallback interpolates the training rows
        assert np.max(np.abs(x @ result.values[:, 0] - y)) <= 1e-10

    def test_ols_is_one_lstsq_call_without_a_rank_check(self, monkeypatch):
        # a region task's coarser-region dummy equals its intercept, so x is
        # rank-deficient, as the per-task designs of region definitions are
        rng = np.random.default_rng(9)
        m = 12
        x = np.hstack([rng.normal(0, 1, (m, 3)), np.ones((m, 1)), np.ones((m, 1))])
        y = rng.normal(13, 0.5, m)
        expected = np.linalg.lstsq(x, y, rcond=None)[0]

        def no_rank_check(*args, **kwargs):
            raise AssertionError("OLS must not run a separate rank check")

        monkeypatch.setattr(np.linalg, "matrix_rank", no_rank_check)
        result = fit_stl(TaskData.from_arrays([x], [y]), OLS)
        assert np.array_equal(result.values[:, 0], expected)

    def test_ridge_norm_nonincreasing_in_penalty(self):
        data = well_conditioned(seed=6)
        norms = []
        for penalty in (0.0, 0.1, 1.0, 10.0, 100.0):
            weights = fit_stl(data, RIDGE, penalty)
            norms.append(float(np.linalg.norm(weights.values[:-1])))
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


class TestLasso:
    def test_equals_multi_task_fit_with_single_task(self):
        data = well_conditioned()
        params = SolverParams(max_iters=20000, rel_tol=1e-12)
        stl = fit_stl(data, lasso(0.8, params), 0.8)
        for p in range(data.n_tasks):
            single = TaskData.from_arrays(
                [data.xs[p]], [data.ys[p]], [data.task_ids[p]]
            )
            mtl = fit(single, RegularizerSpec("lasso", 0.8), params)
            assert np.max(np.abs(stl.values[:, p] - mtl.weights.values[:, 0])) <= 1e-8

    def test_is_one_solver_call_for_every_task(self, monkeypatch):
        calls = []
        original = mtlhouse.baselines.fit

        def counting(data, reg, params):
            calls.append((data.task_ids, reg))
            return original(data, reg, params)

        monkeypatch.setattr(mtlhouse.baselines, "fit", counting)
        data = well_conditioned(seed=8)
        weights = fit_stl(data, lasso(0.5), 0.5)
        assert calls == [(data.task_ids, RegularizerSpec("lasso", 0.5))]
        assert weights.task_ids == data.task_ids


class TestIndependence:
    def test_perturbing_one_task_leaves_others_bit_identical(self):
        data = well_conditioned(seed=8)
        perturbed_ys = list(data.ys)
        perturbed_ys[2] = perturbed_ys[2] + 5.0
        perturbed = TaskData.from_arrays(data.xs, perturbed_ys, data.task_ids)
        for spec, penalty in (
            (OLS, None),
            (RIDGE, 0.5),
            (RIDGE, None),  # CV path
            (lasso(0.5), 0.5),
        ):
            base = fit_stl(data, spec, penalty)
            other = fit_stl(perturbed, spec, penalty)
            for p in (0, 1, 3):
                assert np.array_equal(base.values[:, p], other.values[:, p])
            assert not np.array_equal(base.values[:, 2], other.values[:, 2])


class TestRidgeCv:
    def test_deterministic(self):
        data = well_conditioned(seed=10)
        a = cv_ridge_penalty(data.xs[0], data.ys[0])
        b = cv_ridge_penalty(data.xs[0], data.ys[0])
        assert a == b
        assert a in RIDGE_CV_GRID

    def test_tiny_task_falls_back_to_grid_middle(self):
        x = np.array([[1.0, 1.0]])
        y = np.array([13.0])
        assert cv_ridge_penalty(x, y) == RIDGE_CV_GRID[len(RIDGE_CV_GRID) // 2]

    def test_matches_fold_sse_oracle(self):
        rng = np.random.default_rng(11)
        x = np.hstack([rng.normal(0, 1, (11, 4)), np.ones((11, 1))])
        y = rng.normal(13, 0.5, 11)
        chosen = cv_ridge_penalty(x, y)
        # independent re-enumeration of the contiguous 5-fold selection
        folds = np.array_split(np.arange(11), 5)
        best, best_sse = None, np.inf
        shrink = np.eye(5)
        shrink[-1, -1] = 0.0
        for penalty in RIDGE_CV_GRID:
            sse = 0.0
            for fold in folds:
                mask = np.ones(11, dtype=bool)
                mask[fold] = False
                xt, yt = x[mask], y[mask]
                w = np.linalg.solve(xt.T @ xt + penalty * shrink, xt.T @ yt)
                sse += float(np.sum((x[fold] @ w - y[fold]) ** 2))
            if sse < best_sse:
                best, best_sse = penalty, sse
        assert chosen == best

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(2, 40),
        d=st.integers(2, 8),
        custom_grid=st.booleans(),
    )
    def test_matches_per_penalty_loop_oracle(self, seed, m, d, custom_grid):
        rng = np.random.default_rng(seed)
        x = np.hstack([rng.normal(0, 1, (m, d - 1)), np.ones((m, 1))])
        y = x @ rng.normal(0, 1, d) + rng.normal(0, 0.5, m)
        grid = (3.0, 0.02, 0.5, 40.0) if custom_grid else RIDGE_CV_GRID
        # one ridge solve per (penalty, fold), first strict minimum wins
        folds = np.array_split(np.arange(m), min(5, m))
        best, best_sse = grid[0], np.inf
        for penalty in grid:
            sse = 0.0
            for fold in folds:
                mask = np.ones(m, dtype=bool)
                mask[fold] = False
                w = _solve_ridge(x[mask], y[mask], penalty)
                residual = x[fold] @ w - y[fold]
                sse += float(residual @ residual)
            if sse < best_sse:
                best, best_sse = penalty, sse
        assert cv_ridge_penalty(x, y, grid) == best

    def test_tie_picks_first_grid_point(self):
        # an unpenalized intercept-only model is the same fit for every penalty
        x = np.ones((12, 1))
        y = np.random.default_rng(3).normal(13, 0.5, 12)
        assert cv_ridge_penalty(x, y) == RIDGE_CV_GRID[0]
        assert cv_ridge_penalty(x, y, grid=(1.0, 0.1, 10.0)) == 1.0

    def test_nan_sse_is_never_chosen(self):
        data = well_conditioned(seed=5)
        y = data.ys[0].copy()
        y[7] = np.nan
        assert cv_ridge_penalty(data.xs[0], y) == RIDGE_CV_GRID[0]
        assert cv_ridge_penalty(data.xs[0], y, grid=(1.0, 0.1, 10.0)) == 1.0

    def test_one_stacked_solve_per_call(self, monkeypatch):
        calls = []
        solve = np.linalg.solve

        def counting_solve(a, b):
            calls.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        data = well_conditioned(seed=6)
        cv_ridge_penalty(data.xs[0], data.ys[0])
        assert calls == [(5, len(RIDGE_CV_GRID), 5, 5)]
        cv_ridge_penalty(data.xs[0][:1], data.ys[0][:1])
        assert len(calls) == 1

    def test_fit_stl_calls_module_function_once_per_task(self, monkeypatch):
        # once per task, on the task's support columns only
        rng = np.random.default_rng(17)
        xs, ys = zip(*(sparse_task(rng, m) for m in (1, 3, 12, 30)))
        data = TaskData.from_arrays(xs, ys)
        widths = [int(np.count_nonzero(np.any(x != 0.0, axis=0))) for x in xs]
        assert max(widths) < data.n_columns
        shapes = []
        original = mtlhouse.baselines.cv_ridge_penalty

        def recording(x, y):
            shapes.append(x.shape)
            return original(x, y)

        monkeypatch.setattr(mtlhouse.baselines, "cv_ridge_penalty", recording)
        fit_stl(data, RIDGE)
        assert shapes == [(x.shape[0], w) for x, w in zip(xs, widths)]


class TestSupportFits:
    """OLS, ridge and ridge CV fitted on each task's support columns match the
    full-width fits, which give an all-zero column a zero weight."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=3),
        penalty=st.sampled_from((0.01, 0.3, 1.0, 25.0)),
    )
    def test_match_full_width_fits(self, seed, sizes, penalty):
        rng = np.random.default_rng(seed)
        xs, ys = zip(*(sparse_task(rng, m) for m in sizes))
        # every task's m >= 2 has one clear best penalty: ties may be split
        # either way by rounding, in the full-width fit as in the support fit
        for x, y in zip(xs, ys):
            if x.shape[0] >= 2:
                best, runner_up = sorted(fold_sses(x, y))[:2]
                assume(runner_up - best > 1e-8 * best)
        data = TaskData.from_arrays(xs, ys)
        chosen = []

        def recording(x, y):
            chosen.append(cv_ridge_penalty(x, y))
            return chosen[-1]

        with mock.patch.object(mtlhouse.baselines, "cv_ridge_penalty", recording):
            ridge_cv = fit_stl(data, RIDGE).values
        ols = fit_stl(data, OLS).values
        ridge = fit_stl(data, RIDGE, penalty).values
        for p, (x, y) in enumerate(zip(xs, ys)):
            unused = ~np.any(x != 0.0, axis=0)
            assert np.all(ols[unused, p] == 0.0)
            assert np.all(ridge[unused, p] == 0.0)
            assert np.all(ridge_cv[unused, p] == 0.0)
            full_ols = np.linalg.lstsq(x, y, rcond=None)[0]
            assert np.max(np.abs(ols[:, p] - full_ols)) <= 1e-10
            full_ridge = _solve_ridge(x, y, penalty)
            assert np.max(np.abs(ridge[:, p] - full_ridge)) <= 1e-10
            assert chosen[p] == cv_ridge_penalty(x, y)
