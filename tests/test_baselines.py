import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mtlhouse.baselines
from mtlhouse.baselines import (
    RIDGE_CV_GRID,
    StlSpec,
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


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            StlSpec("svr")
        with pytest.raises(ValueError):
            StlSpec("ridge", penalty=-1.0)
        with pytest.raises(ValueError):
            StlSpec("lasso")  # penalty required


class TestOlsRidge:
    def test_ridge_zero_penalty_equals_ols(self):
        data = well_conditioned()
        ols = fit_stl(data, StlSpec("ols"))
        ridge = fit_stl(data, StlSpec("ridge", penalty=0.0))
        assert np.max(np.abs(ols.values - ridge.values)) <= 1e-10

    def test_one_sample_ridge_matches_tiny_system_oracle(self):
        x = np.array([[2.0, -1.0, 1.0]])  # one record, intercept last
        y = np.array([13.2])
        data = TaskData.from_arrays([x], [y])
        result = fit_stl(data, StlSpec("ridge", penalty=1.0))
        shrink = np.diag([1.0, 1.0, 0.0])
        expected = np.linalg.solve(x.T @ x + shrink, x.T @ y)
        assert np.max(np.abs(result.values[:, 0] - expected)) <= 1e-12

    def test_singular_ols_lstsq_fallback_is_minimum_norm(self):
        rng = np.random.default_rng(4)
        x = np.hstack([rng.normal(0, 1, (2, 4)), np.ones((2, 1))])
        y = np.array([13.0, 13.5])
        data = TaskData.from_arrays([x], [y])
        result = fit_stl(data, StlSpec("ols"))
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
        result = fit_stl(TaskData.from_arrays([x], [y]), StlSpec("ols"))
        assert np.array_equal(result.values[:, 0], expected)

    def test_ridge_norm_nonincreasing_in_penalty(self):
        data = well_conditioned(seed=6)
        norms = []
        for penalty in (0.0, 0.1, 1.0, 10.0, 100.0):
            weights = fit_stl(data, StlSpec("ridge", penalty=penalty))
            norms.append(float(np.linalg.norm(weights.values[:-1])))
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


class TestLasso:
    def test_equals_multi_task_fit_with_single_task(self):
        data = well_conditioned()
        params = SolverParams(max_iters=20000, rel_tol=1e-12)
        stl = fit_stl(data, StlSpec("lasso", penalty=0.8), params)
        for p in range(data.n_tasks):
            single = TaskData.from_arrays(
                [data.xs[p]], [data.ys[p]], [data.task_ids[p]]
            )
            mtl = fit(single, RegularizerSpec("lasso", 0.8), params)
            assert np.max(np.abs(stl.values[:, p] - mtl.weights.values[:, 0])) <= 1e-8


class TestIndependence:
    def test_perturbing_one_task_leaves_others_bit_identical(self):
        data = well_conditioned(seed=8)
        perturbed_ys = list(data.ys)
        perturbed_ys[2] = perturbed_ys[2] + 5.0
        perturbed = TaskData.from_arrays(data.xs, perturbed_ys, data.task_ids)
        for spec in (
            StlSpec("ols"),
            StlSpec("ridge", penalty=0.5),
            StlSpec("ridge"),  # CV path
            StlSpec("lasso", penalty=0.5),
        ):
            base = fit_stl(data, spec)
            other = fit_stl(perturbed, spec)
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
        calls = []
        original = mtlhouse.baselines.cv_ridge_penalty

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(mtlhouse.baselines, "cv_ridge_penalty", counting)
        data = well_conditioned(seed=8)
        fit_stl(data, StlSpec("ridge"))
        assert len(calls) == data.n_tasks
