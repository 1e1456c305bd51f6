import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import mtlhouse.baselines
from mtlhouse.backtest import MethodSpec
from mtlhouse.baselines import RIDGE_CV_GRID, cv_ridge_penalty, fit_stl
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


def solve_ridge(x, y, penalty):
    """One task's ridge weights from its normal equations; the intercept is free."""
    shrink = np.eye(x.shape[1])
    shrink[-1, -1] = 0.0
    return np.linalg.solve(x.T @ x + penalty * shrink, x.T @ y)


def dense_task(rng, m, d):
    """m rows of d - 1 normal columns and the intercept, with a noisy linear target."""
    x = np.hstack([rng.normal(0, 1, (m, d - 1)), np.ones((m, 1))])
    return x, x @ rng.normal(0, 1, d) + rng.normal(0, 0.5, m)


def fold_sses(x, y, grid=RIDGE_CV_GRID):
    """Held-out SSE of each penalty over cv_ridge_penalty's contiguous folds."""
    m = x.shape[0]
    sses = []
    for penalty in grid:
        sse = 0.0
        for fold in np.array_split(np.arange(m), min(5, m)):
            mask = np.ones(m, dtype=bool)
            mask[fold] = False
            residual = x[fold] @ solve_ridge(x[mask], y[mask], penalty) - y[fold]
            sse += float(residual @ residual)
        sses.append(sse)
    return sses


def cv_oracle(x, y, grid=RIDGE_CV_GRID):
    """The penalty one ridge solve per (penalty, fold) picks: the first strict
    minimum of :func:`fold_sses`; a task of one row takes the grid middle."""
    if x.shape[0] < 2:
        return grid[len(grid) // 2]
    best, best_sse = grid[0], np.inf
    for penalty, sse in zip(grid, fold_sses(x, y, grid)):
        if sse < best_sse:
            best, best_sse = penalty, sse
    return best


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
        [a] = cv_ridge_penalty([data.xs[0]], [data.ys[0]])
        [b] = cv_ridge_penalty([data.xs[0]], [data.ys[0]])
        assert a == b
        assert a in RIDGE_CV_GRID

    def test_tiny_task_falls_back_to_grid_middle(self):
        x = np.array([[1.0, 1.0]])
        y = np.array([13.0])
        assert cv_ridge_penalty([x], [y])[0] == RIDGE_CV_GRID[len(RIDGE_CV_GRID) // 2]

    def test_matches_fold_sse_oracle(self):
        rng = np.random.default_rng(11)
        x = np.hstack([rng.normal(0, 1, (11, 4)), np.ones((11, 1))])
        y = rng.normal(13, 0.5, 11)
        [chosen] = cv_ridge_penalty([x], [y])
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
                w = solve_ridge(x[mask], y[mask], penalty)
                residual = x[fold] @ w - y[fold]
                sse += float(residual @ residual)
            if sse < best_sse:
                best, best_sse = penalty, sse
        assert cv_ridge_penalty([x], [y], grid)[0] == best

    def test_tie_picks_first_grid_point(self):
        # an unpenalized intercept-only model is the same fit for every penalty
        x = np.ones((12, 1))
        y = np.random.default_rng(3).normal(13, 0.5, 12)
        assert cv_ridge_penalty([x], [y])[0] == RIDGE_CV_GRID[0]
        assert cv_ridge_penalty([x], [y], grid=(1.0, 0.1, 10.0))[0] == 1.0

    def test_nan_sse_is_never_chosen(self):
        data = well_conditioned(seed=5)
        y = data.ys[0].copy()
        y[7] = np.nan
        assert cv_ridge_penalty([data.xs[0]], [y])[0] == RIDGE_CV_GRID[0]
        assert cv_ridge_penalty([data.xs[0]], [y], grid=(1.0, 0.1, 10.0))[0] == 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=6),
        d=st.integers(1, 8),
        custom_grid=st.booleans(),
    )
    def test_stacked_pick_is_each_tasks_own(self, seed, sizes, d, custom_grid):
        # tasks of one width and mixed row counts, fewer rows than folds
        # included, pick as they would alone and as the per-penalty loop does
        rng = np.random.default_rng(seed)
        xs, ys = zip(*(dense_task(rng, m, d) for m in sizes))
        grid = (3.0, 0.02, 0.5, 40.0) if custom_grid else RIDGE_CV_GRID
        stacked = cv_ridge_penalty(xs, ys, grid)
        assert stacked.shape == (len(sizes),)
        for x, y, chosen in zip(xs, ys, stacked):
            assert chosen == cv_ridge_penalty([x], [y], grid)[0]
            assert chosen == cv_oracle(x, y, grid)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(2, 40), min_size=2, max_size=6),
        data=st.data(),
    )
    def test_nan_target_leaves_other_tasks_picks(self, seed, sizes, data):
        rng = np.random.default_rng(seed)
        xs, ys = zip(*(dense_task(rng, m, 4) for m in sizes))
        poisoned = data.draw(st.integers(0, len(sizes) - 1))
        row = data.draw(st.integers(0, sizes[poisoned] - 1))
        nan_ys = [y.copy() for y in ys]
        nan_ys[poisoned][row] = np.nan
        clean = cv_ridge_penalty(xs, ys)
        dirty = cv_ridge_penalty(xs, nan_ys)
        others = [t for t in range(len(sizes)) if t != poisoned]
        assert np.array_equal(clean[others], dirty[others])

    def test_nan_penalty_is_never_chosen(self):
        # a NaN penalty gives a NaN SSE for that penalty alone
        data = well_conditioned(seed=5)
        nan_grid = (1.0, float("nan"), 0.1, 10.0)
        picks = cv_ridge_penalty(data.xs, data.ys, nan_grid)
        assert picks.tolist() == cv_ridge_penalty(data.xs, data.ys, (1.0, 0.1, 10.0)).tolist()

    def test_one_row_folds_tie_as_the_per_penalty_loop_does(self):
        # A task of two rows trains on one row: every penalty fits that row
        # exactly, so the picks differ only by rounding noise, which must be
        # the per-penalty loop's, alone and where a long task pads the folds.
        rng = np.random.default_rng(21)
        xs, ys = zip(*(dense_task(rng, m, 8) for m in [2] * 300 + [40]))
        expected = [cv_oracle(x, y) for x, y in zip(xs, ys)]
        assert cv_ridge_penalty(xs, ys).tolist() == expected
        assert [cv_ridge_penalty([x], [y])[0] for x, y in zip(xs, ys)] == expected

    def test_one_stacked_solve_per_fold(self, monkeypatch):
        calls = []
        solve = np.linalg.solve

        def counting_solve(a, b):
            calls.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        data = well_conditioned(seed=6)
        # every task of the call, one-row ones aside, in one (task, penalty) stack
        xs = list(data.xs) + [data.xs[0][:1], data.xs[1][:3]]
        ys = list(data.ys) + [data.ys[0][:1], data.ys[1][:3]]
        cv_ridge_penalty(xs, ys)
        assert calls == [(len(xs) - 1, len(RIDGE_CV_GRID), 5, 5)] * 5
        cv_ridge_penalty(xs[-2:-1], ys[-2:-1])
        assert len(calls) == 5

    def test_fit_stl_calls_module_function_once_per_support_width(self, monkeypatch):
        # once per support width, with that width's tasks on their support columns
        rng = np.random.default_rng(17)
        xs, ys = zip(*(sparse_task(rng, m) for m in (1, 3, 12, 30, 7, 20, 2, 9)))
        data = TaskData.from_arrays(xs, ys)
        widths = [int(np.count_nonzero(np.any(x != 0.0, axis=0))) for x in xs]
        assert max(widths) < data.n_columns
        assert len(set(widths)) < len(widths)
        calls = []
        original = mtlhouse.baselines.cv_ridge_penalty

        def recording(xs, ys):
            calls.append([x.shape for x in xs])
            return original(xs, ys)

        monkeypatch.setattr(mtlhouse.baselines, "cv_ridge_penalty", recording)
        fit_stl(data, RIDGE)
        assert calls == [
            [(x.shape[0], w) for x, w in zip(xs, widths) if w == width]
            for width in sorted(set(widths))
        ]
        calls.clear()
        fit_stl(data, RIDGE, 0.5)
        assert calls == []

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 30), min_size=1, max_size=8),
        penalty=st.sampled_from((0.01, 0.3, 1.0, 25.0)),
    )
    def test_fit_stl_ridge_is_the_per_task_solve(self, seed, sizes, penalty):
        # mixed support widths: each task's weights are its own normal
        # equations on its support, solved alone, with its own CV pick
        rng = np.random.default_rng(seed)
        xs, ys = zip(*(sparse_task(rng, m) for m in sizes))
        data = TaskData.from_arrays(xs, ys)
        ridge_cv = fit_stl(data, RIDGE).values
        ridge = fit_stl(data, RIDGE, penalty).values
        for p, (x, y, support) in enumerate(zip(xs, ys, data.supports)):
            x = x[:, support]
            [chosen] = cv_ridge_penalty([x], [y])
            for values, lam in ((ridge_cv, chosen), (ridge, penalty)):
                expected = np.zeros(data.n_columns)
                expected[support] = solve_ridge(x, y, lam)
                assert np.array_equal(values[:, p], expected)


class TestSupportFits:
    """OLS, ridge and ridge CV fitted on each task's support columns match the
    full-width fits, which give an all-zero column a zero weight."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=3),
        penalty=st.sampled_from((0.01, 0.3, 1.0, 25.0)),
    )
    # an OLS weight of 532, on which the two lstsq calls differ by 6e-13 relative
    @example(seed=38, sizes=[38, 38, 5], penalty=0.01)
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
        ridge_cv = fit_stl(data, RIDGE).values
        ols = fit_stl(data, OLS).values
        ridge = fit_stl(data, RIDGE, penalty).values
        for p, (x, y) in enumerate(zip(xs, ys)):
            unused = ~np.any(x != 0.0, axis=0)
            assert np.all(ols[unused, p] == 0.0)
            assert np.all(ridge[unused, p] == 0.0)
            assert np.all(ridge_cv[unused, p] == 0.0)
            full_ols = np.linalg.lstsq(x, y, rcond=None)[0]
            # absolute for weights up to 1, relative beyond
            assert np.max(np.abs(ols[:, p] - full_ols)) <= 1e-10 + 1e-12 * np.max(np.abs(full_ols))
            full_ridge = solve_ridge(x, y, penalty)
            assert np.max(np.abs(ridge[:, p] - full_ridge)) <= 1e-10
            support = data.supports[p]
            [chosen] = cv_ridge_penalty([x[:, support]], [y])
            assert chosen == cv_ridge_penalty([x], [y])[0]
