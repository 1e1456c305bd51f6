import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mtlhouse.design import TaskData, WeightMatrix
from mtlhouse.solver import (
    GAP_TOL,
    DivergenceError,
    FitResult,
    RegularizerSpec,
    SolverParams,
    TaskGraph,
    _exact_values,
    _graph_laplacian,
    _graph_quadratic,
    _momentum,
    _prox_step,
    _relative_gaps,
    _residual,
    _row_norms,
    _Smooth,
    build_task_graph,
    fit,
    nonsmooth_penalty,
    objective,
    prox_l1,
    prox_l21,
    smooth_gradient,
    smooth_objective,
)


def random_task_data(rng, n_tasks=3, n_columns=4, max_rows=12, y_level=13.0):
    """Random tasks with a trailing intercept column."""
    xs, ys = [], []
    for _ in range(n_tasks):
        m = int(rng.integers(3, max_rows + 1))
        x = np.hstack([rng.normal(0, 1, (m, n_columns - 1)), np.ones((m, 1))])
        xs.append(x)
        ys.append(rng.normal(y_level, 1.0, m))
    return TaskData.from_arrays(xs, ys)


def scalar_loop_objective(W, data, reg, graph=None):
    """Independent elementwise evaluation of loss + penalty."""
    total = 0.0
    for p in range(data.n_tasks):
        x, y = data.xs[p], data.ys[p]
        for i in range(x.shape[0]):
            pred = sum(x[i, j] * W[j, p] for j in range(x.shape[1]))
            total += (pred - y[i]) ** 2
    rows = range(W.shape[0] - 1)  # the intercept row is never penalized
    if reg.kind == "lasso":
        total += reg.theta1 * sum(abs(W[i, p]) for i in rows for p in range(W.shape[1]))
    elif reg.kind == "group_l21":
        for i in rows:
            total += reg.theta1 * math.sqrt(sum(W[i, p] ** 2 for p in range(W.shape[1])))
    else:
        for p in range(W.shape[1]):
            for q in range(W.shape[1]):
                if p == q:
                    continue
                diff = sum((W[i, p] - W[i, q]) ** 2 for i in rows)
                total += reg.theta1 * graph.weights[p, q] * diff
        for i in rows:
            total += reg.theta2 * math.sqrt(sum(W[i, p] ** 2 for p in range(W.shape[1])))
    return total


class TestObjective:
    def test_zero_weights_give_pure_target_norm(self):
        rng = np.random.default_rng(1)
        data = random_task_data(rng)
        W = np.zeros((data.n_columns, data.n_tasks))
        expected = sum(float(y @ y) for y in data.ys)
        for reg in (
            RegularizerSpec("lasso", 0.7),
            RegularizerSpec("group_l21", 0.7),
        ):
            assert objective(W, data, reg) == pytest.approx(expected, rel=1e-12)
        graph = build_task_graph(data)
        reg = RegularizerSpec("graph", 0.7, 0.3)
        assert objective(W, data, reg, graph) == pytest.approx(expected, rel=1e-12)

    def test_zero_penalty_equals_squared_loss(self):
        rng = np.random.default_rng(2)
        data = random_task_data(rng)
        W = rng.normal(0, 1, (data.n_columns, data.n_tasks))
        loss = sum(
            float(np.sum((data.xs[p] @ W[:, p] - data.ys[p]) ** 2))
            for p in range(data.n_tasks)
        )
        assert objective(W, data, RegularizerSpec("lasso", 0.0)) == pytest.approx(loss)
        graph = build_task_graph(data)
        assert objective(
            W, data, RegularizerSpec("graph", 0.0, 0.0), graph
        ) == pytest.approx(loss)

    @pytest.mark.parametrize("kind", ["lasso", "group_l21", "graph"])
    def test_matches_scalar_loop_oracle(self, kind):
        rng = np.random.default_rng(7)
        data = random_task_data(rng, n_tasks=3, n_columns=4)
        theta2 = 0.4 if kind == "graph" else None
        reg = RegularizerSpec(kind, 0.9, theta2)
        graph = build_task_graph(data) if kind == "graph" else None
        for _ in range(5):
            W = rng.normal(0, 1, (4, 3))
            expected = scalar_loop_objective(W, data, reg, graph)
            assert objective(W, data, reg, graph) == pytest.approx(expected, rel=1e-10)

    def test_graph_term_near_consensus_matches_pairwise_differences(self):
        rng = np.random.default_rng(8)
        weights = build_task_graph(random_task_data(rng, n_tasks=20)).weights
        consensus = rng.normal(0, 1, (6, 1)) * np.ones((6, 20))
        for V in (consensus + 1e-6 * rng.normal(0, 1, (6, 20)), rng.normal(0, 1, (6, 20))):
            expected = math.fsum(
                weights[p, q] * math.fsum((V[:, p] - V[:, q]) ** 2)
                for p in range(20)
                for q in range(20)
                if p != q
            )
            value = _graph_quadratic(V, _graph_laplacian(weights))
            assert value == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        data = random_task_data(rng)
        with pytest.raises(ValueError, match="shape"):
            objective(np.zeros((2, 2)), data, RegularizerSpec("lasso", 0.1))

    def test_graph_required_iff_graph_kind(self):
        rng = np.random.default_rng(3)
        data = random_task_data(rng)
        W = np.zeros((data.n_columns, data.n_tasks))
        with pytest.raises(ValueError, match="TaskGraph"):
            objective(W, data, RegularizerSpec("graph", 0.1, 0.1))
        with pytest.raises(ValueError):
            objective(W, data, RegularizerSpec("lasso", 0.1), build_task_graph(data))


class TestSmoothGradient:
    def test_zero_at_least_squares_solution(self):
        rng = np.random.default_rng(11)
        data = random_task_data(rng, max_rows=20)
        W = np.column_stack(
            [
                np.linalg.solve(x.T @ x, x.T @ y)
                for x, y in zip(data.xs, data.ys)
            ]
        )
        grad = smooth_gradient(W, data, RegularizerSpec("lasso", 0.0))
        assert np.max(np.abs(grad)) < 1e-8

    def test_graph_term_vanishes_for_equal_columns(self):
        rng = np.random.default_rng(12)
        data = random_task_data(rng)
        graph = build_task_graph(data)
        column = rng.normal(0, 1, data.n_columns)
        W = np.tile(column[:, None], (1, data.n_tasks))
        with_graph = smooth_gradient(W, data, RegularizerSpec("graph", 5.0, 0.0), graph)
        without = smooth_gradient(W, data, RegularizerSpec("lasso", 0.0))
        assert np.allclose(with_graph, without, atol=1e-9)

    @pytest.mark.parametrize("kind", ["lasso", "group_l21", "graph"])
    def test_matches_central_finite_differences(self, kind):
        step = 1e-6
        worst = 0.0
        for trial in range(20):
            rng = np.random.default_rng(1000 + trial)
            data = random_task_data(
                rng, n_tasks=int(rng.integers(2, 6)), n_columns=int(rng.integers(3, 9))
            )
            theta2 = 0.3 if kind == "graph" else None
            reg = RegularizerSpec(kind, 0.8, theta2)
            graph = build_task_graph(data) if kind == "graph" else None
            W = rng.normal(0, 1, (data.n_columns, data.n_tasks))
            grad = smooth_gradient(W, data, reg, graph)
            fd = np.zeros_like(grad)
            for i in range(W.shape[0]):
                for j in range(W.shape[1]):
                    up, down = W.copy(), W.copy()
                    up[i, j] += step
                    down[i, j] -= step
                    fd[i, j] = (
                        smooth_objective(up, data, reg, graph)
                        - smooth_objective(down, data, reg, graph)
                    ) / (2 * step)
            rel = np.linalg.norm(fd - grad) / max(1.0, np.linalg.norm(fd))
            worst = max(worst, rel)
        assert worst <= 1e-5


def explicit_hessian(data, reg, graph):
    """Hessian of the smooth part, column by column; exact for a quadratic."""
    shape = (data.n_columns, data.n_tasks)
    base = smooth_gradient(np.zeros(shape), data, reg, graph)
    columns = []
    for index in np.ndindex(shape):
        unit = np.zeros(shape)
        unit[index] = 1.0
        columns.append((smooth_gradient(unit, data, reg, graph) - base).ravel())
    return np.column_stack(columns)


def largest_eigenvalue(H):
    return float(np.linalg.eigvalsh(0.5 * (H + H.T))[-1])


class TestLipschitz:
    @pytest.mark.parametrize("kind", ["lasso", "group_l21", "graph"])
    def test_matches_explicit_hessian(self, kind):
        rng = np.random.default_rng(21)
        data = random_task_data(rng, n_tasks=4, n_columns=5)
        theta2 = 0.4 if kind == "graph" else None
        reg = RegularizerSpec(kind, 2.5, theta2)
        graph = build_task_graph(data) if kind == "graph" else None
        L = _Smooth(data, reg, graph).lipschitz()
        H = explicit_hessian(data, reg, graph)
        if kind != "graph":
            assert L == pytest.approx(largest_eigenvalue(H), rel=1e-10)
            return
        # graph: the loss and coupling parts' largest eigenvalues, summed
        H_loss = explicit_hessian(data, RegularizerSpec("lasso", 0.0), None)
        parts = largest_eigenvalue(H_loss) + largest_eigenvalue(H - H_loss)
        assert L == pytest.approx(parts, rel=1e-10)
        assert L >= largest_eigenvalue(H) * (1 - 1e-10)

    def test_task_eigenvalues_are_computed_once_per_task_data(self, monkeypatch):
        data = random_task_data(np.random.default_rng(22), n_tasks=4, n_columns=5)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        first = fit(data, RegularizerSpec("lasso", 0.5))
        second = fit(data, RegularizerSpec("lasso", 0.5))
        assert len(calls) == len(data.support_grams) == 1  # one stacked call per support width
        assert first.weights.values.tobytes() == second.weights.values.tobytes()
        expected = [2.0 * float(eigvalsh(x.T @ x)[-1]) for x in data.xs]
        assert list(_Smooth(data, RegularizerSpec("lasso", 0.5), None).task_lipschitz()) == expected


class TestProxL1:
    def test_zero_fixed_point(self):
        V = np.zeros((4, 3))
        assert np.array_equal(prox_l1(V, 2.5, skip_intercept_row=False), V)

    def test_closed_form_entries(self):
        V = np.array([[2.0, -0.5], [0.0, 0.0]])
        out = prox_l1(V, 1.0, skip_intercept_row=False)
        assert out[0, 0] == 1.0
        assert out[0, 1] == 0.0

    def test_intercept_row_passthrough(self):
        V = np.array([[2.0], [5.0]])
        out = prox_l1(V, 10.0, skip_intercept_row=True)
        assert out[0, 0] == 0.0
        assert out[1, 0] == 5.0

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            V = rng.normal(0, 2, (3, 3))
            threshold = float(rng.uniform(0.1, 2.0))
            out = prox_l1(V, threshold, skip_intercept_row=False)
            for i in range(V.shape[0]):
                for j in range(V.shape[1]):
                    v = V[i, j]
                    grid = np.linspace(v - 2 * threshold - 1, v + 2 * threshold + 1, 40001)
                    values = 0.5 * (grid - v) ** 2 + threshold * np.abs(grid)
                    assert out[i, j] == pytest.approx(grid[np.argmin(values)], abs=1e-3)


class TestProxL21:
    def test_row_norms_match_linalg_norm_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for V in (rng.normal(0, 1, (16, 20)), rng.normal(0, 1e150, (4, 7)), np.zeros((3, 2))):
            assert _row_norms(V).tobytes() == np.linalg.norm(V, axis=1).tobytes()

    def test_row_at_threshold_vanishes(self):
        V = np.array([[3.0, 4.0]])
        assert np.array_equal(
            prox_l21(V, 5.0, skip_intercept_row=False), np.zeros((1, 2))
        )

    def test_closed_form_scaling(self):
        V = np.array([[3.0, 4.0]])
        out = prox_l21(V, 2.5, skip_intercept_row=False)
        assert out[0, 0] == pytest.approx(1.5, abs=1e-12)
        assert out[0, 1] == pytest.approx(2.0, abs=1e-12)

    def test_zero_matrix_fixed_point(self):
        V = np.zeros((5, 2))
        assert np.array_equal(prox_l21(V, 3.0, skip_intercept_row=False), V)

    @pytest.mark.parametrize("threshold", [0.0, 0.5, 5.0, 1e300])
    @pytest.mark.parametrize("skip_intercept_row", [False, True])
    def test_zero_nan_and_inf_rows_match_the_masked_form(self, threshold, skip_intercept_row):
        # the shrink factor is taken in one pass over all rows; zero and NaN
        # rows must still get the 0 that masking them out before the division
        # gave, bit for bit and without a RuntimeWarning
        def masked(V):
            norms = _row_norms(V)
            scale = np.zeros_like(norms)
            positive = norms > 0
            scale[positive] = np.maximum(0.0, 1.0 - threshold / norms[positive])
            out = V * scale[:, None]
            if skip_intercept_row:
                out[-1] = V[-1]
            return out

        nan, inf = math.nan, math.inf
        V = np.array(
            [
                [0.0, 0.0, 0.0],
                [-0.0, 0.0, -0.0],
                [nan, 1.0, 2.0],
                [nan, nan, nan],
                [inf, 1.0, -2.0],
                [3.0, 4.0, 0.0],
                [5e-324, 0.0, 0.0],
                [1e150, -1e150, 1.0],
                [0.0, 0.0, 0.0],
            ]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = prox_l21(V, threshold, skip_intercept_row)
        assert out.tobytes() == masked(V).tobytes()

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            prox_l21(np.ones((2, 2)), math.nan)

    def test_matches_rowwise_closed_form_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            V = rng.normal(0, 2, (5, 4))
            threshold = float(rng.uniform(0.1, 3.0))
            out = prox_l21(V, threshold, skip_intercept_row=False)
            for i in range(V.shape[0]):
                norm = math.sqrt(sum(v * v for v in V[i]))
                scale = max(0.0, 1.0 - threshold / norm) if norm > 0 else 0.0
                for j in range(V.shape[1]):
                    assert out[i, j] == pytest.approx(scale * V[i, j], abs=1e-10)


class TestProxProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        a=arrays(np.float64, (4, 3), elements=st.floats(-50, 50)),
        b=arrays(np.float64, (4, 3), elements=st.floats(-50, 50)),
        threshold=st.floats(0.0, 10.0),
    )
    def test_non_expansive(self, a, b, threshold):
        for prox in (prox_l1, prox_l21):
            pa = prox(a, threshold, skip_intercept_row=False)
            pb = prox(b, threshold, skip_intercept_row=False)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-9

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            prox_l1(np.zeros((1, 1)), -0.1)
        with pytest.raises(ValueError):
            prox_l21(np.zeros((1, 1)), -0.1)


class TestTaskGraph:
    def test_direct_ratio(self):
        data = TaskData.from_arrays(
            [np.ones((1, 1)), np.ones((1, 1))],
            [np.array([math.log(500.0)]), np.array([math.log(1000.0)])],
        )
        graph = build_task_graph(data)
        assert graph.weights[0, 1] == pytest.approx(0.5, rel=1e-12)

    def test_equal_averages_give_unit_weight(self):
        data = TaskData.from_arrays(
            [np.ones((2, 1)), np.ones((2, 1))],
            [np.log(np.array([700.0, 900.0])), np.log(np.array([800.0, 800.0]))],
        )
        graph = build_task_graph(data)
        assert graph.weights[0, 1] == pytest.approx(1.0, rel=1e-12)

    def test_five_task_fixture_matches_double_loop(self):
        rng = np.random.default_rng(55)
        prices = [rng.uniform(2e5, 2e6, int(rng.integers(1, 9))) for _ in range(5)]
        data = TaskData.from_arrays(
            [np.ones((len(p), 1)) for p in prices], [np.log(p) for p in prices]
        )
        graph = build_task_graph(data)
        averages = [float(np.mean(p)) for p in prices]
        for p in range(5):
            for q in range(5):
                expected = min(averages[p], averages[q]) / max(averages[p], averages[q])
                assert graph.weights[p, q] == pytest.approx(expected, rel=1e-9)

    def test_symmetry_unit_diagonal_and_range(self):
        rng = np.random.default_rng(56)
        data = random_task_data(rng, n_tasks=6)
        graph = build_task_graph(data)
        w = graph.weights
        assert np.array_equal(w, w.T)
        assert np.all(np.diag(w) == 1.0)
        assert np.all((w > 0) & (w <= 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            TaskGraph(np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
        with pytest.raises(ValueError):
            TaskGraph(np.array([[0.9]]))  # bad diagonal
        with pytest.raises(ValueError):
            TaskGraph(np.array([[1.0, 1.5], [1.5, 1.0]]))  # out of range


def well_conditioned_data(seed=9, noise=0.01):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for _ in range(5):
        x = np.hstack([rng.normal(0, 1, (40, 5)), np.ones((40, 1))])
        w = rng.normal(0, 0.5, 6)
        w[-1] = 13.0
        xs.append(x)
        ys.append(x @ w + rng.normal(0, noise, 40))
    return TaskData.from_arrays(xs, ys)


TIGHT = SolverParams(max_iters=20000, rel_tol=1e-12)


class TestFit:
    @pytest.mark.parametrize("kind,theta2", [("lasso", None), ("group_l21", None), ("graph", 0.0)])
    def test_zero_penalty_matches_normal_equations(self, kind, theta2):
        data = well_conditioned_data()
        result = fit(data, RegularizerSpec(kind, 0.0, theta2), TIGHT)
        for p in range(data.n_tasks):
            x, y = data.xs[p], data.ys[p]
            expected = np.linalg.solve(x.T @ x, x.T @ y)
            assert np.max(np.abs(result.weights.values[:, p] - expected)) <= 1e-6

    def test_lasso_above_critical_threshold_zeroes_rows(self):
        data = well_conditioned_data(noise=0.5)
        critical = 2 * max(
            float(np.max(np.abs(x[:, :-1].T @ (y - y.mean()))))
            for x, y in zip(data.xs, data.ys)
        )
        result = fit(data, RegularizerSpec("lasso", 1.05 * critical), TIGHT)
        W = result.weights.values
        assert np.all(W[:-1, :] == 0.0)
        for p in range(data.n_tasks):
            assert W[-1, p] == pytest.approx(float(data.ys[p].mean()), abs=1e-6)

    def test_graph_consensus_limit(self):
        rng = np.random.default_rng(3)
        w_true = rng.normal(0, 0.5, 6)
        w_true[-1] = 13.0
        xs = [
            np.hstack([rng.normal(0, 1, (30, 5)), np.ones((30, 1))]) for _ in range(5)
        ]
        data = TaskData.from_arrays(xs, [x @ w_true for x in xs])
        result = fit(
            data,
            RegularizerSpec("graph", 1e6, 0.0),
            SolverParams(max_iters=100000, rel_tol=1e-15),
        )
        W = result.weights.values
        pair_diff = max(
            np.max(np.abs(W[:, p] - W[:, q])) for p in range(5) for q in range(5)
        )
        assert pair_diff <= 1e-3
        stacked_x = np.vstack(xs)
        stacked_y = np.concatenate([x @ w_true for x in xs])
        pooled = np.linalg.solve(stacked_x.T @ stacked_x, stacked_x.T @ stacked_y)
        assert np.max(np.abs(W - pooled[:, None])) <= 1e-3

    def test_graph_coupling_pulls_noisy_tasks_together(self):
        data = well_conditioned_data(noise=0.3)
        loose = fit(data, RegularizerSpec("graph", 0.0, 0.0), TIGHT).weights.values
        tight = fit(data, RegularizerSpec("graph", 100.0, 0.0), TIGHT).weights.values

        def spread(W):
            return max(
                np.max(np.abs(W[:-1, p] - W[:-1, q])) for p in range(5) for q in range(5)
            )

        assert spread(tight) < spread(loose)

    @pytest.mark.parametrize("kind,theta2", [("lasso", None), ("group_l21", None), ("graph", 0.3)])
    def test_trace_monotone_and_convergence_flag(self, kind, theta2):
        rng = np.random.default_rng(77)
        data = random_task_data(rng, n_tasks=4, n_columns=5)
        result = fit(data, RegularizerSpec(kind, 0.6, theta2))
        trace = result.objective_trace
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        if result.converged:
            change = abs(trace[-1] - trace[-2])
            assert change <= SolverParams().rel_tol * max(abs(trace[-2]), 1e-12)

    @pytest.mark.parametrize("kind,theta2", [("lasso", None), ("group_l21", None), ("graph", 0.3)])
    def test_trace_ends_at_objective_of_returned_weights(self, kind, theta2):
        # fit and objective share one smooth implementation, so the bits agree
        rng = np.random.default_rng(77)
        data = random_task_data(rng, n_tasks=4, n_columns=5)
        reg = RegularizerSpec(kind, 0.6, theta2)
        graph = build_task_graph(data) if kind == "graph" else None
        result = fit(data, reg)
        assert result.objective_trace[-1] == objective(result.weights, data, reg, graph)

    @pytest.mark.parametrize("kind,theta2", [("lasso", None), ("group_l21", None), ("graph", 0.2)])
    def test_price_scale_equivariance(self, kind, theta2):
        data = well_conditioned_data()
        scale = 3.7
        scaled = TaskData.from_arrays(
            data.xs, [y + math.log(scale) for y in data.ys], data.task_ids
        )
        base = fit(data, RegularizerSpec(kind, 0.7, theta2), TIGHT).weights.values
        shifted = fit(scaled, RegularizerSpec(kind, 0.7, theta2), TIGHT).weights.values
        assert np.max(np.abs(shifted[:-1] - base[:-1])) <= 1e-6
        assert np.max(np.abs(shifted[-1] - base[-1] - math.log(scale))) <= 1e-6

    def test_task_permutation_permutes_columns(self):
        data = well_conditioned_data()
        order = [3, 0, 4, 1, 2]
        permuted = TaskData.from_arrays(
            [data.xs[p] for p in order],
            [data.ys[p] for p in order],
            [data.task_ids[p] for p in order],
        )
        reg = RegularizerSpec("group_l21", 0.5)
        base = fit(data, reg, TIGHT)
        perm = fit(permuted, reg, TIGHT)
        assert np.allclose(
            perm.weights.values, base.weights.values[:, order], atol=1e-8
        )
        assert objective(perm.weights.values, permuted, reg) == pytest.approx(
            objective(base.weights.values, data, reg), rel=1e-9
        )

    def test_divergence_error_names_iteration(self):
        data = TaskData.from_arrays(
            [np.array([[1.0, 1.0]])], [np.array([np.inf])]
        )
        with pytest.raises(DivergenceError, match="iteration 1"):
            fit(data, RegularizerSpec("lasso", 0.1))

    @pytest.mark.parametrize("entry", [np.inf, np.nan])
    @pytest.mark.parametrize("kind,theta2", [("lasso", None), ("group_l21", None), ("graph", 0.3)])
    def test_divergence_after_iteration_one_names_that_iteration(
        self, kind, theta2, entry, monkeypatch
    ):
        # the gradient first turns non-finite in iteration 4, in one entry:
        # the candidate's objective check must catch it in that iteration
        now = {"iteration": 0}

        def tracking_prox_step(*args):
            now["iteration"] = args[-1]
            return _prox_step(*args)

        gradient = _Smooth.gradient_from_products

        def overflowing_gradient(self, h, cols=None):
            g = gradient(self, h, cols)
            if now["iteration"] >= 4:
                g[1, 2] = entry
            return g

        monkeypatch.setattr("mtlhouse.solver._prox_step", tracking_prox_step)
        monkeypatch.setattr(_Smooth, "gradient_from_products", overflowing_gradient)
        data = random_task_data(np.random.default_rng(77), n_tasks=4, n_columns=5)
        reg = RegularizerSpec(kind, 0.6, theta2)
        # inf - inf in the graph term's row centring is NaN; that warning is not the point
        with np.errstate(invalid="ignore"):
            with pytest.raises(DivergenceError, match=r"non-finite at iteration 4$"):
                fit(data, reg)

    @pytest.mark.parametrize(
        "entry,message",
        [
            (np.inf, "objective became non-finite at iteration 1"),
            (np.nan, "objective became non-finite at iteration 1"),
            (1e200, "step size underflow at iteration 1"),
        ],
    )
    def test_non_finite_lipschitz_keeps_backtracking_errors(self, entry, message):
        data = TaskData.from_arrays([np.array([[entry, 1.0]])], [np.array([1.0])])
        with pytest.raises(DivergenceError, match=message):
            fit(data, RegularizerSpec("lasso", 0.1))

    @pytest.mark.parametrize("kind,theta2", [("lasso", None), ("group_l21", None), ("graph", 0.1)])
    def test_all_zero_design_fits(self, kind, theta2):
        # L = 0 for every kind (theta1 = 0 drops the graph coupling)
        data = TaskData.from_arrays([np.zeros((3, 2))], [np.array([1.0, 2.0, 3.0])])
        reg = RegularizerSpec(kind, 0.0 if kind == "graph" else 0.1, theta2)
        result = fit(data, reg)
        assert result.converged
        assert np.all(result.weights.values == 0.0)

    @pytest.mark.parametrize("kind,theta2", [("lasso", None), ("group_l21", None), ("graph", 0.0)])
    def test_non_finite_lipschitz_raises(self, kind, theta2, monkeypatch):
        data = well_conditioned_data()
        if kind != "lasso":
            monkeypatch.setattr(_Smooth, "lipschitz", lambda self: math.nan)
            with pytest.raises(DivergenceError, match="step size underflow at iteration 1"):
                fit(data, RegularizerSpec(kind, 0.0, theta2), TIGHT)
            return
        # lasso steps each task by its own 1/L_p: one NaN or overflowed L_p is enough
        task_lipschitz = _Smooth.task_lipschitz
        for bad in (math.nan, math.inf):

            def one_bad(self, bad=bad):
                L = task_lipschitz(self)
                L[2] = bad
                return L

            monkeypatch.setattr(_Smooth, "task_lipschitz", one_bad)
            with pytest.raises(DivergenceError, match="step size underflow at iteration 1"):
                fit(data, RegularizerSpec(kind, 0.0, theta2), TIGHT)

    @pytest.mark.parametrize("kind,theta2", [("lasso", None), ("group_l21", None), ("graph", 0.3)])
    def test_step_is_one_over_lipschitz(self, kind, theta2, monkeypatch):
        steps = []

        prox = _Smooth.prox

        def recording_prox(self, V, step):
            steps.append(step)
            return prox(self, V, step)

        monkeypatch.setattr(_Smooth, "prox", recording_prox)
        rng = np.random.default_rng(77)
        data = random_task_data(rng, n_tasks=4, n_columns=5)
        reg = RegularizerSpec(kind, 0.6, theta2)
        graph = build_task_graph(data) if kind == "graph" else None
        result = fit(data, reg)
        assert len(steps) >= result.iterations > 5
        if kind != "lasso":
            assert set(steps) == {1.0 / _Smooth(data, reg, graph).lipschitz()}
            return
        # lasso: every step is {1/L_p}, one per task, with L_p = 2 lambda_max(x_p^T x_p)
        expected = np.array(
            [1.0 / (2.0 * float(np.linalg.eigvalsh(x.T @ x)[-1])) for x in data.xs]
        )
        assert len(set(expected)) == data.n_tasks
        assert np.array_equal(steps[0], expected)
        # a restart's plain step, and every step once a column has stopped,
        # is taken for some of the columns: their steps, in column order
        for step in steps:
            columns = [list(expected).index(s) for s in step]
            assert columns == sorted(set(columns))

    @pytest.mark.parametrize("kind,theta2", [("lasso", None), ("group_l21", None), ("graph", 0.3)])
    @pytest.mark.parametrize("params", [SolverParams(), TIGHT], ids=["default", "tight"])
    def test_one_gram_product_per_step(self, kind, theta2, params, monkeypatch):
        # each accelerated step costs one Gram product, a restart one more; the
        # residual is formed only for the first and the last objective value
        calls = {"residual": 0, "products": 0}
        products = _Smooth.products
        gradient = _Smooth.gradient_from_products

        def counted_residual(data, W):
            calls["residual"] += 1
            return _residual(data, W)

        def counted_products(self, W, cols=None):
            calls["products"] += 1
            return products(self, W, cols)

        def gradient_without_products(self, h, cols=None):
            before = dict(calls)
            out = gradient(self, h, cols)
            assert calls == before
            return out

        monkeypatch.setattr("mtlhouse.solver._residual", counted_residual)
        monkeypatch.setattr(_Smooth, "products", counted_products)
        monkeypatch.setattr(_Smooth, "gradient_from_products", gradient_without_products)
        rng = np.random.default_rng(77)
        data = random_task_data(rng, n_tasks=4, n_columns=5)
        result = fit(data, RegularizerSpec(kind, 0.6, theta2), params)
        assert result.iterations > 5
        assert calls["products"] <= 2 * result.iterations + 1
        assert calls["residual"] == 2

    def test_fit_result_rejects_increasing_trace(self):
        from mtlhouse.design import WeightMatrix

        weights = WeightMatrix(np.zeros((1, 1)), ("t",), ("(intercept)",))
        with pytest.raises(ValueError):
            FitResult(weights, (1.0, 2.0), 1, True)


def tasks_with_sizes(rng, sizes, n_columns=6, noise=0.3):
    """Tasks with the given row counts, planted weights and a trailing intercept column."""
    xs, ys = [], []
    for m in sizes:
        x = np.hstack([rng.normal(0, 1, (m, n_columns - 1)), np.ones((m, 1))])
        w = rng.normal(0, 1, n_columns)
        w[-1] = 13.0
        xs.append(x)
        ys.append(x @ w + rng.normal(0, noise, m))
    return TaskData.from_arrays(xs, ys)


class TestColumnwiseLasso:
    @pytest.mark.parametrize("params", [SolverParams(), TIGHT], ids=["default", "tight"])
    def test_columns_match_single_task_fits(self, params):
        # each column takes the steps, and reaches the weights, of a fit of its task alone
        rng = np.random.default_rng(31)
        data = tasks_with_sizes(rng, [1, 2, 5, 40, 120, 2, 17], n_columns=11)
        reg = RegularizerSpec("lasso", 0.7)
        joint = fit(data, reg, params)
        singles = [
            fit(TaskData.from_arrays([x], [y]), reg, params) for x, y in zip(data.xs, data.ys)
        ]
        assert joint.task_iterations == tuple(single.iterations for single in singles)
        assert len(set(joint.task_iterations)) > 1  # the columns stopped at different sweeps
        assert joint.iterations == max(joint.task_iterations) == len(joint.objective_trace) - 1
        assert joint.converged and all(single.converged for single in singles)
        for p, single in enumerate(singles):
            assert np.max(np.abs(joint.weights.values[:, p] - single.weights.values[:, 0])) <= 1e-12

    def test_starved_tasks_land_near_a_tight_solve(self):
        # One large task and five 1-2 row tasks. With one step 1/L, set by the
        # large task, the small columns crawled: after max_iters they were
        # still up to 9.6 from the optimum. Each column now has its own step.
        rng = np.random.default_rng(0)
        data = tasks_with_sizes(rng, [400, 1, 2, 1, 2, 2], n_columns=8)
        reg = RegularizerSpec("lasso", 0.1)
        tight = fit(data, reg, SolverParams(max_iters=100000, rel_tol=1e-14))
        assert tight.converged
        result = fit(data, reg)
        distance = np.max(np.abs(result.weights.values - tight.weights.values), axis=0)
        assert np.all(distance <= 1e-2)
        assert result.converged

    def test_unconverged_when_a_column_reaches_max_iters(self):
        rng = np.random.default_rng(33)
        data = tasks_with_sizes(rng, [1, 60], n_columns=6)
        result = fit(data, RegularizerSpec("lasso", 0.5), SolverParams(max_iters=30))
        # the one-row task is underdetermined and converges slowly
        assert not result.converged
        assert result.iterations == result.task_iterations[0] == 30
        assert result.task_iterations[1] < 30

    @pytest.mark.parametrize("kind,theta2", [("lasso", None), ("group_l21", None), ("graph", 0.3)])
    def test_gradient_matches_dense_scatter_oracle(self, kind, theta2):
        # per-task sums over each task's row block, against one N x P scatter at P = 300
        rng = np.random.default_rng(34)
        sizes = rng.integers(1, 9, 300)
        data = tasks_with_sizes(rng, sizes, n_columns=7)
        reg = RegularizerSpec(kind, 0.5, theta2)
        graph = build_task_graph(data) if kind == "graph" else None
        W = rng.normal(0, 1, (7, 300))
        rows = np.vstack(data.xs)
        task_of_row = np.repeat(np.arange(300), sizes)
        residual = np.concatenate(
            [x @ W[:, p] - y for p, (x, y) in enumerate(zip(data.xs, data.ys))]
        )
        scattered = np.zeros((rows.shape[0], 300))
        scattered[np.arange(rows.shape[0]), task_of_row] = residual
        oracle = 2.0 * rows.T @ scattered
        if kind == "graph":
            oracle[:-1] += 4.0 * reg.theta1 * (W[:-1] @ _graph_laplacian(graph.weights))
        grad = smooth_gradient(W, data, reg, graph)
        assert np.max(np.abs(grad - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def tasks_with_mixed_supports(rng, sizes=(1, 4, 7, 12, 3, 9), n_columns=8):
    """Random tasks whose rows are zero in a random share of the penalized
    columns, so their supports differ in width; the first has one row."""
    xs, ys = [], []
    for m in sizes:
        x = np.hstack([rng.normal(0, 1, (m, n_columns - 1)), np.ones((m, 1))])
        x[:, np.flatnonzero(rng.random(n_columns - 1) < 0.4)] = 0.0
        xs.append(x)
        ys.append(rng.normal(13.0, 1.0, m))
    return TaskData.from_arrays(xs, ys)


class TestGramForm:
    """The loop's Gram form of the smooth part against its exact residual form."""

    KINDS = [("lasso", None), ("group_l21", None), ("graph", 0.3)]

    @staticmethod
    def setup(seed, kind, theta2):
        rng = np.random.default_rng(seed)
        data = tasks_with_mixed_supports(rng)
        assert len(data.support_grams) > 1  # the widths differ
        reg = RegularizerSpec(kind, 0.7, theta2)
        graph = build_task_graph(data) if kind == "graph" else None
        smooth = _Smooth(data, reg, graph)
        return rng, data, reg, graph, smooth

    @staticmethod
    def point(rng, smooth, scale=1.0):
        """A random dense W, on the supports unless the kind holds W dense."""
        W = rng.normal(0, scale, (smooth.data.n_columns, smooth.data.n_tasks))
        return W if smooth.dense else smooth.expand(smooth.compact(W))

    @staticmethod
    def loop_form(smooth, W):
        return W if smooth.dense else smooth.compact(W)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind,theta2", KINDS)
    def test_gradient_matches_the_residual_form(self, kind, theta2, seed):
        rng, data, reg, graph, smooth = self.setup(seed, kind, theta2)
        W = self.point(rng, smooth)
        grad = smooth.gradient_from_products(smooth.products(self.loop_form(smooth, W)))
        if not smooth.dense:
            grad = smooth.expand(grad)
        oracle = smooth_gradient(W, data, reg, graph)
        assert np.max(np.abs(grad - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_top_eigenvalues_match_the_full_gram_matrices(self):
        data = tasks_with_mixed_supports(np.random.default_rng(4))
        expected = [float(np.linalg.eigvalsh(x.T @ x)[-1]) for x in data.xs]
        assert np.allclose(data.top_gram_eigenvalues, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("step", [1.0, 1e-9])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind,theta2", KINDS)
    def test_change_matches_the_residual_difference(self, kind, theta2, seed, step):
        # (r2 - r1) . (r2 + r1) per task, summed exactly; the difference of
        # two residual sums of squares would lose a 1e-9 step to rounding
        rng, data, reg, graph, smooth = self.setup(seed, kind, theta2)
        W1 = self.point(rng, smooth)
        W2 = W1 + step * self.point(rng, smooth)
        Z1, Z2 = self.loop_form(smooth, W1), self.loop_form(smooth, W2)
        change = smooth.change(Z2 - Z1, smooth.products(Z2), smooth.products(Z1))
        D, S = W2 - W1, W2 + W1  # at the small step, D is exact (Sterbenz)
        per_task = [
            math.fsum((x @ D[:, p]) * (x @ S[:, p] - 2.0 * y))
            for p, (x, y) in enumerate(zip(data.xs, data.ys))
        ]
        if kind == "lasso":
            assert np.allclose(change, per_task, rtol=1e-9, atol=0)
            return
        expected = math.fsum(per_task)
        if kind == "graph":
            expected += reg.theta1 * math.fsum(
                graph.weights[p, q] * math.fsum((D[:-1, p] - D[:-1, q]) * (S[:-1, p] - S[:-1, q]))
                for p in range(data.n_tasks)
                for q in range(data.n_tasks)
                if p != q
            )
        assert change == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", ["lasso", "group_l21", "graph"])
    def test_gap_matches_the_residual_oracle(self, kind, seed):
        rng, data, reg, graph, smooth = self.setup(seed, kind, 0.3 if kind == "graph" else None)
        for scale in (0.0, 0.3, 2.0):
            W = self.point(rng, smooth, scale)
            smooth_part, values = _exact_values(data, reg, smooth.laplacian, W)
            Z = self.loop_form(smooth, W)
            gaps = _relative_gaps(smooth, Z, smooth.products(Z), smooth_part, values)
            oracle = oracle_relative_gap(data, reg, W, values)
            assert np.allclose(gaps, oracle, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("kind,theta2", KINDS)
    def test_init_entries_off_the_supports(self, kind, theta2):
        # lasso and l2,1 set them to 0; the graph kind keeps them
        rng, data, reg, graph, smooth = self.setup(5, kind, theta2)
        init = WeightMatrix(rng.normal(0, 1, (data.n_columns, data.n_tasks)), data.task_ids, data.columns)
        start = init.values if smooth.dense else smooth.expand(smooth.compact(init.values))
        assert kind == "graph" or np.any(start != init.values)
        for params in (SolverParams(max_iters=1), SolverParams()):
            result = fit(data, reg, params, init=init)
            assert result.objective_trace[0] == objective(start, data, reg, graph)
            assert result.objective_trace[-1] == objective(result.weights, data, reg, graph)
            if kind != "graph":
                off = smooth.expand(smooth.compact(np.ones_like(start))) == 0.0
                assert np.all(result.weights.values[off] == 0.0)

    @pytest.mark.parametrize(
        "seed,params,random_init",
        [(6, SolverParams(), False), (6, TIGHT, False)] + [(seed, SolverParams(), True) for seed in range(6)],
        ids=["default", "tight"] + [f"init-{seed}" for seed in range(6)],
    )
    def test_lasso_columns_match_single_task_fits_bit_for_bit(self, seed, params, random_init):
        # a column's numbers do not depend on the other tasks' support widths;
        # a random start is nonzero everywhere, also where a narrow support's
        # padding slots read it, so the padding must start at 0, as a single
        # task of that width has no padding
        rng, data, reg, graph, smooth = self.setup(seed, "lasso", None)
        init = None
        if random_init:
            init = WeightMatrix(rng.normal(0, 1, (data.n_columns, data.n_tasks)), data.task_ids, data.columns)
        joint = fit(data, reg, params, init=init)
        for p, (x, y) in enumerate(zip(data.xs, data.ys)):
            single = fit(TaskData.from_arrays([x], [y], task_ids=[data.task_ids[p]]), reg, params, init=init)
            assert joint.task_iterations[p] == single.iterations
            assert joint.weights.values[:, p].tobytes() == single.weights.values[:, 0].tobytes()

def tasks_with_last_column(rng, last):
    """Random tasks whose last, unpenalized column is ones or varies by row."""
    data = random_task_data(rng, n_tasks=4, n_columns=5)
    if last == "ones":
        return data
    xs = [x.copy() for x in data.xs]
    for x in xs:
        x[:, -1] = rng.uniform(0.5, 2.0, x.shape[0])
    return TaskData.from_arrays(xs, data.ys)


class TestDualityGap:
    """The relative duality gap that certifies a fit's stop."""

    @staticmethod
    def gaps(data, reg, W):
        """Each block's relative gap, from Gram quantities, and objective at W."""
        graph = build_task_graph(data) if reg.kind == "graph" else None
        smooth = _Smooth(data, reg, graph)
        smooth_part, values = _exact_values(data, reg, smooth.laplacian, W)
        Z = W if smooth.dense else smooth.compact(W)
        gaps = _relative_gaps(smooth, Z, smooth.products(Z), smooth_part, values)
        return gaps, values

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("last", ["ones", "varying"])
    @pytest.mark.parametrize("kind", ["lasso", "group_l21", "graph"])
    def test_gap_bounds_the_objective_excess(self, kind, last, seed):
        # for the graph kind the oracle's residual holds the loss rows and the
        # coupling's rows
        rng = np.random.default_rng(seed)
        data = tasks_with_last_column(rng, last)
        reg = RegularizerSpec(kind, 0.8, 0.6 if kind == "graph" else None)
        optimum = fit(data, reg, SolverParams(max_iters=100000, rel_tol=1e-15)).weights.values
        relative, best = self.gaps(data, reg, optimum)
        assert np.all(np.abs(relative) <= 1e-5)  # about 0 at a tight solve
        points = [
            np.zeros_like(optimum),
            optimum + rng.normal(0, 0.3, optimum.shape),
            rng.normal(0, 2.0, optimum.shape),
            fit(data, reg, SolverParams(max_iters=5)).weights.values,
        ]
        for W in points:
            relative, value = self.gaps(data, reg, W)
            oracle = oracle_relative_gap(data, reg, W, value)
            assert np.allclose(relative, oracle, rtol=1e-9, atol=1e-12)
            assert np.all(relative * np.abs(value) >= value - best - 1e-9 * np.abs(best))

    @pytest.mark.parametrize("kind", ["lasso", "group_l21"])
    def test_relative_change_triggers_the_stop_and_the_gap_certifies_it(self, kind):
        data = well_conditioned_data(noise=0.3)
        reg = RegularizerSpec(kind, 0.6)
        loose = SolverParams(rel_tol=0.5)  # fires in the first sweeps, far from the optimum
        result = fit(data, reg, loose)
        assert result.converged and result.gap <= GAP_TOL
        assert result.iterations > 5
        gaps = [fit(data, reg, SolverParams(max_iters=n)).gap for n in (1, result.iterations)]
        assert gaps[0] > GAP_TOL >= gaps[1]

    def test_gap_is_reported_only_where_it_certifies(self):
        data = well_conditioned_data(noise=0.3)
        assert fit(data, RegularizerSpec("graph", 0.5, 0.0)).gap is None
        assert fit(data, RegularizerSpec("lasso", 0.0)).gap is None
        assert fit(data, RegularizerSpec("group_l21", 0.0)).gap is None
        for reg in (RegularizerSpec("lasso", 0.6), RegularizerSpec("group_l21", 0.6), RegularizerSpec("graph", 0.5, 1.0)):
            result = fit(data, reg)
            assert result.converged and 0.0 <= result.gap <= GAP_TOL

    @pytest.mark.parametrize("seed", range(3))
    def test_graph_gap_without_coupling_is_the_l21_gap(self, seed):
        rng = np.random.default_rng(seed)
        data = tasks_with_last_column(rng, "varying")
        for W in (np.zeros((data.n_columns, data.n_tasks)), rng.normal(0, 0.5, (data.n_columns, data.n_tasks))):
            graph_gap, _ = self.gaps(data, RegularizerSpec("graph", 0.0, 0.7), W)
            l21_gap, _ = self.gaps(data, RegularizerSpec("group_l21", 0.7), W)
            assert graph_gap == pytest.approx(l21_gap, rel=1e-9, abs=1e-12)


class TestWarmStart:
    def test_init_maps_columns_by_task_id(self):
        rng = np.random.default_rng(8)
        data = random_task_data(rng, n_tasks=3, n_columns=5)
        data = TaskData.from_arrays(data.xs, data.ys, ("a", "b", "c"))
        init = WeightMatrix(rng.normal(0, 1, (5, 2)), ("gone", "b"), data.columns)
        start = np.zeros((5, 3))
        start[:, 1] = init.column("b")  # "a" and "c" are new and start at 0; "gone" is ignored
        for reg in (RegularizerSpec("lasso", 0.5), RegularizerSpec("group_l21", 0.5)):
            result = fit(data, reg, SolverParams(max_iters=1), init=init)
            assert result.objective_trace[0] == objective(start, data, reg)

    def test_init_with_other_columns_is_rejected(self):
        data = random_task_data(np.random.default_rng(8), n_tasks=2, n_columns=3)
        init = WeightMatrix(np.zeros((3, 2)), data.task_ids, ("x", "y", "z"))
        with pytest.raises(ValueError, match="other design columns"):
            fit(data, RegularizerSpec("lasso", 0.5), init=init)

    @pytest.mark.parametrize("kind,theta2", [("lasso", None), ("group_l21", None), ("graph", 0.3)])
    def test_fit_started_at_its_optimum_stops_within_a_few_sweeps(self, kind, theta2):
        data = well_conditioned_data(noise=0.3)
        reg = RegularizerSpec(kind, 0.6, theta2)
        optimum = fit(data, reg, TIGHT)
        warm = fit(data, reg, init=optimum.weights)
        assert warm.converged and warm.iterations <= 3 and warm.gap <= GAP_TOL
        assert fit(data, reg).iterations > 15


class TestRegularizerSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            RegularizerSpec("ridge", 0.1)
        with pytest.raises(ValueError):
            RegularizerSpec("lasso", -0.1)
        with pytest.raises(ValueError):
            RegularizerSpec("graph", 0.1)  # theta2 missing
        with pytest.raises(ValueError):
            RegularizerSpec("lasso", 0.1, 0.2)  # theta2 not allowed
        with pytest.raises(ValueError):
            SolverParams(max_iters=0)
        with pytest.raises(ValueError):
            SolverParams(rel_tol=0.0)
        for bad in (
            {"max_iters": 2.5},
            {"max_iters": True},
            {"rel_tol": float("nan")},
            {"rel_tol": "1e-3"},
        ):
            with pytest.raises(ValueError):
                SolverParams(**bad)


class TestPredict:
    def test_noiseless_synthetic_recovery(self):
        from mtlhouse.design import build_task_data
        from mtlhouse.synthetic import SyntheticConfig, generate_synthetic
        from mtlhouse.tasks import RegionDef, define_tasks

        config = SyntheticConfig(
            n_tasks=3,
            n_features=4,
            samples_per_task_per_month=15,
            months=4,
            shared_support_size=3,
            coefficient_noise=0.0,
            observation_noise=0.0,
            seed=17,
        )
        dataset, _ = generate_synthetic(config)
        taskset = define_tasks(dataset, RegionDef("SA3"))
        lo, hi = dataset.month_range
        data = build_task_data(dataset, taskset, (lo, hi - 1))
        result = fit(data, RegularizerSpec("lasso", 0.0), TIGHT)
        from mtlhouse.design import design_rows

        for p, task_id in enumerate(taskset.tasks):
            rows = [i for i in np.flatnonzero(taskset.codes == p) if dataset.months[i] == hi]
            encoded = design_rows(dataset, np.array(rows), data.layout, data.standardizer)
            for row, record in zip(encoded, (dataset.records[i] for i in rows)):
                prediction = float(row @ result.weights.column(task_id))
                assert prediction == pytest.approx(math.log(record.price), abs=1e-6)


def oracle_relative_gap(data, reg, W, value):
    """Relative duality gap of a point, task by task: u = 2 r projected off
    each task's last column, scaled into the dual norm ball, and D(u) =
    -<u, y> - ||u||^2 / 4. For lasso, one gap per task. For the graph kind the
    coupling is least squares on one extra row per ordered task pair (p, q)
    and design row i, sqrt(theta1 r_pq) (W[i, p] - W[i, q]) with target 0:
    u holds twice those residuals too, and X^T u their share of the
    transposed products, and the ball is theta2's."""
    us, ys, dual_rows = [], list(data.ys), []
    for p, (x, y) in enumerate(zip(data.xs, data.ys)):
        u = 2.0 * (x @ W[:, p] - y)
        c = x[:, -1]
        if c @ c > 0:
            u = u - (c @ u) / (c @ c) * c
        us.append(u)
        dual_rows.append(x[:, :-1].T @ u)
    theta = reg.theta1
    if reg.kind == "graph":
        theta = reg.theta2
        weights = build_task_graph(data).weights
        for p in range(data.n_tasks):
            for q in range(data.n_tasks):
                if p == q:
                    continue
                a = math.sqrt(reg.theta1 * weights[p, q])
                u = 2.0 * a * (W[:-1, p] - W[:-1, q])  # one row per design row, target 0
                us.append(u)
                ys.append(np.zeros_like(u))
                dual_rows[p] = dual_rows[p] + a * u
                dual_rows[q] = dual_rows[q] - a * u
    if reg.kind == "lasso":
        norms = [max(np.abs(g), default=0.0) for g in dual_rows]
    else:
        G = np.column_stack(dual_rows)
        norms = [max(np.sqrt((G * G).sum(axis=1)), default=0.0)] * len(us)
    scales = [1.0 if n <= theta else theta / n for n in norms]
    duals = [-(s * u) @ y - (s * u) @ (s * u) / 4 for s, u, y in zip(scales, us, ys)]
    if reg.kind == "lasso":
        return [(v - d) / max(abs(v), 1e-12) for v, d in zip(value, duals)]
    return (value - sum(duals)) / max(abs(value), 1e-12)


def oracle_joint_fit(data, reg, params):
    """Reference for the joint kinds: plain scalar FISTA with restart over all
    columns at once, with one step 1/L, stopping on the relative-change test
    and, for l2,1 at theta1 > 0 and the graph kind at theta2 > 0, the
    duality-gap test. It steps on the Gram
    form of the smooth part, as the solver does: the products of each iterate
    and a running objective updated by each step's change. The trace starts
    and ends on the exact objective (see :func:`fit`).

    Returns the weights, trace, iterations, converged flag and the number of
    restarts.
    """
    graph = build_task_graph(data) if reg.kind == "graph" else None
    smooth = _Smooth(data, reg, graph)

    def prox_step(W, h, f, point, h_point):
        candidate, penalty = smooth.prox(point - step * smooth.gradient_from_products(h_point), step)
        h_candidate = smooth.products(candidate)
        f_candidate = f + smooth.change(candidate - W, h_candidate, h)
        return candidate, h_candidate, f_candidate, f_candidate + penalty

    dense = np.zeros((data.n_columns, data.n_tasks))
    f = smooth_objective(dense, data, reg, graph)
    current = f + nonsmooth_penalty(dense, reg)
    W = dense if reg.kind == "graph" else smooth.compact(dense)
    h = smooth.products(W)
    L = smooth.lipschitz()
    step = 1.0 if L == 0.0 else 1.0 / L
    W_prev, h_prev = W, h
    momentum = _momentum(params.max_iters)
    since, restarts = 0, 0
    trace = [current]
    converged = False
    for _ in range(params.max_iters):
        alpha = momentum[since]
        candidate, h_candidate, f_candidate, value = prox_step(
            W, h, f, W + alpha * (W - W_prev), h + alpha * (h - h_prev)
        )
        if value > current:
            since, restarts = 0, restarts + 1
            candidate, h_candidate, f_candidate, value = prox_step(W, h, f, W, h)
            if value > current:
                candidate, h_candidate, f_candidate, value = W, h, f, current
        W_prev, W = W, candidate
        h_prev, h = h, h_candidate
        f = f_candidate
        trace.append(value)
        since += 1
        stopped = abs(current - value) <= params.rel_tol * max(abs(current), 1e-12)
        current = value
        if stopped and (reg.theta2 if reg.kind == "graph" else reg.theta1) > 0:
            dense = W if reg.kind == "graph" else smooth.expand(W)
            stopped = oracle_relative_gap(data, reg, dense, value) <= GAP_TOL
        if stopped:
            converged = True
            break
    if reg.kind != "graph":
        W = smooth.expand(W)
    trace[-1] = objective(W, data, reg, graph)
    trace = [max(value, trace[-1]) for value in trace]
    return W, tuple(trace), len(trace) - 1, converged, restarts


class TestJointKindsFollowScalarFista:
    """The joint kinds are the one-block case of the solver's block loop."""

    @pytest.mark.parametrize("seed", [0, 3, 5])
    @pytest.mark.parametrize(
        "params, stops_early",
        [(SolverParams(), True), (SolverParams(2000, 1e-10), True), (SolverParams(6), False)],
        ids=["default", "tight", "max_iters"],
    )
    @pytest.mark.parametrize("kind, theta1, theta2", [("group_l21", 2.0, None), ("graph", 0.5, 1.0)])
    def test_fit_matches_scalar_loop_bit_for_bit(
        self, kind, theta1, theta2, params, stops_early, seed
    ):
        data = random_task_data(np.random.default_rng(seed), n_tasks=4, n_columns=5)
        reg = RegularizerSpec(kind, theta1, theta2)
        W, trace, iterations, converged, restarts = oracle_joint_fit(data, reg, params)
        result = fit(data, reg, params)
        assert result.weights.values.tobytes() == W.tobytes()
        assert result.objective_trace == trace
        assert result.iterations == iterations
        assert result.converged == converged == stops_early
        assert result.task_iterations == (iterations,) * data.n_tasks
        if stops_early:
            assert restarts > 0  # the restart branch is part of what is compared
        else:
            assert iterations == params.max_iters
