import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mtlhouse.design import TaskData
from mtlhouse.solver import (
    DivergenceError,
    FitResult,
    RegularizerSpec,
    SolverParams,
    TaskGraph,
    _graph_laplacian,
    _graph_quadratic,
    _momentum,
    _prox,
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
        assert len(calls) == data.n_tasks
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

        def recording_prox(reg, V, step):
            steps.append(step)
            return _prox(reg, V, step)

        monkeypatch.setattr("mtlhouse.solver._prox", recording_prox)
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
        assert all(np.array_equal(step, expected) for step in steps)

    @pytest.mark.parametrize("kind,theta2", [("lasso", None), ("group_l21", None), ("graph", 0.3)])
    @pytest.mark.parametrize("params", [SolverParams(), TIGHT], ids=["default", "tight"])
    def test_one_residual_per_step(self, kind, theta2, params, monkeypatch):
        # each accelerated step costs one residual, a restart one more
        calls = {"residual": 0}
        residual = _Smooth._residual
        gradient = _Smooth.gradient_from_residual

        def counted_residual(self, W):
            calls["residual"] += 1
            return residual(self, W)

        def gradient_without_residual(self, W, r):
            before = calls["residual"]
            out = gradient(self, W, r)
            assert calls["residual"] == before
            return out

        monkeypatch.setattr(_Smooth, "_residual", counted_residual)
        monkeypatch.setattr(_Smooth, "gradient_from_residual", gradient_without_residual)
        rng = np.random.default_rng(77)
        data = random_task_data(rng, n_tasks=4, n_columns=5)
        result = fit(data, RegularizerSpec(kind, 0.6, theta2), params)
        assert result.iterations > 5
        assert calls["residual"] <= 2 * result.iterations + 1

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


def oracle_joint_fit(data, reg, params):
    """Reference for the joint kinds: plain scalar FISTA with restart over all
    columns at once, with one step 1/L.

    Returns the weights, trace, iterations, converged flag and the number of
    restarts.
    """
    graph = build_task_graph(data) if reg.kind == "graph" else None
    smooth = _Smooth(data, reg, graph)

    def value_of(V, r_V):
        return smooth.value_from_residual(V, r_V) + nonsmooth_penalty(V, reg)

    def prox_step(point, r_point):
        candidate = _prox(reg, point - step * smooth.gradient_from_residual(point, r_point), step)
        r_candidate = smooth._residual(candidate)
        return candidate, r_candidate, value_of(candidate, r_candidate)

    W = np.zeros((data.n_columns, data.n_tasks))
    r = smooth._residual(W)
    current = value_of(W, r)
    L = smooth.lipschitz()
    step = 1.0 if L == 0.0 else 1.0 / L
    W_prev, r_prev = W, r
    momentum = _momentum(params.max_iters)
    since, restarts = 0, 0
    trace = [current]
    converged = False
    for _ in range(params.max_iters):
        alpha = momentum[since]
        candidate, r_candidate, value = prox_step(
            W + alpha * (W - W_prev), r + alpha * (r - r_prev)
        )
        if value > current:
            since, restarts = 0, restarts + 1
            candidate, r_candidate, value = prox_step(W, r)
            if value > current:
                candidate, r_candidate, value = W, r, current
        W_prev, W = W, candidate
        r_prev, r = r, r_candidate
        trace.append(value)
        since += 1
        stopped = abs(current - value) <= params.rel_tol * max(abs(current), 1e-12)
        current = value
        if stopped:
            converged = True
            break
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
