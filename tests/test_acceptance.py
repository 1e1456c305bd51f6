"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
for every criterion.
"""

import json
import math
import time
from collections import defaultdict
from itertools import combinations

import numpy as np

from mtlhouse import backtest
from mtlhouse.backtest import MethodSpec, make_rolling_plan, run_backtest
from mtlhouse.cli import main
from mtlhouse.design import TaskData
from mtlhouse.metrics import (
    MetricRecord,
    aggregate,
    wilcoxon_rank_sum,
    win_loss_draw,
)
from mtlhouse.solver import (
    RegularizerSpec,
    SolverParams,
    build_task_graph,
    fit,
    prox_l1,
    prox_l21,
    smooth_gradient,
    smooth_objective,
)
from mtlhouse.synthetic import SyntheticConfig, generate_synthetic
from mtlhouse.tasks import RegionDef


def verdict(number: int, ok: bool, label: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {number} failed: {label}"


def random_task_data(rng, max_tasks=5, max_columns=8, max_rows=12):
    n_tasks = int(rng.integers(2, max_tasks + 1))
    n_columns = int(rng.integers(3, max_columns + 1))
    xs, ys = [], []
    for _ in range(n_tasks):
        m = int(rng.integers(2, max_rows + 1))
        x = np.hstack([rng.normal(0, 1, (m, n_columns - 1)), np.ones((m, 1))])
        xs.append(x)
        ys.append(rng.normal(13, 1, m))
    return TaskData.from_arrays(xs, ys)


def test_01_gradient_matches_finite_differences():
    started = time.perf_counter()
    step = 1e-6
    worst = 0.0
    for kind, theta2 in (("lasso", None), ("group_l21", None), ("graph", 0.35)):
        for trial in range(20):
            rng = np.random.default_rng(5000 + trial)
            data = random_task_data(rng)
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
            worst = max(worst, np.linalg.norm(fd - grad) / max(1.0, np.linalg.norm(fd)))
    elapsed = time.perf_counter() - started
    verdict(
        1,
        worst <= 1e-5 and elapsed < 5.0,
        f"gradient vs central differences (worst rel {worst:.2e}, {elapsed:.2f}s)",
    )


def well_conditioned_fixture(seed=9, noise=0.01, n_tasks=5):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for _ in range(n_tasks):
        x = np.hstack([rng.normal(0, 1, (40, 5)), np.ones((40, 1))])
        w = rng.normal(0, 0.5, 6)
        w[-1] = 13.0
        xs.append(x)
        ys.append(x @ w + rng.normal(0, noise, 40))
    return TaskData.from_arrays(xs, ys)


def test_02_zero_penalty_matches_normal_equations():
    started = time.perf_counter()
    data = well_conditioned_fixture()
    params = SolverParams(max_iters=20000, rel_tol=1e-12)
    worst = 0.0
    for kind, theta2 in (("lasso", None), ("group_l21", None), ("graph", 0.0)):
        result = fit(data, RegularizerSpec(kind, 0.0, theta2), params)
        for p in range(data.n_tasks):
            x, y = data.xs[p], data.ys[p]
            expected = np.linalg.solve(x.T @ x, x.T @ y)
            worst = max(worst, float(np.max(np.abs(result.weights.values[:, p] - expected))))
    elapsed = time.perf_counter() - started
    verdict(
        2,
        worst <= 1e-6 and elapsed < 1.0,
        f"theta=0 fit vs normal equations (max dev {worst:.2e}, {elapsed:.2f}s)",
    )


def test_03_prox_operators_match_oracles_and_are_nonexpansive():
    rng = np.random.default_rng(31)
    worst_l1 = 0.0
    worst_l21 = 0.0
    for _ in range(100):
        V = rng.normal(0, 2, (4, 3))
        threshold = float(rng.uniform(0.05, 2.5))
        l1 = prox_l1(V, threshold, skip_intercept_row=False)
        l21 = prox_l21(V, threshold, skip_intercept_row=False)
        for i in range(V.shape[0]):
            norm = math.sqrt(sum(v * v for v in V[i]))
            scale = max(0.0, 1.0 - threshold / norm) if norm > 0 else 0.0
            for j in range(V.shape[1]):
                grid = np.linspace(
                    V[i, j] - 2 * threshold - 1, V[i, j] + 2 * threshold + 1, 20001
                )
                best = grid[np.argmin(0.5 * (grid - V[i, j]) ** 2 + threshold * np.abs(grid))]
                worst_l1 = max(worst_l1, abs(l1[i, j] - best))
                worst_l21 = max(worst_l21, abs(l21[i, j] - scale * V[i, j]))
    expansive = 0
    for _ in range(100):
        A = rng.normal(0, 3, (5, 4))
        B = rng.normal(0, 3, (5, 4))
        threshold = float(rng.uniform(0.0, 3.0))
        gap = np.linalg.norm(A - B)
        for prox in (prox_l1, prox_l21):
            moved = np.linalg.norm(
                prox(A, threshold, skip_intercept_row=False)
                - prox(B, threshold, skip_intercept_row=False)
            )
            if moved > gap + 1e-9:
                expansive += 1
    verdict(
        3,
        worst_l1 <= 1e-3 and worst_l21 <= 1e-10 and expansive == 0,
        f"prox oracles (l1 {worst_l1:.2e}, l21 {worst_l21:.2e}) and non-expansiveness",
    )


def test_04_graph_consensus_limit():
    rng = np.random.default_rng(3)
    w_true = rng.normal(0, 0.5, 6)
    w_true[-1] = 13.0
    xs = [np.hstack([rng.normal(0, 1, (30, 5)), np.ones((30, 1))]) for _ in range(5)]
    data = TaskData.from_arrays(xs, [x @ w_true for x in xs])
    result = fit(
        data,
        RegularizerSpec("graph", 1e6, 0.0),
        SolverParams(max_iters=100000, rel_tol=1e-15),
    )
    W = result.weights.values
    pair_diff = max(
        float(np.max(np.abs(W[:, p] - W[:, q]))) for p in range(5) for q in range(5)
    )
    stacked_x = np.vstack(xs)
    stacked_y = np.concatenate([x @ w_true for x in xs])
    pooled = np.linalg.solve(stacked_x.T @ stacked_x, stacked_x.T @ stacked_y)
    pooled_dev = float(np.max(np.abs(W - pooled[:, None])))
    verdict(
        4,
        pair_diff <= 1e-3 and pooled_dev <= 1e-3,
        f"graph consensus at theta1=1e6 (pair {pair_diff:.2e}, pooled {pooled_dev:.2e})",
    )


def test_05_lasso_kill_threshold():
    data = well_conditioned_fixture(noise=0.5)
    critical = 2 * max(
        float(np.max(np.abs(x[:, :-1].T @ (y - y.mean()))))
        for x, y in zip(data.xs, data.ys)
    )
    result = fit(
        data,
        RegularizerSpec("lasso", 1.05 * critical),
        SolverParams(max_iters=20000, rel_tol=1e-12),
    )
    killed = bool(np.all(result.weights.values[:-1, :] == 0.0))
    verdict(5, killed, f"lasso zeroes all feature rows above threshold {critical:.3f}")


def test_06_wilcoxon_exact_for_all_small_tie_free_sizes():
    rng = np.random.default_rng(6)
    worst = 0.0
    for n in range(1, 8):
        for m in range(1, 8):
            values = rng.permutation(np.arange(1.0, n + m + 1.0))  # tie-free
            a = [float(v) for v in values[:n]]
            b = [float(v) for v in values[n:]]
            outcome = wilcoxon_rank_sum(a, b)
            pooled = sorted(a + b)
            w = sum(pooled.index(v) + 1 for v in a)
            sums = [sum(c) for c in combinations(range(1, n + m + 1), n)]
            le = sum(1 for s in sums if s <= w) / len(sums)
            ge = sum(1 for s in sums if s >= w) / len(sums)
            expected = min(1.0, 2.0 * min(le, ge))
            worst = max(worst, abs(outcome.p_value - expected))
    verdict(6, worst <= 1e-12, f"exact rank-sum p-values for n,m " + f"<= 7 (worst dev {worst:.1e})")


def protocol_dataset():
    return generate_synthetic(
        SyntheticConfig(
            n_tasks=6,
            n_features=4,
            samples_per_task_per_month=(2, 6),
            months=39,
            shared_support_size=3,
            coefficient_noise=0.02,
            observation_noise=0.1,
            seed=13,
        )
    )[0]


def test_07_protocol_shape_and_no_leakage(monkeypatch):
    started = time.perf_counter()
    dataset = protocol_dataset()
    plan = make_rolling_plan(dataset, k=3)
    # one grid point per method: each round that is not skipped builds its
    # training data once, and builds nothing else
    methods = [
        MethodSpec(label="mtl_l21", kind="mtl_l21", theta1=(1.0,)),
        MethodSpec(label="ols", kind="ols"),
    ]
    built = []
    real = backtest.build_task_data

    def recorded(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(backtest, "build_task_data", recorded)
    records, report = run_backtest(dataset, RegionDef("SA3"), methods, plan)
    trained = [i for i in range(len(plan)) if i not in report.skipped_rounds]
    data_of = dict(zip(trained, built))
    scored = {record.round_index for record in records}
    leak_free = len(built) == len(trained) and bool(scored) and all(
        data_of[i].window == plan.rounds[i].train_window
        and data_of[i].row_months[1] < plan.rounds[i].test_month
        for i in scored
    )
    elapsed = time.perf_counter() - started
    verdict(
        7,
        len(plan) == 36 and leak_free and elapsed < 60.0,
        f"39-month protocol gives 36 leak-free rounds ({elapsed:.1f}s)",
    )


def planted_structure_experiment():
    config = SyntheticConfig(
        n_tasks=20,
        n_features=10,
        samples_per_task_per_month=tuple([(1, 2)] * 5 + [(8, 12)] * 15),
        months=39,
        shared_support_size=5,
        coefficient_noise=0.02,
        observation_noise=0.1,
        seed=77,
    )
    dataset, _ = generate_synthetic(config)
    plan = make_rolling_plan(dataset, k=3)
    methods = [
        MethodSpec(label="mtl_l21", kind="mtl_l21", theta1=(3.0,)),
        MethodSpec(label="ols", kind="ols"),
    ]
    return run_backtest(dataset, RegionDef("SA3"), methods, plan, benchmark="mtl_l21")


def group_win_rate(records, task_ids):
    scores = defaultdict(dict)
    for record in records:
        scores[(record.round_index, record.task_id)][record.method] = record.rmse
    pairs = [
        (v["mtl_l21"], v["ols"])
        for (rnd, task), v in scores.items()
        if task in task_ids and "mtl_l21" in v and "ols" in v
    ]
    w, l, d = win_loss_draw([p[0] for p in pairs], [p[1] for p in pairs])
    return w / (w + l + d)


def test_08_group_sparsity_beats_ols_on_starved_tasks():
    records, report = planted_structure_experiment()
    low = group_win_rate(records, set(report.quartile_tasks["(0,1/4]"]))
    top = group_win_rate(records, set(report.quartile_tasks["(3/4,1]"]))
    # thresholds frozen from the reference run for this seed (low 0.989, top 0.606)
    verdict(
        8,
        low >= 0.70 and top <= 0.65 and top < low,
        f"joint row sparsity vs per-task OLS (low-quartile wins {low:.3f}, top {top:.3f})",
    )


def test_09_metric_identities():
    records, report = planted_structure_experiment()
    dominance = all(r.rmse >= r.mae >= 0.0 for r in records)

    unbalanced = [
        MetricRecord(0, "a", 1, 0.10, 0.08, "m"),
        MetricRecord(0, "b", 2, 0.20, 0.16, "m"),
        MetricRecord(0, "c", 3, 0.30, 0.24, "m"),
        MetricRecord(1, "a", 1, 0.80, 0.64, "m"),
    ]
    summary = aggregate(unbalanced)["m"]
    round_means = [(0.10 + 0.20 + 0.30) / 3, 0.80]
    oracle = sum(round_means) / 2
    two_level_ok = math.isclose(summary.overall_rmse, oracle, rel_tol=1e-12)

    wld_ok = True
    for per_method in report.quartile_wld.values():
        units = sum(per_method[report.benchmark])  # benchmark vs itself: all draws
        for w, l, d in per_method.values():
            if w + l + d != units:
                wld_ok = False
    verdict(
        9,
        dominance and two_level_ok and wld_ok,
        "rmse >= mae, two-level aggregation, and W/L/D unit accounting",
    )


def test_10_end_to_end_determinism(tmp_path):
    config = {
        "data": {
            "synthetic": {
                "n_tasks": 5,
                "n_features": 4,
                "samples_per_task_per_month": 7,
                "months": 8,
                "shared_support_size": 3,
                "coefficient_noise": 0.03,
                "observation_noise": 0.1,
                "seed": 303,
            }
        },
        "task_definitions": ["region:SA3", "region:SA4"],
        "methods": [
            {"label": "mtl_l21", "kind": "mtl_l21", "theta1": [0.5]},
            {"label": "ridge", "kind": "ridge", "penalty": [1.0]},
        ],
        "k": 3,
        "benchmark": "mtl_l21",
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "r1")]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "r2")]) == 0
    names = ("report.json", "records.csv", "summary.csv", "ranksum.csv", "wld.csv")
    identical = all(
        (tmp_path / "r1" / n).read_bytes() == (tmp_path / "r2" / n).read_bytes()
        for n in names
    )
    verdict(10, identical, "identical config and seed give byte-identical reports")
