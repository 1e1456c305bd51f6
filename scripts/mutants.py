#!/usr/bin/env python3
"""Source mutations that the test suite must kill.

Each entry names a file, an exact text in it, the text that replaces it and
the tests that must then fail. For each entry the script copies ``src``,
``tests``, ``fixtures`` and ``pyproject.toml`` to a temporary directory,
applies that one mutation there and runs the named tests with ``-x -q``;
hypothesis runs with a fixed seed, so a kill does not depend on the draw.
The control entry changes only a comment and runs every test that any
other entry names: it must survive, which shows that those tests pass on an
unmutated copy, so a kill comes from its mutation and not from the copy.

    python scripts/mutants.py

Exits with status 1 when a mutant survives, a control is killed, an old
text does not occur exactly once in its file, or pytest cannot run the
named tests.
"""

import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    control: bool = False  # changes nothing the tests can see: must survive


MUTATIONS = (
    Mutant(
        "padding-not-zeroed",
        "src/mtlhouse/solver.py",
        "        Z[self.padding] = 0.0  # ... and is set to 0\n",
        "",
        ("tests/test_solver.py::TestGramForm::test_lasso_columns_match_single_task_fits_bit_for_bit",),
    ),
    Mutant(
        "lasso-losses-pooled",
        "src/mtlhouse/solver.py",
        "smooth_part = np.add.reduceat(r * r, data.starts)",
        "smooth_part = np.full(data.n_tasks, r @ r)",
        ("tests/test_solver.py",),
    ),
    Mutant(
        "standardizer-on-every-row",
        "src/mtlhouse/design.py",
        "standardizer = Standardizer.fit(dataset.numeric[rows])",
        "standardizer = Standardizer.fit(dataset.numeric)",
        ("tests/test_backtest.py::TestRunBacktest::test_standardizer_reads_only_the_window_rows",),
    ),
    Mutant(
        "restart-keeps-momentum",
        "src/mtlhouse/solver.py",
        "            since = _put(since, R, 0)\n",
        "",
        ("tests/test_solver.py::TestJointKindsFollowScalarFista",),
    ),
    Mutant(
        "ridge-cv-may-choose-nan",
        "src/mtlhouse/baselines.py",
        "best = np.argmin(np.where(np.isnan(sse), np.inf, sse), axis=1)",
        "best = np.argmin(sse, axis=1)",
        ("tests/test_baselines.py::TestRidgeCv::test_nan_penalty_is_never_chosen",),
    ),
    Mutant(
        "l21-factors-keep-nan",
        "src/mtlhouse/solver.py",
        "return np.fmax(1.0 - threshold / norms, 0.0)",
        "return np.maximum(1.0 - threshold / norms, 0.0)",
        ("tests/test_solver.py::TestProxL21::test_zero_nan_and_inf_rows_match_the_masked_form",),
    ),
    Mutant(
        "refused-chunk-keeps-its-labels",
        "src/mtlhouse/data.py",
        "                for lookup, size in zip(self.lookups.values(), sizes):\n"
        "                    while len(lookup) > size:\n"
        "                        lookup.popitem()\n",
        "",
        ("tests/test_data.py::TestLoadDataset::test_chunked_load_matches_a_single_chunk",),
    ),
    Mutant(
        "supports-miss-negative-columns",
        "src/mtlhouse/design.py",
        "self.x != 0.0",
        "self.x > 0.0",
        ("tests/test_baselines.py::TestOlsRidge::test_singular_ols_lstsq_fallback_is_minimum_norm",),
    ),
    Mutant(
        "leakage-guard-trusts-the-window",
        "src/mtlhouse/backtest.py",
        "if train.window[1] >= scored_month or train.row_months[1] >= scored_month:",
        "if train.window[1] >= scored_month:",
        ("tests/test_backtest.py::TestRunBacktest::test_rows_past_the_window_trip_leakage_guard",),
    ),
    Mutant(
        "row-reader-reads-past-the-chunk",
        "src/mtlhouse/data.py",
        "            if reader.line_num >= len(recorded):\n                break\n",
        "",
        ("tests/test_data.py::TestChunkedRead::test_a_late_reject_reads_one_chunk_row_by_row",),
    ),
    Mutant(
        "divergence-goes-unnoticed",
        "src/mtlhouse/solver.py",
        "    if not _all_finite(value):\n"
        '        raise DivergenceError(f"objective became non-finite at iteration {iteration}")\n',
        "",
        ("tests/test_solver.py::TestFit::test_divergence_after_iteration_one_names_that_iteration",),
    ),
    Mutant(
        "graph-gap-without-coupling-in-v-norm",
        "src/mtlhouse/solver.py",
        "scale * scale * smooth_part) / max(",
        "scale * scale * loss) / max(",
        (
            "tests/test_solver.py::TestGramForm::test_gap_matches_the_residual_oracle",
            "tests/test_solver.py::TestDualityGap::test_gap_bounds_the_objective_excess",
        ),
    ),
    Mutant(
        "graph-dual-without-coupling-gradient",
        "src/mtlhouse/solver.py",
        "_row_norms(smooth.expand(half_dual) + 2.0 * reg.theta1 * M)",
        "_row_norms(smooth.expand(half_dual))",
        (
            "tests/test_solver.py::TestGramForm::test_gap_matches_the_residual_oracle",
            "tests/test_solver.py::TestDualityGap::test_gap_bounds_the_objective_excess",
        ),
    ),
    Mutant(
        "profiled-grams-from-raw-rows",
        "src/mtlhouse/design.py",
        "                x = x - c[:, None] * offsets[owner]\n",
        "",
        ("tests/test_solver.py::TestProfiledIntercept::test_grams_match_explicitly_projected_rows",),
    ),
    Mutant(
        "intercepts-not-recovered",
        "src/mtlhouse/solver.py",
        "W = smooth.weights(Z, smooth.intercepts(Z, start[-1]))",
        "W = smooth.weights(Z, start[-1])",
        ("tests/test_solver.py::TestProfiledIntercept::test_every_kind_returns_least_squares_intercepts",),
    ),
    Mutant(
        "start-from-the-current-round",
        "src/mtlhouse/backtest.py",
        "_select_grid_point(spec, held_out, inner_fits, where, starts)",
        "_select_grid_point(spec, held_out, inner_fits, where, fits)",
        ("tests/test_backtest.py::TestGridSelection::test_starts_never_saw_the_scored_month",),
    ),
    Mutant(
        "grid-path-without-warm-starts",
        "src/mtlhouse/backtest.py",
        "_fit_point(inner, spec, points[i], inner_fits, where, start, starts)",
        "_fit_point(inner, spec, points[i], inner_fits, where, None, starts)",
        ("tests/test_backtest.py::TestGridSelection::test_graph_grid_is_solved_as_a_warm_started_path",),
    ),
)
MUTANTS = MUTATIONS + (
    Mutant(
        "control-comment",
        "src/mtlhouse/solver.py",
        "# the widest penalized support\n",
        "# the widest penalized support of all tasks\n",
        tuple(sorted({test for mutant in MUTATIONS for test in mutant.tests})),
        control=True,
    ),
)


def outcome(mutant: Mutant) -> tuple[str, str]:
    """("killed" | "survived" | "stale" | "error", pytest's output)."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in ("src", "tests", "fixtures"):
            shutil.copytree(ROOT / name, work / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        path = work / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "stale", f"{mutant.file} holds the old text {text.count(mutant.old)} times, not once"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        # pyproject.toml puts the copy's src first on the path
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
        done = subprocess.run(command + list(mutant.tests), cwd=work, capture_output=True, text=True)
    states = {0: "survived", 1: "killed"}
    return states.get(done.returncode, "error"), done.stdout + done.stderr


def main() -> int:
    failed = 0
    start = time.perf_counter()
    for mutant in MUTANTS:
        began = time.perf_counter()
        state, output = outcome(mutant)
        wanted = "survived" if mutant.control else "killed"
        ok = state == wanted
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {mutant.name}: {state} ({time.perf_counter() - began:.1f} s)", flush=True)
        if not ok:
            print(output, file=sys.stderr)
    print(f"{failed} failed, {time.perf_counter() - start:.1f} s in all")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
