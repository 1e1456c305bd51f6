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
        "intercept-slot-not-last",
        "src/mtlhouse/solver.py",
        "slots = np.append(np.arange(width - 1), n_slots - 1)",
        "slots = np.arange(width)",
        ("tests/test_solver.py::TestGramForm",),
    ),
    Mutant(
        "last-norms-without-inf",
        "src/mtlhouse/solver.py",
        "last_norms = np.where(last_rows[-1] > 0.0, last_rows[-1], np.inf)",
        "last_norms = last_rows[-1]",
        ("tests/test_solver.py",),
    ),
    Mutant(
        "lasso-losses-pooled",
        "src/mtlhouse/solver.py",
        "smooth_part = np.add.reduceat(r * r, data.starts)",
        "smooth_part = np.full(data.n_tasks, r @ r)",
        ("tests/test_solver.py",),
    ),
    Mutant(
        "last-gram-rows-from-column-0",
        "src/mtlhouse/solver.py",
        "last_rows[at] = group.grams[:, :, -1].T",
        "last_rows[at] = group.grams[:, :, 0].T",
        ("tests/test_solver.py",),
    ),
    Mutant(
        "standardizer-on-every-row",
        "src/mtlhouse/design.py",
        "standardizer = Standardizer.fit(dataset.numeric[rows])",
        "standardizer = Standardizer.fit(dataset.numeric)",
        ("tests/test_backtest.py::TestRunBacktest::test_standardizer_reads_only_the_window_rows",),
    ),
)
MUTANTS = MUTATIONS + (
    Mutant(
        "control-comment",
        "src/mtlhouse/solver.py",
        "# the widest support\n",
        "# the widest support of all tasks\n",
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
