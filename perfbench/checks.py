"""Output checks: what every ``mtlhouse run`` of a workload must have written.

The expected metric records are derived from the generated dataset alone,
without the program's task, design or backtest code: a (round, task) pair is
scored when the task has sales in the round's test month and in its k-month
training window.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

from workloads import OUT_DIR


def expected_records(dataset, definitions, k: int) -> dict[str, set[tuple[int, str]]]:
    """(round, task) pairs each definition (``region:<LEVEL>``) must score."""
    months = [r.sale_month for r in dataset.records]
    first, last = min(months), max(months)
    expected = {}
    for text in definitions:
        kind, level = text.split(":")
        if kind != "region":
            raise ValueError(f"no expected-record rule for definition {text!r}")
        sold: dict[str, set[int]] = {}
        for record in dataset.records:
            sold.setdefault(record.values[level], set()).add(record.sale_month)
        expected[text] = {
            (round_index, task)
            for round_index, test_month in enumerate(range(first + k, last + 1))
            for task, task_months in sold.items()
            if test_month in task_months
            and any(test_month - k <= m < test_month for m in task_months)
        }
    return expected


def check_outputs(workdir: Path, methods, expected) -> list[str]:
    """Problems found in the run's outputs; an empty list means the run passed."""
    out = workdir / OUT_DIR
    report = json.loads((out / "report.json").read_text())
    problems = []
    if report.get("partial") is not False:
        problems.append(f"report is partial: {report.get('errors')}")
    with (out / "records.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    keys = Counter((r["definition"], r["method"], int(r["round"]), r["task_id"]) for r in rows)
    repeated = [key for key, n in keys.items() if n > 1]
    if repeated:
        problems.append(f"{len(repeated)} records appear more than once, e.g. {repeated[0]}")
    for definition, pairs in expected.items():
        for method in methods:
            got = {(r, t) for d, m, r, t in keys if d == definition and m == method}
            if got != pairs:
                problems.append(
                    f"{definition} {method}: {len(pairs - got)} records missing, "
                    f"{len(got - pairs)} unexpected"
                )
    if not all(math.isfinite(float(r["rmse"])) for r in rows):
        problems.append("records.csv holds a non-finite RMSE")
    if not all(math.isfinite(v) for v in overall_rmses(report)):
        problems.append("report.json holds a non-finite overall RMSE")
    return problems


def overall_rmses(report: dict) -> list[float]:
    """Aggregate test RMSE (log-price space) of every (definition, method)."""
    return [
        result["methods"][label]["overall_rmse"]
        for result in report["definitions"].values()
        for label in report["method_order"]
    ]


def output_digest(workdir: Path) -> str:
    """One hash over every file the run wrote, to compare repetitions byte for byte."""
    digest = hashlib.sha256()
    for path in sorted((workdir / OUT_DIR).rglob("*")):
        if path.is_file():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()
