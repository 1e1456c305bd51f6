"""Report assembly and writing: canonical JSON, delimited files, markdown.

The run report is a single JSON document (sorted keys, stable float repr) so
identical experiments produce byte-identical outputs. CSV and markdown views
are derived from it; the markdown summary bolds the best method per row.
Every file is written as UTF-8 whatever the locale.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Sequence

from .backtest import ComparisonReport
from .design import WeightMatrix
from .metrics import MetricRecord
from .tasks import GROUP_LABELS

SUMMARY_DECIMALS = 3


def definition_result_dict(
    records: Sequence[MetricRecord], report: ComparisonReport, method_order: Sequence[str]
) -> dict:
    methods = {}
    for label in method_order:
        summary = report.summaries[label]
        methods[label] = {
            "overall_rmse": summary.overall_rmse,
            "overall_mae": summary.overall_mae,
            "rounds": list(summary.rounds),
            "round_rmse": list(summary.round_rmse),
            "round_mae": list(summary.round_mae),
        }
    rank_sum = {
        label: {
            "statistic": outcome.statistic,
            "p_value": outcome.p_value,
            "significant": outcome.significant,
        }
        for label, outcome in report.rank_sum.items()
    }
    quartiles = None
    if report.quartile_boundaries is not None:
        quartiles = {
            "boundaries": list(report.quartile_boundaries),
            "tasks": {g: list(ids) for g, ids in report.quartile_tasks.items()},
            "wld": {
                g: {m: list(t) for m, t in per_method.items()}
                for g, per_method in report.quartile_wld.items()
            },
        }
    return {
        "benchmark": report.benchmark,
        "methods": methods,
        "rank_sum": rank_sum,
        "quartiles": quartiles,
        "skipped_rounds": list(report.skipped_rounds),
        "n_records": len(records),
    }


def dump_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _markdown_table(title: str, header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    lines = [f"# {title}", "", "| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    lines.append("")
    return "\n".join(lines)


def write_records_csv(path: Path, rows: Sequence[tuple[str, MetricRecord]]) -> None:
    """One line per (definition, method, round, task) metric record."""
    _write_csv(
        path,
        ["definition", "method", "round", "task_id", "n", "rmse", "mae"],
        (
            [d, r.method, r.round_index, r.task_id, r.n, repr(r.rmse), repr(r.mae)]
            for d, r in rows
        ),
    )


def write_weights_csv(path: Path, weights: WeightMatrix) -> None:
    """One row per design column, one weight column per task."""
    _write_csv(
        path,
        ["column"] + list(weights.task_ids),
        (
            [name] + [repr(float(v)) for v in row]
            for name, row in zip(weights.columns, weights.values)
        ),
    )


def _summary_rows(report: dict):
    """(definition, per-method overall RMSEs, per-method overall MAEs) for each definition."""
    for definition in report["definition_order"]:
        results = [report["definitions"][definition]["methods"][m] for m in report["method_order"]]
        yield definition, [r["overall_rmse"] for r in results], [r["overall_mae"] for r in results]


def write_summary_csv(path: Path, report: dict) -> None:
    """Wide table: one row per task definition, RMSE/MAE columns per method."""
    _write_csv(
        path,
        ["definition"] + [f"{m}_{e}" for m in report["method_order"] for e in ("rmse", "mae")],
        (
            [definition] + [repr(v) for pair in zip(rmses, maes) for v in pair]
            for definition, rmses, maes in _summary_rows(report)
        ),
    )


def _ranksum_rows(report: dict):
    """(definition, method, outcome) for each rank-sum test, in report order."""
    for definition in report["definition_order"]:
        for label in report["method_order"]:
            yield definition, label, report["definitions"][definition]["rank_sum"][label]


def _wld_rows(report: dict):
    """(definition, group, per-method (win, loss, draw) list) for each quartile group.

    Groups follow GROUP_LABELS: report.json stores them under sorted keys, which
    put (1/2,3/4] before (1/4,1/2].
    """
    for definition in report["definition_order"]:
        quartiles = report["definitions"][definition]["quartiles"]
        if quartiles is None:
            continue
        for group in GROUP_LABELS:
            per_method = quartiles["wld"][group]
            yield definition, group, [per_method[label] for label in report["method_order"]]


def write_ranksum_csv(path: Path, report: dict) -> None:
    _write_csv(
        path,
        ["definition", "method", "statistic", "p_value", "significant"],
        (
            [definition, label, repr(o["statistic"]), repr(o["p_value"]), o["significant"]]
            for definition, label, o in _ranksum_rows(report)
        ),
    )


def write_wld_csv(path: Path, report: dict) -> None:
    _write_csv(
        path,
        ["definition", "group", "method", "win", "loss", "draw"],
        (
            [definition, group, label, w, l, d]
            for definition, group, records in _wld_rows(report)
            for label, (w, l, d) in zip(report["method_order"], records)
        ),
    )


def summary_markdown(report: dict) -> str:
    """Summary table with the best (lowest RMSE, lowest MAE) method in bold."""
    methods = report["method_order"]
    return _markdown_table(
        "Backtest summary",
        ["definition"] + [f"{m} RMSE" for m in methods] + [f"{m} MAE" for m in methods],
        (
            [definition] + _bold_min_cells(rmses) + _bold_min_cells(maes)
            for definition, rmses, maes in _summary_rows(report)
        ),
    )


def _bold_min_cells(values: Sequence[float]) -> list[str]:
    best = min(values)
    cells = []
    for v in values:
        text = f"{v:.{SUMMARY_DECIMALS}f}"
        cells.append(f"**{text}**" if v == best else text)
    return cells


def wld_markdown(report: dict) -> str:
    return _markdown_table(
        "Win/Loss/Draw vs benchmark",
        ["definition", "group"] + report["method_order"],
        (
            [definition, group] + [f"{w}/{l}/{d}" for w, l, d in records]
            for definition, group, records in _wld_rows(report)
        ),
    )


def ranksum_markdown(report: dict) -> str:
    return _markdown_table(
        "Rank-sum test vs benchmark",
        ["definition", "method", "statistic", "p-value", "significant"],
        (
            [definition, label, f"{o['statistic']:g}", f"{o['p_value']:.4f}", str(o["significant"])]
            for definition, label, o in _ranksum_rows(report)
        ),
    )


def write_report_md(path: Path, report: dict) -> None:
    """The summary, rank-sum and Win/Loss/Draw tables, in that order."""
    text = "\n".join([summary_markdown(report), ranksum_markdown(report), wld_markdown(report)])
    path.write_text(text, encoding="utf-8")
