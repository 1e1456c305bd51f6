"""Task definitions: rules that partition a dataset into related learning tasks.

Four single-profile strategies (statistical region, ranked school district,
station radius, shared facilities) plus pairwise intersections of any two.
A :class:`TaskSet` holds one task code per dataset row, built from the
dataset's key-column codes, with -1 for a row that no task takes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .data import Dataset, FeatureSchema

FACILITY_KINDS = ("shop", "hospital", "gp", "market")
FACILITY_COLUMNS = {
    "shop": "SHOP_ID",
    "hospital": "HOSPITAL_ID",
    "gp": "GP_ID",
    "market": "MARKET_ID",
}
SCHOOL_KINDS = ("primary", "secondary")
STATION_KEY = "STATION_ID"
STATION_MEASURE_COLUMNS = {"distance": "DIST_STATION", "time": "TIME_STATION"}

GROUP_LABELS = ("(0,1/4]", "(1/4,1/2]", "(1/2,3/4]", "(3/4,1]")


class DefinitionError(ValueError):
    """The task definition cannot be applied to the dataset's schema."""


class EmptyTaskSetError(ValueError):
    """The definition produced no tasks at all."""


@dataclass(frozen=True)
class RegionDef:
    """One task per distinct region code at the named level (e.g. SA3)."""

    level: str


@dataclass(frozen=True)
class SchoolDef:
    """One task per qualifying school district with rank in [rank_lo, rank_hi]."""

    school_kind: str
    rank_lo: int
    rank_hi: int

    def __post_init__(self):
        if self.school_kind not in SCHOOL_KINDS:
            raise DefinitionError(f"unknown school kind {self.school_kind!r}")
        if self.rank_lo > self.rank_hi:
            raise DefinitionError(f"rank_lo {self.rank_lo} > rank_hi {self.rank_hi}")


@dataclass(frozen=True)
class StationDef:
    """One task per station; a record joins iff its distance/time <= threshold."""

    threshold: float
    measure: str = "distance"

    def __post_init__(self):
        if not (math.isfinite(self.threshold) and self.threshold > 0):
            raise DefinitionError(f"threshold must be positive and finite, got {self.threshold}")
        if self.measure not in STATION_MEASURE_COLUMNS:
            raise DefinitionError(f"unknown station measure {self.measure!r}")


@dataclass(frozen=True)
class FacilityDef:
    """One task per distinct tuple of the named nearest-facility identifiers."""

    shared_level: int
    kinds: tuple[str, ...]

    def __post_init__(self):
        if not 1 <= self.shared_level <= 4:
            raise DefinitionError(f"shared_level must be 1..4, got {self.shared_level}")
        if len(self.kinds) != self.shared_level:
            raise DefinitionError(
                f"facility kinds {self.kinds} do not match shared_level {self.shared_level}"
            )
        if len(set(self.kinds)) != len(self.kinds):
            raise DefinitionError(f"duplicate facility kinds in {self.kinds}")
        for kind in self.kinds:
            if kind not in FACILITY_KINDS:
                raise DefinitionError(f"unknown facility kind {kind!r}")


@dataclass(frozen=True)
class IntersectionDef:
    """Pairwise intersection of two single-profile definitions."""

    a: "TaskDefinition"
    b: "TaskDefinition"

    def __post_init__(self):
        for op in (self.a, self.b):
            if isinstance(op, IntersectionDef):
                raise DefinitionError("intersection operands must not be intersections")


TaskDefinition = Union[RegionDef, SchoolDef, StationDef, FacilityDef, IntersectionDef]


@dataclass(frozen=True, eq=False)
class TaskSet:
    """A partition of the dataset's rows into tasks: one task code per row.

    ``codes[i]`` indexes row i's task in ``tasks``, the sorted task ids, or is
    -1 where no task takes the row. ``months`` is the dataset's month column.
    """

    definition: TaskDefinition
    tasks: tuple[str, ...]
    codes: np.ndarray
    months: np.ndarray

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.intp)
        months = np.asarray(self.months, dtype=np.int64)
        if months.ndim != 1 or codes.shape != months.shape:
            raise ValueError("codes and months must be vectors of one length")
        if np.any(np.diff(months) < 0):
            raise ValueError("months must be sorted")
        n_tasks = len(self.tasks)
        if list(self.tasks) != sorted(set(self.tasks)):
            raise ValueError("task ids must be sorted and unique")
        if len(codes) and not -1 <= codes.min() <= codes.max() < n_tasks:
            raise ValueError(f"task codes must lie in [-1, {n_tasks})")
        if not np.all(np.bincount(codes[codes >= 0], minlength=n_tasks)):
            raise ValueError("every task needs at least one row")
        codes.flags.writeable = months.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "months", months)

    def rows_in(self, window: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """The rows in the inclusive month ``window`` that a task takes, and each task's count.

        Rows are month-sorted, so the window is one row range; the rows come
        grouped in task order, ascending within a task.
        """
        start = np.searchsorted(self.months, window[0], "left")
        stop = np.searchsorted(self.months, window[1], "right")
        order = np.argsort(self.codes[start:stop], kind="stable")
        grouped = self.codes[start:stop][order]
        first = np.searchsorted(grouped, 0)  # past the unassigned rows, code -1
        return start + order[first:], np.bincount(grouped[first:], minlength=len(self.tasks))


@dataclass(frozen=True)
class QuartileGrouping:
    """Tasks binned by window sample count at the quartile boundaries."""

    boundaries: tuple[int, int, int]
    groups: tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...], tuple[str, ...]]

    def __post_init__(self):
        q1, q2, q3 = self.boundaries
        if not q1 <= q2 <= q3:
            raise ValueError("quartile boundaries must be nondecreasing")


def used_key_columns(definition: TaskDefinition, schema: FeatureSchema) -> tuple[str, ...]:
    """Key columns a definition groups by (constant within each of its tasks)."""
    if isinstance(definition, RegionDef):
        return (definition.level,)
    if isinstance(definition, SchoolDef):
        return (_school_columns(definition, schema)[0],)
    if isinstance(definition, StationDef):
        return (STATION_KEY,)
    if isinstance(definition, FacilityDef):
        return tuple(FACILITY_COLUMNS[k] for k in definition.kinds)
    if isinstance(definition, IntersectionDef):
        a = used_key_columns(definition.a, schema)
        b = used_key_columns(definition.b, schema)
        return a + tuple(c for c in b if c not in a)
    raise DefinitionError(f"unknown definition {definition!r}")


def _school_columns(definition: SchoolDef, schema: FeatureSchema) -> tuple[str, str]:
    """(district-or-nearest key column, rank column) for the school kind."""
    prefix = definition.school_kind.upper()
    district = f"{prefix}_DISTRICT"
    nearest = f"{prefix}_NEAREST"
    rank = f"{prefix}_RANK"
    key = district if schema.has(district) else nearest
    return key, rank


def _require_columns(dataset: Dataset, definition: TaskDefinition, columns) -> None:
    for name in columns:
        if not dataset.schema.has(name):
            raise DefinitionError(
                f"definition {format_definition(definition)!r} needs column {name!r} "
                "which is not in the dataset schema"
            )


def _numeric(dataset: Dataset, name: str) -> np.ndarray:
    return dataset.numeric[:, dataset.schema.numeric.index(name)]


def _row_keys(dataset: Dataset, definition: TaskDefinition) -> tuple[Sequence[str], np.ndarray]:
    """Labels, and each row's index into them under ``definition`` (-1 = unassigned).

    Labels may repeat a text, and some may be used by no row.
    """
    if isinstance(definition, RegionDef):
        _require_columns(dataset, definition, (definition.level,))
        return dataset.inventories[definition.level], dataset.codes[definition.level]

    if isinstance(definition, SchoolDef):
        key_col, rank_col = _school_columns(definition, dataset.schema)
        _require_columns(dataset, definition, (key_col, rank_col))
        rank = _numeric(dataset, rank_col)
        inside = (definition.rank_lo <= rank) & (rank <= definition.rank_hi)
        return dataset.inventories[key_col], np.where(inside, dataset.codes[key_col], -1)

    if isinstance(definition, StationDef):
        key_col, measure_col = STATION_KEY, STATION_MEASURE_COLUMNS[definition.measure]
        _require_columns(dataset, definition, (key_col, measure_col))
        # threshold is inclusive: intervals are closed at the far end; NaN is outside
        inside = _numeric(dataset, measure_col) <= definition.threshold
        return dataset.inventories[key_col], np.where(inside, dataset.codes[key_col], -1)

    if isinstance(definition, FacilityDef):
        columns = [FACILITY_COLUMNS[k] for k in definition.kinds]
        _require_columns(dataset, definition, columns)
        keyed = [(dataset.inventories[c], dataset.codes[c]) for c in columns]
        return functools.reduce(lambda a, b: _pair(a, b, "|"), keyed)

    if isinstance(definition, IntersectionDef):
        return _pair(_row_keys(dataset, definition.a), _row_keys(dataset, definition.b), "&")

    raise DefinitionError(f"unknown definition {definition!r}")


def _pair(a, b, sep: str) -> tuple[Sequence[str], np.ndarray]:
    """Row keys of the label pairs of ``a`` and ``b`` that some row holds, texts joined
    by ``sep``; a row unassigned in either is unassigned."""
    (labels_a, codes_a), (labels_b, codes_b) = a, b
    both = (codes_a >= 0) & (codes_b >= 0)
    pairs, inverse = np.unique(
        codes_a[both].astype(np.int64) * len(labels_b) + codes_b[both], return_inverse=True
    )
    codes = np.full(len(both), -1, dtype=np.intp)
    codes[both] = inverse
    i, j = np.divmod(pairs, len(labels_b))
    return [f"{labels_a[p]}{sep}{labels_b[q]}" for p, q in zip(i.tolist(), j.tolist())], codes


def define_tasks(dataset: Dataset, definition: TaskDefinition) -> TaskSet:
    """Partition ``dataset`` into tasks according to ``definition``.

    Task ids are the sorted label texts that some row holds; labels that join
    to one text are one task.
    """
    labels, keys = _row_keys(dataset, definition)
    used = np.unique(keys[keys >= 0]).tolist()
    task_ids = sorted({labels[k] for k in used})
    if not task_ids:
        raise EmptyTaskSetError(
            f"definition {format_definition(definition)!r} produced zero tasks"
        )
    position = {task_id: p for p, task_id in enumerate(task_ids)}
    code_of = np.full(len(labels) + 1, -1, dtype=np.intp)  # the last entry: key -1
    code_of[used] = [position[labels[k]] for k in used]
    return TaskSet(definition, tuple(task_ids), code_of[keys], dataset.months)


def filter_min_samples(taskset: TaskSet, window: tuple[int, int], min_count: int) -> TaskSet:
    """Drop tasks with fewer than ``min_count`` rows inside ``window``; their rows
    become unassigned."""
    if min_count < 0:
        raise ValueError("min_count must be >= 0")
    kept = taskset.rows_in(window)[1] >= min_count
    code_of = np.append(np.where(kept, np.cumsum(kept) - 1, -1), -1)  # the last entry: code -1
    return TaskSet(
        definition=taskset.definition,
        tasks=tuple(t for t, keep in zip(taskset.tasks, kept) if keep),
        codes=code_of[taskset.codes],
        months=taskset.months,
    )


def nearest_rank_quartiles(counts: list[int]) -> tuple[int, int, int]:
    """25/50/75th percentiles of ``counts`` by the nearest-rank method."""
    ordered = sorted(counts)
    n = len(ordered)
    ranks = [max(1, (k * n + 3) // 4) for k in (1, 2, 3)]  # ceil(k*n/4)
    return tuple(ordered[r - 1] for r in ranks)  # type: ignore[return-value]


def quartile_groups(taskset: TaskSet, window: tuple[int, int]) -> QuartileGrouping:
    """Bin tasks into four groups by window sample count.

    Intervals are half-open (lo, hi]; the top group additionally owns the
    maximum count so a fully tied distribution lands in (3/4, 1].
    """
    if len(taskset.tasks) < 4:
        raise ValueError(f"need at least 4 tasks, got {len(taskset.tasks)}")
    counts = taskset.rows_in(window)[1].tolist()
    q1, q2, q3 = nearest_rank_quartiles(counts)
    top = max(counts)
    groups: tuple[list[str], ...] = ([], [], [], [])
    for task_id, c in zip(taskset.tasks, counts):
        if c == top or c > q3:
            g = 3
        elif c <= q1:
            g = 0
        elif c <= q2:
            g = 1
        else:
            g = 2
        groups[g].append(task_id)
    return QuartileGrouping(
        boundaries=(q1, q2, q3), groups=tuple(tuple(g) for g in groups)
    )


def format_definition(definition: TaskDefinition) -> str:
    """Compact textual form, the inverse of :func:`parse_definition`."""
    if isinstance(definition, RegionDef):
        return f"region:{definition.level}"
    if isinstance(definition, SchoolDef):
        return f"school:{definition.school_kind}:{definition.rank_lo}-{definition.rank_hi}"
    if isinstance(definition, StationDef):
        threshold = definition.threshold
        text = repr(threshold) if threshold != int(threshold) else str(int(threshold))
        if definition.measure == "distance":
            return f"station:{text}"
        return f"station:{definition.measure}:{text}"
    if isinstance(definition, FacilityDef):
        return f"facility:{definition.shared_level}:{','.join(definition.kinds)}"
    if isinstance(definition, IntersectionDef):
        return f"intersect({format_definition(definition.a)}, {format_definition(definition.b)})"
    raise DefinitionError(f"unknown definition {definition!r}")


class ParseError(ValueError):
    """Malformed definition text; carries the offending position."""

    def __init__(self, text: str, pos: int, message: str):
        super().__init__(f"{message} at position {pos} in {text!r}")
        self.pos = pos
        self.message = message


# What an intersection operand starts with; a facility operand's kind list
# holds commas too, so the operands split at the comma before one of these.
OPERAND_STARTS = ("region:", "school:", "station:", "facility:")


def parse_definition(text: str) -> TaskDefinition:
    """Parse the compact grammar, e.g. ``region:SA3``, ``school:primary:1-40``,
    ``station:4000``, ``facility:2:shop,market``,
    ``intersect(region:SA3, station:4000)``."""
    stripped = text.strip()
    offset = len(text) - len(text.lstrip())
    if stripped.startswith("intersect"):
        rest = stripped[len("intersect"):]
        if not rest.startswith("(") or not rest.endswith(")"):
            raise ParseError(text, offset + len("intersect"), "expected '(...)'")
        start, stop = offset + len("intersect") + 1, offset + len(stripped) - 1
        depth = 0
        commas = []
        for i in range(start, stop):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
            elif text[i] == "," and depth == 0:
                commas.append(i)
        if not commas:
            raise ParseError(text, stop, "expected two operands")
        split = next(
            (i for i in commas if text[i + 1 : stop].lstrip().startswith(OPERAND_STARTS)),
            commas[0],
        )
        a = _parse_operand(text, start, split)
        b = _parse_operand(text, split + 1, stop)
        try:
            return IntersectionDef(a=a, b=b)
        except DefinitionError as exc:
            raise ParseError(text, offset, str(exc)) from None

    parts = stripped.split(":")
    kind = parts[0]
    try:
        if kind == "region":
            if len(parts) != 2 or not parts[1]:
                raise ParseError(text, offset + len(kind), "expected region:<LEVEL>")
            return RegionDef(level=parts[1])
        if kind == "school":
            if len(parts) != 3 or "-" not in parts[2]:
                raise ParseError(text, offset + len(kind), "expected school:<kind>:<lo>-<hi>")
            lo_text, _, hi_text = parts[2].partition("-")
            return SchoolDef(
                school_kind=parts[1], rank_lo=int(lo_text), rank_hi=int(hi_text)
            )
        if kind == "station":
            if len(parts) == 2:
                return StationDef(threshold=float(parts[1]))
            if len(parts) == 3:
                return StationDef(measure=parts[1], threshold=float(parts[2]))
            raise ParseError(text, offset + len(kind), "expected station:[measure:]<threshold>")
        if kind == "facility":
            if len(parts) != 3:
                raise ParseError(text, offset + len(kind), "expected facility:<n>:<kinds>")
            kinds = tuple(k.strip() for k in parts[2].split(",") if k.strip())
            return FacilityDef(shared_level=int(parts[1]), kinds=kinds)
    except (ValueError, DefinitionError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(text, offset + len(kind) + 1, str(exc)) from None
    raise ParseError(text, offset, f"unknown definition kind {kind!r}")


def _parse_operand(text: str, start: int, stop: int) -> TaskDefinition:
    """Parse ``text[start:stop]``; an error quotes all of ``text``, at a position in it."""
    try:
        return parse_definition(text[start:stop])
    except ParseError as exc:
        raise ParseError(text, start + exc.pos, exc.message) from None
