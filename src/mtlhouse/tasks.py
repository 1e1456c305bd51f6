"""Task definitions: rules that partition a dataset into related learning tasks.

Four single-profile strategies (statistical region, ranked school district,
station radius, shared facilities) plus pairwise intersections of any two.
Records matched by no task are kept in ``unassigned`` so coverage always
accounts for the whole dataset.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Union

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
        if self.threshold <= 0:
            raise DefinitionError(f"threshold must be positive, got {self.threshold}")
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


@dataclass(frozen=True)
class Task:
    task_id: str
    member_indices: tuple[int, ...]


@dataclass(frozen=True)
class TaskSet:
    """A disjoint cover of record indices: tasks plus the unassigned remainder."""

    definition: TaskDefinition
    tasks: tuple[Task, ...]
    unassigned: tuple[int, ...]
    record_months: tuple[int, ...]

    def __post_init__(self):
        if list(self.record_months) != sorted(self.record_months):
            raise ValueError("record_months must be sorted")
        seen: set[int] = set(self.unassigned)
        total = len(self.unassigned)
        for task in self.tasks:
            if not task.member_indices:
                raise ValueError(f"task {task.task_id!r} is empty")
            if list(task.member_indices) != sorted(task.member_indices):
                raise ValueError(f"task {task.task_id!r} member indices must be ascending")
            seen.update(task.member_indices)
            total += len(task.member_indices)
        if total != len(seen) or seen != set(range(len(self.record_months))):
            raise ValueError("tasks plus unassigned must partition the record indices")

    @property
    def task_ids(self) -> tuple[str, ...]:
        return tuple(t.task_id for t in self.tasks)

    def rows_in(self, window: tuple[int, int]) -> dict[str, tuple[int, ...]]:
        """Every task's member indices (maybe none) in the inclusive month ``window``.

        Records are month-sorted, so the window is one record range [start, stop);
        member indices ascend, so each task's rows in it are one slice of them.
        """
        start = bisect_left(self.record_months, window[0])
        stop = bisect_right(self.record_months, window[1])
        def rows(idx: tuple[int, ...]) -> tuple[int, ...]:
            return idx[bisect_left(idx, start) : bisect_left(idx, stop)]

        return {t.task_id: rows(t.member_indices) for t in self.tasks}

    def window_counts(self, window: tuple[int, int]) -> dict[str, int]:
        return {task_id: len(rows) for task_id, rows in self.rows_in(window).items()}


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


def _row_labels(dataset: Dataset, definition: TaskDefinition) -> list[Optional[str]]:
    """Each row's task label under ``definition`` (None = unassigned)."""

    def labels(name: str) -> list[str]:
        return [str(v) for v in dataset.column(name)]

    if isinstance(definition, RegionDef):
        _require_columns(dataset, definition, (definition.level,))
        return labels(definition.level)

    if isinstance(definition, SchoolDef):
        key_col, rank_col = _school_columns(definition, dataset.schema)
        _require_columns(dataset, definition, (key_col, rank_col))
        lo, hi = definition.rank_lo, definition.rank_hi
        return [
            key if lo <= float(rank) <= hi else None
            for key, rank in zip(labels(key_col), dataset.column(rank_col))
        ]

    if isinstance(definition, StationDef):
        measure_col = STATION_MEASURE_COLUMNS[definition.measure]
        _require_columns(dataset, definition, (STATION_KEY, measure_col))
        threshold = definition.threshold
        # threshold is inclusive: intervals are closed at the far end
        return [
            key if float(measure) <= threshold else None
            for key, measure in zip(labels(STATION_KEY), dataset.column(measure_col))
        ]

    if isinstance(definition, FacilityDef):
        columns = [FACILITY_COLUMNS[k] for k in definition.kinds]
        _require_columns(dataset, definition, columns)
        return ["|".join(keys) for keys in zip(*(labels(c) for c in columns))]

    if isinstance(definition, IntersectionDef):
        return [
            None if a is None or b is None else f"{a}&{b}"
            for a, b in zip(_row_labels(dataset, definition.a), _row_labels(dataset, definition.b))
        ]

    raise DefinitionError(f"unknown definition {definition!r}")


def define_tasks(dataset: Dataset, definition: TaskDefinition) -> TaskSet:
    """Partition ``dataset`` into tasks according to ``definition``."""
    members: dict[str, list[int]] = {}
    unassigned: list[int] = []
    for i, key in enumerate(_row_labels(dataset, definition)):
        if key is None:
            unassigned.append(i)
        else:
            members.setdefault(key, []).append(i)
    if not members:
        raise EmptyTaskSetError(
            f"definition {format_definition(definition)!r} produced zero tasks"
        )
    tasks = tuple(
        Task(task_id=key, member_indices=tuple(members[key])) for key in sorted(members)
    )
    return TaskSet(
        definition=definition,
        tasks=tasks,
        unassigned=tuple(unassigned),
        record_months=tuple(dataset.months.tolist()),
    )


def filter_min_samples(taskset: TaskSet, window: tuple[int, int], min_count: int) -> TaskSet:
    """Drop tasks with fewer than ``min_count`` members inside ``window``.

    Members of dropped tasks move to ``unassigned``.
    """
    if min_count < 0:
        raise ValueError("min_count must be >= 0")
    counts = taskset.window_counts(window)
    kept = tuple(t for t in taskset.tasks if counts[t.task_id] >= min_count)
    dropped = [i for t in taskset.tasks if counts[t.task_id] < min_count for i in t.member_indices]
    return TaskSet(
        definition=taskset.definition,
        tasks=kept,
        unassigned=tuple(sorted(set(taskset.unassigned) | set(dropped))),
        record_months=taskset.record_months,
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
    counts = taskset.window_counts(window)
    q1, q2, q3 = nearest_rank_quartiles(list(counts.values()))
    top = max(counts.values())
    groups: tuple[list[str], ...] = ([], [], [], [])
    for task in taskset.tasks:
        c = counts[task.task_id]
        if c == top or c > q3:
            g = 3
        elif c <= q1:
            g = 0
        elif c <= q2:
            g = 1
        else:
            g = 2
        groups[g].append(task.task_id)
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
        inner = rest[1:-1]
        depth = 0
        split = -1
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                split = i
                break
        if split < 0:
            raise ParseError(text, offset + len(stripped) - 1, "expected two operands")
        a = parse_definition(inner[:split])
        b = parse_definition(inner[split + 1:])
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
