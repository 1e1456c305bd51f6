"""Housing dataset model: feature schema, columnar dataset, CSV I/O, log-price target.

A dataset is a month-sorted table of transactions held as column arrays.
Features are grouped under four profiles (house, education, transportation,
facility); the sale date and sale price are carried as dedicated meta fields.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
import operator
from collections import abc
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

logger = logging.getLogger(__name__)

Value = Union[float, str]

KINDS = ("numeric", "categorical", "key")
PROFILES = ("house", "education", "transportation", "facility", "meta")

# Fraction of malformed rows tolerated before a load is considered broken.
MAX_REJECT_FRACTION = 0.10

# Rows converted per column-at-a-time step when loading or saving a file.
CHUNK_ROWS = 4096


class SchemaError(ValueError):
    """The file or schema violates a structural requirement."""


class DataError(ValueError):
    """Too many rows failed to parse; carries the per-row messages."""

    def __init__(self, message: str, row_errors: Sequence[str]):
        super().__init__(message)
        self.row_errors = list(row_errors)


def month_index(date_text: str) -> int:
    """Convert an ISO ``YYYY-MM`` string to an absolute month count."""
    parts = date_text.strip().split("-")
    if len(parts) != 2:
        raise ValueError(f"expected YYYY-MM, got {date_text!r}")
    year, month = int(parts[0]), int(parts[1])
    if not 1 <= month <= 12:
        raise ValueError(f"month out of range in {date_text!r}")
    return year * 12 + (month - 1)


def month_text(index: int) -> str:
    """Inverse of :func:`month_index`."""
    return f"{index // 12:04d}-{index % 12 + 1:02d}"


def log_target(price: float) -> float:
    """Semi-log transform of a sale price (natural logarithm).

    Raises ValueError for non-positive prices.
    """
    if not price > 0:
        raise ValueError(f"price must be positive, got {price!r}")
    return math.log(price)


@dataclass(frozen=True)
class FeatureEntry:
    name: str
    kind: str  # numeric | categorical | key
    profile: str  # house | education | transportation | facility | meta

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaError(f"unknown feature kind {self.kind!r}")
        if self.profile not in PROFILES:
            raise SchemaError(f"unknown profile {self.profile!r}")


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature inventory; exactly one PRICE and one DATE meta entry."""

    entries: tuple[FeatureEntry, ...]

    def __post_init__(self):
        names = [e.name for e in self.entries]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate feature names in schema")
        for required in ("PRICE", "DATE"):
            matches = [e for e in self.entries if e.name == required]
            if len(matches) != 1 or matches[0].profile != "meta":
                raise SchemaError(f"schema needs exactly one meta entry named {required}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)

    @property
    def feature_names(self) -> tuple[str, ...]:
        """All non-meta names, in schema order."""
        return tuple(e.name for e in self.entries if e.profile != "meta")

    def numeric_names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries if e.kind == "numeric" and e.profile != "meta")

    def categorical_names(self) -> tuple[str, ...]:
        return tuple(
            e.name for e in self.entries if e.kind == "categorical" and e.profile != "meta"
        )

    def key_names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries if e.kind == "key" and e.profile != "meta")

    def has(self, name: str) -> bool:
        return name in self.names


@dataclass(frozen=True)
class HouseRecord:
    """One transaction: month stamp, feature values, positive finite sale price.

    A row view of a :class:`Dataset`, used where a caller wants one row at a time.
    """

    sale_month: int
    values: Mapping[str, Value]
    price: float

    def __post_init__(self):
        if not (self.price > 0 and math.isfinite(self.price)):
            raise ValueError(f"price must be positive and finite, got {self.price!r}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Transactions stored column by column, sorted by sale month.

    ``numeric`` holds the numeric features in ``schema.numeric_names()`` order,
    one row per transaction. Every categorical and key feature is an int32
    code vector in ``codes`` indexing its sorted category labels in
    ``inventories``. ``log_prices`` is :func:`log_target` of each price. The
    arrays are read-only; ``records`` builds the row view on first access.
    """

    schema: FeatureSchema
    months: np.ndarray
    prices: np.ndarray
    numeric: np.ndarray
    codes: Mapping[str, np.ndarray]
    inventories: Mapping[str, tuple[str, ...]]
    log_prices: np.ndarray = field(init=False, repr=False)
    month_range: tuple[int, int] = field(init=False, default=(0, 0))

    def __post_init__(self):
        n = len(self.months)
        coded = self.schema.categorical_names() + self.schema.key_names()
        columns = {
            "months": np.asarray(self.months, dtype=np.int64),
            "prices": np.asarray(self.prices, dtype=np.float64),
            "numeric": np.asarray(self.numeric, dtype=np.float64),
        }
        if columns["months"].shape != (n,) or columns["prices"].shape != (n,):
            raise ValueError("months and prices must be vectors of one length")
        if columns["numeric"].shape != (n, len(self.schema.numeric_names())):
            raise ValueError("numeric must hold one column per numeric feature")
        if np.any(np.diff(columns["months"]) < 0):
            raise ValueError("records must be sorted by sale_month")
        prices = columns["prices"]
        if not np.all((prices > 0) & np.isfinite(prices)):
            raise ValueError("prices must be positive and finite")
        if set(self.codes) != set(coded) or set(self.inventories) != set(coded):
            raise ValueError(f"need codes and an inventory for each of {coded}")
        codes, inventories = {}, {}
        for name in coded:
            inventory = inventories[name] = tuple(self.inventories[name])
            if list(inventory) != sorted(set(inventory)):
                raise ValueError(f"inventory of {name!r} must be sorted and unique")
            code = np.asarray(self.codes[name], dtype=np.int32)
            if code.shape != (n,) or (n and not 0 <= code.min() <= code.max() < len(inventory)):
                raise ValueError(f"codes of {name!r} must index its inventory, one per row")
            codes[name] = code
        for array in (*columns.values(), *codes.values()):
            array.flags.writeable = False
        for name, array in columns.items():
            object.__setattr__(self, name, array)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "inventories", inventories)
        # math.log per price, so the bytes equal log_target's
        log_prices = np.fromiter(map(math.log, prices.tolist()), np.float64, n)
        log_prices.flags.writeable = False
        object.__setattr__(self, "log_prices", log_prices)
        if n:
            object.__setattr__(self, "month_range", (int(self.months[0]), int(self.months[-1])))

    @classmethod
    def from_records(cls, schema: FeatureSchema, records: Sequence[HouseRecord]) -> "Dataset":
        """Columnar dataset of month-sorted records that carry every feature."""
        months = [r.sale_month for r in records]
        if months != sorted(months):
            raise ValueError("records must be sorted by sale_month")
        feature_names = set(schema.feature_names)
        for r in records:
            missing = feature_names - set(r.values)
            if missing:
                raise ValueError(f"record missing features: {sorted(missing)}")
        numeric_names = schema.numeric_names()
        numeric = np.array(
            [[float(r.values[name]) for name in numeric_names] for r in records], dtype=np.float64
        ).reshape(len(records), len(numeric_names))
        codes, inventories = {}, {}
        for name in schema.categorical_names() + schema.key_names():
            labels = [str(r.values[name]) for r in records]
            inventories[name] = tuple(sorted(set(labels)))
            position = {label: code for code, label in enumerate(inventories[name])}
            codes[name] = np.fromiter(map(position.__getitem__, labels), np.int32, len(labels))
        return cls(
            schema=schema,
            months=np.array(months, dtype=np.int64),
            prices=np.array([r.price for r in records], dtype=np.float64),
            numeric=numeric,
            codes=codes,
            inventories=inventories,
        )

    def __len__(self) -> int:
        return len(self.months)

    @property
    def n_months(self) -> int:
        lo, hi = self.month_range
        return hi - lo + 1 if len(self) else 0

    @cached_property
    def records(self) -> tuple[HouseRecord, ...]:
        """The rows as :class:`HouseRecord`s, built on first access.

        Each record's ``values`` reads its cells from the columns when asked,
        so the view costs a few hundred bytes per row, not a dict of values.
        """
        return tuple(
            HouseRecord(sale_month=month, values=_RowValues(self, row), price=price)
            for row, (month, price) in enumerate(zip(self.months.tolist(), self.prices.tolist()))
        )

    @cached_property
    def _numeric_column(self) -> dict[str, int]:
        return {name: j for j, name in enumerate(self.schema.numeric_names())}


class _RowValues(abc.Mapping):
    """One dataset row's feature values by name: floats, or category labels."""

    __slots__ = ("_dataset", "_row")

    def __init__(self, dataset: Dataset, row: int):
        self._dataset = dataset
        self._row = row

    def __getitem__(self, name: str) -> Value:
        dataset = self._dataset
        if name in dataset.codes:
            return dataset.inventories[name][dataset.codes[name][self._row]]
        return float(dataset.numeric[self._row, dataset._numeric_column[name]])

    def __iter__(self):
        return iter(self._dataset.schema.feature_names)

    def __len__(self) -> int:
        return len(self._dataset.schema.feature_names)

    def __repr__(self) -> str:
        return repr(dict(self))


def sort_codes(
    provisional: np.ndarray, labels: Mapping[str, int]
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Recode ``provisional`` codes, given by ``labels``, as indices into the sorted labels."""
    inventory = tuple(sorted(labels))
    remap = np.zeros(max(labels.values(), default=-1) + 1, dtype=np.int32)
    remap[[labels[label] for label in inventory]] = np.arange(len(inventory), dtype=np.int32)
    return remap[provisional], inventory


def melbourne_schema() -> FeatureSchema:
    """Full feature inventory for Melbourne-style transaction files."""
    house = [
        FeatureEntry("BEDROOMS", "numeric", "house"),
        FeatureEntry("BATHROOMS", "numeric", "house"),
        FeatureEntry("PARKING", "numeric", "house"),
        FeatureEntry("LAND_SIZE", "numeric", "house"),
        FeatureEntry("INCOME", "numeric", "house"),
        FeatureEntry("SA4", "key", "house"),
        FeatureEntry("SA3", "key", "house"),
        FeatureEntry("SA2", "key", "house"),
        FeatureEntry("SA1", "key", "house"),
        FeatureEntry("POSTCODE", "key", "house"),
    ]
    education = [
        FeatureEntry("PRIMARY_DISTRICT", "key", "education"),
        FeatureEntry("SECONDARY_DISTRICT", "key", "education"),
        FeatureEntry("PRIMARY_NEAREST", "key", "education"),
        FeatureEntry("SECONDARY_NEAREST", "key", "education"),
        FeatureEntry("PRIMARY_RANK", "numeric", "education"),
        FeatureEntry("SECONDARY_RANK", "numeric", "education"),
    ]
    transportation = [
        FeatureEntry("STATION_ID", "key", "transportation"),
        FeatureEntry("DIST_STATION", "numeric", "transportation"),
        FeatureEntry("TIME_STATION", "numeric", "transportation"),
        FeatureEntry("DIST_CBD", "numeric", "transportation"),
        FeatureEntry("TIME_CBD", "numeric", "transportation"),
        FeatureEntry("DRIVE_DIST_CBD", "numeric", "transportation"),
        FeatureEntry("DRIVE_TIME_CBD", "numeric", "transportation"),
    ]
    facility = [
        FeatureEntry("SHOP_ID", "key", "facility"),
        FeatureEntry("HOSPITAL_ID", "key", "facility"),
        FeatureEntry("GP_ID", "key", "facility"),
        FeatureEntry("MARKET_ID", "key", "facility"),
        FeatureEntry("DIST_SHOP", "numeric", "facility"),
        FeatureEntry("DIST_HOSPITAL", "numeric", "facility"),
        FeatureEntry("DIST_GP", "numeric", "facility"),
        FeatureEntry("DIST_MARKET", "numeric", "facility"),
    ]
    meta = [FeatureEntry("DATE", "categorical", "meta"), FeatureEntry("PRICE", "numeric", "meta")]
    return FeatureSchema(tuple(house + education + transportation + facility + meta))


def load_dataset(path: Union[str, Path], schema: FeatureSchema) -> Dataset:
    """Parse a comma-delimited transaction file against ``schema``.

    The header must name each schema entry exactly once, among any other
    columns. Rows are read in chunks of ``CHUNK_ROWS`` and converted a column
    at a time; a chunk that fails conversion is checked row by row, so
    malformed rows are collected and reported with their file line numbers.
    Loading fails hard when more than ``MAX_REJECT_FRACTION`` of the data rows
    are rejected. Accepted rows are stably sorted by sale month.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for name in schema.names:
            if name not in header:
                raise SchemaError(f"{path}: missing required column {name!r}")
            if header.count(name) > 1:
                raise SchemaError(f"{path}: column {name!r} appears more than once in the header")
        columns = _ColumnReader(schema, {name: header.index(name) for name in schema.names})

        row_errors: list[str] = []
        n_rows = 0
        line_no = 2  # of the chunk's first row; counts rows as the csv module reads them
        while chunk := list(itertools.islice(reader, CHUNK_ROWS)):
            n_rows += columns.add(chunk, line_no, row_errors)
            line_no += len(chunk)

    if n_rows and len(row_errors) > MAX_REJECT_FRACTION * n_rows:
        raise DataError(
            f"{path}: {len(row_errors)} of {n_rows} rows rejected "
            f"(first: {row_errors[0]})",
            row_errors,
        )
    if row_errors:
        logger.warning("%s: rejected %d of %d rows", path, len(row_errors), n_rows)
        for msg in row_errors:
            logger.debug("rejected row: %s", msg)
    return columns.dataset()


class _ColumnReader:
    """Converts chunks of CSV rows into column blocks, then joins them into a Dataset."""

    def __init__(self, schema: FeatureSchema, col: Mapping[str, int]):
        self.schema = schema
        self.col = col
        self.numeric_names = schema.numeric_names()
        self.coded_names = schema.categorical_names() + schema.key_names()
        names = ("DATE", "PRICE") + self.numeric_names + self.coded_names
        self.pick = operator.itemgetter(*(col[name] for name in names))
        self.lookups: dict[str, dict[str, int]] = {name: {} for name in self.coded_names}
        self.blocks: list[tuple] = [self._convert([])]  # so a file without rows joins too

    def add(self, chunk: list[list[str]], first_line: int, row_errors: list[str]) -> int:
        """Convert the non-blank rows of ``chunk``, whose first row is on ``first_line``;
        record each rejected row in ``row_errors`` and return the number of rows."""
        rows = [row for row in chunk if row]
        try:
            block = self._convert(rows)
        except (ValueError, IndexError):
            good = []
            for line_no, row in enumerate(chunk, start=first_line):
                if not row:
                    continue
                try:
                    self._check_row(row)
                except (ValueError, IndexError) as exc:
                    row_errors.append(f"line {line_no}: {exc}")
                else:
                    good.append(row)
            block = self._convert(good)
        self.blocks.append(block)
        return len(rows)

    def _convert(self, rows: list[list[str]]) -> tuple:
        """Column arrays of ``rows``; raises if any row would be rejected."""
        n = len(rows)
        width = 2 + len(self.numeric_names) + len(self.coded_names)
        cells = list(zip(*map(self.pick, rows))) or [()] * width  # DATE, PRICE, numeric, coded
        # a file holds few distinct months: parse each date text once
        month_of = {text: month_index(text) for text in set(cells[0])}
        months = np.fromiter(map(month_of.__getitem__, cells[0]), np.int64, n)
        prices = np.fromiter(map(float, cells[1]), np.float64, n)
        if not np.all((prices > 0) & np.isfinite(prices)):
            raise ValueError("a price is not positive and finite")
        k = len(self.numeric_names)
        numeric = np.empty((n, k))
        for j in range(k):
            numeric[:, j] = np.fromiter(map(float, cells[2 + j]), np.float64, n)
        if not np.all(np.isfinite(numeric)):
            raise ValueError("a numeric value is not finite")
        codes = []
        for name, labels in zip(self.coded_names, cells[2 + k :]):
            lookup = self.lookups[name]
            for label in set(labels).difference(lookup):
                lookup[label] = len(lookup)
            codes.append(np.fromiter(map(lookup.__getitem__, labels), np.int32, n))
        return months, prices, numeric, codes

    def _check_row(self, row: list[str]) -> None:
        """Raise the error that rejects ``row``, checking its cells in schema order."""
        month_index(row[self.col["DATE"]])
        price = float(row[self.col["PRICE"]])
        if not price > 0:
            raise ValueError(f"non-positive price {price}")
        if not math.isfinite(price):
            raise ValueError(f"non-finite price {price}")
        numeric = set(self.numeric_names)
        for name in self.schema.feature_names:
            cell = row[self.col[name]]
            if name in numeric and not math.isfinite(float(cell)):
                raise ValueError(f"non-finite value in column {name!r}")

    def dataset(self) -> Dataset:
        months, prices, numeric, code_blocks = zip(*self.blocks)
        months = np.concatenate(months)
        order = np.argsort(months, kind="stable")
        codes, inventories = {}, {}
        for name, blocks in zip(self.coded_names, zip(*code_blocks)):
            codes[name], inventories[name] = sort_codes(
                np.concatenate(blocks)[order], self.lookups[name]
            )
        return Dataset(
            schema=self.schema,
            months=months[order],
            prices=np.concatenate(prices)[order],
            numeric=np.concatenate(numeric)[order],
            codes=codes,
            inventories=inventories,
        )


def save_dataset(dataset: Dataset, path: Union[str, Path]) -> None:
    """Write ``dataset`` back to the delimited format (exact float round-trip)."""
    path = Path(path)
    names = dataset.schema.names
    numeric_names = dataset.schema.numeric_names()
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for start in range(0, len(dataset), CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            cells = []
            for name in names:
                if name == "DATE":
                    cells.append(map(month_text, dataset.months[rows].tolist()))
                elif name == "PRICE":
                    cells.append(map(repr, dataset.prices[rows].tolist()))
                elif name in dataset.codes:
                    inventory = dataset.inventories[name]
                    cells.append([inventory[c] for c in dataset.codes[name][rows].tolist()])
                else:
                    j = numeric_names.index(name)
                    cells.append(map(repr, dataset.numeric[rows, j].tolist()))
            writer.writerows(zip(*cells))


def records_equal(a: Dataset, b: Dataset) -> bool:
    """Exact equality of two datasets (schema, ordering, values, prices)."""
    if a.schema != b.schema or len(a) != len(b):
        return False
    return all(ra == rb for ra, rb in zip(a.records, b.records))
