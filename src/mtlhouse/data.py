"""Housing dataset model: feature schema, columnar dataset, CSV I/O, log-price target.

A dataset is a month-sorted table of transactions held as column arrays.
A schema names a file's numeric and key feature columns; every file also has
a ``DATE`` (sale month) and a ``PRICE`` (sale price) column. A clean file is
parsed in one ``np.loadtxt`` pass; a file with a rejected row is read again row
by row, which reports each reject with its line number.
"""

from __future__ import annotations

import csv
import io
import itertools
import logging
import math
import operator
import warnings
from collections import abc
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

logger = logging.getLogger(__name__)

Value = Union[float, str]

# The sale month (YYYY-MM) and sale price columns every file has.
META_COLUMNS = ("DATE", "PRICE")

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


@dataclass(frozen=True)
class FeatureSchema:
    """A file's feature columns: numeric values and category keys, in column order.

    Every file also has the fixed ``DATE`` and ``PRICE`` columns.
    """

    numeric: tuple[str, ...]
    keys: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise SchemaError("duplicate feature names in schema")

    @property
    def names(self) -> tuple[str, ...]:
        return self.feature_names + META_COLUMNS

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.numeric + self.keys

    def has(self, name: str) -> bool:
        return name in self.names


@dataclass(frozen=True)
class HouseRecord:
    """One transaction: month stamp, feature values, sale price.

    A row view of a :class:`Dataset`, which has already checked the row.
    """

    sale_month: int
    values: Mapping[str, Value]
    price: float


@dataclass(frozen=True, eq=False)
class Dataset:
    """Transactions stored column by column, sorted by sale month.

    ``numeric`` holds the numeric features in ``schema.numeric`` order, one
    row per transaction. Every key feature is an int32 code vector in
    ``codes`` indexing its sorted category labels in ``inventories``.
    ``log_prices`` is the natural log of each price. The arrays are
    read-only; ``records`` builds the row view on first access.
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
        coded = self.schema.keys
        columns = {
            "months": np.asarray(self.months, dtype=np.int64),
            "prices": np.asarray(self.prices, dtype=np.float64),
            "numeric": np.asarray(self.numeric, dtype=np.float64),
        }
        if columns["months"].shape != (n,) or columns["prices"].shape != (n,):
            raise ValueError("months and prices must be vectors of one length")
        if columns["numeric"].shape != (n, len(self.schema.numeric)):
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
        # math.log per price: np.log may differ from it in the last bit
        log_prices = np.fromiter(map(math.log, prices.tolist()), np.float64, n)
        log_prices.flags.writeable = False
        object.__setattr__(self, "log_prices", log_prices)
        if n:
            object.__setattr__(self, "month_range", (int(self.months[0]), int(self.months[-1])))

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
        No run builds it; it stays because the benchmark's checks and the
        acceptance suite read the rows through it.
        """
        return tuple(
            HouseRecord(sale_month=month, values=_RowValues(self, row), price=price)
            for row, (month, price) in enumerate(zip(self.months.tolist(), self.prices.tolist()))
        )

    @cached_property
    def _numeric_column(self) -> dict[str, int]:
        return {name: j for j, name in enumerate(self.schema.numeric)}


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
    return FeatureSchema(
        numeric=(
            # house
            "BEDROOMS", "BATHROOMS", "PARKING", "LAND_SIZE", "INCOME",
            # education
            "PRIMARY_RANK", "SECONDARY_RANK",
            # transportation
            "DIST_STATION", "TIME_STATION", "DIST_CBD", "TIME_CBD",
            "DRIVE_DIST_CBD", "DRIVE_TIME_CBD",
            # facility
            "DIST_SHOP", "DIST_HOSPITAL", "DIST_GP", "DIST_MARKET",
        ),
        keys=(
            # house: census regions and postcode
            "SA4", "SA3", "SA2", "SA1", "POSTCODE",
            # education
            "PRIMARY_DISTRICT", "SECONDARY_DISTRICT", "PRIMARY_NEAREST", "SECONDARY_NEAREST",
            # transportation
            "STATION_ID",
            # facility
            "SHOP_ID", "HOSPITAL_ID", "GP_ID", "MARKET_ID",
        ),
    )


def load_dataset(path: Union[str, Path], schema: FeatureSchema) -> Dataset:
    """Parse a comma-delimited transaction file against ``schema``.

    The header must name each schema column exactly once, among any other
    columns. A clean file is parsed in one ``np.loadtxt`` pass. A file with a
    row that pass does not take (a reject, or a value only Python's ``float``
    reads, such as ``1_000``) is read again from the top, so it costs both
    passes: rows are read in chunks of ``CHUNK_ROWS`` and converted a column
    at a time; a chunk that fails conversion is checked row by row, so
    malformed rows are collected and reported with their file line numbers.
    Loading fails hard when more than ``MAX_REJECT_FRACTION`` of the
    data rows are rejected. Accepted rows are stably sorted by sale month.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        col = _schema_columns(path, csv.reader(fh), schema)
        dataset = _load_clean(fh, schema, col)
    return dataset if dataset is not None else _load_rows(path, schema)


def _schema_columns(path: Path, reader, schema: FeatureSchema) -> dict[str, int]:
    """Read and check the header row; return each schema column's file index."""
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
    return {name: header.index(name) for name in schema.names}


class _Codes(dict):
    """Label -> provisional code; a new label takes the next code."""

    def __missing__(self, label: str) -> int:
        code = self[label] = len(self)
        return code


class _Months(dict):
    """DATE text -> month index; a file holds few distinct months, so each text is parsed once."""

    def __missing__(self, text: str) -> int:
        month = self[text] = month_index(text)
        return month


def _load_clean(fh, schema: FeatureSchema, col: Mapping[str, int]) -> Optional[Dataset]:
    """The Dataset of the data rows left in ``fh``, parsed in one ``np.loadtxt``
    call; None if any row would be rejected or ``loadtxt`` cannot parse it."""
    lookups = {name: _Codes() for name in schema.keys}
    # numpy keys converters by file column, not by position in usecols
    converters = {col[name]: lookup.__getitem__ for name, lookup in lookups.items()}
    converters[col["DATE"]] = _Months().__getitem__
    dtype = [
        (name, np.int64 if name == "DATE" else np.int32 if name in lookups else np.float64)
        for name in schema.names
    ]
    try:
        with warnings.catch_warnings():
            # a file with a header and no rows loads to an empty Dataset
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(
                fh,
                dtype=dtype,
                delimiter=",",
                quotechar='"',
                comments=None,
                ndmin=1,
                usecols=[col[name] for name in schema.names],  # fill the dtype's fields in turn
                converters=converters,
            )
    except (ValueError, OverflowError):
        return None
    prices = table["PRICE"]
    numeric = np.empty((len(table), len(schema.numeric)))
    for j, name in enumerate(schema.numeric):
        numeric[:, j] = table[name]
    if not (np.all((prices > 0) & np.isfinite(prices)) and np.all(np.isfinite(numeric))):
        return None
    codes = [table[name] for name in schema.keys]
    return _sorted_dataset(schema, table["DATE"], prices, numeric, codes, lookups)


def _load_rows(path: Path, schema: FeatureSchema) -> Dataset:
    """Read ``path`` row by row, in chunks, rejecting and reporting malformed rows."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        columns = _ColumnReader(schema, _schema_columns(path, reader, schema))
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


def _sorted_dataset(
    schema: FeatureSchema,
    months: np.ndarray,
    prices: np.ndarray,
    numeric: np.ndarray,
    codes: Sequence[np.ndarray],
    lookups: Mapping[str, Mapping[str, int]],
) -> Dataset:
    """The Dataset of parsed rows: stably sorted by month, with each key's
    provisional ``codes`` (in ``schema.keys`` order, given by ``lookups``)
    recoded into its sorted labels."""
    order = np.argsort(months, kind="stable")
    sorted_codes, inventories = {}, {}
    for name, code in zip(schema.keys, codes):
        sorted_codes[name], inventories[name] = sort_codes(code[order], lookups[name])
    return Dataset(
        schema=schema,
        months=months[order],
        prices=prices[order],
        numeric=numeric[order],
        codes=sorted_codes,
        inventories=inventories,
    )


class _ColumnReader:
    """Converts chunks of CSV rows into column blocks, then joins them into a Dataset."""

    def __init__(self, schema: FeatureSchema, col: Mapping[str, int]):
        self.schema = schema
        self.col = col
        names = META_COLUMNS + schema.feature_names
        self.pick = operator.itemgetter(*(col[name] for name in names))
        self.lookups = {name: _Codes() for name in schema.keys}
        self.month_of = _Months()
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
        # DATE, PRICE, numeric, keys
        cells = list(zip(*map(self.pick, rows))) or [()] * len(self.schema.names)
        months = np.fromiter(map(self.month_of.__getitem__, cells[0]), np.int64, n)
        prices = np.fromiter(map(float, cells[1]), np.float64, n)
        if not np.all((prices > 0) & np.isfinite(prices)):
            raise ValueError("a price is not positive and finite")
        k = len(self.schema.numeric)
        numeric = np.empty((n, k))
        for j in range(k):
            numeric[:, j] = np.fromiter(map(float, cells[2 + j]), np.float64, n)
        if not np.all(np.isfinite(numeric)):
            raise ValueError("a numeric value is not finite")
        codes = []
        for name, labels in zip(self.schema.keys, cells[2 + k :]):
            codes.append(np.fromiter(map(self.lookups[name].__getitem__, labels), np.int32, n))
        return months, prices, numeric, codes

    def _check_row(self, row: list[str]) -> None:
        """Raise the error that rejects ``row``: DATE, PRICE, the numeric cells in
        schema order, then a row too short for a key cell."""
        month_index(row[self.col["DATE"]])
        price = float(row[self.col["PRICE"]])
        if not price > 0:
            raise ValueError(f"non-positive price {price}")
        if not math.isfinite(price):
            raise ValueError(f"non-finite price {price}")
        for name in self.schema.numeric:
            if not math.isfinite(float(row[self.col[name]])):
                raise ValueError(f"non-finite value in column {name!r}")
        self.pick(row)

    def dataset(self) -> Dataset:
        months, prices, numeric, code_blocks = zip(*self.blocks)
        codes = [np.concatenate(blocks) for blocks in zip(*code_blocks)]
        return _sorted_dataset(
            self.schema,
            np.concatenate(months),
            np.concatenate(prices),
            np.concatenate(numeric),
            codes,
            self.lookups,
        )


def save_dataset(dataset: Dataset, path: Union[str, Path]) -> None:
    """Write ``dataset`` back to the delimited format (exact float round-trip).

    The bytes are those of ``csv.writer``: each key's labels are quoted once,
    and each chunk of ``CHUNK_ROWS`` rows is joined and written in one call.
    """
    path = Path(path)
    schema = dataset.schema
    fields = {
        name: [_csv_field(label) for label in dataset.inventories[name]] for name in schema.keys
    }
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(schema.names)
        for start in range(0, len(dataset), CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            cells = [map(repr, column) for column in dataset.numeric[rows].T.tolist()]
            for name in schema.keys:
                cells.append(map(fields[name].__getitem__, dataset.codes[name][rows].tolist()))
            cells.append(map(month_text, dataset.months[rows].tolist()))
            cells.append(map(repr, dataset.prices[rows].tolist()))
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _csv_field(label: str) -> str:
    """``label`` as ``csv.writer`` writes it among other fields of a row."""
    # a lone empty field is written quoted, so write the label with an empty one after it
    buffer = io.StringIO()
    csv.writer(buffer).writerow((label, ""))
    return buffer.getvalue().removesuffix(",\r\n")
