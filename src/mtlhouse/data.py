"""Housing dataset model: feature schema, columnar dataset, CSV I/O, log-price target.

A dataset is a month-sorted table of transactions held as column arrays.
A schema names a file's numeric and key feature columns; every file also has
a ``DATE`` (sale month) and a ``PRICE`` (sale price) column. A file is read by
one chunked reader: ``np.loadtxt`` parses each chunk of rows, and only a chunk
it refuses is read again row by row, which reports each reject with its line
number. Files are read and written as UTF-8 whatever the locale; a byte that is
not UTF-8 rejects its row, and a leading byte-order mark is skipped.
"""

from __future__ import annotations

import csv
import io
import itertools
import logging
import math
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

# Rows parsed per chunk when loading a file, and written per call when saving one.
CHUNK_ROWS = 4096


class SchemaError(ValueError):
    """The file or schema violates a structural requirement."""


class DataError(ValueError):
    """Too many rows failed to parse; carries the per-row messages."""

    def __init__(self, message: str, row_errors: Sequence[str]):
        super().__init__(message)
        self.row_errors = list(row_errors)


def month_index(date_text: str) -> int:
    """Convert an ISO ``YYYY-MM`` string to an absolute month count.

    The year has exactly four ASCII digits, so a month count is at most
    119,999, and the month exactly two.
    """
    parts = date_text.strip().split("-")
    if len(parts) != 2 or not all(part.isascii() and part.isdigit() for part in parts):
        raise ValueError(f"expected YYYY-MM, got {date_text!r}")
    year, month = int(parts[0]), int(parts[1])
    if len(parts[0]) != 4 or len(parts[1]) != 2 or not 1 <= month <= 12:
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
    columns. The data rows are read in chunks of ``CHUNK_ROWS``, each parsed
    by ``np.loadtxt``. A chunk that ``loadtxt`` refuses (a malformed row, or a
    value only Python's ``float`` reads, such as ``1_000``), or that holds a
    price or numeric value that is not positive and finite, is read again row
    by row with the ``csv`` module. That pass rejects each malformed row and
    reports it with its physical line number in the file. Loading fails hard
    when more than ``MAX_REJECT_FRACTION`` of the data rows are rejected.
    Accepted rows are stably sorted by sale month.

    The file is read as UTF-8, after a byte-order mark if it starts with one.
    A byte that is not UTF-8 is read as a lone surrogate
    (``errors="surrogateescape"``), so it rejects its row like any other
    malformed cell instead of failing the whole load.
    """
    path = Path(path)
    with _open_csv(path) as fh:
        header = csv.reader(fh)
        reader = _ChunkReader(schema, _schema_columns(path, header, schema), fh, header.line_num)
        reader.read()

    n_rows, row_errors = reader.n_rows, reader.row_errors
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
    return reader.dataset()


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


def _open_csv(path: Path):
    """``path`` opened for reading as UTF-8 after an optional byte-order mark,
    undecodable bytes kept as lone surrogates."""
    return path.open(newline="", encoding="utf-8-sig", errors="surrogateescape")


def _check_label(label: str) -> str:
    """``label``, if it holds no lone surrogate: an undecodable byte of the file."""
    try:
        label.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"label {label!r} holds a byte that is not UTF-8") from None
    return label


class _Codes(dict):
    """Label -> provisional code; a new label takes the next code. A label
    holding an undecodable byte raises ValueError, which rejects its row."""

    def __missing__(self, label: str) -> int:
        code = self[_check_label(label)] = len(self)
        return code


class _Months(dict):
    """DATE text -> month index; a file holds few distinct months, so each text is parsed once."""

    def __missing__(self, text: str) -> int:
        month = self[text] = month_index(text)
        return month


class _ChunkReader:
    """Reads a file's data rows, ``CHUNK_ROWS`` at a time, into structured
    tables, then joins them into a Dataset.

    ``np.loadtxt`` reads each chunk from a line source that records the lines
    it yields. numpy pulls lines only as it needs them, so a chunk ends where
    numpy's tokenizer ends a row, and a quoted line break stays in its field.
    A chunk numpy refuses is read again by ``csv.reader`` from its lines.
    """

    def __init__(self, schema: FeatureSchema, col: Mapping[str, int], fh, lines_before: int):
        self.schema = schema
        self.col = col
        self.lookups = {name: _Codes() for name in schema.keys}
        self.month_of = _Months()
        self.dtype = np.dtype(
            [
                (name, np.int64 if name == "DATE" else np.int32 if name in self.lookups else np.float64)
                for name in schema.names
            ]
        )
        # numpy keys converters by file column, not by position in usecols
        converters = {col[name]: lookup.__getitem__ for name, lookup in self.lookups.items()}
        converters[col["DATE"]] = self.month_of.__getitem__
        self.loadtxt_args = dict(
            dtype=self.dtype,
            delimiter=",",
            quotechar='"',
            comments=None,
            ndmin=1,
            usecols=[col[name] for name in schema.names],  # fill the dtype's fields in turn
            converters=converters,
            max_rows=CHUNK_ROWS,
        )
        self.lines: list[str] = []  # the lines the current chunk has read
        self.source = self._recorded(fh)
        self.line_no = lines_before  # the file's lines before the current chunk
        self.tables: list[np.ndarray] = []
        self.row_errors: list[str] = []
        self.n_rows = 0

    def _recorded(self, fh):
        for line in fh:
            self.lines.append(line)
            yield line

    def read(self) -> None:
        """Read every chunk left in the file; the last one reads no line."""
        while True:
            sizes = [len(lookup) for lookup in self.lookups.values()]
            table = self._table()
            if table is None:
                # forget the labels the refused chunk coded: dict order is code order
                for lookup, size in zip(self.lookups.values(), sizes):
                    while len(lookup) > size:
                        lookup.popitem()
                table = self._rows()
            else:
                self.n_rows += len(table)
            self.tables.append(table)
            if not self.lines:
                return
            self.line_no += len(self.lines)
            self.lines.clear()

    def _table(self) -> Optional[np.ndarray]:
        """The chunk as ``np.loadtxt`` parses it; None if it refuses a row, or a
        price or numeric value is not positive and finite."""
        try:
            with warnings.catch_warnings():
                # blank lines are skipped; a file with no rows loads to an empty Dataset
                warnings.filterwarnings("ignore", r"Input line \d+ contained no data", UserWarning)
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                table = np.loadtxt(self.source, **self.loadtxt_args)
        except ValueError:
            return None
        prices = table["PRICE"]
        if not np.all((prices > 0) & np.isfinite(prices)):
            return None
        if not all(np.all(np.isfinite(table[name])) for name in self.schema.numeric):
            return None
        return table

    def _rows(self) -> np.ndarray:
        """The chunk read again by ``csv.reader``: its recorded lines, then the
        rest of the row the last of them is in. Each malformed row is rejected
        with its line number."""
        recorded = self.lines[:]
        reader = csv.reader(itertools.chain(recorded, self.source))
        rows = []
        first = 1  # the chunk's line the next row starts on
        for row in reader:
            if row:
                self.n_rows += 1
                try:
                    month, price, values, labels = self._parse_row(row)
                except (ValueError, IndexError) as exc:
                    self.row_errors.append(f"line {self.line_no + first}: {exc}")
                else:
                    codes = [lookup[label] for lookup, label in zip(self.lookups.values(), labels)]
                    rows.append((*values, *codes, month, price))  # the dtype's field order
            if reader.line_num >= len(recorded):
                break
            first = reader.line_num + 1
        return np.array(rows, self.dtype)

    def _parse_row(self, row: list[str]) -> tuple:
        """``row``'s month, price, numeric values and key labels. Raises the error
        that rejects it: DATE, PRICE, the numeric cells in schema order, then a
        row too short for a key cell, then a key label with an undecodable byte."""
        col = self.col
        month = self.month_of[row[col["DATE"]]]
        price = float(row[col["PRICE"]])
        if not price > 0:
            raise ValueError(f"non-positive price {price}")
        if not math.isfinite(price):
            raise ValueError(f"non-finite price {price}")
        values = []
        for name in self.schema.numeric:
            value = float(row[col[name]])
            if not math.isfinite(value):
                raise ValueError(f"non-finite value in column {name!r}")
            values.append(value)
        labels = [row[col[name]] for name in self.schema.keys]
        for label in labels:
            _check_label(label)
        return month, price, values, labels

    def dataset(self) -> Dataset:
        """The Dataset of the accepted rows, stably sorted by month, with each
        key's provisional codes recoded into its sorted labels."""
        table = np.concatenate(self.tables)
        self.tables.clear()
        table = table[np.argsort(table["DATE"], kind="stable")]
        numeric = np.empty((len(table), len(self.schema.numeric)))
        for j, name in enumerate(self.schema.numeric):
            numeric[:, j] = table[name]
        codes, inventories = {}, {}
        for name in self.schema.keys:
            codes[name], inventories[name] = sort_codes(table[name], self.lookups[name])
        return Dataset(
            schema=self.schema,
            months=table["DATE"].copy(),
            prices=table["PRICE"].copy(),
            numeric=numeric,
            codes=codes,
            inventories=inventories,
        )


def save_dataset(dataset: Dataset, path: Union[str, Path]) -> None:
    """Write ``dataset`` back to the delimited format (exact float round-trip).

    The bytes are those of ``csv.writer`` in UTF-8: each key's labels are
    quoted once, and each chunk of ``CHUNK_ROWS`` rows is joined and written in
    one call.
    """
    path = Path(path)
    schema = dataset.schema
    fields = {
        name: [_csv_field(label) for label in dataset.inventories[name]] for name in schema.keys
    }
    with path.open("w", newline="", encoding="utf-8") as fh:
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
