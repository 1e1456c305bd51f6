"""Housing dataset model: feature schema, records, CSV I/O, log-price target.

A dataset is an ordered collection of monthly-stamped transaction records.
Features are grouped under four profiles (house, education, transportation,
facility); the sale date and sale price are carried as dedicated meta fields.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence, Union

logger = logging.getLogger(__name__)

Value = Union[float, str]

KINDS = ("numeric", "categorical", "key")
PROFILES = ("house", "education", "transportation", "facility", "meta")

# Fraction of malformed rows tolerated before a load is considered broken.
MAX_REJECT_FRACTION = 0.10


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

    def entry(self, name: str) -> FeatureEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise SchemaError(f"no feature named {name!r}")


@dataclass(frozen=True)
class HouseRecord:
    """One transaction: month stamp, feature values, positive sale price."""

    sale_month: int
    values: Mapping[str, Value]
    price: float

    def __post_init__(self):
        if not self.price > 0:
            raise ValueError(f"price must be positive, got {self.price!r}")


@dataclass(frozen=True)
class Dataset:
    schema: FeatureSchema
    records: tuple[HouseRecord, ...]
    month_range: tuple[int, int] = field(default=(0, 0))

    def __post_init__(self):
        if self.records:
            months = [r.sale_month for r in self.records]
            if months != sorted(months):
                raise ValueError("records must be sorted by sale_month")
            object.__setattr__(self, "month_range", (months[0], months[-1]))
        feature_names = set(self.schema.feature_names)
        for r in self.records:
            missing = feature_names - set(r.values)
            if missing:
                raise ValueError(f"record missing features: {sorted(missing)}")

    def __len__(self) -> int:
        return len(self.records)

    @property
    def n_months(self) -> int:
        lo, hi = self.month_range
        return hi - lo + 1 if self.records else 0


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

    The header must name a superset of the schema entries. Malformed rows are
    collected and reported with their file line numbers; loading fails hard
    when more than ``MAX_REJECT_FRACTION`` of the data rows are rejected.
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
        col = {name: header.index(name) for name in schema.names}
        numeric = set(schema.numeric_names())

        records: list[HouseRecord] = []
        row_errors: list[str] = []
        n_rows = 0
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            n_rows += 1
            try:
                records.append(_parse_row(row, col, schema, numeric))
            except (ValueError, IndexError) as exc:
                row_errors.append(f"line {line_no}: {exc}")

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

    records.sort(key=lambda r: r.sale_month)
    return Dataset(schema=schema, records=tuple(records))


def _parse_row(row, col, schema, numeric_names) -> HouseRecord:
    sale_month = month_index(row[col["DATE"]])
    price = float(row[col["PRICE"]])
    if not price > 0:
        raise ValueError(f"non-positive price {price}")
    values: dict[str, Value] = {}
    for name in schema.feature_names:
        cell = row[col[name]]
        if name in numeric_names:
            value = float(cell)
            if not math.isfinite(value):
                raise ValueError(f"non-finite value in column {name!r}")
            values[name] = value
        else:
            values[name] = cell
    return HouseRecord(sale_month=sale_month, values=values, price=price)


def save_dataset(dataset: Dataset, path: Union[str, Path]) -> None:
    """Write ``dataset`` back to the delimited format (exact float round-trip)."""
    path = Path(path)
    names = dataset.schema.names
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for r in dataset.records:
            row = []
            for name in names:
                if name == "DATE":
                    row.append(month_text(r.sale_month))
                elif name == "PRICE":
                    row.append(repr(r.price))
                else:
                    v = r.values[name]
                    row.append(repr(v) if isinstance(v, float) else v)
            writer.writerow(row)


def records_equal(a: Dataset, b: Dataset) -> bool:
    """Exact equality of two datasets (schema, ordering, values, prices)."""
    if a.schema != b.schema or len(a) != len(b):
        return False
    return all(ra == rb for ra, rb in zip(a.records, b.records))
