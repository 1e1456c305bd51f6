import math
from pathlib import Path

import pytest

from mtlhouse.data import Dataset, FeatureSchema, HouseRecord

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = REPO_ROOT / "fixtures" / "synthetic_small"


@pytest.fixture
def fixture_dir() -> Path:
    return FIXTURE_DIR


def make_schema(numeric=(), key=()) -> FeatureSchema:
    return FeatureSchema(numeric=tuple(numeric), keys=tuple(key))


def make_dataset(rows, numeric=(), key=()) -> Dataset:
    """Build a dataset from dicts holding feature values plus month/price."""
    schema = make_schema(numeric=numeric, key=key)
    records = []
    for row in sorted(rows, key=lambda r: r["month"]):
        values = {name: row[name] for name in list(numeric) + list(key)}
        records.append(
            HouseRecord(
                sale_month=row["month"],
                values=values,
                price=row.get("price", math.e),
            )
        )
    return Dataset.from_records(schema, records)
