import math
from pathlib import Path

import numpy as np
import pytest

from mtlhouse.data import Dataset, FeatureSchema, sort_codes

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_DIR = REPO_ROOT / "fixtures" / "synthetic_small"


@pytest.fixture
def fixture_dir() -> Path:
    return FIXTURE_DIR


def make_schema(numeric=(), key=()) -> FeatureSchema:
    return FeatureSchema(numeric=tuple(numeric), keys=tuple(key))


def make_dataset(rows, numeric=(), key=()) -> Dataset:
    """Build a dataset from dicts holding feature values plus month/price.

    Rows are stably sorted by month and each key column is coded by its sorted
    labels, as the loader does.
    """
    rows = sorted(rows, key=lambda r: r["month"])
    codes, inventories = {}, {}
    for name in key:
        labels: dict[str, int] = {}
        provisional = [labels.setdefault(str(row[name]), len(labels)) for row in rows]
        codes[name], inventories[name] = sort_codes(np.array(provisional, dtype=np.int32), labels)
    return Dataset(
        schema=make_schema(numeric=numeric, key=key),
        months=[row["month"] for row in rows],
        prices=[row.get("price", math.e) for row in rows],
        numeric=np.array([[float(row[name]) for name in numeric] for row in rows]).reshape(
            len(rows), len(numeric)
        ),
        codes=codes,
        inventories=inventories,
    )
