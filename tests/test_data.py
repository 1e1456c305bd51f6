import json
import logging
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mtlhouse import data as data_module
from mtlhouse.data import (
    DataError,
    Dataset,
    HouseRecord,
    FeatureSchema,
    SchemaError,
    load_dataset,
    log_target,
    melbourne_schema,
    month_index,
    month_text,
    records_equal,
    save_dataset,
)
from mtlhouse.design import DesignLayout
from mtlhouse.synthetic import SyntheticConfig, generate_synthetic, synthetic_schema
from mtlhouse.tasks import RegionDef

from conftest import make_dataset, make_schema

# ln(680540), the log of the median sale price, from a 50-digit reference
LOG_MEDIAN_PRICE = 13.43064187965476

MELBOURNE_NUMERIC = (
    "BEDROOMS", "BATHROOMS", "PARKING", "LAND_SIZE", "INCOME",
    "PRIMARY_RANK", "SECONDARY_RANK",
    "DIST_STATION", "TIME_STATION", "DIST_CBD", "TIME_CBD", "DRIVE_DIST_CBD", "DRIVE_TIME_CBD",
    "DIST_SHOP", "DIST_HOSPITAL", "DIST_GP", "DIST_MARKET",
)
MELBOURNE_KEYS = (
    "SA4", "SA3", "SA2", "SA1", "POSTCODE",
    "PRIMARY_DISTRICT", "SECONDARY_DISTRICT", "PRIMARY_NEAREST", "SECONDARY_NEAREST",
    "STATION_ID",
    "SHOP_ID", "HOSPITAL_ID", "GP_ID", "MARKET_ID",
)


class TestSchema:
    def test_melbourne_schema_is_valid(self):
        schema = melbourne_schema()
        assert "PRICE" in schema.names and "DATE" in schema.names
        assert "LAND_SIZE" in schema.numeric
        assert "SA3" in schema.keys
        assert "PRICE" not in schema.feature_names

    def test_melbourne_column_orders_are_pinned(self):
        # the design layout takes its columns from these orders
        schema = melbourne_schema()
        assert schema.numeric == MELBOURNE_NUMERIC
        assert schema.keys == MELBOURNE_KEYS
        assert schema.names == MELBOURNE_NUMERIC + MELBOURNE_KEYS + ("DATE", "PRICE")

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            FeatureSchema(numeric=("A",), keys=("A",))

    @pytest.mark.parametrize("name", ["PRICE", "DATE"])
    def test_feature_named_like_a_meta_column_rejected(self, name):
        with pytest.raises(SchemaError):
            FeatureSchema(numeric=(name,), keys=())
        with pytest.raises(SchemaError):
            FeatureSchema(numeric=(), keys=(name,))


class TestMonths:
    def test_round_trip(self):
        assert month_text(month_index("2015-01")) == "2015-01"
        assert month_index("2015-01") - month_index("2014-12") == 1
        assert month_index("2018-01") - month_index("2015-01") == 36

    @pytest.mark.parametrize("bad", ["2015", "2015-13", "2015-00", "201501"])
    def test_bad_dates(self, bad):
        with pytest.raises(ValueError):
            month_index(bad)


class TestLogTarget:
    def test_log_identities(self):
        assert log_target(1.0) == 0.0
        assert log_target(math.e) == 1.0

    def test_median_price_matches_reference(self):
        assert log_target(680540) == pytest.approx(LOG_MEDIAN_PRICE, abs=1e-12)
        assert round(log_target(680540), 2) == 13.43

    @pytest.mark.parametrize("bad", [0.0, -1.0, -680540])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError):
            log_target(bad)

    @given(
        a=st.floats(min_value=1e-6, max_value=1e9),
        b=st.floats(min_value=1e-6, max_value=1e9),
    )
    def test_multiplicative(self, a, b):
        assert log_target(a * b) == pytest.approx(log_target(a) + log_target(b), abs=1e-12)

    @given(
        a=st.floats(min_value=1e-6, max_value=1e12),
        b=st.floats(min_value=1e-6, max_value=1e12),
    )
    def test_strictly_increasing(self, a, b):
        if a < b:
            assert log_target(a) < log_target(b)


def _write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


class TestLoadDataset:
    def small_schema(self):
        return make_schema(numeric=("SIZE",), key=("REGION",))

    def test_three_row_fixture(self, tmp_path):
        path = tmp_path / "tiny.csv"
        _write_csv(
            path,
            ["SIZE", "REGION", "DATE", "PRICE"],
            [
                [500.0, "A", "2015-01", 100000.0],
                [600.0, "A", "2015-02", 120000.0],
                [700.0, "B", "2015-01", 90000.0],
            ],
        )
        dataset = load_dataset(path, self.small_schema())
        assert len(dataset) == 3
        months = [r.sale_month for r in dataset.records]
        assert months == sorted(months)
        assert dataset.n_months == 2

    def test_missing_price_column(self, tmp_path):
        path = tmp_path / "noprice.csv"
        _write_csv(path, ["SIZE", "REGION", "DATE"], [[500.0, "A", "2015-01"]])
        with pytest.raises(SchemaError, match="PRICE"):
            load_dataset(path, self.small_schema())

    def test_bad_rows_collected_with_line_numbers(self, tmp_path, caplog):
        path = tmp_path / "dirty.csv"
        rows = [[500.0 + i, "A", "2015-01", 100000.0] for i in range(20)]
        rows[4] = ["not-a-number", "A", "2015-01", 100000.0]
        _write_csv(path, ["SIZE", "REGION", "DATE", "PRICE"], rows)
        dataset = load_dataset(path, self.small_schema())
        assert len(dataset) == 19

    def test_too_many_bad_rows_fail_hard(self, tmp_path):
        path = tmp_path / "broken.csv"
        rows = [[500.0, "A", "2015-01", 100000.0] for _ in range(4)]
        rows += [[600.0, "A", "bad-date", -5.0] for _ in range(2)]
        _write_csv(path, ["SIZE", "REGION", "DATE", "PRICE"], rows)
        with pytest.raises(DataError) as excinfo:
            load_dataset(path, self.small_schema())
        assert len(excinfo.value.row_errors) == 2
        assert "line" in excinfo.value.row_errors[0]

    def test_rejection_messages(self, tmp_path):
        path = tmp_path / "rejects.csv"
        rows = [[500.0, "A", "2015-01", 100000.0] for _ in range(6)]
        rows += [
            ["abc", "A", "2015-01", 100000.0],
            ["inf", "A", "2015-01", 100000.0],
            [],  # a blank line is skipped but still counted
            [500.0, "A", "2015/01", 100000.0],
            [500.0, "A", "2015-13", 100000.0],
            [500.0, "A", "2015-01", -5.0],
            [500.0, "A"],
        ]
        _write_csv(path, ["SIZE", "REGION", "DATE", "PRICE"], rows)
        with pytest.raises(DataError) as excinfo:
            load_dataset(path, self.small_schema())
        assert excinfo.value.row_errors == [
            "line 8: could not convert string to float: 'abc'",
            "line 9: non-finite value in column 'SIZE'",
            "line 11: expected YYYY-MM, got '2015/01'",
            "line 12: month out of range in '2015-13'",
            "line 13: non-positive price -5.0",
            "line 14: list index out of range",
        ]
        assert str(excinfo.value).endswith(
            "6 of 12 rows rejected (first: line 8: could not convert string to float: 'abc')"
        )

    @pytest.mark.parametrize("price", ["inf", "9e999"])
    def test_non_finite_price_rejected(self, tmp_path, price):
        path = tmp_path / "infinite.csv"
        rows = [[500.0 + i, "A", "2015-01", 100000.0] for i in range(19)]
        rows.insert(3, [600.0, "A", "2015-01", price])
        _write_csv(path, ["SIZE", "REGION", "DATE", "PRICE"], rows)
        dataset = load_dataset(path, self.small_schema())
        assert len(dataset) == 19
        assert np.all(np.isfinite(dataset.log_prices))
        _write_csv(path, ["SIZE", "REGION", "DATE", "PRICE"], rows[2:5])
        with pytest.raises(DataError) as excinfo:
            load_dataset(path, self.small_schema())
        assert excinfo.value.row_errors == ["line 3: non-finite price inf"]

    def test_header_naming_a_schema_column_twice_rejected(self, tmp_path):
        path = tmp_path / "twice.csv"
        _write_csv(
            path,
            ["SIZE", "REGION", "DATE", "PRICE", "REGION", "JUNK", "JUNK"],
            [[500.0, "A", "2015-01", 100000.0, "B", "x", "y"]],
        )
        with pytest.raises(SchemaError, match="'REGION' appears more than once"):
            load_dataset(path, self.small_schema())

    def test_chunked_load_matches_a_single_chunk(self, tmp_path, monkeypatch, caplog):
        # months out of order, blank lines and bad rows spread over several
        # chunks: the result must not depend on where the chunks break
        path = tmp_path / "chunks.csv"
        rows = []
        for i in range(40):
            region = "ABC"[i * 7 % 3] if i < 30 else "D"
            rows.append([100.0 + i, region, f"2015-{12 - i % 5:02d}", 1000.0 + i])
            if i % 9 == 4:
                rows.append([])
        rows[17] = ["bad", "A", "2015-01", 5.0]
        rows[33] = [1.0, "Z", "2015-01", 0.0]
        _write_csv(path, ["SIZE", "REGION", "DATE", "PRICE"], rows)

        def load(chunk_rows):
            monkeypatch.setattr(data_module, "CHUNK_ROWS", chunk_rows)
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="mtlhouse.data"):
                dataset = load_dataset(path, self.small_schema())
            return dataset, caplog.messages

        whole, whole_messages = load(10_000)
        assert len(whole) == 38 and whole.inventories["REGION"] == ("A", "B", "C", "D")
        assert [m for m in whole_messages if m.startswith("rejected row")] == [
            "rejected row: line 19: could not convert string to float: 'bad'",
            "rejected row: line 35: non-positive price 0.0",
        ]
        assert list(whole.months) == sorted(whole.months)
        for chunk_rows in (1, 3, 7):
            chunked, messages = load(chunk_rows)
            assert records_equal(chunked, whole)
            assert messages == whole_messages
            assert chunked.inventories == whole.inventories

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "extra.csv"
        _write_csv(
            path,
            ["JUNK", "SIZE", "REGION", "DATE", "PRICE"],
            [["x", 500.0, "A", "2015-01", 100000.0]],
        )
        dataset = load_dataset(path, self.small_schema())
        assert len(dataset) == 1
        assert "JUNK" not in dataset.records[0].values


def test_melbourne_file_with_shuffled_header_loads(tmp_path):
    header = list(MELBOURNE_NUMERIC + MELBOURNE_KEYS + ("DATE", "PRICE"))
    rows = [
        [float(j + i) for j in range(len(MELBOURNE_NUMERIC))]
        + [f"{name}-{'ab'[i % 2]}" for name in MELBOURNE_KEYS]
        + [f"2015-0{3 - i}", 100000.0 + i]
        for i in range(3)
    ]
    order = list(range(len(header)))
    random.Random(5).shuffle(order)
    path = tmp_path / "melbourne.csv"
    _write_csv(path, [header[c] for c in order], [[row[c] for c in order] for row in rows])
    dataset = load_dataset(path, melbourne_schema())
    assert [r.values["BEDROOMS"] for r in dataset.records] == [2.0, 1.0, 0.0]
    assert DesignLayout.from_dataset(dataset, RegionDef("SA3")).columns == (
        MELBOURNE_NUMERIC
        + tuple(f"{name}={name}-{x}" for name in MELBOURNE_KEYS if name != "SA3" for x in "ab")
        + ("(intercept)",)
    )
    copy = tmp_path / "copy.csv"
    save_dataset(dataset, copy)
    assert records_equal(dataset, load_dataset(copy, melbourne_schema()))


class TestRoundTrip:
    def test_save_then_load_is_identity(self, tmp_path):
        dataset = make_dataset(
            [
                {"month": 10, "SIZE": 123.456789012345, "REGION": "A", "price": 345678.9},
                {"month": 11, "SIZE": 0.1 + 0.2, "REGION": "B", "price": 1.0000000001},
            ],
            numeric=("SIZE",),
            key=("REGION",),
        )
        path = tmp_path / "roundtrip.csv"
        save_dataset(dataset, path)
        reloaded = load_dataset(path, dataset.schema)
        assert records_equal(dataset, reloaded)

    def test_bundled_fixture_round_trips(self, tmp_path, fixture_dir):
        config = SyntheticConfig.from_dict(
            json.loads((fixture_dir / "config.json").read_text())
        )
        schema = synthetic_schema(config.n_features)
        dataset = load_dataset(fixture_dir / "dataset.csv", schema)
        out = tmp_path / "copy.csv"
        save_dataset(dataset, out)
        assert records_equal(dataset, load_dataset(out, schema))


class TestBundledFixture:
    def test_fixture_matches_regenerated_ranges(self, fixture_dir):
        config = SyntheticConfig.from_dict(
            json.loads((fixture_dir / "config.json").read_text())
        )
        dataset = load_dataset(
            fixture_dir / "dataset.csv", synthetic_schema(config.n_features)
        )
        assert len(dataset) == 500
        regenerated, _ = generate_synthetic(config)
        for name in dataset.schema.numeric:
            loaded = [r.values[name] for r in dataset.records]
            fresh = [r.values[name] for r in regenerated.records]
            assert min(loaded) == min(fresh)
            assert max(loaded) == max(fresh)

    def test_fixture_equals_regenerated_dataset(self, fixture_dir):
        config = SyntheticConfig.from_dict(
            json.loads((fixture_dir / "config.json").read_text())
        )
        dataset = load_dataset(
            fixture_dir / "dataset.csv", synthetic_schema(config.n_features)
        )
        regenerated, _ = generate_synthetic(config)
        assert records_equal(dataset, regenerated)


class TestDatasetInvariants:
    def test_unsorted_records_rejected(self):
        schema = make_dataset([], numeric=("SIZE",)).schema
        from mtlhouse.data import HouseRecord

        records = (
            HouseRecord(sale_month=5, values={"SIZE": 1.0}, price=10.0),
            HouseRecord(sale_month=4, values={"SIZE": 1.0}, price=10.0),
        )
        with pytest.raises(ValueError, match="sorted"):
            Dataset.from_records(schema, records)

    def test_missing_feature_rejected(self):
        schema = make_dataset([], numeric=("SIZE", "OTHER")).schema
        from mtlhouse.data import HouseRecord

        records = (HouseRecord(sale_month=5, values={"SIZE": 1.0}, price=10.0),)
        with pytest.raises(ValueError, match="OTHER"):
            Dataset.from_records(schema, records)

    def test_nonpositive_price_rejected(self):
        from mtlhouse.data import HouseRecord

        with pytest.raises(ValueError):
            HouseRecord(sale_month=0, values={}, price=0.0)

    @pytest.mark.parametrize("price", [math.inf, math.nan])
    def test_non_finite_price_rejected(self, price):
        with pytest.raises(ValueError, match="finite"):
            HouseRecord(sale_month=0, values={}, price=price)
        good = make_dataset([{"month": 0, "SIZE": 1.0}], numeric=("SIZE",))
        with pytest.raises(ValueError, match="finite"):
            Dataset(
                schema=good.schema,
                months=good.months,
                prices=np.array([price]),
                numeric=good.numeric,
                codes=good.codes,
                inventories=good.inventories,
            )

    def test_stable_sort_and_row_view(self, tmp_path):
        path = tmp_path / "order.csv"
        _write_csv(
            path,
            ["SIZE", "REGION", "DATE", "PRICE"],
            [[3.0, "B", "2015-02", 30.0], [1.0, "A", "2015-01", 10.0], [2.0, "C", "2015-02", 20.0]],
        )
        dataset = load_dataset(path, make_schema(numeric=("SIZE",), key=("REGION",)))
        assert dataset.months.dtype == np.int64 and dataset.codes["REGION"].dtype == np.int32
        assert [r.values["SIZE"] for r in dataset.records] == [1.0, 3.0, 2.0]
        second = HouseRecord(month_index("2015-02"), {"SIZE": 3.0, "REGION": "B"}, 30.0)
        assert dataset.records[1] == second
        log_prices = np.array([math.log(p) for p in (10.0, 30.0, 20.0)])
        assert dataset.log_prices.tobytes() == log_prices.tobytes()
        with pytest.raises(ValueError):
            dataset.numeric[0, 0] = 5.0  # the columns are read-only
