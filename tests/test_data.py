import csv
import io
import json
import logging
import math
import os
import random
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtlhouse import data as data_module
from mtlhouse.data import (
    META_COLUMNS,
    DataError,
    Dataset,
    HouseRecord,
    FeatureSchema,
    SchemaError,
    load_dataset,
    melbourne_schema,
    month_index,
    month_text,
    save_dataset,
)
from mtlhouse.design import DesignLayout
from mtlhouse.synthetic import SyntheticConfig, generate_synthetic, synthetic_schema
from mtlhouse.tasks import RegionDef

from conftest import REPO_ROOT, make_dataset, make_schema

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

    @pytest.mark.parametrize(
        "bad",
        [
            "2015",
            "2015-13",
            "2015-00",
            "201501",
            "+2015-01",
            "20150-01",
            "215-01",
            "2015-1_0",
            "2015-+3",
            "2015- 4",
            "2015-1",
            "2015-012",
        ],
    )
    def test_bad_dates(self, bad):
        with pytest.raises(ValueError):
            month_index(bad)


def log_prices(*prices):
    return make_dataset([{"month": 0, "price": p} for p in prices]).log_prices


class TestLogPrices:
    def test_log_identities(self):
        assert log_prices(1.0, math.e).tolist() == [0.0, 1.0]

    def test_median_price_matches_reference(self):
        (log_median,) = log_prices(680540)
        assert log_median == pytest.approx(LOG_MEDIAN_PRICE, abs=1e-12)
        assert round(log_median, 2) == 13.43

    @given(
        a=st.floats(min_value=1e-6, max_value=1e9),
        b=st.floats(min_value=1e-6, max_value=1e9),
    )
    def test_multiplicative(self, a, b):
        log_a, log_b, log_ab = log_prices(a, b, a * b)
        assert log_ab == pytest.approx(log_a + log_b, abs=1e-12)

    @given(
        a=st.floats(min_value=1e-6, max_value=1e12),
        b=st.floats(min_value=1e-6, max_value=1e12),
    )
    def test_strictly_increasing(self, a, b):
        log_a, log_b = log_prices(a, b)
        if a < b:
            # adjacent doubles can share a correctly rounded log: both 1e-06 and
            # the next double give -13.815510557964274
            assert log_a <= log_b
        if b > a * (1 + 1e-12):
            # far above the log's ulp anywhere in [1e-6, 1e12]
            assert log_a < log_b


def assert_same_columns(a, b):
    """``a`` and ``b`` hold the same schema, rows, codes and inventories, bit for bit."""
    assert a.schema == b.schema
    for name in ("months", "prices", "numeric", "log_prices"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name
    assert a.inventories == b.inventories
    assert a.codes.keys() == b.codes.keys()
    for name, code in a.codes.items():
        assert code.dtype == b.codes[name].dtype and code.tobytes() == b.codes[name].tobytes()


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
            assert_same_columns(chunked, whole)
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


class TestRejectsDoNotFailTheLoad:
    """A row whose year is not four ASCII digits, or with a byte that is not
    UTF-8, is rejected with its line number; it does not fail the whole load.
    Files are UTF-8 whatever the locale."""

    schema = make_schema(numeric=("SIZE",), key=("REGION",))

    @pytest.mark.parametrize(
        "line, rejected",
        [
            (
                b"1.0,A,99999999999999999999-01,5.0",
                "line 22: month out of range in '99999999999999999999-01'",
            ),
            (b"1.0,A,20150-01,5.0", "line 22: month out of range in '20150-01'"),
            (b"1.0,A,+2015-01,5.0", "line 22: expected YYYY-MM, got '+2015-01'"),
            (
                b"1.0,\xff\xfe,2015-01,5.0",
                "line 22: label '\\udcff\\udcfe' holds a byte that is not UTF-8",
            ),
        ],
        ids=["year_past_int64", "five_digit_year", "signed_year", "undecodable_label"],
    )
    def test_rejected_after_twenty_good_rows(self, tmp_path, caplog, line, rejected):
        path = tmp_path / "bad.csv"
        good = [f"{500.0 + i},A,2015-0{1 + i % 3},{100000.0 + i}".encode() for i in range(20)]
        path.write_bytes(b"\n".join([b"SIZE,REGION,DATE,PRICE", *good, line]) + b"\n")
        with caplog.at_level(logging.DEBUG, logger="mtlhouse.data"):
            loaded = load_dataset(path, self.schema)
        assert [m for m in caplog.messages if m.startswith("rejected row")] == [
            f"rejected row: {rejected}"
        ]
        assert len(loaded) == 20 and loaded.inventories == {"REGION": ("A",)}
        assert_same_columns(loaded, load_row_by_row(path, self.schema))

    def test_utf8_label_loads_in_one_pass(self, tmp_path):
        path = tmp_path / "utf8.csv"
        rows = ["SIZE,REGION,DATE,PRICE", "1.0,\u00c9lan,2015-01,5.0", "2.0,A,2015-02,6.0"]
        path.write_bytes("\n".join(rows).encode("utf-8") + b"\n")
        loaded = load_in_one_pass(path, self.schema)
        assert loaded.inventories == {"REGION": ("A", "\u00c9lan")}

    def test_non_ascii_label_round_trips_under_an_ascii_locale(self, tmp_path):
        # the C locale without UTF-8 mode or locale coercion reads and writes
        # ASCII by default; the loader and writer use UTF-8 regardless
        script = textwrap.dedent(
            """
            import locale, sys
            import numpy as np
            from mtlhouse.data import Dataset, FeatureSchema, load_dataset, save_dataset

            print(locale.getpreferredencoding(False))
            schema = FeatureSchema(numeric=(), keys=("REGION",))
            dataset = Dataset(
                schema=schema,
                months=[1, 2],
                prices=[1.0, 2.0],
                numeric=np.zeros((2, 0)),
                codes={"REGION": [0, 1]},
                inventories={"REGION": ("A", "\\u00c9lan")},
            )
            save_dataset(dataset, sys.argv[1])
            loaded = load_dataset(sys.argv[1], schema)
            assert loaded.inventories == dataset.inventories, loaded.inventories
            """
        )
        env = {
            **os.environ,
            "PYTHONUTF8": "0",
            "PYTHONCOERCECLOCALE": "0",
            "LC_ALL": "C",
            "PYTHONPATH": str(REPO_ROOT / "src"),
        }
        path = tmp_path / "labels.csv"
        child = subprocess.run(
            [sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True
        )
        assert child.returncode == 0, child.stderr
        assert "utf" not in child.stdout.lower()  # the child's default encoding is not UTF-8
        assert "\u00c9lan".encode("utf-8") in path.read_bytes()


def load_row_by_row(path, schema):
    """``path``'s Dataset with every chunk read row by row: numpy parses each
    chunk, and the loader then refuses it."""
    table = data_module._ChunkReader._table

    def refuse(reader):
        table(reader)
        return None

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_module._ChunkReader, "_table", refuse)
        return load_dataset(path, schema)


def load_in_one_pass(path, schema):
    """``path``'s Dataset, failing if any chunk falls back to the row-by-row read."""

    def refuse(reader):
        raise AssertionError("a clean chunk was read again row by row")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data_module._ChunkReader, "_rows", refuse)
        return load_dataset(path, schema)


# labels with the characters CSV quoting is about, and the empty label
AWKWARD_LABELS = st.text(alphabet=[",", '"', "\n", "\r", " ", "a", "B"], max_size=4)
FIRST_MONTH = month_index("2015-01")
NUMERIC, KEYS = ("SIZE", "ROOMS"), ("REGION", "STATION")
ROWS = st.lists(
    st.fixed_dictionaries(
        {
            "month": st.integers(FIRST_MONTH, FIRST_MONTH + 5),  # in any order
            "SIZE": st.floats(allow_nan=False, allow_infinity=False),
            "ROOMS": st.floats(-1e3, 1e3),
            "REGION": AWKWARD_LABELS,
            "STATION": AWKWARD_LABELS,
            "price": st.floats(1e-300, 1e300),
            "JUNK": AWKWARD_LABELS,
        }
    ),
    max_size=12,
)


def row_cells(row):
    return {
        **{name: repr(row[name]) for name in NUMERIC},
        **{name: row[name] for name in KEYS + ("JUNK",)},
        "DATE": month_text(row["month"]),
        "PRICE": repr(row["price"]),
        "NOTE": "",
    }


class TestOnePassLoad:
    """numpy alone parses every chunk of a clean file, to the row-by-row read's Dataset."""

    schema = make_schema(numeric=NUMERIC, key=KEYS)

    @settings(max_examples=200, deadline=None)
    @given(
        rows=ROWS,
        header=st.permutations(NUMERIC + KEYS + META_COLUMNS + ("JUNK", "NOTE")),
        terminator=st.sampled_from(["\n", "\r\n"]),
        blank_after=st.sets(st.integers(0, 12)),
        quoting=st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
        # small chunks end next to blank lines and labels holding \n or \r
        chunk_rows=st.sampled_from([1, 2, 3, 4, 5, data_module.CHUNK_ROWS]),
    )
    def test_matches_the_row_reader(
        self, tmp_path_factory, rows, header, terminator, blank_after, quoting, chunk_rows
    ):
        def line(cells):
            # csv.writer quotes a field holding \r or \n only if its line
            # terminator holds that character, so quote for \r\n
            buffer = io.StringIO()
            csv.writer(buffer, quoting=quoting).writerow(cells)
            return buffer.getvalue().removesuffix("\r\n") + terminator

        lines = [line(header)]
        for i, row in enumerate(rows):
            cells = row_cells(row)
            lines.append(line([cells[name] for name in header]))
            if i in blank_after:
                lines.append(terminator)
        path = tmp_path_factory.mktemp("one_pass") / "rows.csv"
        path.write_bytes("".join(lines).encode())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data_module, "CHUNK_ROWS", chunk_rows)
            loaded = load_in_one_pass(path, self.schema)
            assert_same_columns(loaded, load_row_by_row(path, self.schema))
        assert_same_columns(loaded, make_dataset(rows, numeric=NUMERIC, key=KEYS))

    def test_converters_follow_file_columns(self, tmp_path):
        # an extra leading column and a shuffled header put every schema
        # column at a file index other than its position among the used columns
        path = tmp_path / "shuffled.csv"
        _write_csv(
            path,
            ["JUNK", "PRICE", "STATION", "SIZE", "DATE", "REGION", "ROOMS"],
            [
                ["x", 100.0 + i, f"s{i % 2}", 3.0 * i, f"2015-0{3 - i % 3}", "BA"[i % 2], i % 4]
                for i in range(6)
            ],
        )
        loaded = load_in_one_pass(path, self.schema)
        assert loaded.inventories == {"REGION": ("A", "B"), "STATION": ("s0", "s1")}
        assert loaded.numeric[:, 0].tolist() == [6.0, 15.0, 3.0, 12.0, 0.0, 9.0]
        assert_same_columns(loaded, load_row_by_row(path, self.schema))

    @pytest.mark.filterwarnings("error::UserWarning")
    @pytest.mark.parametrize("body", ["", "\n\n"], ids=["header_only", "blank_lines"])
    def test_file_without_rows_loads_empty(self, tmp_path, body):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(self.schema.names) + "\n" + body)
        loaded = load_in_one_pass(path, self.schema)
        assert len(loaded) == 0 and loaded.inventories == {"REGION": (), "STATION": ()}
        assert_same_columns(loaded, load_row_by_row(path, self.schema))

    @pytest.mark.parametrize(
        "line, rejected",
        [
            ("nan,1,A,s,2015-01,100000.0", "line 7: non-finite value in column 'SIZE'"),
            ("1_000,1,A,s,2015-01,100000.0", None),  # Python's float takes it: kept as 1000.0
            ("500.0,1,A,s,2015-1x,100000.0", "line 7: expected YYYY-MM, got '2015-1x'"),
            ("   ", "line 7: list index out of range"),
        ],
        ids=["nan", "underscore", "bad_date", "whitespace_line"],
    )
    def test_single_defect_goes_to_the_row_reader(self, tmp_path, caplog, line, rejected):
        path = tmp_path / "defect.csv"
        good = [f"{500.0 + i},1,A,s,2015-0{1 + i % 3},{100000.0 + i}" for i in range(20)]
        lines = [",".join(NUMERIC + KEYS + META_COLUMNS)] + good[:5] + [line] + good[5:]
        path.write_text("\n".join(lines) + "\n")
        with caplog.at_level(logging.DEBUG, logger="mtlhouse.data"):
            loaded = load_dataset(path, self.schema)
        messages = [m for m in caplog.messages if m.startswith("rejected row")]
        assert messages == ([f"rejected row: {rejected}"] if rejected else [])
        assert len(loaded) == (20 if rejected else 21)
        if not rejected:
            assert 1000.0 in loaded.numeric[:, 0].tolist()
        assert_same_columns(loaded, load_row_by_row(path, self.schema))


class TestChunkedRead:
    """numpy parses each chunk; the csv module reads again only a chunk numpy refuses."""

    schema = make_schema(numeric=("SIZE",), key=("REGION", "STATION"))
    header = "SIZE,REGION,STATION,DATE,PRICE\n"

    @pytest.mark.parametrize("price", ["abc", "nan", "0.0"])
    def test_a_refused_chunk_leaves_no_label(self, tmp_path, price):
        # the only "Z" is on a rejected row, after rows numpy converted in the
        # same chunk: numpy codes it, and the refused chunk must forget it
        path = tmp_path / "rows.csv"
        good = [f"{100.0 + i},{'AB'[i % 2]},s{i % 3},2015-01,{1000.0 + i}\n" for i in range(20)]
        path.write_text(self.header + "".join(good) + f"1.0,A,Z,2015-02,{price}\n")
        loaded = load_dataset(path, self.schema)
        assert len(loaded) == 20
        assert loaded.inventories == {"REGION": ("A", "B"), "STATION": ("s0", "s1", "s2")}
        columns = DesignLayout.from_dataset(loaded, RegionDef("REGION")).columns
        assert columns == ("SIZE", "STATION=s0", "STATION=s1", "STATION=s2", "(intercept)")

    def test_a_row_rejected_at_its_last_key_codes_no_label(self, tmp_path):
        # "Q" is coded before the undecodable STATION label rejects its row
        path = tmp_path / "rows.csv"
        good = [f"{100.0 + i},{'AB'[i % 2]},s{i % 3},2015-01,{1000.0 + i}\n" for i in range(20)]
        path.write_bytes((self.header + "".join(good)).encode() + b"1.0,Q,\xff,2015-01,5.0\n")
        for loaded in (load_dataset(path, self.schema), load_row_by_row(path, self.schema)):
            assert len(loaded) == 20
            assert loaded.inventories == {"REGION": ("A", "B"), "STATION": ("s0", "s1", "s2")}

    # a chunk holds its leading blank lines and CHUNK_ROWS rows, and no line more
    LINES = [
        '1.0,A,"x\n', 'y",2015-01,5.0\n',  # one row on two lines
        "\n",
        '2.0,B,"p\r', 'q",2015-01,6.0\r\n',  # a lone \r breaks a line too
        "\n",
        "3.0,A,s,2015-02,7.0\n",
    ]

    @pytest.mark.filterwarnings("error::UserWarning")
    @pytest.mark.parametrize(
        "chunk_rows, chunks",
        [
            (1, [(LINES[:2], 1), (LINES[2:5], 1), (LINES[5:], 1), ([], 0)]),
            (2, [(LINES[:5], 2), (LINES[5:], 1), ([], 0)]),
        ],
    )
    def test_numpy_reads_no_line_past_its_chunk(self, monkeypatch, chunk_rows, chunks):
        monkeypatch.setattr(data_module, "CHUNK_ROWS", chunk_rows)
        fh = io.StringIO(self.header + "".join(self.LINES), newline="")
        header = csv.reader(fh)
        col = data_module._schema_columns("rows.csv", header, self.schema)
        reader = data_module._ChunkReader(self.schema, col, fh, header.line_num)
        for lines, n_rows in chunks:
            table = reader._table()
            assert reader.lines == lines and len(table) == n_rows
            reader.lines.clear()

    @pytest.mark.parametrize("price", ["abc", "nan"])
    def test_a_late_reject_reads_one_chunk_row_by_row(self, tmp_path, monkeypatch, caplog, price):
        monkeypatch.setattr(data_module, "CHUNK_ROWS", 8)
        parse_row = data_module._ChunkReader._parse_row
        parsed = []

        def count(reader, row):
            parsed.append(row)
            return parse_row(reader, row)

        monkeypatch.setattr(data_module._ChunkReader, "_parse_row", count)
        rows = [f"{100.0 + i},A,s,2015-0{1 + i % 3},{1000.0 + i}\n" for i in range(60)]
        rows[50] = f"1.0,A,s,2015-01,{price}\n"
        path = tmp_path / "late.csv"
        path.write_text(self.header + "".join(rows))
        with caplog.at_level(logging.DEBUG, logger="mtlhouse.data"):
            loaded = load_dataset(path, self.schema)
        assert len(loaded) == 59 and 0 < len(parsed) <= 8
        rejected = [m for m in caplog.messages if m.startswith("rejected row")]
        assert len(rejected) == 1 and rejected[0].startswith("rejected row: line 52: ")

    @pytest.mark.parametrize("chunk_rows", [1, 2, 4096])
    @pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"])
    def test_a_reject_cites_its_physical_line(self, tmp_path, monkeypatch, chunk_rows, newline):
        monkeypatch.setattr(data_module, "CHUNK_ROWS", chunk_rows)
        lines = [
            self.header,
            f'1.0,A,"x{newline}y",2015-01,5.0\n',  # lines 2 and 3
            "abc,A,s,2015-01,6.0\n",  # line 4
            f'bad,A,"p{newline}q",2015-01,7.0\n',  # lines 5 and 6: cited by its first
            *(f"{i}.0,B,s,2015-02,8.0\n" for i in range(20)),
        ]
        path = tmp_path / "quoted.csv"
        path.write_bytes("".join(lines).encode())
        with pytest.raises(DataError) as excinfo:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(data_module, "MAX_REJECT_FRACTION", 0.0)
                load_dataset(path, self.schema)
        assert excinfo.value.row_errors == [
            "line 4: could not convert string to float: 'abc'",
            "line 5: could not convert string to float: 'bad'",
        ]


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
    assert_same_columns(dataset, load_dataset(copy, melbourne_schema()))


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
        assert_same_columns(dataset, reloaded)

    @settings(max_examples=100, deadline=None)
    @given(rows=ROWS, chunk_rows=st.integers(1, 5))
    def test_writer_matches_csv_writer(self, tmp_path_factory, rows, chunk_rows):
        dataset = make_dataset(rows, numeric=NUMERIC, key=KEYS)
        path = tmp_path_factory.mktemp("writer") / "rows.csv"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data_module, "CHUNK_ROWS", chunk_rows)
            save_dataset(dataset, path)
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(dataset.schema.names)
        for i in range(len(dataset)):
            writer.writerow(
                [repr(value) for value in dataset.numeric[i].tolist()]
                + [dataset.inventories[name][dataset.codes[name][i]] for name in KEYS]
                + [month_text(int(dataset.months[i])), repr(float(dataset.prices[i]))]
            )
        assert path.read_bytes() == buffer.getvalue().encode()
        assert_same_columns(dataset, load_in_one_pass(path, dataset.schema))

    def test_bundled_fixture_round_trips(self, tmp_path, fixture_dir):
        config = SyntheticConfig.from_dict(
            json.loads((fixture_dir / "config.json").read_text())
        )
        schema = synthetic_schema(config.n_features)
        dataset = load_dataset(fixture_dir / "dataset.csv", schema)
        out = tmp_path / "copy.csv"
        save_dataset(dataset, out)
        assert_same_columns(dataset, load_dataset(out, schema))

    @pytest.mark.parametrize("n_rows", [0, 1, 60])
    def test_make_dataset_matches_the_loader(self, tmp_path, n_rows):
        # the tests' datasets are the ones a run would load from the same rows
        rng = random.Random(n_rows)
        first = month_index("2015-01")
        rows = [
            {
                "month": first + rng.randrange(6),
                "SIZE": rng.uniform(-1e3, 1e3),
                "ROOMS": float(rng.randrange(5)),
                "REGION": rng.choice(["C", "A", "B", "10", "9"]),
                "STATION": rng.choice(["s2", "s1"]),
                "price": rng.lognormvariate(13, 1),
            }
            for _ in range(n_rows)
        ]
        numeric, key = ("SIZE", "ROOMS"), ("REGION", "STATION")
        path = tmp_path / "rows.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(numeric + key + META_COLUMNS)
            for row in rows:
                writer.writerow(
                    [repr(row[name]) for name in numeric]
                    + [row[name] for name in key]
                    + [month_text(row["month"]), repr(row["price"])]
                )
        loaded = load_dataset(path, make_schema(numeric=numeric, key=key))
        assert_same_columns(make_dataset(rows, numeric=numeric, key=key), loaded)


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
        assert_same_columns(dataset, regenerated)

    def test_fixture_with_a_byte_order_mark_loads_the_same(self, fixture_dir, tmp_path):
        schema = synthetic_schema(10)
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (fixture_dir / "dataset.csv").read_bytes())
        plain = load_dataset(fixture_dir / "dataset.csv", schema)
        assert_same_columns(load_dataset(path, schema), plain)


class TestDatasetInvariants:
    def columns(self, **overrides):
        """The columns of a valid two-row dataset, with ``overrides`` in their place."""
        good = make_dataset(
            [{"month": 4, "SIZE": 1.0, "REGION": "A"}, {"month": 5, "SIZE": 2.0, "REGION": "B"}],
            numeric=("SIZE",),
            key=("REGION",),
        )
        names = ("schema", "months", "prices", "numeric", "codes", "inventories")
        return {**{name: getattr(good, name) for name in names}, **overrides}

    def test_unsorted_records_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            Dataset(**self.columns(months=np.array([5, 4])))

    def test_missing_key_code_rejected(self):
        with pytest.raises(ValueError, match="need codes and an inventory"):
            Dataset(**self.columns(codes={}))

    @pytest.mark.parametrize("price", [0.0, -1.0, -680540.0])
    def test_nonpositive_price_rejected(self, price):
        with pytest.raises(ValueError, match="positive"):
            Dataset(**self.columns(prices=np.array([10.0, price])))

    @pytest.mark.parametrize("price", [math.inf, math.nan])
    def test_non_finite_price_rejected(self, price):
        with pytest.raises(ValueError, match="finite"):
            Dataset(**self.columns(prices=np.array([price, 10.0])))

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
