import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mtlhouse.data import Dataset
from mtlhouse.synthetic import SyntheticConfig, generate_synthetic
from mtlhouse.tasks import (
    FACILITY_COLUMNS,
    FACILITY_KINDS,
    SCHOOL_KINDS,
    STATION_KEY,
    STATION_MEASURE_COLUMNS,
    DefinitionError,
    EmptyTaskSetError,
    FacilityDef,
    IntersectionDef,
    ParseError,
    RegionDef,
    SchoolDef,
    StationDef,
    TaskSet,
    define_tasks,
    filter_min_samples,
    format_definition,
    nearest_rank_quartiles,
    parse_definition,
    quartile_groups,
)

from conftest import make_dataset


def oracle_row_labels(dataset, definition):
    """Each row's task label text under ``definition`` (None = unassigned), read
    row by row from the dataset's row view."""

    def labels(name):
        return [str(r.values[name]) for r in dataset.records]

    def measures(name):
        return [float(r.values[name]) for r in dataset.records]

    if isinstance(definition, RegionDef):
        return labels(definition.level)
    if isinstance(definition, SchoolDef):
        prefix = definition.school_kind.upper()
        district = f"{prefix}_DISTRICT"
        key = district if dataset.schema.has(district) else f"{prefix}_NEAREST"
        lo, hi = definition.rank_lo, definition.rank_hi
        return [
            k if lo <= rank <= hi else None
            for k, rank in zip(labels(key), measures(f"{prefix}_RANK"))
        ]
    if isinstance(definition, StationDef):
        measure = STATION_MEASURE_COLUMNS[definition.measure]
        return [
            k if m <= definition.threshold else None
            for k, m in zip(labels(STATION_KEY), measures(measure))
        ]
    if isinstance(definition, FacilityDef):
        columns = [labels(FACILITY_COLUMNS[k]) for k in definition.kinds]
        return ["|".join(keys) for keys in zip(*columns)]
    return [
        None if a is None or b is None else f"{a}&{b}"
        for a, b in zip(
            oracle_row_labels(dataset, definition.a), oracle_row_labels(dataset, definition.b)
        )
    ]


def oracle_define_tasks(dataset, definition):
    """The string-label partition: {task id: ascending member rows}, in sorted id order."""
    members = {}
    for i, label in enumerate(oracle_row_labels(dataset, definition)):
        if label is not None:
            members.setdefault(label, []).append(i)
    return {label: tuple(members[label]) for label in sorted(members)}


def members(taskset, p):
    """Rows whose task code is ``p`` (-1: the unassigned rows)."""
    return tuple(np.flatnonzero(taskset.codes == p).tolist())


def unassigned(taskset):
    return members(taskset, -1)


def members_by_task(taskset):
    return {task_id: members(taskset, p) for p, task_id in enumerate(taskset.tasks)}


def with_unused_label(dataset, label):
    """The same rows, with ``label`` added to every key inventory but held by no row."""
    codes, inventories = {}, {}
    for name, inventory in dataset.inventories.items():
        inventories[name] = tuple(sorted(set(inventory) | {label}))
        codes[name] = np.searchsorted(inventories[name], inventory)[dataset.codes[name]]
    return Dataset(
        schema=dataset.schema,
        months=dataset.months,
        prices=dataset.prices,
        numeric=dataset.numeric,
        codes=codes,
        inventories=inventories,
    )


def region_dataset(codes, months=None):
    months = months or [0] * len(codes)
    rows = [
        {"month": m, "REGION": c, "SIZE": float(i)}
        for i, (c, m) in enumerate(zip(codes, months))
    ]
    return make_dataset(rows, numeric=("SIZE",), key=("REGION",))


class TestRegion:
    def test_seventeen_coarse_regions(self):
        # 68 planted tasks grouped four apiece give the 17-partition coarse level
        config = SyntheticConfig(
            n_tasks=68,
            n_features=3,
            samples_per_task_per_month=2,
            months=2,
            shared_support_size=2,
            coefficient_noise=0.0,
            observation_noise=0.0,
            seed=8,
        )
        dataset, _ = generate_synthetic(config)
        taskset = define_tasks(dataset, RegionDef("SA4"))
        assert len(taskset.tasks) == 17
        assert not unassigned(taskset)

    def test_single_region_code(self):
        dataset = region_dataset(["Z"] * 6)
        taskset = define_tasks(dataset, RegionDef("REGION"))
        assert len(taskset.tasks) == 1
        assert unassigned(taskset) == ()
        assert members(taskset, 0) == tuple(range(6))

    def test_unused_inventory_label_makes_no_task(self):
        dataset = with_unused_label(region_dataset(["A", "C", "A"]), "B")
        assert dataset.inventories["REGION"] == ("A", "B", "C")
        taskset = define_tasks(dataset, RegionDef("REGION"))
        assert taskset.tasks == ("A", "C")
        assert members_by_task(taskset) == {"A": (0, 2), "C": (1,)}

    def test_missing_level_column(self):
        dataset = region_dataset(["A"])
        with pytest.raises(DefinitionError, match="SA9"):
            define_tasks(dataset, RegionDef("SA9"))


class TestStation:
    def station_dataset(self, distances, stations=None):
        stations = stations or ["S1"] * len(distances)
        rows = [
            {"month": 0, "STATION_ID": s, "DIST_STATION": d, "TIME_STATION": d / 80.0}
            for s, d in zip(stations, distances)
        ]
        return make_dataset(
            rows, numeric=("DIST_STATION", "TIME_STATION"), key=("STATION_ID",)
        )

    def test_threshold_boundary_inclusive(self):
        distances = [500.0, 3999.0, 4000.0, 4001.0]
        dataset = self.station_dataset(distances)
        taskset = define_tasks(dataset, StationDef(threshold=4000.0))
        # independent brute-force threshold scan
        expected_members = tuple(i for i, d in enumerate(distances) if d <= 4000.0)
        expected_out = tuple(i for i, d in enumerate(distances) if d > 4000.0)
        assert members(taskset, 0) == expected_members
        assert unassigned(taskset) == expected_out

    def test_time_measure(self):
        dataset = self.station_dataset([800.0, 8000.0])
        taskset = define_tasks(dataset, StationDef(threshold=50.0, measure="time"))
        assert members(taskset, 0) == (0,)
        assert unassigned(taskset) == (1,)

    def test_nan_measure_is_unassigned(self):
        dataset = self.station_dataset([100.0, math.nan])
        taskset = define_tasks(dataset, StationDef(threshold=4000.0))
        assert members(taskset, 0) == (0,)
        assert unassigned(taskset) == (1,)

    def test_monotone_in_threshold(self):
        distances = [100.0, 2500.0, 3900.0, 4100.0, 6000.0]
        dataset = self.station_dataset(distances, stations=["S1", "S2", "S1", "S2", "S1"])
        previous_assigned = -1
        previous_unassigned = math.inf
        for threshold in (500.0, 3000.0, 4000.0, 7000.0):
            taskset = define_tasks(dataset, StationDef(threshold=threshold))
            assigned = int(np.sum(taskset.codes >= 0))
            assert assigned >= previous_assigned
            assert len(unassigned(taskset)) <= previous_unassigned
            previous_assigned = assigned
            previous_unassigned = len(unassigned(taskset))

    def test_all_beyond_threshold_is_empty_task_set(self):
        dataset = self.station_dataset([5000.0, 6000.0])
        with pytest.raises(EmptyTaskSetError):
            define_tasks(dataset, StationDef(threshold=100.0))


class TestSchool:
    def school_dataset(self, districts, ranks, with_district_column=True):
        key_name = "PRIMARY_DISTRICT" if with_district_column else "PRIMARY_NEAREST"
        rows = [
            {"month": 0, key_name: d, "PRIMARY_RANK": float(r)}
            for d, r in zip(districts, ranks)
        ]
        return make_dataset(rows, numeric=("PRIMARY_RANK",), key=(key_name,))

    def test_rank_range_filters_districts(self):
        dataset = self.school_dataset(["D1", "D1", "D2", "D3"], [5, 5, 30, 90])
        taskset = define_tasks(dataset, SchoolDef("primary", 1, 40))
        assert list(taskset.tasks) == ["D1", "D2"]
        assert unassigned(taskset) == (3,)

    def test_nearest_school_fallback(self):
        dataset = self.school_dataset(
            ["N1", "N2"], [10, 10], with_district_column=False
        )
        taskset = define_tasks(dataset, SchoolDef("primary", 1, 40))
        assert len(taskset.tasks) == 2

    def test_invalid_rank_range(self):
        with pytest.raises(DefinitionError):
            SchoolDef("primary", 40, 1)

    def test_unknown_kind(self):
        with pytest.raises(DefinitionError):
            SchoolDef("tertiary", 1, 10)


class TestFacility:
    def facility_dataset(self):
        rows = [
            {"month": 0, "SHOP_ID": "S1", "MARKET_ID": "M1"},
            {"month": 0, "SHOP_ID": "S1", "MARKET_ID": "M2"},
            {"month": 0, "SHOP_ID": "S2", "MARKET_ID": "M1"},
            {"month": 0, "SHOP_ID": "S1", "MARKET_ID": "M1"},
        ]
        return make_dataset(rows, key=("SHOP_ID", "MARKET_ID"))

    def test_single_facility_grouping(self):
        taskset = define_tasks(self.facility_dataset(), FacilityDef(1, ("market",)))
        assert list(taskset.tasks) == ["M1", "M2"]
        assert members(taskset, 0) == (0, 2, 3)

    def test_shared_two_grouping(self):
        taskset = define_tasks(self.facility_dataset(), FacilityDef(2, ("shop", "market")))
        assert len(taskset.tasks) == 3
        assert members(taskset, 0) == (0, 3)  # S1|M1

    def test_labels_that_join_to_one_text_are_one_task(self):
        rows = [
            {"month": 0, "SHOP_ID": "S|1", "MARKET_ID": "2"},
            {"month": 0, "SHOP_ID": "S", "MARKET_ID": "1|2"},
            {"month": 0, "SHOP_ID": "S", "MARKET_ID": "2"},
        ]
        dataset = make_dataset(rows, key=("SHOP_ID", "MARKET_ID"))
        taskset = define_tasks(dataset, FacilityDef(2, ("shop", "market")))
        assert members_by_task(taskset) == {"S|1|2": (0, 1), "S|2": (2,)}

    @pytest.mark.parametrize(
        "level,kinds",
        [(2, ("shop",)), (1, ("shop", "market")), (1, ("mall",)), (2, ("shop", "shop"))],
    )
    def test_invalid_facility_defs(self, level, kinds):
        with pytest.raises(DefinitionError):
            FacilityDef(level, kinds)


class TestIntersection:
    def test_full_cross_product(self):
        rows = [
            {"month": 0, "REGION": "A", "MARKET_ID": "1"},
            {"month": 0, "REGION": "A", "MARKET_ID": "2"},
            {"month": 0, "REGION": "B", "MARKET_ID": "1"},
            {"month": 0, "REGION": "B", "MARKET_ID": "2"},
        ]
        dataset = make_dataset(rows, key=("REGION", "MARKET_ID"))
        definition = IntersectionDef(RegionDef("REGION"), FacilityDef(1, ("market",)))
        taskset = define_tasks(dataset, definition)
        assert len(taskset.tasks) == 4
        assert all(len(rows) == 1 for rows in members_by_task(taskset).values())

    def test_refinement(self):
        rows = [
            {
                "month": 0,
                "REGION": ["A", "A", "B", "B", "B"][i],
                "STATION_ID": ["S1", "S2", "S1", "S1", "S2"][i],
                "DIST_STATION": [100.0, 200.0, 300.0, 9000.0, 50.0][i],
            }
            for i in range(5)
        ]
        dataset = make_dataset(
            rows, numeric=("DIST_STATION",), key=("REGION", "STATION_ID")
        )
        a, b = RegionDef("REGION"), StationDef(4000.0)
        both = define_tasks(dataset, IntersectionDef(a, b))
        tasks_a = define_tasks(dataset, a)
        tasks_b = define_tasks(dataset, b)
        for rows in members_by_task(both).values():
            rows = set(rows)
            assert sum(rows <= set(m) for m in members_by_task(tasks_a).values()) == 1
            assert sum(rows <= set(m) for m in members_by_task(tasks_b).values()) == 1

    def test_unassigned_in_either_operand_stays_unassigned(self):
        rows = [
            {"month": 0, "REGION": "A", "STATION_ID": "S1", "DIST_STATION": 9000.0},
            {"month": 0, "REGION": "A", "STATION_ID": "S1", "DIST_STATION": 100.0},
        ]
        dataset = make_dataset(
            rows, numeric=("DIST_STATION",), key=("REGION", "STATION_ID")
        )
        taskset = define_tasks(dataset, IntersectionDef(RegionDef("REGION"), StationDef(4000.0)))
        assert unassigned(taskset) == (0,)

    def test_nested_intersections_rejected(self):
        inner = IntersectionDef(RegionDef("A"), StationDef(1.0))
        with pytest.raises(DefinitionError):
            IntersectionDef(inner, RegionDef("B"))


class TestPartitionProperty:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_tasks_plus_unassigned_cover_everything(self, data):
        n = data.draw(st.integers(min_value=1, max_value=25))
        regions = data.draw(
            st.lists(st.sampled_from(["A", "B", "C"]), min_size=n, max_size=n)
        )
        stations = data.draw(
            st.lists(st.sampled_from(["S1", "S2"]), min_size=n, max_size=n)
        )
        distances = data.draw(
            st.lists(
                st.floats(min_value=0, max_value=9000), min_size=n, max_size=n
            )
        )
        rows = [
            {
                "month": i % 3,
                "REGION": regions[i],
                "STATION_ID": stations[i],
                "DIST_STATION": distances[i],
            }
            for i in range(n)
        ]
        dataset = make_dataset(
            rows, numeric=("DIST_STATION",), key=("REGION", "STATION_ID")
        )
        definition = data.draw(
            st.sampled_from(
                [
                    RegionDef("REGION"),
                    StationDef(4000.0),
                    IntersectionDef(RegionDef("REGION"), StationDef(4000.0)),
                ]
            )
        )
        try:
            taskset = define_tasks(dataset, definition)
        except EmptyTaskSetError:
            return
        seen: list[int] = list(unassigned(taskset))
        for rows in members_by_task(taskset).values():
            assert rows  # no empty task
            seen.extend(rows)
        assert sorted(seen) == list(range(n))

    def test_determinism(self):
        dataset = region_dataset(["B", "A", "B", "C", "A"])
        first = define_tasks(dataset, RegionDef("REGION"))
        second = define_tasks(dataset, RegionDef("REGION"))
        assert first.tasks == second.tasks
        assert first.codes.tobytes() == second.codes.tobytes()
        assert first.tasks == ("A", "B", "C")  # stable sorted ids


class TestRowsIn:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 8), st.sampled_from("ABCD")), min_size=1, max_size=40
        ),
        drawn=st.tuples(st.integers(-3, 11), st.integers(-3, 11)),
        min_count=st.integers(0, 3),
    )
    def test_matches_brute_force_scan(self, rows, drawn, min_count):
        dataset = region_dataset([c for _, c in rows], months=[m for m, _ in rows])
        taskset = define_tasks(dataset, RegionDef("REGION"))
        # dropping the tasks with few rows in the drawn window leaves unassigned rows
        taskset = filter_min_samples(taskset, drawn, min_count)
        months = [r.sale_month for r in dataset.records]
        codes = taskset.codes.tolist()
        first, last = dataset.month_range
        windows = [
            drawn,
            (first, first),  # single month
            (last, last),
            (first + 1, first),  # empty: lo > hi
            (first - 2, last + 2),  # straddles the whole data
            (first - 2, first),  # straddles the first month
            (last, last + 2),  # straddles the last month
            (first - 5, first - 1),  # before the data
            (last + 1, last + 4),  # after the data
        ]
        for lo, hi in windows:
            expected = [
                [i for i in range(len(months)) if codes[i] == p and lo <= months[i] <= hi]
                for p in range(len(taskset.tasks))
            ]
            found, counts = taskset.rows_in((lo, hi))
            assert found.tolist() == [i for task_rows in expected for i in task_rows]
            assert counts.tolist() == [len(task_rows) for task_rows in expected]


class TestTaskSetValidation:
    def taskset(self, tasks=("A", "B"), codes=(0, 1, -1), months=(0, 0, 1)):
        return TaskSet(RegionDef("REGION"), tasks, np.array(codes), np.array(months))

    def test_valid_partition_is_read_only(self):
        taskset = self.taskset()
        assert not taskset.codes.flags.writeable
        assert not taskset.months.flags.writeable

    def test_zero_tasks_allowed(self):
        assert self.taskset(tasks=(), codes=(-1, -1, -1)).tasks == ()

    def test_keeps_the_dataset_months(self):
        dataset = region_dataset(["B", "A"], months=[0, 1])
        assert define_tasks(dataset, RegionDef("REGION")).months is dataset.months

    def test_rejects_unsorted_months(self):
        with pytest.raises(ValueError, match="months must be sorted"):
            self.taskset(months=(1, 0, 0))

    @pytest.mark.parametrize("codes", [(0, 2, 1), (0, 1, -2)])
    def test_rejects_code_out_of_range(self, codes):
        with pytest.raises(ValueError, match="task codes must lie in"):
            self.taskset(codes=codes)

    def test_rejects_task_without_rows(self):
        with pytest.raises(ValueError, match="every task needs at least one row"):
            self.taskset(codes=(0, 0, -1))

    @pytest.mark.parametrize("tasks", [("B", "A"), ("A", "A")])
    def test_rejects_unsorted_task_ids(self, tasks):
        with pytest.raises(ValueError, match="sorted and unique"):
            self.taskset(tasks=tasks)

    def test_rejects_misaligned_codes(self):
        with pytest.raises(ValueError, match="one length"):
            self.taskset(codes=(0, 1))


SINGLE_DEFINITIONS = st.one_of(
    st.just(RegionDef("REGION")),
    st.sampled_from([(1, 40), (5, 41), (1, 90)]).map(lambda r: SchoolDef("primary", *r)),
    st.sampled_from([StationDef(4000.0), StationDef(50.0, measure="time")]),
    st.lists(st.sampled_from(FACILITY_KINDS), min_size=1, max_size=3, unique=True).map(
        lambda kinds: FacilityDef(len(kinds), tuple(kinds))
    ),
)
DEFINITIONS = st.one_of(
    SINGLE_DEFINITIONS, st.builds(IntersectionDef, SINGLE_DEFINITIONS, SINGLE_DEFINITIONS)
)


# every definition the grammar can write: any kind, value and intersection order
ANY_SINGLE_DEFINITION = st.one_of(
    st.from_regex(r"[A-Z][A-Z0-9_]*", fullmatch=True).map(RegionDef),
    st.builds(
        lambda kind, lo, width: SchoolDef(kind, lo, lo + width),
        st.sampled_from(SCHOOL_KINDS),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
    ),
    st.builds(
        StationDef,
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        st.sampled_from(sorted(STATION_MEASURE_COLUMNS)),
    ),
    st.permutations(FACILITY_KINDS)
    .flatmap(lambda kinds: st.integers(1, 4).map(lambda n: kinds[:n]))
    .map(lambda kinds: FacilityDef(len(kinds), tuple(kinds))),
)
ANY_DEFINITION = st.one_of(
    ANY_SINGLE_DEFINITION,
    st.builds(IntersectionDef, ANY_SINGLE_DEFINITION, ANY_SINGLE_DEFINITION),
)


class TestOraclePartition:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), definition=DEFINITIONS)
    def test_matches_string_label_partition(self, data, definition):
        n = data.draw(st.integers(min_value=1, max_value=30))

        def column(values):
            return data.draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))

        school_key = data.draw(st.sampled_from(["PRIMARY_DISTRICT", "PRIMARY_NEAREST"]))
        columns = {
            "REGION": column(["A", "B", "C"]),
            school_key: column(["D1", "D2", "D3"]),
            "PRIMARY_RANK": column([1.0, 5.0, 40.0, 41.0, 90.0, math.nan]),
            STATION_KEY: column(["S1", "S2"]),
            "DIST_STATION": column([100.0, 4000.0, 4000.5, 9000.0, math.nan]),
            "TIME_STATION": column([10.0, 50.0, 50.25, 120.0, math.nan]),
            "SHOP_ID": column(["S", "S|1", "T"]),  # S|1 + 2 and S + 1|2 both join to S|1|2
            "HOSPITAL_ID": column(["H1", "H2"]),
            "GP_ID": column(["G1", "G2"]),
            "MARKET_ID": column(["1", "2", "1|2"]),
        }
        rows = [
            {"month": i % 3, **{name: values[i] for name, values in columns.items()}}
            for i in range(n)
        ]
        numeric = ("PRIMARY_RANK", "DIST_STATION", "TIME_STATION")
        key = tuple(name for name in columns if name not in numeric)
        dataset = make_dataset(rows, numeric=numeric, key=key)
        if data.draw(st.booleans()):
            dataset = with_unused_label(dataset, "B0")

        expected = oracle_define_tasks(dataset, definition)
        if not expected:
            with pytest.raises(EmptyTaskSetError):
                define_tasks(dataset, definition)
            return
        taskset = define_tasks(dataset, definition)
        assert taskset.tasks == tuple(expected)
        assert members_by_task(taskset) == expected


class TestFilterMinSamples:
    def counted_dataset(self, counts, months=(0, 1)):
        rows = []
        for i, count in enumerate(counts):
            for j in range(count):
                rows.append({"month": months[j % len(months)], "REGION": f"R{i:02d}"})
        return make_dataset(rows, key=("REGION",))

    def test_zero_min_count_is_noop(self):
        dataset = self.counted_dataset([3, 5])
        taskset = define_tasks(dataset, RegionDef("REGION"))
        filtered = filter_min_samples(taskset, (0, 1), 0)
        assert filtered.tasks == taskset.tasks
        assert filtered.codes.tobytes() == taskset.codes.tobytes()

    def test_simple_threshold(self):
        dataset = self.counted_dataset([5, 10])
        taskset = define_tasks(dataset, RegionDef("REGION"))
        filtered = filter_min_samples(taskset, (0, 1), 6)
        assert list(filtered.tasks) == ["R01"]
        assert len(unassigned(filtered)) == 5

    def test_quartile_threshold_matches_sort_oracle(self):
        counts = [7, 2, 9, 14, 3, 11, 5, 8, 1, 6, 13, 4, 10, 12, 15, 16, 17, 18, 19, 20]
        dataset = self.counted_dataset(counts)
        taskset = define_tasks(dataset, RegionDef("REGION"))
        window = (0, 1)
        # independent sort-and-index quartile oracle
        ordered = sorted(counts)
        q1 = ordered[math.ceil(len(ordered) / 4) - 1]
        filtered = filter_min_samples(taskset, window, q1)
        expected = sorted(
            f"R{i:02d}" for i, c in enumerate(counts) if c >= q1
        )
        assert list(filtered.tasks) == expected

    def test_window_restricts_counting(self):
        dataset = self.counted_dataset([4, 4], months=(0, 5))
        taskset = define_tasks(dataset, RegionDef("REGION"))
        # each task has 2 records in month 0, below the min of 3: all dropped
        filtered = filter_min_samples(taskset, (0, 0), 3)
        assert filtered.tasks == ()


class TestQuartileGroups:
    def grouped_taskset(self, counts):
        rows = []
        for i, count in enumerate(counts):
            rows.extend({"month": 0, "REGION": f"R{i:02d}"} for _ in range(count))
        dataset = make_dataset(rows, key=("REGION",))
        return define_tasks(dataset, RegionDef("REGION"))

    def test_one_task_per_group(self):
        taskset = self.grouped_taskset([1, 2, 3, 4])
        grouping = quartile_groups(taskset, (0, 0))
        assert grouping.boundaries == (1, 2, 3)
        assert [len(g) for g in grouping.groups] == [1, 1, 1, 1]
        assert grouping.groups[0] == ("R00",)
        assert grouping.groups[3] == ("R03",)

    def test_all_equal_counts_land_in_top_group(self):
        taskset = self.grouped_taskset([5, 5, 5, 5, 5])
        grouping = quartile_groups(taskset, (0, 0))
        assert grouping.groups[3] == ("R00", "R01", "R02", "R03", "R04")
        assert all(not g for g in grouping.groups[:3])

    def test_seventeen_task_fixture_matches_oracle(self):
        counts = [13, 2, 28, 7, 19, 4, 31, 11, 22, 5, 16, 9, 26, 3, 14, 8, 25]
        taskset = self.grouped_taskset(counts)
        grouping = quartile_groups(taskset, (0, 0))

        # independent enumeration of the binning rule
        ordered = sorted(counts)
        n = len(ordered)
        q = [ordered[math.ceil(k * n / 4) - 1] for k in (1, 2, 3)]
        top = max(counts)
        expected: list[list[str]] = [[], [], [], []]
        for task_id in taskset.tasks:
            c = counts[int(task_id[1:])]
            if c == top or c > q[2]:
                expected[3].append(task_id)
            elif c <= q[0]:
                expected[0].append(task_id)
            elif c <= q[1]:
                expected[1].append(task_id)
            else:
                expected[2].append(task_id)
        assert grouping.boundaries == tuple(q)
        assert [list(g) for g in grouping.groups] == expected

    def test_every_task_in_exactly_one_group(self):
        taskset = self.grouped_taskset([9, 1, 6, 6, 2, 8, 30, 30])
        grouping = quartile_groups(taskset, (0, 0))
        all_ids = [t for g in grouping.groups for t in g]
        assert sorted(all_ids) == sorted(taskset.tasks)

    def test_needs_four_tasks(self):
        taskset = self.grouped_taskset([1, 2, 3])
        with pytest.raises(ValueError, match="4 tasks"):
            quartile_groups(taskset, (0, 0))

    def test_nearest_rank_quartiles(self):
        assert nearest_rank_quartiles([1, 2, 3, 4]) == (1, 2, 3)
        assert nearest_rank_quartiles([4, 4, 4, 4]) == (4, 4, 4)
        assert nearest_rank_quartiles([5]) == (5, 5, 5)


class TestDefinitionGrammar:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("region:SA3", RegionDef("SA3")),
            ("school:primary:1-40", SchoolDef("primary", 1, 40)),
            ("station:4000", StationDef(4000.0)),
            ("station:time:30", StationDef(30.0, measure="time")),
            ("facility:2:shop,market", FacilityDef(2, ("shop", "market"))),
            (
                "intersect(region:SA3, station:4000)",
                IntersectionDef(RegionDef("SA3"), StationDef(4000.0)),
            ),
        ],
    )
    def test_parse_examples(self, text, expected):
        assert parse_definition(text) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "region:SA3",
            "school:secondary:1-30",
            "station:4000",
            "station:time:25",
            "facility:3:shop,gp,market",
            "intersect(region:SA3, facility:1:market)",
        ],
    )
    def test_format_parse_round_trip(self, text):
        assert format_definition(parse_definition(text)) == text

    @pytest.mark.parametrize(
        "text",
        [
            "blob:SA3",
            "region:",
            "school:primary:40-1",
            "school:primary:ten-20",
            "station:-5",
            "station:zero",
            "facility:5:shop",
            "facility:2:shop",
            "intersect(region:SA3)",
            "intersect(intersect(region:SA3, station:1), station:2)",
        ],
    )
    def test_malformed_texts_carry_positions(self, text):
        with pytest.raises(ParseError) as excinfo:
            parse_definition(text)
        assert "position" in str(excinfo.value)
        assert excinfo.value.pos >= 0

    @pytest.mark.parametrize("text", ["station:nan", "station:1e400", "station:time:inf"])
    def test_non_finite_thresholds_rejected(self, text):
        with pytest.raises(ParseError, match="finite"):
            parse_definition(text)

    @pytest.mark.parametrize(
        "text, pos",
        [
            ("intersect(region:SA3, bogus:1)", 22),
            ("  intersect(station:0, region:SA3)", 20),
            ("intersect(facility:2:shop,market, station:nan)", 42),
        ],
    )
    def test_operand_errors_quote_the_whole_text(self, text, pos):
        with pytest.raises(ParseError) as excinfo:
            parse_definition(text)
        assert excinfo.value.pos == pos
        assert str(excinfo.value).endswith(f"at position {pos} in {text!r}")

    @settings(max_examples=300, deadline=None)
    @given(definition=ANY_DEFINITION)
    @example(IntersectionDef(FacilityDef(2, ("shop", "market")), RegionDef("SA3")))
    @example(IntersectionDef(RegionDef("SA3"), FacilityDef(2, ("shop", "market"))))
    def test_parse_inverts_format(self, definition):
        assert parse_definition(format_definition(definition)) == definition
