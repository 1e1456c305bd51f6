import math

import pytest
from hypothesis import given, settings, strategies as st

from mtlhouse.synthetic import SyntheticConfig, generate_synthetic
from mtlhouse.tasks import (
    DefinitionError,
    EmptyTaskSetError,
    FacilityDef,
    IntersectionDef,
    ParseError,
    RegionDef,
    SchoolDef,
    StationDef,
    Task,
    TaskSet,
    define_tasks,
    filter_min_samples,
    format_definition,
    nearest_rank_quartiles,
    parse_definition,
    quartile_groups,
)

from conftest import make_dataset


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
        assert not taskset.unassigned

    def test_single_region_code(self):
        dataset = region_dataset(["Z"] * 6)
        taskset = define_tasks(dataset, RegionDef("REGION"))
        assert len(taskset.tasks) == 1
        assert taskset.unassigned == ()
        assert taskset.tasks[0].member_indices == tuple(range(6))

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
        assert taskset.tasks[0].member_indices == expected_members
        assert taskset.unassigned == expected_out

    def test_time_measure(self):
        dataset = self.station_dataset([800.0, 8000.0])
        taskset = define_tasks(dataset, StationDef(threshold=50.0, measure="time"))
        assert taskset.tasks[0].member_indices == (0,)
        assert taskset.unassigned == (1,)

    def test_monotone_in_threshold(self):
        distances = [100.0, 2500.0, 3900.0, 4100.0, 6000.0]
        dataset = self.station_dataset(distances, stations=["S1", "S2", "S1", "S2", "S1"])
        previous_assigned = -1
        previous_unassigned = math.inf
        for threshold in (500.0, 3000.0, 4000.0, 7000.0):
            taskset = define_tasks(dataset, StationDef(threshold=threshold))
            assigned = sum(len(t.member_indices) for t in taskset.tasks)
            assert assigned >= previous_assigned
            assert len(taskset.unassigned) <= previous_unassigned
            previous_assigned = assigned
            previous_unassigned = len(taskset.unassigned)

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
        assert [t.task_id for t in taskset.tasks] == ["D1", "D2"]
        assert taskset.unassigned == (3,)

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
        assert [t.task_id for t in taskset.tasks] == ["M1", "M2"]
        assert taskset.tasks[0].member_indices == (0, 2, 3)

    def test_shared_two_grouping(self):
        taskset = define_tasks(self.facility_dataset(), FacilityDef(2, ("shop", "market")))
        assert len(taskset.tasks) == 3
        assert taskset.tasks[0].member_indices == (0, 3)  # S1|M1

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
        assert all(len(t.member_indices) == 1 for t in taskset.tasks)

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
        for task in both.tasks:
            members = set(task.member_indices)
            assert sum(members <= set(t.member_indices) for t in tasks_a.tasks) == 1
            assert sum(members <= set(t.member_indices) for t in tasks_b.tasks) == 1

    def test_unassigned_in_either_operand_stays_unassigned(self):
        rows = [
            {"month": 0, "REGION": "A", "STATION_ID": "S1", "DIST_STATION": 9000.0},
            {"month": 0, "REGION": "A", "STATION_ID": "S1", "DIST_STATION": 100.0},
        ]
        dataset = make_dataset(
            rows, numeric=("DIST_STATION",), key=("REGION", "STATION_ID")
        )
        taskset = define_tasks(dataset, IntersectionDef(RegionDef("REGION"), StationDef(4000.0)))
        assert taskset.unassigned == (0,)

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
        seen: list[int] = list(taskset.unassigned)
        for task in taskset.tasks:
            assert task.member_indices  # no empty task
            seen.extend(task.member_indices)
        assert sorted(seen) == list(range(n))

    def test_determinism(self):
        dataset = region_dataset(["B", "A", "B", "C", "A"])
        first = define_tasks(dataset, RegionDef("REGION"))
        second = define_tasks(dataset, RegionDef("REGION"))
        assert first == second
        assert first.task_ids == ("A", "B", "C")  # stable sorted ids


class TestRowsIn:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 8), st.sampled_from("ABCD")), min_size=1, max_size=40
        ),
        drawn=st.tuples(st.integers(-3, 11), st.integers(-3, 11)),
    )
    def test_matches_brute_force_scan(self, rows, drawn):
        dataset = region_dataset([c for _, c in rows], months=[m for m, _ in rows])
        taskset = define_tasks(dataset, RegionDef("REGION"))
        months = [r.sale_month for r in dataset.records]
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
                (t.task_id, tuple(i for i in t.member_indices if lo <= months[i] <= hi))
                for t in taskset.tasks
            ]
            assert list(taskset.rows_in((lo, hi)).items()) == expected
            assert taskset.window_counts((lo, hi)) == {k: len(v) for k, v in expected}

    def test_rejects_unsorted_record_months(self):
        with pytest.raises(ValueError, match="record_months must be sorted"):
            TaskSet(
                definition=RegionDef("REGION"),
                tasks=(Task("A", (0, 1)),),
                unassigned=(),
                record_months=(1, 0),
            )

    def test_rejects_unsorted_member_indices(self):
        with pytest.raises(ValueError, match="ascending"):
            TaskSet(
                definition=RegionDef("REGION"),
                tasks=(Task("A", (1, 0)),),
                unassigned=(),
                record_months=(0, 0),
            )


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
        assert filter_min_samples(taskset, (0, 1), 0) == taskset

    def test_simple_threshold(self):
        dataset = self.counted_dataset([5, 10])
        taskset = define_tasks(dataset, RegionDef("REGION"))
        filtered = filter_min_samples(taskset, (0, 1), 6)
        assert [t.task_id for t in filtered.tasks] == ["R01"]
        assert len(filtered.unassigned) == 5

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
        assert list(filtered.task_ids) == expected

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
        for task in taskset.tasks:
            c = counts[int(task.task_id[1:])]
            if c == top or c > q[2]:
                expected[3].append(task.task_id)
            elif c <= q[0]:
                expected[0].append(task.task_id)
            elif c <= q[1]:
                expected[1].append(task.task_id)
            else:
                expected[2].append(task.task_id)
        assert grouping.boundaries == tuple(q)
        assert [list(g) for g in grouping.groups] == expected

    def test_every_task_in_exactly_one_group(self):
        taskset = self.grouped_taskset([9, 1, 6, 6, 2, 8, 30, 30])
        grouping = quartile_groups(taskset, (0, 0))
        all_ids = [t for g in grouping.groups for t in g]
        assert sorted(all_ids) == sorted(taskset.task_ids)

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
