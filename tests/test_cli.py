import csv
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from mtlhouse.cli import main
from mtlhouse.config import ConfigError, config_from_dict, load_config
from mtlhouse.data import HouseRecord, melbourne_schema
from mtlhouse.solver import SolverParams
from mtlhouse.tasks import GROUP_LABELS

from conftest import FIXTURE_DIR, REPO_ROOT


def synthetic_section(**overrides):
    base = dict(
        n_tasks=4,
        n_features=3,
        samples_per_task_per_month=8,
        months=6,
        shared_support_size=2,
        coefficient_noise=0.02,
        observation_noise=0.1,
        seed=99,
    )
    base.update(overrides)
    return base


# config overrides whose values have the wrong type, and the error that names the key
WRONG_TYPES = [
    ({"out_dir": 5}, "'out_dir' must be a string, got 5"),
    ({"task_definitions": "region:SA3"}, "'task_definitions' must be a list of strings"),
    ({"task_definitions": [3]}, "'task_definitions' must be a list of strings"),
    ({"methods": {"kind": "ols"}}, "'methods' must be a list"),
    ({"methods": [{"kind": ["ols"]}]}, r"'kind' must be a string, got \['ols'\]"),
    ({"methods": [{"kind": "ols", "label": 5}]}, "'label' must be a string, got 5"),
    ({"data": {"path": 5}}, "'path' must be a string, got 5"),
]


def write_config(tmp_path, **overrides):
    config = {
        "data": {"synthetic": synthetic_section()},
        "task_definitions": ["region:SA3"],
        "methods": [{"label": "ols", "kind": "ols"}],
        "k": 3,
        "benchmark": "ols",
        "out_dir": str(tmp_path / "results"),
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def read_csv(path):
    with Path(path).open(newline="") as fh:
        return list(csv.reader(fh))


class TestGenerate:
    def test_fixed_seed_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["generate", "--config", str(config), "--out", str(tmp_path / "a")]) == 0
        assert main(["generate", "--config", str(config), "--out", str(tmp_path / "b")]) == 0
        for name in ("dataset.csv", "planted_weights.csv", "config.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_month_span_matches_config(self, tmp_path):
        config = write_config(
            tmp_path, data={"synthetic": synthetic_section(months=39, n_tasks=2)}
        )
        assert main(["generate", "--config", str(config), "--out", str(tmp_path / "g")]) == 0
        rows = read_csv(tmp_path / "g" / "dataset.csv")
        dates = {row[rows[0].index("DATE")] for row in rows[1:]}
        assert len(dates) == 39

    def test_seed_override_changes_data(self, tmp_path):
        config = write_config(tmp_path)
        main(["generate", "--config", str(config), "--out", str(tmp_path / "a")])
        main(["generate", "--config", str(config), "--out", str(tmp_path / "b"), "--seed", "7"])
        assert (
            (tmp_path / "a" / "dataset.csv").read_bytes()
            != (tmp_path / "b" / "dataset.csv").read_bytes()
        )

    def test_regenerating_bundled_fixture_is_byte_equal(self, tmp_path):
        stored = json.loads((FIXTURE_DIR / "config.json").read_text())
        config_path = tmp_path / "fixture_config.json"
        config_path.write_text(
            json.dumps(
                {
                    "data": {"synthetic": stored},
                    "task_definitions": ["region:SA3"],
                    "methods": [{"kind": "ols"}],
                    "out_dir": str(tmp_path / "regen"),
                }
            )
        )
        assert main(["generate", "--config", str(config_path)]) == 0
        for name in ("dataset.csv", "planted_weights.csv", "config.json"):
            assert (tmp_path / "regen" / name).read_bytes() == (
                FIXTURE_DIR / name
            ).read_bytes()

    def test_generate_requires_synthetic_source(self, tmp_path):
        config = write_config(
            tmp_path, data={"path": str(FIXTURE_DIR / "dataset.csv"), "schema": "synthetic", "n_features": 10}
        )
        assert main(["generate", "--config", str(config)]) == 1


class TestRun:
    def test_single_definition_single_method(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config)]) == 0
        rows = read_csv(tmp_path / "results" / "summary.csv")
        assert len(rows) == 2  # header plus exactly one definition row
        assert rows[0][:3] == ["definition", "ols_rmse", "ols_mae"]

    def test_three_mtl_methods_give_three_method_columns(self, tmp_path):
        config = write_config(
            tmp_path,
            methods=[
                {"label": "mtl_lasso", "kind": "mtl_lasso", "theta1": [0.5]},
                {"label": "mtl_l21", "kind": "mtl_l21", "theta1": [0.5]},
                {"label": "mtl_graph", "kind": "mtl_graph", "theta1": [0.5], "theta2": [0.5]},
            ],
            benchmark="mtl_graph",
        )
        assert main(["run", "--config", str(config)]) == 0
        header = read_csv(tmp_path / "results" / "summary.csv")[0]
        assert header == [
            "definition",
            "mtl_lasso_rmse",
            "mtl_lasso_mae",
            "mtl_l21_rmse",
            "mtl_l21_mae",
            "mtl_graph_rmse",
            "mtl_graph_mae",
        ]

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        main(["run", "--config", str(config), "--out", str(tmp_path / "r1")])
        main(["run", "--config", str(config), "--out", str(tmp_path / "r2")])
        names = ("report.json", "records.csv", "summary.csv", "ranksum.csv", "wld.csv", "report.md")
        for name in names:
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_file_source_runs(self, tmp_path):
        config = write_config(
            tmp_path,
            data={
                "path": str(FIXTURE_DIR / "dataset.csv"),
                "schema": "synthetic",
                "n_features": 10,
            },
        )
        assert main(["run", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "results" / "report.json").read_bytes())
        assert report["definitions"]["region:SA3"]["n_records"] > 0
        # the fixture is the generator's dataset, so a run from either writes the same tables
        script = runpy.run_path(str(REPO_ROOT / "scripts" / "make_fixture.py"))
        config = write_config(
            tmp_path,
            data={"synthetic": script["GENERATOR_SETTINGS"]},
            out_dir=str(tmp_path / "generated"),
        )
        assert main(["run", "--config", str(config)]) == 0
        for name in ("records.csv", "summary.csv", "ranksum.csv", "wld.csv"):
            from_file = (tmp_path / "results" / name).read_bytes()
            assert from_file == (tmp_path / "generated" / name).read_bytes(), name

    @pytest.mark.parametrize("source", ["file", "synthetic"])
    def test_run_never_builds_the_row_view(self, tmp_path, monkeypatch, source):
        def refuse(record, *args, **kwargs):
            raise AssertionError("a run built a HouseRecord")

        monkeypatch.setattr(HouseRecord, "__init__", refuse)
        overrides = {}
        if source == "file":
            overrides["data"] = {
                "path": str(FIXTURE_DIR / "dataset.csv"),
                "schema": "synthetic",
                "n_features": 10,
            }
        config = write_config(
            tmp_path,
            methods=[
                {"label": "ols", "kind": "ols"},
                {"label": "ridge", "kind": "ridge"},
                {"label": "mtl_l21", "kind": "mtl_l21", "theta1": [0.5, 1.0]},
            ],
            task_definitions=["region:SA3", "region:SA4"],
            **overrides,
        )
        assert main(["run", "--config", str(config)]) == 0
        with pytest.raises(AssertionError, match="HouseRecord"):
            HouseRecord(sale_month=0, values={}, price=1.0)

    def test_file_without_rows_is_reported_as_empty(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        header = (FIXTURE_DIR / "dataset.csv").read_text().splitlines()[0]
        path.write_text(header + "\n")
        config = write_config(
            tmp_path, data={"path": str(path), "schema": "synthetic", "n_features": 10}
        )
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == "error: dataset has no rows\n"

    def test_metric_cells_are_plain_floats(self, tmp_path):
        config = write_config(
            tmp_path,
            methods=[
                {"label": "ols", "kind": "ols"},
                {"label": "mtl_lasso", "kind": "mtl_lasso", "theta1": [0.5]},
            ],
        )
        assert main(["run", "--config", str(config)]) == 0
        for name in ("records.csv", "summary.csv"):
            rows = read_csv(tmp_path / "results" / name)
            metric_columns = [
                i for i, h in enumerate(rows[0]) if h.endswith(("rmse", "mae"))
            ]
            assert metric_columns
            for row in rows[1:]:
                for i in metric_columns:
                    float(row[i])

    def test_threads_flag_is_rejected(self, tmp_path):
        config = write_config(tmp_path)
        with pytest.raises(SystemExit):
            main(["run", "--config", str(config), "--threads", "2"])

    def test_failing_definition_flags_partial_output(self, tmp_path):
        config = write_config(
            tmp_path, task_definitions=["region:SA3", "station:4000"]
        )  # synthetic schema has no STATION_ID column
        assert main(["run", "--config", str(config)]) == 1
        report = json.loads((tmp_path / "results" / "report.json").read_bytes())
        assert report["partial"] is True
        assert "station:4000" in report["errors"]
        assert report["definition_order"] == ["region:SA3"]

    def test_non_ascii_labels_under_an_ascii_locale(self, tmp_path):
        # the C locale without UTF-8 mode or locale coercion reads and writes
        # ASCII by default; configs, run files and reports are UTF-8 regardless
        data = tmp_path / "data.csv"
        fixture = (FIXTURE_DIR / "dataset.csv").read_bytes()
        data.write_bytes(fixture.replace(b"R000", "R\u00c9000".encode("utf-8")))
        config = write_config(
            tmp_path,
            data={"path": str(data), "schema": "synthetic", "n_features": 10},
            methods=[
                {"label": "ols", "kind": "ols"},
                {"label": "ridge-\u00e9", "kind": "ridge", "penalty": [1.0]},
            ],
        )
        config.write_text(json.dumps(json.loads(config.read_text()), ensure_ascii=False), "utf-8")
        env = {
            **os.environ,
            "PYTHONUTF8": "0",
            "PYTHONCOERCECLOCALE": "0",
            "LC_ALL": "C",
            "PYTHONPATH": str(REPO_ROOT / "src"),
        }
        results = tmp_path / "results"
        child = subprocess.run(
            [sys.executable, "-m", "mtlhouse.cli", "run", "--config", str(config)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert child.returncode == 0, child.stderr
        assert "R\u00c9000".encode("utf-8") in (results / "records.csv").read_bytes()
        for name in ("summary.csv", "report.md"):
            assert "ridge-\u00e9".encode("utf-8") in (results / name).read_bytes(), name

    def test_out_environment_variable_is_ignored(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        monkeypatch.setenv("MTLHOUSE_OUT", str(tmp_path / "env_out"))
        assert main(["run", "--config", str(config)]) == 0
        assert (tmp_path / "results" / "report.json").exists()
        assert not (tmp_path / "env_out").exists()

    @pytest.mark.parametrize("command", ["run", "generate"])
    def test_seed_flag_with_a_file_source_is_an_error(self, tmp_path, capsys, command):
        config = write_config(
            tmp_path,
            data={"path": str(FIXTURE_DIR / "dataset.csv"), "schema": "synthetic", "n_features": 10},
        )
        assert main([command, "--config", str(config), "--seed", "1"]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize(
        "data, flags, seed",
        [
            ({"synthetic": synthetic_section()}, [], 99),
            ({"synthetic": synthetic_section()}, ["--seed", "7"], 7),
            (
                {"path": str(FIXTURE_DIR / "dataset.csv"), "schema": "synthetic", "n_features": 10},
                [],
                None,
            ),
        ],
        ids=["synthetic", "seed_flag", "file"],
    )
    def test_report_top_level_layout(self, tmp_path, data, flags, seed):
        config = write_config(tmp_path, data=data)
        assert main(["run", "--config", str(config), *flags]) == 0
        report = json.loads((tmp_path / "results" / "report.json").read_bytes())
        assert sorted(report) == [
            "benchmark",
            "config",
            "definition_order",
            "definitions",
            "errors",
            "h",
            "k",
            "method_order",
            "partial",
            "seed",
        ]
        assert report["h"] == 1
        assert report["k"] == 3
        assert report["seed"] == seed
        assert report["config"] == json.loads(config.read_text())


class TestReport:
    def run_multi(self, tmp_path):
        config = write_config(
            tmp_path,
            task_definitions=["region:SA3", "region:SA4", "intersect(region:SA4, region:SA3)"],
            methods=[
                {"label": "ols", "kind": "ols"},
                {"label": "ridge", "kind": "ridge", "penalty": [1.0]},
            ],
            benchmark="ols",
        )
        assert main(["run", "--config", str(config)]) == 0
        return tmp_path / "results"

    def test_csv_summary_has_one_row_per_definition(self, tmp_path):
        rows = read_csv(self.run_multi(tmp_path) / "summary.csv")
        assert len(rows) == 4  # header + three definitions
        assert rows[0][0] == "definition"

    def test_markdown_bolds_row_minimum(self, tmp_path):
        results = self.run_multi(tmp_path)
        text = (results / "report.md").read_text(encoding="utf-8")
        report = json.loads((results / "report.json").read_bytes())
        for definition in report["definition_order"]:
            row = next(
                line for line in text.splitlines() if line.startswith(f"| {definition} |")
            )
            cells = [c.strip() for c in row.strip("|").split("|")][1:]
            methods = report["method_order"]
            rmse_values = [
                report["definitions"][definition]["methods"][m]["overall_rmse"]
                for m in methods
            ]
            best = min(range(len(methods)), key=lambda i: rmse_values[i])
            assert cells[best].startswith("**")
            # a brute-force scan over the non-minimal cells
            for i, value in enumerate(rmse_values):
                if value != rmse_values[best]:
                    assert not cells[i].startswith("**")

    @staticmethod
    def markdown_tables(text):
        """{title: body rows as lists of cells} for each '# title' table in report.md."""
        tables = {}
        for section in text.split("# ")[1:]:
            title, *lines = section.splitlines()
            rows = [line.strip("|").split("|") for line in lines if line.startswith("| ")]
            tables[title] = [[cell.strip() for cell in row] for row in rows[1:]]
        return tables

    def test_markdown_holds_the_three_tables_in_order(self, tmp_path):
        text = (self.run_multi(tmp_path) / "report.md").read_text(encoding="utf-8")
        titles = [line for line in text.splitlines() if line.startswith("# ")]
        assert titles == [
            "# Backtest summary",
            "# Rank-sum test vs benchmark",
            "# Win/Loss/Draw vs benchmark",
        ]

    def test_markdown_ranksum_rows_match_the_csv(self, tmp_path):
        results = self.run_multi(tmp_path)
        table = self.markdown_tables((results / "report.md").read_text(encoding="utf-8"))
        expected = [
            [definition, method, f"{float(stat):g}", f"{float(p):.4f}", significant]
            for definition, method, stat, p, significant in read_csv(results / "ranksum.csv")[1:]
        ]
        assert table["Rank-sum test vs benchmark"] == expected

    def test_markdown_wld_rows_match_the_csv(self, tmp_path):
        results = self.run_multi(tmp_path)
        table = self.markdown_tables((results / "report.md").read_text(encoding="utf-8"))
        methods = json.loads((results / "report.json").read_bytes())["method_order"]
        expected = []
        for definition, group, method, win, loss, draw in read_csv(results / "wld.csv")[1:]:
            if not expected or expected[-1][:2] != [definition, group]:
                expected.append([definition, group])
            expected[-1].append(f"{win}/{loss}/{draw}")
            assert method == methods[len(expected[-1]) - 3]
        assert expected  # the multi-definition run has quartile groups
        assert table["Win/Loss/Draw vs benchmark"] == expected
        # groups follow GROUP_LABELS, not the sorted keys of report.json
        for definition in {row[0] for row in expected}:
            assert [row[1] for row in expected if row[0] == definition] == list(GROUP_LABELS)

    def test_run_where_every_definition_fails_writes_no_report_md(self, tmp_path):
        # the synthetic schema has no STATION_ID column
        config = write_config(tmp_path, task_definitions=["station:4000"])
        assert main(["run", "--config", str(config)]) == 1
        results = tmp_path / "results"
        assert json.loads((results / "report.json").read_bytes())["definition_order"] == []
        for name in ("summary.csv", "ranksum.csv", "wld.csv", "report.md"):
            assert not (results / name).exists(), name


class TestConfigValidation:
    def test_malformed_definition_text_carries_position(self, tmp_path):
        with pytest.raises(Exception) as excinfo:
            config_from_dict(
                {
                    "data": {"synthetic": synthetic_section()},
                    "task_definitions": ["region:"],
                    "methods": [{"kind": "ols"}],
                }
            )
        assert "position" in str(excinfo.value)

    def test_cli_reports_config_errors_with_nonzero_exit(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "data": {"synthetic": synthetic_section()},
                    "task_definitions": ["blob:x"],
                    "methods": [{"kind": "ols"}],
                }
            )
        )
        assert main(["run", "--config", str(path)]) == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"task_definitions": []},
            {"methods": []},
            {"k": 0},
            {"k": 2.5},
            {"k": True},
            {"k": "3"},
            {"h": 2},
            {"h": 1.0},
            {"seed": 1.5},
            {"seed": False},
            {"benchmark": "missing"},
            {"methods": [{"kind": "ols", "label": "a"}, {"kind": "ridge", "label": "a"}]},
            {"methods": [{"kind": "mtl_lasso", "theta1": 0.1, "solver": {"initial_step": 0.5}}]},
            {"methods": [{"kind": "mtl_lasso", "theta1": 0.1, "solver": 5}]},
            {"methods": [{"kind": "mtl_lasso", "theta1": 0.1, "solver": {"max_iters": 2.5}}]},
            {"methods": [{"kind": "mtl_lasso", "theta1": 0.1, "solver": {"rel_tol": "x"}}]},
            {"methods": [{"kind": "ridge", "penalty": [-1.0]}]},
            {"methods": [{"kind": "ridge", "penalty": [0.0]}]},
            {"methods": [{"kind": "mtl_lasso", "theta1": [float("nan")]}]},
            {"methods": [{"kind": "lasso", "penalty": [float("inf")]}]},
            {"methods": [{"kind": "mtl_graph", "theta1": [0.1], "theta2": [-2.0]}]},
            {"methods": [{"kind": "svr"}]},
            {"methods": [{"kind": "mtl_l21"}]},
            {"methods": [{"kind": "mtl_l21", "theta1": ["big"]}]},
            {"methods": [{"kind": "mtl_l21", "theta1": [None]}]},
            {"methods": [{"kind": "ols", "theta1": [1.0, 3.0]}]},
            {"methods": [{"kind": "mtl_lasso", "theta1": [1.0], "theta2": [5.0]}]},
            {"methods": [{"kind": "mtl_lasso", "theta1": [1.0], "penalty": [2.0]}]},
            {"methods": [{"kind": "ridge", "theta1": [1.0]}]},
            *(overrides for overrides, _ in WRONG_TYPES),
        ],
    )
    def test_invalid_configs_rejected(self, overrides):
        config = {
            "data": {"synthetic": synthetic_section()},
            "task_definitions": ["region:SA3"],
            "methods": [{"kind": "ols"}],
        }
        config.update(overrides)
        with pytest.raises(ConfigError):
            config_from_dict(config)

    @pytest.mark.parametrize("overrides, message", WRONG_TYPES)
    def test_wrong_types_name_the_key(self, overrides, message):
        config = {
            "data": {"synthetic": synthetic_section()},
            "task_definitions": ["region:SA3"],
            "methods": [{"kind": "ols"}],
            **overrides,
        }
        with pytest.raises(ConfigError, match=message):
            config_from_dict(config)

    @pytest.mark.parametrize("key", ["k"])
    def test_non_integer_settings_name_the_key(self, key):
        config = {
            "data": {"synthetic": synthetic_section()},
            "task_definitions": ["region:SA3"],
            "methods": [{"kind": "ols"}],
            key: 2.5,
        }
        with pytest.raises(ConfigError, match=f"'{key}' must be an integer, got 2.5"):
            config_from_dict(config)

    @pytest.mark.parametrize(
        "method, message",
        [
            ({"kind": "ridge", "penalty": [-1.0]}, "penalty values must be finite and >= 0"),
            ({"kind": "mtl_lasso", "theta1": [float("nan")]}, "theta1 values must be finite"),
            ({"kind": "svr"}, "unknown method kind"),
            ({"kind": "mtl_l21", "theta1": ["big"]}, "theta1 values must be real numbers"),
            ({"kind": "mtl_l21", "theta1": True}, "theta1 values must be real numbers, got True"),
            ({"kind": "ridge", "penalty": ["0.5"]}, "penalty values must be real numbers"),
            ({"kind": "ols", "theta1": [1.0, 3.0]}, "ols takes no theta1 grid"),
            ({"kind": "lasso"}, "lasso needs a penalty grid"),
        ],
    )
    def test_method_errors_name_the_label(self, method, message):
        config = {
            "data": {"synthetic": synthetic_section()},
            "task_definitions": ["region:SA3"],
            "methods": [{**method, "label": "tuned"}],
        }
        with pytest.raises(ConfigError, match=rf"method 'tuned': .*{message}"):
            config_from_dict(config)

    def test_solver_block_sets_params_and_names_keys_on_error(self):
        method = {"kind": "mtl_l21", "label": "joint", "theta1": 0.1}
        config = {
            "data": {"synthetic": synthetic_section()},
            "task_definitions": ["region:SA3"],
            "methods": [{**method, "solver": {"max_iters": 50, "rel_tol": 1e-4}}],
        }
        assert config_from_dict(config).methods[0].solver == SolverParams(50, 1e-4)
        config["methods"] = [{**method, "solver": {"backtracking_shrink": 0.5}}]
        with pytest.raises(ConfigError, match=r"'joint'.*'max_iters', 'rel_tol'"):
            config_from_dict(config)
        config["methods"] = [{**method, "solver": {"max_iters": 2.5}}]
        with pytest.raises(ConfigError, match=r"'joint'.*max_iters"):
            config_from_dict(config)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seed", 1.5),
            ("n_tasks", True),
            ("months", "6"),
            ("coefficient_noise", "0.02"),
            ("observation_noise", False),
            ("samples_per_task_per_month", [[1.5, 3]] * 4),
            ("samples_per_task_per_month", [[1, 2], True, 3, 4]),
        ],
    )
    def test_synthetic_values_are_not_coerced(self, key, value):
        config = {
            "data": {"synthetic": synthetic_section(**{key: value})},
            "task_definitions": ["region:SA3"],
            "methods": [{"kind": "ols"}],
        }
        with pytest.raises(ConfigError, match=f"'synthetic' section: '{key}' must be"):
            config_from_dict(config)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"h": 1}, "config has unknown key 'h'"),
            ({"seed": 99}, "config has unknown key 'seed'"),
            (
                {"data": {"synthetic": synthetic_section(), "schema": "bogus"}},
                "'schema' is not allowed next to 'synthetic'",
            ),
            (
                {"data": {"synthetic": synthetic_section(), "n_features": 3}},
                "'n_features' is not allowed next to 'synthetic'",
            ),
            (
                {"data": {"path": "houses.csv", "schema": "melbourne", "n_features": 3}},
                "'n_features' is required with schema 'synthetic' and allowed only there",
            ),
            (
                {"data": {"path": "houses.csv", "n_features": 3}},
                "'n_features' is required with schema 'synthetic' and allowed only there",
            ),
            (
                {"data": {"path": "houses.csv", "schema": "synthetic"}},
                "'n_features' is required with schema 'synthetic' and allowed only there",
            ),
            ({"data": {"path": "houses.csv", "schema": "bogus"}}, "'schema' must be"),
            ({"data": {"schema": "melbourne"}}, "'data' section needs 'path' or 'synthetic'"),
        ],
        ids=[
            "h",
            "seed",
            "schema_next_to_synthetic",
            "n_features_next_to_synthetic",
            "n_features_with_melbourne",
            "n_features_with_default_schema",
            "synthetic_schema_without_n_features",
            "unknown_schema",
            "no_source",
        ],
    )
    def test_settings_that_change_nothing_are_rejected(self, overrides, message):
        config = {
            "data": {"synthetic": synthetic_section()},
            "task_definitions": ["region:SA3"],
            "methods": [{"kind": "ols"}],
            **overrides,
        }
        with pytest.raises(ConfigError, match=message):
            config_from_dict(config)

    def test_file_source_defaults_to_the_melbourne_schema(self):
        config = config_from_dict(
            {
                "data": {"path": "houses.csv"},
                "task_definitions": ["region:SA3"],
                "methods": [{"kind": "ols"}],
            }
        )
        assert config.source.feature_schema() == melbourne_schema()
        assert (config.k, config.out_dir, config.benchmark_label) == (3, "results", "ols")

    @pytest.mark.parametrize("value", [2.5, True, "10", 0])
    def test_file_source_n_features_must_be_a_positive_integer(self, value):
        config = {
            "data": {"path": "houses.csv", "schema": "synthetic", "n_features": value},
            "task_definitions": ["region:SA3"],
            "methods": [{"kind": "ols"}],
        }
        with pytest.raises(ConfigError, match="'n_features' must be (an integer|>= 1)"):
            config_from_dict(config)

    def test_synthetic_section_names_missing_keys(self):
        config = {
            "data": {"synthetic": {"n_tasks": 4}},
            "task_definitions": ["region:SA3"],
            "methods": [{"kind": "ols"}],
        }
        with pytest.raises(ConfigError, match="samples_per_task_per_month.*seed"):
            config_from_dict(config)

    @pytest.mark.parametrize(
        "overrides, where, key, accepted",
        [
            ({"K": 5}, "config", "K", "'data', 'task_definitions', 'methods', 'k'"),
            (
                {"methods": [{"kind": "ridge", "penatly": [1.0]}]},
                "method 'ridge'",
                "penatly",
                "'label', 'kind', 'solver', 'theta1', 'theta2', 'penalty'",
            ),
            (
                {"data": {"synthetic": synthetic_section(), "n_feature": 3}},
                "'data' section",
                "n_feature",
                "'path', 'schema', 'n_features', 'synthetic'",
            ),
            (
                {"data": {"synthetic": synthetic_section(noise=0.1)}},
                "'synthetic' section",
                "noise",
                "'n_tasks', 'n_features'",
            ),
        ],
        ids=["top_level", "method", "data", "synthetic"],
    )
    def test_unknown_keys_rejected(self, overrides, where, key, accepted):
        config = {
            "data": {"synthetic": synthetic_section()},
            "task_definitions": ["region:SA3"],
            "methods": [{"kind": "ols"}],
            **overrides,
        }
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(config)
        message = str(excinfo.value)
        assert message.startswith(f"{where} has unknown key {key!r}; accepted keys are [")
        assert accepted in message

    def test_readme_config_loads(self):
        readme = (REPO_ROOT / "README.md").read_text()
        example = readme.split("A config file looks like:", 1)[1]
        text = example.split("```json", 1)[1].split("```", 1)[0]
        config = config_from_dict(json.loads(text))
        assert config.methods and config.definition_texts

    def test_data_section_required(self):
        with pytest.raises(ConfigError, match="data"):
            config_from_dict({"task_definitions": ["region:SA3"], "methods": [{"kind": "ols"}]})

    def test_config_with_a_byte_order_mark_loads(self, tmp_path):
        path = write_config(tmp_path)
        plain = load_config(path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_config(path) == plain

    def test_not_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)
