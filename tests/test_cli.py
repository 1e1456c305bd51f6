import csv
import json
from pathlib import Path

import pytest

from mtlhouse.cli import main
from mtlhouse.config import ConfigError, config_from_dict, load_config
from mtlhouse.data import HouseRecord
from mtlhouse.reports import load_json
from mtlhouse.solver import SolverParams

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
        for name in ("report.json", "records.csv", "summary.csv", "ranksum.csv", "wld.csv"):
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
        report = load_json(tmp_path / "results" / "report.json")
        assert report["definitions"]["region:SA3"]["n_records"] > 0

    @pytest.mark.parametrize("source", ["file", "synthetic"])
    def test_run_never_builds_the_row_view(self, tmp_path, monkeypatch, source):
        def refuse(record):
            raise AssertionError("a run built a HouseRecord")

        monkeypatch.setattr(HouseRecord, "__post_init__", refuse)
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
        report = load_json(tmp_path / "results" / "report.json")
        assert report["partial"] is True
        assert "station:4000" in report["errors"]
        assert report["definition_order"] == ["region:SA3"]

    def test_out_env_override(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        monkeypatch.setenv("MTLHOUSE_OUT", str(tmp_path / "env_out"))
        assert main(["run", "--config", str(config)]) == 0
        assert (tmp_path / "env_out" / "report.json").exists()


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
        results = self.run_multi(tmp_path)
        assert main(["report", str(results), "--format", "csv"]) == 0
        rows = read_csv(results / "rendered" / "summary.csv")
        assert len(rows) == 4  # header + three definitions
        assert rows[0][0] == "definition"

    def test_csv_reproduces_the_run_files(self, tmp_path):
        results = self.run_multi(tmp_path)
        assert main(["report", str(results), "--format", "csv"]) == 0
        for name in ("summary.csv", "ranksum.csv", "wld.csv"):
            rendered = (results / "rendered" / name).read_bytes()
            assert rendered == (results / name).read_bytes(), name

    def test_json_round_trips(self, tmp_path):
        results = self.run_multi(tmp_path)
        assert main(["report", str(results), "--format", "json"]) == 0
        original = load_json(results / "report.json")
        rendered = load_json(results / "rendered" / "report.json")
        assert rendered == original

    def test_markdown_bolds_row_minimum(self, tmp_path):
        results = self.run_multi(tmp_path)
        assert main(["report", str(results), "--format", "md"]) == 0
        text = (results / "rendered" / "report.md").read_text()
        report = load_json(results / "report.json")
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

    def test_missing_results_dir_fails(self, tmp_path):
        assert main(["report", str(tmp_path / "nope"), "--format", "csv"]) == 1


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

    @pytest.mark.parametrize("key", ["k", "h", "seed"])
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

    def test_not_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)
