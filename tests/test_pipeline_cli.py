import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ammknn
from ammknn import AmmknnConfig, Frame, load_csv
from ammknn.cli import main
from ammknn.config import config_from_json_dict
from ammknn.errors import ConfigError
from ammknn.pipeline import (
    LOOCV_AMMKNN_JSON,
    LOOCV_KNN_JSON,
    PREDICTIONS_JSONL,
    ROSTER_JSON,
    SELECTION_JSON,
    SYNTH_CSV,
    TRAIN_CSV,
    VALIDATE_JSON,
    VALIDATION_CSV,
    resolve_outlier_feature,
    run_loocv,
    run_prepare,
    run_validate,
)

GOLDEN_SEED7 = Path(__file__).parent / "golden" / "seed7"

SPEC_DOC = {
    "seed": 7,
    "n_rows": 120,
    "n_features": 10,
    "signal_features": 6,
    "noise_sd": 1.0,
    "fail_rate_hint": 0.08,
    "split": {"train_fraction": 0.8, "seed": 7},
}

CONFIG_DOC = {
    "target_name": "score",
    "id_column": "student_id",
    "cohort_column": "cohort",
    "year_cutoff": 2019,
    "correlation_threshold": 0.1,
    "knn_k": 5,
    "ammknn": {"max_k": 10, "outlier_feature": None, "outlier_cutoff": -2.0},
    "seed": 7,
}


@pytest.fixture()
def workspace(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC_DOC))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CONFIG_DOC))
    out = tmp_path / "out"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
    return {
        "tmp": tmp_path,
        "spec": spec_path,
        "config": config_path,
        "out": out,
        "cohort_csv": out / SYNTH_CSV,
    }


def run_all(ws):
    out = str(ws["out"])
    assert main([
        "prepare", "--config", str(ws["config"]), "--input", str(ws["cohort_csv"]), "--out", out,
    ]) == 0
    assert main([
        "loocv", "--config", str(ws["config"]), "--train", os.path.join(out, TRAIN_CSV), "--out", out,
    ]) == 0
    assert main([
        "validate", "--config", str(ws["config"]),
        "--train", os.path.join(out, TRAIN_CSV),
        "--cohort", os.path.join(out, VALIDATION_CSV),
        "--out", out,
    ]) == 0


class TestCliWorkflow:
    def test_full_workflow_outputs(self, workspace):
        run_all(workspace)
        out = workspace["out"]
        for name in (
            TRAIN_CSV, VALIDATION_CSV, SELECTION_JSON,
            LOOCV_AMMKNN_JSON, LOOCV_KNN_JSON, VALIDATE_JSON, ROSTER_JSON,
        ):
            assert (out / name).exists(), name
        report = json.loads((out / LOOCV_AMMKNN_JSON).read_text())
        assert report["kind"] == "loocv"
        assert report["n_subjects"] == len(report["subjects"])
        selection = json.loads((out / SELECTION_JSON).read_text())
        assert "score" in selection["kept"]

    def test_reruns_byte_identical(self, workspace, tmp_path):
        run_all(workspace)
        second = tmp_path / "again"
        spec_path, config_path = workspace["spec"], workspace["config"]
        assert main(["synth", "--spec", str(spec_path), "--out", str(second)]) == 0
        assert main([
            "prepare", "--config", str(config_path),
            "--input", str(second / SYNTH_CSV), "--out", str(second),
        ]) == 0
        assert main([
            "loocv", "--config", str(config_path),
            "--train", str(second / TRAIN_CSV), "--out", str(second),
        ]) == 0
        assert main([
            "validate", "--config", str(config_path),
            "--train", str(second / TRAIN_CSV),
            "--cohort", str(second / VALIDATION_CSV), "--out", str(second),
        ]) == 0
        for name in (
            SYNTH_CSV, TRAIN_CSV, VALIDATION_CSV, SELECTION_JSON,
            LOOCV_AMMKNN_JSON, LOOCV_KNN_JSON, VALIDATE_JSON, ROSTER_JSON,
        ):
            assert (workspace["out"] / name).read_bytes() == (second / name).read_bytes(), name

    def test_roster_sorted_worst_first(self, workspace):
        run_all(workspace)
        roster = json.loads((workspace["out"] / ROSTER_JSON).read_text())
        predicted = [entry["predicted"] for entry in roster]
        assert predicted == sorted(predicted)

    def test_predict_without_target_column(self, workspace, tmp_path):
        run_all(workspace)
        out = workspace["out"]
        validation = load_csv(out / VALIDATION_CSV, "score", id_column="student_id")
        unscored = validation.drop_columns(["score"])
        from ammknn import write_csv

        unscored_path = tmp_path / "unscored.csv"
        write_csv(unscored, unscored_path)
        assert main([
            "predict", "--config", str(workspace["config"]),
            "--train", str(out / TRAIN_CSV),
            "--cohort", str(unscored_path), "--out", str(out),
        ]) == 0
        lines = (out / PREDICTIONS_JSONL).read_text().splitlines()
        assert len(lines) == unscored.n_rows
        record = json.loads(lines[0])
        assert {"subject_id", "cumulative_means", "min_of_means", "min_match",
                "prediction", "tier", "outlier_triggered"} <= set(record)
        assert 200.0 <= record["prediction"] <= 800.0

    def test_plot_outputs(self, workspace):
        run_all(workspace)
        out = workspace["out"]
        assert main([
            "plot", "--report", str(out / VALIDATE_JSON), "--kind", "scatter", "--out", str(out),
        ]) == 0
        svg = (out / "scatter.svg").read_text()
        report = json.loads((out / VALIDATE_JSON).read_text())
        assert svg.count('class="pt"') == report["n_subjects"]
        assert svg.count('class="ref"') == 4
        assert main([
            "plot", "--report", str(out / VALIDATE_JSON),
            "--kind", "packrat_scatter", "--out", str(out),
        ]) == 0
        packrat = (out / "packrat_scatter.svg").read_text()
        assert packrat.count('class="pt"') == report["n_subjects"]
        assert packrat.count('class="ref"') == 1

    def test_empty_cohort_validate(self, workspace, tmp_path):
        run_all(workspace)
        out = workspace["out"]
        header = (out / VALIDATION_CSV).read_text().splitlines()[0]
        empty_path = tmp_path / "empty.csv"
        empty_path.write_text(header + "\n")
        empty_out = tmp_path / "empty_out"
        assert main([
            "validate", "--config", str(workspace["config"]),
            "--train", str(out / TRAIN_CSV),
            "--cohort", str(empty_path), "--out", str(empty_out),
        ]) == 0
        roster = json.loads((empty_out / ROSTER_JSON).read_text())
        report = json.loads((empty_out / VALIDATE_JSON).read_text())
        assert roster == []
        assert report["confusion_2x2"] == {"tp": 0, "fp": 0, "tn": 0, "fn": 0}

    def test_loocv_on_constant_target_frame(self, tmp_path):
        lines = ["student_id,f01,f02,score"]
        for i in range(8):
            lines.append(f"C{i},{i}.0,{(i * 7) % 5}.5,444")
        path = tmp_path / "const.csv"
        path.write_text("\n".join(lines) + "\n")
        config = config_from_json_dict(
            {"target_name": "score", "id_column": "student_id", "knn_k": 2}
        )
        reports = run_loocv(config, path, tmp_path / "out")
        for report in reports.values():
            assert report["metrics"]["accuracy"] == 1.0
            assert report["metrics"]["sensitivity"] is None
            assert all(s["predicted"] == 444.0 for s in report["subjects"])

    def test_loocv_agrees_with_degenerate_validate(self, workspace, tmp_path):
        run_all(workspace)
        out = workspace["out"]
        config = config_from_json_dict(CONFIG_DOC)
        train = load_csv(out / TRAIN_CSV, "score", id_column="student_id")
        loocv_report = json.loads((out / LOOCV_AMMKNN_JSON).read_text())

        last = train.n_rows - 1
        from ammknn import write_csv

        rest_path = tmp_path / "rest.csv"
        one_path = tmp_path / "one.csv"
        write_csv(train.subset_rows(list(range(last))), rest_path)
        write_csv(train.subset_rows([last]), one_path)
        result = run_validate(config, rest_path, one_path, tmp_path / "deg")
        assert (
            result["report"]["subjects"][0]["predicted"]
            == loocv_report["subjects"][last]["predicted"]
        )


class TestResolveOutlierFeature:
    """The outlier rule fires on low values, so its default must correlate positively."""

    TARGET = [300.0, 350.0, 400.0, 450.0, 500.0]

    def frame(self, **columns):
        names = [*columns, "t"]
        rows = [[*cells, t] for *cells, t in zip(*columns.values(), self.TARGET)]
        return Frame(names, rows, "t")

    def test_strongest_negative_feature_is_passed_over(self):
        # |r| is 1 for "neg" and about 0.8 for "pos"
        train = self.frame(neg=[5.0, 4.0, 3.0, 2.0, 1.0], pos=[1.0, 3.0, 2.0, 5.0, 4.0])
        assert resolve_outlier_feature(train, AmmknnConfig()).outlier_feature == "pos"

    def test_all_negative_features_are_a_config_error(self):
        train = self.frame(neg=[5.0, 4.0, 3.0, 2.0, 1.0], weak=[3.0, 5.0, 1.0, 4.0, 2.0])
        with pytest.raises(ConfigError, match="'weak'"):
            resolve_outlier_feature(train, AmmknnConfig())

    def test_constant_column_counts_as_zero(self):
        train = self.frame(neg=[5.0, 4.0, 3.0, 2.0, 1.0], flat=[1.0] * 5)
        assert resolve_outlier_feature(train, AmmknnConfig()).outlier_feature == "flat"

    def test_configured_feature_is_kept(self):
        train = self.frame(neg=[5.0, 4.0, 3.0, 2.0, 1.0], pos=[1.0, 3.0, 2.0, 5.0, 4.0])
        config = AmmknnConfig(outlier_feature="neg")
        assert resolve_outlier_feature(train, config) is config


class TestCliErrors:
    def test_missing_target_config_error_exit_2(self, workspace, tmp_path):
        bad_config = tmp_path / "bad.json"
        bad_config.write_text(json.dumps({"correlation_threshold": 0.1}))
        code = main([
            "prepare", "--config", str(bad_config),
            "--input", str(workspace["cohort_csv"]), "--out", str(tmp_path / "x"),
        ])
        assert code == 2

    def test_invalid_synth_spec_exit_2(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"seed": 1, "n_rows": 0, "n_features": 3, "signal_features": 1}))
        assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path)]) == 2

    def test_config_directory_exit_2(self, workspace, tmp_path, capsys):
        config_dir = tmp_path / "configs"
        config_dir.mkdir()
        code = main([
            "prepare", "--config", str(config_dir),
            "--input", str(workspace["cohort_csv"]), "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert str(config_dir) in capsys.readouterr().err

    def test_config_not_utf8_exit_2(self, workspace, tmp_path, capsys):
        bad_config = tmp_path / "latin1.json"
        doc = dict(CONFIG_DOC, exclude_columns=["José"])
        bad_config.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
        code = main([
            "prepare", "--config", str(bad_config),
            "--input", str(workspace["cohort_csv"]), "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert str(bad_config) in capsys.readouterr().err

    def test_synth_spec_directory_exit_2(self, tmp_path, capsys):
        assert main(["synth", "--spec", str(tmp_path), "--out", str(tmp_path / "x")]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_unresolved_target_label_exit_2(self, workspace, tmp_path):
        # config references a column the dataset does not have
        config_path = tmp_path / "cfg.json"
        doc = dict(CONFIG_DOC, target_name="nonexistent")
        config_path.write_text(json.dumps(doc))
        code = main([
            "prepare", "--config", str(config_path),
            "--input", str(workspace["cohort_csv"]), "--out", str(tmp_path / "x"),
        ])
        assert code == 2

    def test_non_numeric_cell_exit_3(self, workspace, tmp_path):
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("student_id,cohort,f01,score\nA,2018,oops,400\nB,2019,1.0,380\n")
        code = main([
            "prepare", "--config", str(workspace["config"]),
            "--input", str(bad_csv), "--out", str(tmp_path / "x"),
        ])
        assert code == 3

    def test_missing_input_file_exit_3(self, workspace, tmp_path):
        code = main([
            "prepare", "--config", str(workspace["config"]),
            "--input", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "x"),
        ])
        assert code == 3

    def test_malformed_report_exit_3(self, workspace, tmp_path):
        bad = tmp_path / "bad_report.json"
        bad.write_text(json.dumps({"not_a_report": True}))
        assert main(["plot", "--report", str(bad), "--kind", "scatter", "--out", str(tmp_path)]) == 3

    def test_loocv_k_not_below_rows_exit_3(self, workspace, tmp_path):
        lines = ["student_id,f01,score"] + [f"C{i},{i}.0,{400 + i}" for i in range(4)]
        train = tmp_path / "train.csv"
        train.write_text("\n".join(lines) + "\n")
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(dict(CONFIG_DOC, knn_k=4)))
        code = main([
            "loocv", "--config", str(config_path), "--train", str(train), "--out", str(tmp_path / "x"),
        ])
        assert code == 3


class TestCliRefusesUnscorableInput:
    """Input that cannot be read or scored is a data error (exit 3) naming the file."""

    def test_plot_malformed_json_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "truncated.json"
        bad.write_text('{"subjects": [')
        assert main(["plot", "--report", str(bad), "--kind", "scatter", "--out", str(tmp_path)]) == 3
        assert str(bad) in capsys.readouterr().err

    def test_prepare_input_directory_exit_3(self, workspace, tmp_path, capsys):
        code = main([
            "prepare", "--config", str(workspace["config"]),
            "--input", str(tmp_path), "--out", str(tmp_path / "x"),
        ])
        assert code == 3
        assert str(tmp_path) in capsys.readouterr().err

    def test_csv_not_utf8_exit_3(self, workspace, tmp_path, capsys):
        bad_csv = tmp_path / "latin1.csv"
        bad_csv.write_bytes("student_id,cohort,f01,score\nJos\u00e9,2018,1.0,400\n".encode("latin-1"))
        code = main([
            "prepare", "--config", str(workspace["config"]),
            "--input", str(bad_csv), "--out", str(tmp_path / "x"),
        ])
        assert code == 3
        assert str(bad_csv) in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_training_cell_exit_3(self, workspace, tmp_path, capsys, cell):
        run_all(workspace)
        train = load_csv(workspace["out"] / TRAIN_CSV, "score", id_column="student_id")
        lines = (workspace["out"] / TRAIN_CSV).read_text().splitlines()
        header = lines[0].split(",")
        row = lines[3].split(",")
        row[header.index(train.feature_names()[0])] = cell
        lines[3] = ",".join(row)
        bad = tmp_path / "bad_train.csv"
        bad.write_text("\n".join(lines) + "\n")
        for argv in (
            ["loocv", "--train", str(bad), "--out", str(tmp_path / "l")],
            ["validate", "--train", str(bad),
             "--cohort", str(workspace["out"] / VALIDATION_CSV), "--out", str(tmp_path / "v")],
        ):
            capsys.readouterr()
            assert main([argv[0], "--config", str(workspace["config"]), *argv[1:]]) == 3
            assert "training row 2" in capsys.readouterr().err

    @pytest.mark.parametrize("column", ["score", "f01"])
    @pytest.mark.parametrize("command", ["loocv", "validate", "predict"])
    def test_missing_prepared_training_cell_exit_3(self, tmp_path, capsys, command, column):
        # the default outlier feature is resolved by a correlation sweep
        # over the training columns, which must not see the gap first
        lines = (GOLDEN_SEED7 / TRAIN_CSV).read_text().splitlines()
        header = lines[0].split(",")
        row = lines[5].split(",")
        row[header.index(column)] = ""
        lines[5] = ",".join(row)
        bad = tmp_path / "bad_train.csv"
        bad.write_text("\n".join(lines) + "\n")
        argv = [command, "--config", str(GOLDEN_SEED7.parent / "config.json"),
                "--train", str(bad), "--out", str(tmp_path / "out")]
        if command != "loocv":
            argv += ["--cohort", str(GOLDEN_SEED7 / VALIDATION_CSV)]
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"training row 4, column {column!r}: missing cell" in err
        assert "internal error" not in err

    def test_non_finite_raw_cell_prepare_exit_3(self, workspace, tmp_path):
        lines = workspace["cohort_csv"].read_text().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        row[header.index("f01")] = "nan"
        lines[1] = ",".join(row)
        bad = tmp_path / "cohort.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = main([
            "prepare", "--config", str(workspace["config"]),
            "--input", str(bad), "--out", str(tmp_path / "x"),
        ])
        assert code == 3



def _with_years(workspace, tmp_path, years):
    """A copy of the workspace cohort with the given cohort cells, by data row."""
    lines = workspace["cohort_csv"].read_text().splitlines()
    col = lines[0].split(",").index("cohort")
    for i, cell in years.items():
        row = lines[i + 1].split(",")
        row[col] = cell
        lines[i + 1] = ",".join(row)
    path = tmp_path / "cohort_years.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestPrepareCohortYears:
    """A non-finite cohort year is refused; rows in neither window are counted."""

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_year_exit_3(self, workspace, tmp_path, capsys, cell):
        bad = _with_years(workspace, tmp_path, {4: cell})
        capsys.readouterr()
        code = main([
            "prepare", "--config", str(workspace["config"]),
            "--input", str(bad), "--out", str(tmp_path / "x"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "input row 4, column 'cohort'" in err

    def test_missing_and_outside_years_are_counted(self, workspace, tmp_path, capsys):
        config = config_from_json_dict(CONFIG_DOC)
        base = run_prepare(config, workspace["cohort_csv"], tmp_path / "base")
        assert base["dropped_outside_years"] == 0
        odd = _with_years(workspace, tmp_path, {0: "", 1: "2031", 2: "2017"})
        summary = run_prepare(config, odd, tmp_path / "odd")
        assert summary["dropped_outside_years"] == 2
        assert (summary["train_rows"] + summary["validation_rows"]
                == base["train_rows"] + base["validation_rows"] - 2)
        capsys.readouterr()
        assert main([
            "prepare", "--config", str(workspace["config"]),
            "--input", str(odd), "--out", str(tmp_path / "cli"),
        ]) == 0
        assert "dropped 2 rows with a missing cohort year" in capsys.readouterr().out


def test_cli_imports_only_the_standard_library():
    """The package declares no dependencies; importing the CLI must not pull one in."""
    src = os.path.dirname(os.path.dirname(ammknn.__file__))
    probe = (
        "import sys; before = set(sys.modules); import ammknn.cli; "
        "print('\\n'.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    loaded = {name.split(".")[0] for name in result.stdout.split()}
    assert "ammknn" in loaded
    assert loaded - {"ammknn"} <= set(sys.stdlib_module_names)


class TestCliStdout:
    def test_loocv_json_is_one_document(self, workspace, capsys):
        run_all(workspace)
        out = str(workspace["out"])
        capsys.readouterr()
        assert main([
            "loocv", "--config", str(workspace["config"]),
            "--train", os.path.join(out, TRAIN_CSV), "--out", out, "--format", "json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert set(document) == {"ammknn", "knn"}
        assert document["knn"] == json.loads((workspace["out"] / LOOCV_KNN_JSON).read_text())

    def test_prepare_logs_go_to_stderr(self, workspace):
        # a fresh interpreter, so the CLI's own logging set-up is the one in force
        src = os.path.dirname(os.path.dirname(ammknn.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-m", "ammknn.cli", "prepare", "--config", str(workspace["config"]),
             "--input", str(workspace["cohort_csv"]), "--out", str(workspace["out"])],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "Correlation between" in result.stderr
        assert "Correlation between" not in result.stdout
        assert result.stdout.startswith("prepared ")


class TestPrepareCounts:
    def test_drop_counts_reported(self, tmp_path):
        # cohort CSV with a missing target in each split and one incomplete
        # validation row
        lines = ["student_id,cohort,f01,f02,score"]
        for i in range(8):
            lines.append(f"T{i},2018,{i}.0,{i * 2}.5,{400 + i}")
        lines.append("T8,2018,1.0,2.0,")  # missing target, train side
        for i in range(4):
            lines.append(f"V{i},2019,{i}.5,{i}.25,{390 + i}")
        lines.append("V4,2019,2.0,3.0,")  # missing target, validation side
        lines.append("V5,2019,,4.0,410")  # incomplete validation row
        path = tmp_path / "cohort.csv"
        path.write_text("\n".join(lines) + "\n")

        config = config_from_json_dict(dict(CONFIG_DOC, correlation_threshold=0.0))
        summary = run_prepare(config, path, tmp_path / "out")
        assert summary["train_rows"] == 8
        assert summary["validation_rows"] == 4
        assert summary["train_dropped_missing_target"] == 1
        assert summary["validation_dropped_missing_target"] == 1
        assert summary["validation_dropped_incomplete"] == 1

    def test_aggregation_specs_applied(self, tmp_path):
        lines = ["student_id,cohort,q1,q2,other,score"]
        for i in range(6):
            lines.append(f"T{i},2018,{i}.0,{i + 1}.0,{i * 3}.0,{400 + i * 3}")
        for i in range(3):
            lines.append(f"V{i},2019,{i}.0,{i + 2}.0,{i * 2}.0,{395 + i}")
        path = tmp_path / "cohort.csv"
        path.write_text("\n".join(lines) + "\n")
        doc = dict(
            CONFIG_DOC,
            correlation_threshold=0.0,
            aggregations=[{"group_name": "q_mean", "member_columns": ["q1", "q2"]}],
        )
        config = config_from_json_dict(doc)
        run_prepare(config, path, tmp_path / "out")
        train = load_csv(tmp_path / "out" / TRAIN_CSV, "score", id_column="student_id")
        assert "q_mean" in train.column_names
        assert "q1" not in train.column_names
