import ast
import builtins
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

import pytest

import ammknn
from ammknn import (
    AmmknnConfig,
    CohortSplit,
    PipelineConfig,
    SynthSpec,
    pipeline,
    write_csv,
)
from ammknn.cli import main
from ammknn.config import config_from_json_dict
from ammknn.errors import ConfigError
from ammknn.frame import Table, read_table
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
    run_predict,
    run_prepare,
    run_synth,
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


def _number_fields(cls):
    """(key path, int or float) of each number field of ``cls``, its tuples
    of numbers and nested stanzas included."""
    for name, hint in get_type_hints(cls).items():
        if get_origin(hint) is Union:  # Optional[X]
            hint = get_args(hint)[0]
        if is_dataclass(hint):
            for path, kind in _number_fields(hint):
                yield (name, *path), kind
        elif get_origin(hint) is tuple and get_args(hint)[0] in (int, float):
            yield (name,), get_args(hint)[0]
        elif hint in (int, float):
            yield (name,), hint


# JSON NaN, Infinity, -Infinity, the text "nan" and true for each float;
# a fraction, true and NaN for each int; a tuple gets one in its last entry
NUMBER_CASES = [
    (document, prefix + path, bad)
    for document, cls, prefix in (
        ("config", PipelineConfig, ()), ("spec", SynthSpec, ()), ("spec", CohortSplit, ("split",)),
    )
    for path, kind in _number_fields(cls)
    for bad in ([2.5, True, float("nan")] if kind is int
                else [float("nan"), float("inf"), float("-inf"), "nan", True])
]
NUMBER_IDS = [f"{doc}:{'.'.join(path)}={json.dumps(bad)}" for doc, path, bad in NUMBER_CASES]


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
        validation = read_table(out / VALIDATION_CSV, "score", "student_id")
        unscored_path = tmp_path / "unscored.csv"
        write_csv(
            ["student_id", *validation.features], unscored_path,
            ((rid, *row) for rid, row in zip(validation.ids, validation.rows)),
        )
        assert main([
            "predict", "--config", str(workspace["config"]),
            "--train", str(out / TRAIN_CSV),
            "--cohort", str(unscored_path), "--out", str(out),
        ]) == 0
        lines = (out / PREDICTIONS_JSONL).read_text().splitlines()
        assert len(lines) == len(validation.rows)
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
        train = read_table(out / TRAIN_CSV, "score", "student_id")
        loocv_report = json.loads((out / LOOCV_AMMKNN_JSON).read_text())

        last = len(train.rows) - 1
        rest_path = tmp_path / "rest.csv"
        one_path = tmp_path / "one.csv"
        rows = [(rid, *row, t) for rid, row, t in zip(train.ids, train.rows, train.target)]
        for path, part in ((rest_path, rows[:last]), (one_path, rows[last:])):
            write_csv(["student_id", *train.features, "score"], path, part)
        result = run_validate(config, rest_path, one_path, tmp_path / "deg")
        assert (
            result["report"]["subjects"][0]["predicted"]
            == loocv_report["subjects"][last]["predicted"]
        )


class TestResolveOutlierFeature:
    """The outlier rule fires on low values, so its default must correlate positively."""

    TARGET = [300.0, 350.0, 400.0, 450.0, 500.0]
    CONFIG = PipelineConfig(target_name="t")

    def frame(self, **columns):
        rows = list(zip(*columns.values()))
        return Table(tuple(columns), rows, self.TARGET, [None] * len(rows))

    def test_strongest_negative_feature_is_passed_over(self):
        # |r| is 1 for "neg" and about 0.8 for "pos"
        train = self.frame(neg=[5.0, 4.0, 3.0, 2.0, 1.0], pos=[1.0, 3.0, 2.0, 5.0, 4.0])
        assert resolve_outlier_feature(train, self.CONFIG, "train.csv") == "pos"

    def test_all_negative_features_are_a_config_error(self):
        train = self.frame(neg=[5.0, 4.0, 3.0, 2.0, 1.0], weak=[3.0, 5.0, 1.0, 4.0, 2.0])
        with pytest.raises(ConfigError, match="'weak'"):
            resolve_outlier_feature(train, self.CONFIG, "train.csv")

    def test_constant_column_counts_as_zero(self):
        train = self.frame(neg=[5.0, 4.0, 3.0, 2.0, 1.0], flat=[1.0] * 5)
        assert resolve_outlier_feature(train, self.CONFIG, "train.csv") == "flat"

    def test_configured_feature_is_kept(self):
        train = self.frame(neg=[5.0, 4.0, 3.0, 2.0, 1.0], pos=[1.0, 3.0, 2.0, 5.0, 4.0])
        config = PipelineConfig(target_name="t", ammknn=AmmknnConfig(outlier_feature="neg"))
        assert resolve_outlier_feature(train, config, "train.csv") == "neg"


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

    def test_synth_spec_that_is_no_object_exit_2(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps([SPEC_DOC]))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert "config error: generator spec must be a JSON object\n" in capsys.readouterr().err
        assert not (out / SYNTH_CSV).exists()

    def test_synth_seed_overrides_the_spec_seed(self, workspace, tmp_path):
        spec = str(workspace["spec"])
        assert main(["synth", "--spec", spec, "--out", str(tmp_path / "seed7"), "--seed", "7"]) == 0
        assert main(["synth", "--spec", spec, "--out", str(tmp_path / "seed5"), "--seed", "5"]) == 0
        written = workspace["cohort_csv"].read_bytes()
        assert (tmp_path / "seed7" / SYNTH_CSV).read_bytes() == written
        assert (tmp_path / "seed5" / SYNTH_CSV).read_bytes() != written

    @pytest.mark.parametrize("override, field", [
        ({"noise_sd": float("nan")}, "noise_sd"),
        ({"noise_sd": float("inf")}, "noise_sd"),
        ({"target_range": [200.0, float("inf")]}, "target_range"),
        ({"target_range": [float("-inf"), 800.0]}, "target_range"),
        ({"n_rows": 1}, "n_rows"),
        # finite, but the score map or the noise overflows
        ({"target_range": [-1e308, 1e308]}, "target_range"),
        ({"noise_sd": 1e308}, "noise_sd"),
        # finite, but a drawn cell would lie beyond the bound that prepare
        # holds every cell to
        ({"noise_sd": 1e60}, "noise_sd"),
        ({"target_range": [200.0]}, "target_range"),
        ({"n_features": 0}, "n_features must be positive"),
        # each bound within ±1e50, but the mapped scores are not
        ({"target_range": [200.0, 1e50]}, "puts scores beyond ±1e+50"),
    ])
    def test_unhonourable_synth_spec_exit_2(self, tmp_path, capsys, override, field):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**SPEC_DOC, **override}))
        out = tmp_path / "out"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not (out / SYNTH_CSV).exists()

    @pytest.mark.parametrize("split, named", [
        ({"column": "f01"}, "split column 'f01' is already a generated column"),
        ({"column": "score"}, "split column 'score' is already a generated column"),
        ({"column": "student_id"}, "split column 'student_id' is already a generated column"),
        ({"train_year": 1e300}, "split train_year 1e+300 lies beyond ±1e+50"),
        ({"validation_year": -1e51}, "split validation_year -1e+51 lies beyond ±1e+50"),
    ], ids=["f01", "score", "student_id", "train_year", "validation_year"])
    def test_synth_split_that_prepare_would_refuse_exit_2(self, tmp_path, capsys, split, named):
        # synth wrote these cohorts, and prepare refused them: a repeated
        # header name, or a year cell beyond the bound
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**SPEC_DOC, "split": {**SPEC_DOC["split"], **split}}))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert f"config error: {named}\n" in capsys.readouterr().err
        assert not (out / SYNTH_CSV).exists()

    @pytest.mark.parametrize("override, message", [
        ({"aggregations": [{"group_name": "g", "member_columns": ["f01", "score"]}]},
         "aggregation 'g' would drop the target column"),
        ({"year_cutoff": None}, "prepare needs cohort_column and year_cutoff"),
        ({"cohort_column": "year"}, "cohort column 'year' not in input"),
        ({"aggregations": [{"group_name": "g", "member_columns": ["cohort", "f01"]}]},
         "cohort column 'cohort' not in input"),
        ({"aggregations": [{"group_name": "g", "member_columns": ["f01", "f02"]}],
          "include_columns": ["f01"]},
         "include_columns: no column named 'f01'"),
        ({"exclude_columns": ["f1"]}, "exclude_columns: no column named 'f1'"),
        # the input is fine: a group named like one of its columns is the
        # config's fault, and the group is named
        ({"aggregations": [{"group_name": "f01", "member_columns": ["f02"]}]},
         "aggregation 'f01': column 'f01' already exists in the input"),
        # prepare wrote a train.csv of only student_id,score, which loocv refused
        ({"include_columns": []}, "no candidate feature column is left"),
        ({"exclude_columns": [f"f{j:02d}" for j in range(1, 21)]}, "no candidate feature column is left"),
        ({"cohort_column": "score"}, "cohort_column and target_name both name 'score'"),
        ({"sweep_cutoffs": []}, "sweep_cutoffs must be non-empty"),
    ])
    def test_prepare_config_fault_exit_2(self, tmp_path, capsys, override, message):
        # the seed-7 cohort with a config that cannot describe it
        config_path = tmp_path / "cfg.json"
        doc = json.loads((GOLDEN_SEED7.parent / "config.json").read_text())
        config_path.write_text(json.dumps({**doc, **override}))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([
            "prepare", "--config", str(config_path),
            "--input", str(GOLDEN_SEED7 / "cohort.csv"), "--out", str(out),
        ]) == 2
        assert message in capsys.readouterr().err
        assert not (out / TRAIN_CSV).exists()

    @pytest.mark.parametrize("document, override, named", [
        ("config", {"ammknn": None}, ["ammknn", "null"]),
        ("config", {"ammknn": "x"}, ["ammknn", '"x"']),
        ("config", {"ammknn": {"max_K": 5}}, ["ammknn", "max_K"]),
        ("config", {"tiers_actual": {"fail_below": 350.0, "at_risk_upper": 375.0, "pass_at": 400.0}},
         ["tiers_actual", "pass_at"]),
        ("config", {"tiers_predicted_validation": {"fail_below": 350.0}},
         ["tiers_predicted_validation", "at_risk_upper"]),
        ("config", {"aggregations": [{"group_name": "g", "member_columns": ["f01"], "weights": [1]}]},
         ["aggregations", "weights"]),
        ("spec", {"split": {"train_fraction": 0.808, "validaton_year": 2020}},
         ["split", "validaton_year"]),
    ])
    def test_stanza_fault_exit_2(self, tmp_path, capsys, document, override, named):
        # the seed-7 config or spec with one stanza that must not be read
        path = tmp_path / f"{document}.json"
        doc = json.loads((GOLDEN_SEED7.parent / f"{document}.json").read_text())
        path.write_text(json.dumps({**doc, **override}))
        out = tmp_path / "out"
        if document == "config":
            argv = ["prepare", "--config", str(path), "--input", str(GOLDEN_SEED7 / "cohort.csv")]
        else:
            argv = ["synth", "--spec", str(path)]
        capsys.readouterr()
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert all(name in err for name in named), err
        assert not out.exists() or not any(out.iterdir())

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

    def test_missing_input_file_exit_3(self, workspace, tmp_path, capsys):
        capsys.readouterr()
        code = main([
            "prepare", "--config", str(workspace["config"]),
            "--input", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "x"),
        ])
        assert code == 3
        assert f"data error: {tmp_path / 'missing.csv'}: no such file" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code", [
        (["loocv", "--config", "{missing}", "--train", str(GOLDEN_SEED7 / TRAIN_CSV)], 2),
        (["synth", "--spec", "{missing}"], 2),
        (["plot", "--report", "{missing}"], 3),
    ], ids=["loocv-config", "synth-spec", "plot-report"])
    def test_missing_file_is_named(self, tmp_path, capsys, argv, code):
        # a missing config or spec is a config fault, a missing report a data fault
        missing = str(tmp_path / "nope.json")
        argv = [missing if a == "{missing}" else a for a in argv]
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "out")]) == code
        assert f"{missing}: no such " in capsys.readouterr().err

    def test_ragged_row_is_named_exit_3(self, workspace, tmp_path, capsys):
        cohort = tmp_path / "ragged.csv"
        cohort.write_text("student_id,cohort,f01,score\nA,2018,1.0,400\nB,2018,2.0\n")
        capsys.readouterr()
        assert main([
            "prepare", "--config", str(workspace["config"]),
            "--input", str(cohort), "--out", str(tmp_path / "x"),
        ]) == 3
        assert f"{cohort}, line 3: 3 fields, header has 4" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["loocv", "validate", "predict"])
    def test_training_without_features_exit_3(self, tmp_path, capsys, command):
        train = tmp_path / "train.csv"
        train.write_text("student_id,score\nA,400\nB,380\nC,300\n")
        cohort = tmp_path / "cohort.csv"
        cohort.write_text("student_id\nD\n" if command == "predict" else "student_id,score\nD,390\n")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(dict(CONFIG_DOC, knn_k=2)))
        argv = [command, "--config", str(config), "--train", str(train), "--out", str(tmp_path / "x")]
        if command != "loocv":
            argv += ["--cohort", str(cohort)]
        capsys.readouterr()
        assert main(argv) == 3
        assert f"data error: {train}: training table has no feature columns" in capsys.readouterr().err

    def test_malformed_report_exit_3(self, workspace, tmp_path):
        bad = tmp_path / "bad_report.json"
        bad.write_text(json.dumps({"not_a_report": True}))
        assert main(["plot", "--report", str(bad), "--kind", "scatter", "--out", str(tmp_path)]) == 3

    def test_loocv_k_not_below_rows_exit_3(self, workspace, tmp_path, capsys):
        lines = ["student_id,f01,score"] + [f"C{i},{i}.0,{400 + i}" for i in range(4)]
        train = tmp_path / "train.csv"
        train.write_text("\n".join(lines) + "\n")
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(dict(CONFIG_DOC, knn_k=4)))
        capsys.readouterr()
        code = main([
            "loocv", "--config", str(config_path), "--train", str(train), "--out", str(tmp_path / "x"),
        ])
        assert code == 3
        assert f"data error: {train}: k=4 exceeds 3 training rows per fold\n" in capsys.readouterr().err
        assert not (tmp_path / "x" / LOOCV_AMMKNN_JSON).exists()

    def test_internal_error_names_its_type_exit_4(self, monkeypatch, tmp_path, capsys):
        def broken(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(pipeline, "run_plot", broken)
        capsys.readouterr()
        assert main(["plot", "--report", str(tmp_path / "r.json"), "--out", str(tmp_path)]) == 4
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    @pytest.mark.parametrize("document, path, bad", NUMBER_CASES, ids=NUMBER_IDS)
    def test_number_that_is_not_one_exit_2(self, tmp_path, capsys, document, path, bad):
        # the seed-7 config or spec with one int or float field given a
        # non-finite, boolean or (for an int) fractional value
        doc = json.loads((GOLDEN_SEED7.parent / f"{document}.json").read_text())
        *stanzas, key = path
        stanza = doc
        for name in stanzas:
            stanza = stanza[name]
        old = stanza[key]
        stanza[key] = [*old[:-1], bad] if isinstance(old, list) else bad
        doc_path = tmp_path / f"{document}.json"
        doc_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        if document == "config":
            argv = _golden_argv("validate", GOLDEN_SEED7 / VALIDATION_CSV, out)
            argv[argv.index("--config") + 1] = str(doc_path)
        else:
            argv = ["synth", "--spec", str(doc_path), "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 2
        named = stanzas[-1] if stanzas else {"config": "config", "spec": "generator spec"}[document]
        assert f"bad {named} value for '{key}" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


class TestCliRefusesUnscorableInput:
    """Input that cannot be read or scored is a data error (exit 3) naming the file."""

    def test_plot_malformed_json_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "truncated.json"
        bad.write_text('{"subjects": [')
        assert main(["plot", "--report", str(bad), "--kind", "scatter", "--out", str(tmp_path)]) == 3
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, bad, named", [
        ("bounds", None, {}, "bounds.actual.fail_below"),
        ("bounds", "fail_below", "x", "bounds.actual.fail_below"),
        ("subject", "actual", float("nan"), "subject 0 actual"),
        ("bounds", "at_risk_upper", float("inf"), "bounds.actual.at_risk_upper"),
    ], ids=["bounds-empty", "bound-text", "actual-nan", "bound-infinity"])
    @pytest.mark.parametrize("kind", ["scatter", "packrat_scatter"])
    def test_plot_number_it_cannot_draw_exit_3(self, tmp_path, capsys, kind, section, key, bad, named):
        # the seed-7 validate report with one plotted number broken; json
        # writes a float NaN or infinity as the bare NaN or Infinity token
        doc = json.loads((GOLDEN_SEED7 / VALIDATE_JSON).read_text())
        if key is None:
            doc[section] = bad
        elif section == "bounds":
            doc["bounds"]["actual"][key] = bad
        else:
            doc["subjects"][0][key] = bad
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["plot", "--report", str(report), "--kind", kind, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"{report}: " in err and named in err
        assert not (out / f"{kind}.svg").exists()

    def test_plot_number_beyond_the_bound_exit_3(self, tmp_path, capsys):
        # the axis span of predictions of 1e308 and -1e308 overflowed: plot
        # exited 0 and drew every circle at cx="nan"
        doc = json.loads((GOLDEN_SEED7 / VALIDATE_JSON).read_text())
        doc["subjects"][0]["predicted"] = 1e308
        doc["subjects"][1]["predicted"] = -1e308
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["plot", "--report", str(report), "--kind", "scatter", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"{report}: subject 0 predicted is not a number within ±1e+50: 1e+308" in err
        assert not (out / "scatter.svg").exists()

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
        train = read_table(workspace["out"] / TRAIN_CSV, "score", "student_id")
        lines = (workspace["out"] / TRAIN_CSV).read_text().splitlines()
        header = lines[0].split(",")
        row = lines[3].split(",")
        row[header.index(train.features[0])] = cell
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
            assert (
                f"{bad}, line 4, column {train.features[0]!r}: non-finite value {float(cell)!r}"
            ) in capsys.readouterr().err

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
        assert f"{bad}, line 6, column {column!r}: missing cell" in err
        assert "internal error" not in err

    def test_non_finite_raw_cell_prepare_exit_3(self, workspace, tmp_path, capsys):
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
        err = capsys.readouterr().err
        assert f"{bad}, line 2, column 'f01': non-finite value nan" in err

    @pytest.mark.parametrize("column", [
        # its square overflowed, so the sd was inf, every z-score 0.0 and
        # the column was refused as constant
        "f05",
        # the score is not standardized; every correlation with it came
        # out 0.0, so every feature was dropped and prepare exited 0
        "score",
    ])
    def test_overflowing_raw_cell_prepare_exit_3(self, tmp_path, capsys, column):
        lines = (GOLDEN_SEED7 / SYNTH_CSV).read_text().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        assert float(row[header.index("cohort")]) < 2019  # a training row
        row[header.index(column)] = "1e200"
        lines[1] = ",".join(row)
        bad = tmp_path / "cohort.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main([
            "prepare", "--config", str(GOLDEN_SEED7.parent / "config.json"),
            "--input", str(bad), "--out", str(tmp_path / "out"),
        ])
        assert code == 3
        assert f"{bad}, line 2, column {column!r}: value 1e+200 beyond ±1e+50" in capsys.readouterr().err

    def test_overflowing_training_row_loocv_exit_3(self, tmp_path, capsys):
        # every correlation with the target was NaN, so no feature won and
        # the table was refused as having none
        lines = (GOLDEN_SEED7 / TRAIN_CSV).read_text().splitlines()
        header = lines[0].split(",")
        lines[1] = ",".join(
            cell if name in ("student_id", "score") else "1e308"
            for name, cell in zip(header, lines[1].split(","))
        )
        bad = tmp_path / "train.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main([
            "loocv", "--config", str(GOLDEN_SEED7.parent / "config.json"),
            "--train", str(bad), "--out", str(tmp_path / "out"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert f"{bad}, line 2, column {header[1]!r}: value 1e+308 beyond ±1e+50" in err
        assert "no feature columns" not in err

    @pytest.mark.parametrize("cell", ["", "nan"])
    def test_bad_cohort_score_validate_exit_3(self, tmp_path, capsys, cell):
        # an empty score broke the report's tallies (exit 4); a NaN one was
        # scored as a pass and written out as the non-JSON token NaN
        cohort = _golden_cohort_with(tmp_path, 2, "score", cell)
        capsys.readouterr()
        assert main(_golden_argv("validate", cohort, tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert f"{cohort}, line 4, column 'score': " in err
        assert "internal error" not in err
        assert not (tmp_path / "out" / VALIDATE_JSON).exists()

    @pytest.mark.parametrize(
        "cell, problem", [("", "missing cell"), ("nan", "non-finite value nan")]
    )
    @pytest.mark.parametrize("command", ["validate", "predict"])
    def test_bad_cohort_feature_cell_exit_3(self, tmp_path, capsys, command, cell, problem):
        cohort = _golden_cohort_with(tmp_path, 2, "f02", cell)
        capsys.readouterr()
        assert main(_golden_argv(command, cohort, tmp_path / "out")) == 3
        assert f"{cohort}, line 4, column 'f02': {problem}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name", [("validate", VALIDATE_JSON), ("predict", PREDICTIONS_JSONL)])
    def test_cohort_cell_beyond_the_bound_exit_3(self, tmp_path, capsys, command, name):
        # every square of the subject's distances overflowed: predict exited
        # 0, ranked training rows 0-19 by index alone and wrote Infinity
        cohort = _golden_cohort_with(tmp_path, 0, "f02", "1e200")
        capsys.readouterr()
        assert main(_golden_argv(command, cohort, tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert f"{cohort}, line 2, column 'f02': value 1e+200 beyond ±1e+50" in err
        assert not (tmp_path / "out" / name).exists()

    @pytest.mark.parametrize("command, name", [("validate", VALIDATE_JSON), ("predict", PREDICTIONS_JSONL)])
    def test_refusal_leaves_earlier_output_alone(self, tmp_path, capsys, command, name):
        # every check runs before the output file is opened
        out = tmp_path / "out"
        assert main(_golden_argv(command, GOLDEN_SEED7 / VALIDATION_CSV, out)) == 0
        earlier = (out / name).read_bytes()
        cohort = _golden_cohort_with(tmp_path, 2, "f02", "nan")
        capsys.readouterr()
        assert main(_golden_argv(command, cohort, out)) == 3
        assert f"{cohort}, line 4, column 'f02': non-finite value nan" in capsys.readouterr().err
        assert (out / name).read_bytes() == earlier


# each subcommand with inputs that work, less its --out
STEP_ARGV = {
    "synth": ["synth", "--spec", str(GOLDEN_SEED7.parent / "spec.json")],
    "prepare": [
        "prepare", "--config", str(GOLDEN_SEED7.parent / "config.json"),
        "--input", str(GOLDEN_SEED7 / SYNTH_CSV),
    ],
    "loocv": [
        "loocv", "--config", str(GOLDEN_SEED7.parent / "config.json"),
        "--train", str(GOLDEN_SEED7 / TRAIN_CSV),
    ],
    **{
        command: [
            command, "--config", str(GOLDEN_SEED7.parent / "config.json"),
            "--train", str(GOLDEN_SEED7 / TRAIN_CSV), "--cohort", str(GOLDEN_SEED7 / VALIDATION_CSV),
        ]
        for command in ("validate", "predict")
    },
    "plot": ["plot", "--report", str(GOLDEN_SEED7 / VALIDATE_JSON), "--kind", "scatter"],
}


@pytest.mark.parametrize("inside", [False, True], ids=["file", "under-a-file"])
@pytest.mark.parametrize("command", sorted(STEP_ARGV))
def test_out_that_cannot_be_a_directory_exit_3(tmp_path, capsys, command, inside):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "sub" if inside else taken
    capsys.readouterr()
    assert main([*STEP_ARGV[command], "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"data error: {out}: cannot be used as the output directory" in err
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize("fault", ["repeated", "empty"])
@pytest.mark.parametrize("command, source", [
    ("prepare", SYNTH_CSV), ("loocv", TRAIN_CSV), ("validate", TRAIN_CSV),
    ("validate", VALIDATION_CSV), ("predict", TRAIN_CSV), ("predict", VALIDATION_CSV),
])
def test_empty_or_repeated_id_exit_3(tmp_path, capsys, command, source, fault):
    # a roster entry must name one student: a repeated id gave two entries
    # for one id, and an empty one an entry no educator can act on
    lines = (GOLDEN_SEED7 / source).read_text().splitlines()
    col = lines[0].split(",").index("student_id")
    cells = lines[3].split(",")
    previous = lines[2].split(",")[col]
    cells[col] = previous if fault == "repeated" else ""
    lines[3] = ",".join(cells)
    bad = tmp_path / source
    bad.write_text("\n".join(lines) + "\n")
    argv = [str(bad) if a == str(GOLDEN_SEED7 / source) else a for a in STEP_ARGV[command]]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 3
    message = (
        f", lines 3 and 4 have the same id {previous!r}" if fault == "repeated"
        else ", line 4: empty id"
    )
    assert f"data error: {bad}{message}" in capsys.readouterr().err
    assert not (out / STEP_OUTPUT[command]).exists()


# each ranking step with the files it reads, less its --out; the bad cell
# goes into the file named second
RANKING_SOURCES = [
    ("prepare", SYNTH_CSV), ("loocv", TRAIN_CSV), ("validate", TRAIN_CSV),
    ("validate", VALIDATION_CSV), ("predict", TRAIN_CSV), ("predict", VALIDATION_CSV),
]


@pytest.mark.parametrize("cell, problem", [
    ("x1", "non-numeric cell 'x1'"),
    ("nan", "non-finite value nan"),
    ("-inf", "non-finite value -inf"),
    ("1e999", "non-finite value inf"),
    ("", "missing cell"),
])
@pytest.mark.parametrize("command, source", RANKING_SOURCES)
def test_bad_cell_is_named_by_its_file_line(tmp_path, capsys, command, source, cell, problem):
    # one blank line before the bad cell: the line an editor shows counts it
    lines = (GOLDEN_SEED7 / source).read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[5].split(",")
    cells[header.index("f05")] = cell
    lines[5] = ",".join(cells)
    lines.insert(3, "")
    bad = tmp_path / source
    bad.write_text("\n".join(lines) + "\n")
    argv = [str(bad) if a == str(GOLDEN_SEED7 / source) else a for a in STEP_ARGV[command]]
    out = tmp_path / "out"
    capsys.readouterr()
    code = main([*argv, "--out", str(out)])
    if command == "prepare" and cell == "":
        # prepare leaves a row with a missing cell out, and counts it
        assert code == 0
        assert "0 missing-target, 1 incomplete)" in capsys.readouterr().out
        return
    assert code == 3
    assert f"data error: {bad}, line 7, column 'f05': {problem}\n" in capsys.readouterr().err
    assert not (out / STEP_OUTPUT[command]).exists()


@pytest.mark.parametrize("quote, problem", [
    ("", "line 2, column 'f01': non-finite value inf"),
    ('"', "line 2: field larger than field limit (131072)"),
], ids=["unquoted", "quoted"])
def test_oversized_cell_exit_3(tmp_path, capsys, quote, problem):
    # the csv module's field size limit crashed predict with exit 4; a cell
    # split at its commas is only ever refused as a cell
    lines = (GOLDEN_SEED7 / VALIDATION_CSV).read_text().splitlines()
    cells = lines[1].split(",")
    cells[lines[0].split(",").index("f01")] = quote + "9" * 200_000 + quote
    lines[1] = ",".join(cells)
    bad = tmp_path / VALIDATION_CSV
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(_golden_argv_with(tmp_path, "predict", {VALIDATION_CSV: bad})) == 3
    assert f"data error: {bad}, {problem}\n" in capsys.readouterr().err
    assert not (tmp_path / "out" / PREDICTIONS_JSONL).exists()


@pytest.mark.parametrize("feature, problem", [
    # the rule would read each student's own score, which never falls
    # below the cutoff, so it would never fire
    ("score", "is the target; name a feature column"),
    ("f99", f"is not a feature column of {GOLDEN_SEED7 / TRAIN_CSV}"),
])
@pytest.mark.parametrize("command", ["loocv", "validate", "predict"])
def test_outlier_feature_that_is_no_feature_exit_2(tmp_path, capsys, command, feature, problem):
    doc = json.loads((GOLDEN_SEED7.parent / "config.json").read_text())
    doc["ammknn"]["outlier_feature"] = feature
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    argv = [str(config) if a == str(GOLDEN_SEED7.parent / "config.json") else a for a in STEP_ARGV[command]]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 2
    assert f"config error: ammknn.outlier_feature {feature!r} {problem}\n" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("override, message", [
    ({"id_column": "score"}, "id_column and target_name both name 'score'"),
    ({"id_column": "cohort"}, "id_column and cohort_column both name 'cohort'"),
], ids=["target", "cohort"])
@pytest.mark.parametrize("command", ["prepare", "loocv", "validate", "predict"])
def test_id_column_naming_another_role_exit_2(tmp_path, capsys, command, override, message):
    # an id column that is the target crashed each step with exit 4, and
    # one that is the cohort column read as "cohort column not in input"
    doc = json.loads((GOLDEN_SEED7.parent / "config.json").read_text())
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**doc, **override}))
    argv = [str(config) if a == str(GOLDEN_SEED7.parent / "config.json") else a for a in STEP_ARGV[command]]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 2
    assert f"config error: {message}\n" in capsys.readouterr().err
    assert not (out / STEP_OUTPUT[command]).exists()


@pytest.mark.parametrize("override, message", [
    ({"ammknn": {"outlier_feature": "score"}},
     "ammknn.outlier_feature 'score' is the target; name a feature column"),
    ({"aggregations": [{"group_name": "g", "member_columns": ["student_id", "f01"]}]},
     "aggregation 'g': the id column 'student_id' cannot be a member"),
    ({"aggregations": [{"group_name": "g", "member_columns": ["f01", "score"]}]},
     "aggregation 'g' would drop the target column"),
    ({"aggregations": [{"group_name": "student_id", "member_columns": ["f01"]}]},
     "column 'student_id' already exists"),
    ({"aggregations": [{"group_name": "g", "member_columns": ["f01"]},
                       {"group_name": "g", "member_columns": ["f02"]}]},
     "column 'g' already exists"),
    ({"aggregations": [{"group_name": "g", "member_columns": []}]},
     "aggregation 'g' has no member columns"),
    ({"target_name": ""}, "target_name is required"),
    ({"correlation_threshold": 1.5}, "correlation_threshold must be in [0, 1]"),
    # the only check of knn_k >= 1: loocv's fold-size check assumes it
    ({"knn_k": 0}, "knn_k must be >= 1"),
], ids=[
    "outlier-target", "id-member", "target-member", "id-group", "repeated-group",
    "no-members", "no-target", "threshold", "knn_k",
])
@pytest.mark.parametrize("command", ["prepare", "loocv", "validate", "predict"])
def test_config_fault_needing_no_input_exit_2(tmp_path, capsys, command, override, message):
    # each was refused by prepare alone, or by the steps that read the
    # outlier feature alone, after an input was read; one config is now
    # judged the same way by every step, as it is loaded
    doc = json.loads((GOLDEN_SEED7.parent / "config.json").read_text())
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**doc, **override}))
    argv = [str(config) if a == str(GOLDEN_SEED7.parent / "config.json") else a for a in STEP_ARGV[command]]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 2
    assert f"config error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("outlier_feature", [None, "f01"], ids=["default-outlier", "configured-outlier"])
@pytest.mark.parametrize("rows", [0, 1])
@pytest.mark.parametrize("command", ["loocv", "validate", "predict"])
def test_training_table_of_fewer_than_2_rows_exit_3(tmp_path, capsys, command, rows, outlier_feature):
    # one row was scored against, 43 times, once the outlier feature was
    # configured; otherwise the refusal named no file
    lines = (GOLDEN_SEED7 / TRAIN_CSV).read_text().splitlines()
    train = tmp_path / TRAIN_CSV
    train.write_text("\n".join(lines[:1 + rows]) + "\n")
    capsys.readouterr()
    assert main(_golden_argv_with(tmp_path, command, {TRAIN_CSV: train}, outlier_feature)) == 3
    err = capsys.readouterr().err
    assert f"data error: {train}: {rows} training rows; at least 2 are needed\n" in err
    assert not (tmp_path / "out" / STEP_OUTPUT[command]).exists()


def test_constant_target_is_named_exit_3(tmp_path, capsys):
    # the refusal named the first feature, whose r the constant target
    # left undefined
    cohort = _golden_with_score(tmp_path, SYNTH_CSV, "400", range(224))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(_golden_argv_with(tmp_path, "prepare", {SYNTH_CSV: cohort}, None)) == 3
    assert "data error: target column 'score' is constant\n" in capsys.readouterr().err
    assert not (out / TRAIN_CSV).exists()


def test_target_whose_spread_underflows_is_named_exit_3(tmp_path, capsys):
    # scores of 1e-200 to 7e-200 are not constant, but their squared
    # deviations underflow to 0.0, so every r was undefined and the refusal
    # named the first feature
    lines = (GOLDEN_SEED7 / SYNTH_CSV).read_text().splitlines()
    col = lines[0].split(",").index("score")
    for i in range(1, len(lines)):
        cells = lines[i].split(",")
        cells[col] = repr((1 + (i - 1) % 7) * 1e-200)
        lines[i] = ",".join(cells)
    cohort = tmp_path / SYNTH_CSV
    cohort.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(_golden_argv_with(tmp_path, "prepare", {SYNTH_CSV: cohort}, None)) == 3
    assert (
        "data error: target column 'score' varies too little: its squared deviations "
        "underflow to 0.0\n"
    ) in capsys.readouterr().err
    assert not (tmp_path / "out" / TRAIN_CSV).exists()


def test_loocv_fold_size_refusal_names_the_training_file(tmp_path, capsys):
    # the refusal named no file: knn_k is 12, and a fold of 5 rows holds 4
    lines = (GOLDEN_SEED7 / TRAIN_CSV).read_text().splitlines()
    train = tmp_path / TRAIN_CSV
    train.write_text("\n".join(lines[:6]) + "\n")
    capsys.readouterr()
    assert main(_golden_argv_with(tmp_path, "loocv", {TRAIN_CSV: train}, None)) == 3
    assert f"data error: {train}: k=12 exceeds 4 training rows per fold\n" in capsys.readouterr().err
    assert not (tmp_path / "out" / LOOCV_AMMKNN_JSON).exists()
    assert not (tmp_path / "out" / LOOCV_KNN_JSON).exists()


@pytest.mark.parametrize("command, source", RANKING_SOURCES)
def test_blank_header_row_exit_3(tmp_path, capsys, command, source):
    lines = (GOLDEN_SEED7 / source).read_text().splitlines()
    bad = tmp_path / source
    bad.write_text("\n".join(["", *lines[1:]]) + "\n")
    capsys.readouterr()
    assert main(_golden_argv_with(tmp_path, command, {source: bad}, None)) == 3
    assert f"data error: {bad}: blank header row\n" in capsys.readouterr().err
    assert not (tmp_path / "out" / STEP_OUTPUT[command]).exists()


@pytest.mark.parametrize("command, source", RANKING_SOURCES)
def test_table_without_the_id_column_exit_2(tmp_path, capsys, command, source):
    lines = (GOLDEN_SEED7 / source).read_text().splitlines()
    pos = lines[0].split(",").index("student_id")
    bad = tmp_path / source
    bad.write_text("".join(
        ",".join(c for i, c in enumerate(line.split(",")) if i != pos) + "\n" for line in lines
    ))
    capsys.readouterr()
    assert main(_golden_argv_with(tmp_path, command, {source: bad}, None)) == 2
    assert (
        f"config error: {bad}: id column 'student_id' not in header\n"
    ) in capsys.readouterr().err
    out = tmp_path / "out"
    assert not out.exists() or not any(out.iterdir())


def test_selection_keeping_no_feature_exit_3(tmp_path, capsys):
    # prepare wrote a train.csv of only student_id,score, which loocv refused
    doc = json.loads((GOLDEN_SEED7.parent / "config.json").read_text())
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**doc, "correlation_threshold": 1.0}))
    argv = [str(config) if a == str(GOLDEN_SEED7.parent / "config.json") else a for a in STEP_ARGV["prepare"]]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 3
    assert (
        "data error: no feature column correlates with the target at correlation_threshold 1.0 "
        "or above\n"
    ) in capsys.readouterr().err
    assert not (out / TRAIN_CSV).exists()


# an output file of each subcommand
STEP_OUTPUT = {
    "synth": SYNTH_CSV,
    "prepare": TRAIN_CSV,
    "loocv": LOOCV_AMMKNN_JSON,
    "validate": VALIDATE_JSON,
    "predict": PREDICTIONS_JSONL,
    "plot": "scatter.svg",
}


@pytest.mark.parametrize("command", sorted(STEP_ARGV))
def test_output_file_that_is_a_directory_exit_3(tmp_path, capsys, command):
    out = tmp_path / "out"
    taken = out / STEP_OUTPUT[command]
    taken.mkdir(parents=True)
    capsys.readouterr()
    assert main([*STEP_ARGV[command], "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"data error: {taken}: cannot be written (" in err
    assert taken.is_dir()


def test_predict_output_bytes(tmp_path):
    # no golden holds predictions.jsonl, so its digest pins every byte
    assert main(_golden_argv("predict", GOLDEN_SEED7 / VALIDATION_CSV, tmp_path)) == 0
    digest = hashlib.sha256((tmp_path / PREDICTIONS_JSONL).read_bytes()).hexdigest()
    assert digest == "6beeb0b3dd8601b7b2ee9cdaba6b170263e0ed944c599cc1f57e413b78040690"


def _with_blank_lines(source, path):
    """A copy of a CSV with a blank line after its second data row and one at the end."""
    lines = source.read_text().splitlines()
    path.write_text("\n".join([*lines[:3], "", *lines[3:], ""]) + "\n")
    return path


def test_blank_lines_change_no_output(tmp_path):
    # a blank line holds no student: prepare and loocv write the seed-7 bytes
    config = str(GOLDEN_SEED7.parent / "config.json")
    cohort = _with_blank_lines(GOLDEN_SEED7 / SYNTH_CSV, tmp_path / "cohort.csv")
    train = _with_blank_lines(GOLDEN_SEED7 / TRAIN_CSV, tmp_path / "train.csv")
    assert cohort.read_text().count("\n\n") == 2
    out = tmp_path / "out"
    assert main(["prepare", "--config", config, "--input", str(cohort), "--out", str(out)]) == 0
    assert main(["loocv", "--config", config, "--train", str(train), "--out", str(out)]) == 0
    for name in (TRAIN_CSV, VALIDATION_CSV, SELECTION_JSON, LOOCV_AMMKNN_JSON, LOOCV_KNN_JSON):
        assert (out / name).read_bytes() == (GOLDEN_SEED7 / name).read_bytes(), name


def test_byte_order_mark_changes_no_output(tmp_path):
    # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark,
    # which once hid the first header label from every step; some editors
    # write one before a config too
    inputs = {}
    for source in (GOLDEN_SEED7 / SYNTH_CSV, GOLDEN_SEED7 / TRAIN_CSV,
                   GOLDEN_SEED7 / VALIDATION_CSV, GOLDEN_SEED7.parent / "config.json"):
        inputs[source.name] = tmp_path / source.name
        inputs[source.name].write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    config = str(inputs["config.json"])
    train, cohort = str(inputs[TRAIN_CSV]), str(inputs[VALIDATION_CSV])
    out = tmp_path / "out"
    assert main(["prepare", "--config", config, "--input", str(inputs[SYNTH_CSV]), "--out", str(out)]) == 0
    assert main(["loocv", "--config", config, "--train", train, "--out", str(out)]) == 0
    for command in ("validate", "predict"):
        argv = [command, "--config", config, "--train", train, "--cohort", cohort, "--out", str(out)]
        assert main(argv) == 0
    for name in (TRAIN_CSV, VALIDATION_CSV, SELECTION_JSON, LOOCV_AMMKNN_JSON, LOOCV_KNN_JSON,
                 VALIDATE_JSON, ROSTER_JSON):
        assert (out / name).read_bytes() == (GOLDEN_SEED7 / name).read_bytes(), name
    plain = tmp_path / "plain"
    assert main(_golden_argv("predict", GOLDEN_SEED7 / VALIDATION_CSV, plain)) == 0
    assert (out / PREDICTIONS_JSONL).read_bytes() == (plain / PREDICTIONS_JSONL).read_bytes()


def _peak(step, *args):
    """tracemalloc's peak during ``step(*args)``."""
    tracemalloc.start()
    try:
        step(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_prepare_memory_follows_the_kept_cells(tmp_path):
    # 24 more input columns, all excluded or group members, leave the kept
    # cells and the outputs as they are, and so the memory too; holding
    # the raw table needs more than twice as much for the wide input
    spec = {**SPEC_DOC, "n_rows": 2000, "n_features": 8, "signal_features": 4}
    run_synth(spec, tmp_path)
    base = tmp_path / SYNTH_CSV
    lines = base.read_text().splitlines()
    extra = [f"x{j + 1:02d}" for j in range(24)]
    wide = tmp_path / "wide.csv"
    wide.write_text("".join(
        ",".join([line, *(extra if i == 0 else (repr(float((i * 7 + j) % 23)) for j in range(24)))]) + "\n"
        for i, line in enumerate(lines)
    ))
    wide_doc = {
        **CONFIG_DOC,
        "aggregations": [{"group_name": "gx", "member_columns": extra[:12]}],
        "exclude_columns": ["gx", *extra[12:]],
    }
    run_prepare(config_from_json_dict(CONFIG_DOC), base, tmp_path / "warm-up")  # one-time costs
    base_peak = _peak(run_prepare, config_from_json_dict(CONFIG_DOC), base, tmp_path / "base")
    wide_peak = _peak(run_prepare, config_from_json_dict(wide_doc), wide, tmp_path / "wide")
    for name in (TRAIN_CSV, VALIDATION_CSV, SELECTION_JSON):
        assert (tmp_path / "wide" / name).read_bytes() == (tmp_path / "base" / name).read_bytes()
    assert wide_peak < 1.25 * base_peak


def test_predict_memory_follows_the_model(tmp_path):
    # predict holds the cohort as read, but only one subject's ranking and
    # prediction line at a time; keeping every record for the cohort
    # makes the peak grow more than 3x with a cohort 4x as large
    spec = json.loads((GOLDEN_SEED7.parent / "spec.json").read_text())
    spec["n_rows"] = 500
    spec["split"]["train_fraction"] = 0.88
    config = config_from_json_dict(json.loads((GOLDEN_SEED7.parent / "config.json").read_text()))
    run_synth(spec, tmp_path)
    run_prepare(config, tmp_path / SYNTH_CSV, tmp_path)
    cohort = tmp_path / VALIDATION_CSV
    header, *rows = cohort.read_text().splitlines()
    cohort4 = tmp_path / "cohort4.csv"
    # each copy of a student under an id of its own, as ids are unique
    copies = [row if k == 0 else f"{k}-{row}" for k in range(4) for row in rows]
    cohort4.write_text("\n".join([header, *copies]) + "\n")
    train = tmp_path / TRAIN_CSV
    run_predict(config, train, cohort, tmp_path / "warm-up")  # one-time costs
    base_peak = _peak(run_predict, config, train, cohort, tmp_path / "base")
    big_peak = _peak(run_predict, config, train, cohort4, tmp_path / "big")

    def records(out):
        lines = (out / PREDICTIONS_JSONL).read_text().splitlines()
        return [{**json.loads(line), "subject_id": None} for line in lines]

    assert records(tmp_path / "big") == records(tmp_path / "base") * 4
    assert big_peak < 2.5 * base_peak


class TestCohortColumnContract:
    """validate and predict score only a cohort with training's feature columns."""

    @pytest.mark.parametrize("command", ["validate", "predict"])
    def test_raw_cohort_exit_3(self, tmp_path, capsys, command):
        # unstandardized, with the cohort year and the columns prepare dropped
        capsys.readouterr()
        assert main(_golden_argv(command, GOLDEN_SEED7 / SYNTH_CSV, tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert "extra ['cohort', 'f13', 'f14', 'f20'], missing []" in err
        assert not (tmp_path / "out" / VALIDATE_JSON).exists()
        assert not (tmp_path / "out" / PREDICTIONS_JSONL).exists()

    @pytest.mark.parametrize("command", ["validate", "predict"])
    def test_cohort_lacking_a_feature_exit_3(self, tmp_path, capsys, command):
        lines = (GOLDEN_SEED7 / VALIDATION_CSV).read_text().splitlines()
        col = lines[0].split(",").index("f05")
        cohort = tmp_path / "cohort.csv"
        cohort.write_text("".join(
            ",".join(c for j, c in enumerate(line.split(",")) if j != col) + "\n" for line in lines
        ))
        capsys.readouterr()
        assert main(_golden_argv(command, cohort, tmp_path / "out")) == 3
        assert "extra [], missing ['f05']" in capsys.readouterr().err


def _golden_cohort_with(tmp_path, row, column, cell):
    """A copy of the seed-7 validation.csv with one cell replaced, by data row."""
    lines = (GOLDEN_SEED7 / VALIDATION_CSV).read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = cell
    lines[row + 1] = ",".join(cells)
    path = tmp_path / "cohort.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _golden_with_score(tmp_path, source, cell, rows):
    """A copy of a seed-7 CSV with the score of each data row in ``rows``
    replaced by ``cell``."""
    lines = (GOLDEN_SEED7 / source).read_text().splitlines()
    col = lines[0].split(",").index("score")
    for i in rows:
        cells = lines[i + 1].split(",")
        cells[col] = cell
        lines[i + 1] = ",".join(cells)
    path = tmp_path / source
    path.write_text("\n".join(lines) + "\n")
    return path


def _golden_argv_with(tmp_path, command, sources, outlier_feature="f11"):
    """``command`` run on the seed-7 inputs, each file of ``sources``
    replaced by the path it maps to, and the outlier feature configured."""
    doc = json.loads((GOLDEN_SEED7.parent / "config.json").read_text())
    doc["ammknn"]["outlier_feature"] = outlier_feature
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    swap = {str(GOLDEN_SEED7.parent / "config.json"): str(config)}
    swap.update((str(GOLDEN_SEED7 / name), str(path)) for name, path in sources.items())
    return [swap.get(a, a) for a in STEP_ARGV[command]] + ["--out", str(tmp_path / "out")]


@pytest.mark.parametrize("command", ["loocv", "validate"])
def test_score_whose_correlation_would_overflow_exit_3(tmp_path, capsys, command):
    # a score of 1e200 overflowed the sums of squares of the prediction and
    # actual correlation: it was written as the bare token NaN, which no
    # strict JSON parser reads, and the figure was captioned "r = nan"
    source = TRAIN_CSV if command == "loocv" else VALIDATION_CSV
    bad = _golden_with_score(tmp_path, source, "1e200", [0])
    capsys.readouterr()
    assert main(_golden_argv_with(tmp_path, command, {source: bad})) == 3
    assert f"{bad}, line 2, column 'score': value 1e+200 beyond ±1e+50" in capsys.readouterr().err
    names = [LOOCV_AMMKNN_JSON, LOOCV_KNN_JSON] if command == "loocv" else [VALIDATE_JSON]
    assert not any((tmp_path / "out" / name).exists() for name in names)


@pytest.mark.parametrize("cell, rows", [("-1.5e308", range(181)), ("1e308", [0, 1])],
                         ids=["every-score", "two-scores"])
@pytest.mark.parametrize("command", ["loocv", "validate", "predict"])
def test_training_scores_whose_running_mean_overflows_exit_3(tmp_path, capsys, command, cell, rows):
    # a running mean of such scores overflowed: loocv, validate and predict
    # wrote -Infinity predictions and Infinity running means
    bad = _golden_with_score(tmp_path, TRAIN_CSV, cell, rows)
    capsys.readouterr()
    assert main(_golden_argv_with(tmp_path, command, {TRAIN_CSV: bad})) == 3
    err = capsys.readouterr().err
    assert f"data error: {bad}, line 2, column 'score': value {float(cell)!r} beyond ±1e+50" in err
    assert not (tmp_path / "out" / STEP_OUTPUT[command]).exists()


def _golden_argv(command, cohort, out):
    """``command`` run on the seed-7 config and train.csv against ``cohort``."""
    return [
        command, "--config", str(GOLDEN_SEED7.parent / "config.json"),
        "--train", str(GOLDEN_SEED7 / TRAIN_CSV), "--cohort", str(cohort), "--out", str(out),
    ]


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
        assert f"{bad}, line 6, column 'cohort': non-finite value {float(cell)!r}" in err

    @pytest.mark.parametrize("huge", ["1e308", "-1e308"])
    def test_overflowing_group_year_exit_3(self, tmp_path, capsys, huge):
        # the mean of two huge members: +inf fell into neither window and
        # -inf into training; each member is now refused as it is read
        lines = ["student_id,y1,y2,f01,score", "A,2018,2018,1.0,400", "B,2018,2018,2.0,380",
                 "", f"C,{huge},{huge},3.0,300"]
        cohort = tmp_path / "cohort.csv"
        cohort.write_text("\n".join(lines) + "\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            **CONFIG_DOC,
            "cohort_column": "year",
            "aggregations": [{"group_name": "year", "member_columns": ["y1", "y2"]}],
        }))
        capsys.readouterr()
        assert main([
            "prepare", "--config", str(config), "--input", str(cohort), "--out", str(tmp_path / "x"),
        ]) == 3
        err = capsys.readouterr().err
        assert f"{cohort}, line 5, column 'y1': value {float(huge)!r} beyond ±1e+50" in err

    def test_year_from_a_group(self, workspace, tmp_path):
        # a one-member group's mean is its member: the year it stands for
        # splits the rows as the raw column does, a missing one included
        odd = _with_years(workspace, tmp_path, {0: "", 1: "2031", 2: "2017"})
        by_column = run_prepare(config_from_json_dict(CONFIG_DOC), odd, tmp_path / "column")
        grouped = config_from_json_dict({
            **CONFIG_DOC,
            "cohort_column": "year",
            "aggregations": [{"group_name": "year", "member_columns": ["cohort"]}],
        })
        assert run_prepare(grouped, odd, tmp_path / "group") == by_column
        for name in (TRAIN_CSV, VALIDATION_CSV, SELECTION_JSON):
            assert (tmp_path / "group" / name).read_bytes() == (tmp_path / "column" / name).read_bytes()

    @pytest.mark.parametrize("kept", [0, 1])
    def test_too_few_training_rows_exit_3(self, tmp_path, capsys, kept):
        # the seed-7 cohort with every year but the first ``kept`` rows'
        # moved into the validation window
        lines = (GOLDEN_SEED7 / SYNTH_CSV).read_text().splitlines()
        col = lines[0].split(",").index("cohort")
        for i in range(1, len(lines)):
            cells = lines[i].split(",")
            cells[col] = "2018.0" if i <= kept else "2019.0"
            lines[i] = ",".join(cells)
        cohort = tmp_path / "cohort.csv"
        cohort.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([
            "prepare", "--config", str(GOLDEN_SEED7.parent / "config.json"),
            "--input", str(cohort), "--out", str(out),
        ]) == 3
        assert (
            f"data error: {kept} training rows kept (cohort year before year_cutoff 2019.0); "
            "prepare needs at least 2"
        ) in capsys.readouterr().err
        assert not (out / TRAIN_CSV).exists()

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


def test_every_public_name_is_used_by_the_package():
    """A public function, class, method or property that no package module
    loads is API only tests use."""
    loaded = set()
    public = set(ammknn.__all__)
    for path in Path(ammknn.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public.add(node.name)
            if isinstance(node, ast.ClassDef):
                public.update(
                    f"{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )
        if path.name == "__init__.py":  # it re-exports every name
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    unused = {name for name in public if name.rpartition(".")[2] not in loaded}
    assert sorted(unused) == []


FAMILIES = {"ConfigError", "DataError"}


def test_only_the_two_fault_families_are_defined_or_raised():
    """Every package fault is a ConfigError (exit 2) or a DataError (exit 3).
    Any other exception class, or a raise of one, would leave the CLI by
    exit 4. A bare ``raise`` is allowed, and so is ``config._read_json``
    raising the family its callers pass it."""
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in Path(ammknn.__file__).parent.glob("*.py")
    ]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    builtin = {
        name for name, v in vars(builtins).items()
        if isinstance(v, type) and issubclass(v, BaseException)
    }
    classes = [node for node in nodes if isinstance(node, ast.ClassDef)]
    exceptions = set(builtin)
    for _ in classes:  # enough passes for any chain of subclasses
        exceptions |= {
            node.name for node in classes
            if {ast.unparse(base) for base in node.bases} & exceptions
        }
    assert sorted(exceptions - builtin) == sorted(FAMILIES)

    [reader] = [n for n in nodes if isinstance(n, ast.FunctionDef) and n.name == "_read_json"]
    in_reader = {id(n) for n in ast.walk(reader)}
    raised, raised_by_reader, passed = set(), set(), set()
    for node in nodes:
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            (raised_by_reader if id(node) in in_reader else raised).add(ast.unparse(exc))
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "_read_json":
            passed.add(ast.unparse(node.args[1]))
    assert raised == FAMILIES
    assert raised_by_reader == {"error"}
    assert passed == FAMILIES


def test_one_bound_is_the_only_overflow_rule():
    """Every number read lies within ``frame.BOUND``, so nothing formed
    from them overflows: the bound is assigned once, in ``frame.py``, no
    module tests for NaN with ``isnan``, and none but ``config.py``
    (where ``float()`` of a huge JSON integer raises it) catches
    ``OverflowError``."""
    assigned, isnan, catches = [], [], []
    for path in sorted(Path(ammknn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                assigned += [path.name for t in targets if ast.unparse(t) == "BOUND"]
            elif isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
                name = getattr(node, "id", None) or getattr(node, "attr", None) or node.name
                if name == "isnan":
                    isnan.append(path.name)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                if "OverflowError" in {ast.unparse(n) for n in ast.walk(node.type)}:
                    catches.append(path.name)
    assert assigned == ["frame.py"]
    assert isnan == []
    assert catches == ["config.py"]


def test_one_module_defines_the_configuration():
    """Every stanza class ``_from_json`` reads for ``PipelineConfig`` is
    defined in ``config.py``, which imports nothing else of the package,
    and ``prepare``'s record pass refuses nothing: ``PipelineConfig`` and
    ``pipeline._plan`` have checked the configuration before it runs."""
    stanzas, hints = set(), [PipelineConfig]
    while hints:
        for hint in get_type_hints(hints.pop()).values():
            hint = (get_args(hint) or (hint,))[0]  # Optional[X] and Tuple[X, ...]
            if is_dataclass(hint) and hint not in stanzas:
                stanzas.add(hint)
                hints.append(hint)
    assert {cls.__name__ for cls in stanzas} == {"AggregationSpec", "AmmknnConfig", "TierBoundaries"}
    assert {cls.__module__ for cls in stanzas | {PipelineConfig}} == {"ammknn.config"}

    package = Path(ammknn.__file__).parent
    tree = ast.parse((package / "config.py").read_text(encoding="utf-8"))
    imported = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level}
    assert imported == {"errors"}
    tree = ast.parse((package / "pipeline.py").read_text(encoding="utf-8"))
    [split] = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_split_records"]
    assert [n for n in ast.walk(split) if isinstance(n, ast.Raise)] == []


def test_one_knn_generator_scores_every_step():
    """``knn`` checks no rule of the configuration: ``config`` and
    ``pipeline`` have checked every one before it is called. ``pipeline``
    imports one scoring function from it, ``score``; ``run_loocv`` calls
    it, and ``run_validate`` and ``run_predict`` through
    ``_scored_cohort``. (That every exported name is used by a module
    other than ``__init__`` is ``test_every_public_name_is_used_by_the_package``'s
    check.)"""
    package = Path(ammknn.__file__).parent
    knn = ast.parse((package / "knn.py").read_text(encoding="utf-8"))
    assert "ConfigError" not in {getattr(n, "id", None) or getattr(n, "name", None) for n in ast.walk(knn)}

    pipeline = ast.parse((package / "pipeline.py").read_text(encoding="utf-8"))
    imported = {
        alias.name for node in ast.walk(pipeline)
        if isinstance(node, ast.ImportFrom) and node.module == "knn" for alias in node.names
    }
    assert imported == {"score"}
    calls = {
        fn.name: {ast.unparse(n.func) for n in ast.walk(fn) if isinstance(n, ast.Call)}
        for fn in pipeline.body if isinstance(fn, ast.FunctionDef)
    }
    assert "score" in calls["run_loocv"] & calls["_scored_cohort"]
    assert "_scored_cohort" in calls["run_validate"] & calls["run_predict"]


def test_readme_configuration_table_names_every_field():
    """The README's Configuration table lists each PipelineConfig field once,
    with ``ammknn.<field>`` for the AmmknnConfig stanza."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    keys = [
        key
        for line in section.splitlines() if line.startswith("| `")
        for key in re.findall(r"`([^`]+)`", line.split("|")[1])
    ]
    expected = [f.name for f in fields(PipelineConfig) if f.name != "ammknn"]
    expected += [f"ammknn.{f.name}" for f in fields(AmmknnConfig)]
    assert sorted(keys) == sorted(expected)


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

    def test_validate_json_is_the_report(self, tmp_path, capsys):
        capsys.readouterr()
        assert main([*STEP_ARGV["validate"], "--out", str(tmp_path), "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document == json.loads((tmp_path / VALIDATE_JSON).read_text())
        assert document == json.loads((GOLDEN_SEED7 / VALIDATE_JSON).read_text())

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
        train = read_table(tmp_path / "out" / TRAIN_CSV, "score", "student_id")
        assert "q_mean" in train.features
        assert "q1" not in train.features
