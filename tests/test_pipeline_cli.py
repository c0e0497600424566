import ast
import builtins
import contextlib
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

import pytest

import ammknn
from ammknn import pipeline
from ammknn.cli import main
from ammknn.config import AmmknnConfig, PipelineConfig, _from_json, load_config
from ammknn.errors import ConfigError
from ammknn.frame import Table, read_table, write_csv
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
        config = _from_json(
            PipelineConfig, {"target_name": "score", "id_column": "student_id", "knn_k": 2}, "config"
        )
        reports = run_loocv(config, path, tmp_path / "out")
        for report in reports.values():
            assert report["metrics"]["accuracy"] == 1.0
            assert report["metrics"]["sensitivity"] is None
            assert all(s["predicted"] == 444.0 for s in report["subjects"])

    def test_loocv_agrees_with_degenerate_validate(self, workspace, tmp_path):
        run_all(workspace)
        out = workspace["out"]
        config = _from_json(PipelineConfig, CONFIG_DOC, "config")
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
    CONFIG = PipelineConfig(target_name="t", id_column="id")

    def frame(self, **columns):
        rows = list(zip(*columns.values()))
        return Table(tuple(columns), rows, self.TARGET, [f"r{i}" for i in range(len(rows))])

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
        config = PipelineConfig(target_name="t", id_column="id", ammknn=AmmknnConfig(outlier_feature="neg"))
        assert resolve_outlier_feature(train, config, "train.csv") == "neg"


class TestCliErrors:
    """Every refusal is a case of ``test_cli_catalogue.py``."""

    def test_synth_seed_overrides_the_spec_seed(self, workspace, tmp_path, capsys):
        spec = str(workspace["spec"])
        capsys.readouterr()
        assert main(["synth", "--spec", spec, "--out", str(tmp_path / "seed7"), "--seed", "7"]) == 0
        # 10 features, the score and the cohort year beside the ids
        assert capsys.readouterr().out == f"wrote 120 rows x 12 columns to {tmp_path / 'seed7' / SYNTH_CSV}\n"
        assert main(["synth", "--spec", spec, "--out", str(tmp_path / "seed5"), "--seed", "5"]) == 0
        written = workspace["cohort_csv"].read_bytes()
        assert (tmp_path / "seed7" / SYNTH_CSV).read_bytes() == written
        assert (tmp_path / "seed5" / SYNTH_CSV).read_bytes() != written

    def test_internal_error_names_its_type_exit_4(self, monkeypatch, tmp_path, capsys):
        def broken(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(pipeline, "run_plot", broken)
        capsys.readouterr()
        assert main(["plot", "--report", str(tmp_path / "r.json"), "--out", str(tmp_path)]) == 4
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    @pytest.mark.parametrize("command, output", [
        ("validate", VALIDATE_JSON), ("predict", PREDICTIONS_JSONL),
    ])
    def test_internal_error_leaves_every_output(self, monkeypatch, tmp_path, capsys, command, output):
        # a fault after some subjects were scored, and predict wrote lines
        ranked, original = [], pipeline.score

        def score(*args, **kwargs):
            for subject in original(*args, **kwargs):
                if len(ranked) == 5:
                    raise RuntimeError("boom")
                ranked.append(subject)
                yield subject

        monkeypatch.setattr(pipeline, "score", score)
        out = tmp_path / "out"
        out.mkdir()
        (out / output).write_bytes(b"before\n")
        capsys.readouterr()
        assert main(_golden_argv(command, GOLDEN_SEED7 / VALIDATION_CSV, out)) == 4
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"
        assert len(ranked) == 5
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {output: b"before\n"}


def test_predict_output_bytes(tmp_path):
    # no golden holds predictions.jsonl, so its digest pins every byte
    assert main(_golden_argv("predict", GOLDEN_SEED7 / VALIDATION_CSV, tmp_path)) == 0
    digest = hashlib.sha256((tmp_path / PREDICTIONS_JSONL).read_bytes()).hexdigest()
    assert digest == "6beeb0b3dd8601b7b2ee9cdaba6b170263e0ed944c599cc1f57e413b78040690"


# the r of f01, ..., f20 with the score that prepare logs on the seed-7 cohort
SEED7_RS = [
    "0.7006763", "0.6615165", "0.7353649", "0.6949042", "0.7232426", "0.6730089", "0.7288982",
    "0.6836895", "0.657931", "0.706257", "0.7667123", "0.7060861", "0.04839535", "-0.07509663",
    "-0.1261913", "0.1095185", "-0.1533489", "0.137766", "0.1013121", "-0.03457483",
]


def test_prepare_audit_lines(tmp_path, caplog):
    # one line per feature, in column order, whether it is kept or dropped
    config = load_config(GOLDEN_SEED7.parent / "config.json")
    with caplog.at_level("INFO", logger="ammknn.preprocess"):
        run_prepare(config, GOLDEN_SEED7 / "cohort.csv", tmp_path)
    assert [r.getMessage() for r in caplog.records] == [
        f"{j}. Correlation between f{j:02d} and target = {r}." for j, r in enumerate(SEED7_RS, 1)
    ]


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
    config = _from_json(PipelineConfig, CONFIG_DOC, "config")
    wide_config = _from_json(PipelineConfig, wide_doc, "config")
    run_prepare(config, base, tmp_path / "warm-up")  # one-time costs
    base_peak = _peak(run_prepare, config, base, tmp_path / "base")
    wide_peak = _peak(run_prepare, wide_config, wide, tmp_path / "wide")
    for name in (TRAIN_CSV, VALIDATION_CSV, SELECTION_JSON):
        assert (tmp_path / "wide" / name).read_bytes() == (tmp_path / "base" / name).read_bytes()
    assert wide_peak < 1.25 * base_peak


def test_predict_memory_follows_the_model(tmp_path):
    # predict streams the cohort: it holds the training table and one
    # subject's record, ranking and line at a time, so a cohort 10x as
    # large leaves the peak where it was; holding each record's feature
    # cells, as predict once did, made it grow about 1.5x
    spec = json.loads((GOLDEN_SEED7.parent / "spec.json").read_text())
    spec["n_rows"] = 500
    spec["split"]["train_fraction"] = 0.88
    config = load_config(GOLDEN_SEED7.parent / "config.json")
    run_synth(spec, tmp_path)
    run_prepare(config, tmp_path / SYNTH_CSV, tmp_path)
    cohort = tmp_path / VALIDATION_CSV
    header, *rows = cohort.read_text().splitlines()
    big = tmp_path / "cohort10.csv"
    # each copy of a student under an id of its own, as ids are unique
    copies = [row if k == 0 else f"{k}-{row}" for k in range(10) for row in rows]
    big.write_text("\n".join([header, *copies]) + "\n")
    train = tmp_path / TRAIN_CSV
    run_predict(config, train, cohort, tmp_path / "warm-up")  # one-time costs
    base_peak = _peak(run_predict, config, train, cohort, tmp_path / "base")
    big_peak = _peak(run_predict, config, train, big, tmp_path / "big")

    def records(out):
        lines = (out / PREDICTIONS_JSONL).read_text().splitlines()
        return [{**json.loads(line), "subject_id": None} for line in lines]

    assert records(tmp_path / "big") == records(tmp_path / "base") * 10
    # the one thing kept of each subject is its id, so that a later repeat
    # of it is refused: the keys of a dict whose values are all None
    ids = _peak(lambda: dict.fromkeys(
        f"{k}-{row.split(',', 1)[0]}" for k in range(1, 10) for row in rows
    ))
    assert big_peak < 1.01 * base_peak + ids


def test_validate_memory_follows_the_report(tmp_path):
    # validate keeps, of each subject, only what its report reads; 100
    # more feature columns, all 0.0, leave every distance, prediction and
    # output byte as they are, and the peak too. Holding the cohort's
    # feature cells, as validate once did, made the peak 4x as large
    spec = json.loads((GOLDEN_SEED7.parent / "spec.json").read_text())
    spec["n_rows"] = 1000
    spec["split"]["train_fraction"] = 0.05
    config = load_config(GOLDEN_SEED7.parent / "config.json")
    run_synth(spec, tmp_path)
    run_prepare(config, tmp_path / SYNTH_CSV, tmp_path)

    def wide(name):
        header, *rows = (tmp_path / name).read_text().splitlines()
        path = tmp_path / f"wide-{name}"
        zeros = [f"z{j:03d}" for j in range(100)]
        path.write_text("".join(
            ",".join([line, *(zeros if i == 0 else ["0.0"] * 100)]) + "\n"
            for i, line in enumerate([header, *rows])
        ))
        return path

    train, cohort = tmp_path / TRAIN_CSV, tmp_path / VALIDATION_CSV
    run_validate(config, train, cohort, tmp_path / "warm-up")  # one-time costs
    base_peak = _peak(run_validate, config, train, cohort, tmp_path / "base")
    wide_peak = _peak(run_validate, config, wide(TRAIN_CSV), wide(VALIDATION_CSV), tmp_path / "wide")
    for name in (VALIDATE_JSON, ROSTER_JSON):
        assert (tmp_path / "wide" / name).read_bytes() == (tmp_path / "base" / name).read_bytes()
    assert wide_peak < 1.1 * base_peak


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


def _split_years(path):
    """``path`` with its cohort column made two, ``early`` and ``late``: a
    year before and a year after each row's year, both empty where it is."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    col = rows[0].index("cohort")
    rows[0][col:col + 1] = ["early", "late"]
    for row in rows[1:]:
        year = row[col]
        row[col:col + 1] = [repr(float(year) - 1), repr(float(year) + 1)] if year else ["", ""]
    split = path.with_name("cohort_split.csv")
    split.write_text("".join(",".join(row) + "\n" for row in rows))
    return split


class TestPrepareCohortYears:
    """A group's mean serves as the year; rows in neither window are counted."""

    @pytest.mark.parametrize("members", [["cohort"], ["early", "late"]])
    def test_year_from_a_group(self, workspace, tmp_path, members):
        # a group's mean is the year it stands for, from the year alone or
        # from a year either side of it: it splits the rows as the raw
        # column does, a missing one included
        odd = _with_years(workspace, tmp_path, {0: "", 1: "2031", 2: "2017"})
        config = _from_json(PipelineConfig, CONFIG_DOC, "config")
        by_column = run_prepare(config, odd, tmp_path / "column")
        grouped = _from_json(PipelineConfig, {
            **CONFIG_DOC,
            "cohort_column": "year",
            "aggregations": [{"group_name": "year", "member_columns": members}],
        }, "config")
        if members != ["cohort"]:
            odd = _split_years(odd)
        assert run_prepare(grouped, odd, tmp_path / "group") == by_column
        for name in (TRAIN_CSV, VALIDATION_CSV, SELECTION_JSON):
            assert (tmp_path / "group" / name).read_bytes() == (tmp_path / "column" / name).read_bytes()


    def test_missing_and_outside_years_are_counted(self, workspace, tmp_path, capsys):
        config = _from_json(PipelineConfig, CONFIG_DOC, "config")
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
    loads is API only tests use. ``__init__.py`` is its docstring alone: an
    import or an assignment there would re-export a name, and no module
    would need to load it."""
    loaded = set()
    public = set()
    for path in Path(ammknn.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "__init__.py":
            assert [type(node) for node in tree.body] == [ast.Expr]
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public.add(node.name)
            if isinstance(node, ast.ClassDef):
                public.update(
                    f"{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )
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


# the seed-7 steps that print, all but their --out
PRINTING_STEPS = {
    "loocv": ["loocv", "--config", str(GOLDEN_SEED7.parent / "config.json"),
              "--train", str(GOLDEN_SEED7 / TRAIN_CSV), "--format", "json"],
    **{
        command: [command, "--config", str(GOLDEN_SEED7.parent / "config.json"),
                  "--train", str(GOLDEN_SEED7 / TRAIN_CSV), "--cohort", str(GOLDEN_SEED7 / VALIDATION_CSV)]
        for command in ("validate", "predict")
    },
}


class TestCliStdout:
    def test_loocv_json_is_one_document(self, workspace, capsys):
        run_all(workspace)
        out = workspace["out"]
        capsys.readouterr()
        assert main([
            "loocv", "--config", str(workspace["config"]),
            "--train", str(out / TRAIN_CSV), "--out", str(out), "--format", "json",
        ]) == 0
        reports = {
            model: json.loads((out / name).read_text())
            for model, name in (("ammknn", LOOCV_AMMKNN_JSON), ("knn", LOOCV_KNN_JSON))
        }
        assert capsys.readouterr().out == json.dumps(reports, indent=2) + "\n"

    def test_validate_json_is_the_report(self, tmp_path, capsys):
        capsys.readouterr()
        assert main([*_golden_argv("validate", GOLDEN_SEED7 / VALIDATION_CSV, tmp_path), "--format", "json"]) == 0
        assert capsys.readouterr().out == (GOLDEN_SEED7 / VALIDATE_JSON).read_text()
        assert (tmp_path / VALIDATE_JSON).read_bytes() == (GOLDEN_SEED7 / VALIDATE_JSON).read_bytes()

    @pytest.mark.parametrize("command, outputs", [
        ("loocv", [LOOCV_AMMKNN_JSON, LOOCV_KNN_JSON]),
        ("validate", [ROSTER_JSON, VALIDATE_JSON]),
        ("predict", [PREDICTIONS_JSONL]),
    ])
    def test_a_closed_stdout_is_refused(self, tmp_path, capsys, command, outputs):
        # the reader of stdout went before a byte was written: the step's
        # outputs are in place, and the refusal names stdout
        read_end, write_end = os.pipe()
        os.close(read_end)
        capsys.readouterr()
        with open(write_end, "w") as stdout, contextlib.redirect_stdout(stdout):
            assert main([*PRINTING_STEPS[command], "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "data error: stdout: cannot be written (Broken pipe)\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == outputs

    def test_a_closed_stdout_ends_the_process_with_one_line(self, tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = os.path.dirname(os.path.dirname(ammknn.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        try:
            result = subprocess.run(
                [sys.executable, "-m", "ammknn.cli", *PRINTING_STEPS["loocv"], "--out", str(tmp_path)],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 3
        assert result.stderr == "data error: stdout: cannot be written (Broken pipe)\n"
        assert (tmp_path / LOOCV_KNN_JSON).read_bytes() == (GOLDEN_SEED7 / LOOCV_KNN_JSON).read_bytes()

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

        config = _from_json(PipelineConfig, dict(CONFIG_DOC, correlation_threshold=0.0), "config")
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
        config = _from_json(PipelineConfig, doc, "config")
        run_prepare(config, path, tmp_path / "out")
        train = read_table(tmp_path / "out" / TRAIN_CSV, "score", "student_id")
        assert "q_mean" in train.features
        assert "q1" not in train.features
