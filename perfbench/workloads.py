"""The benchmark's workloads: generated inputs, timed CLI steps, output checks.

Every workload starts from tests/golden/spec.json and config.json, applies
its overrides and the run's seed, and drives the real CLI steps through
``ammknn.cli.main(argv)``.  Inputs live in ``<work>/inputs`` (written by
the set-up steps) and each timed pass writes to ``<work>/out``.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, field

import reference as ref


@dataclass(frozen=True)
class Step:
    name: str  # CLI subcommand, or "plot" for `plot --kind scatter`
    outputs: tuple  # files the step writes into its output directory


@dataclass(frozen=True)
class Workload:
    """Overrides of the golden spec and config, and the steps to time.

    Why each workload is in the benchmark is recorded in BENCHMARK.json.
    """

    name: str
    spec: dict
    split: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    setup_steps: tuple = ()
    pass_steps: tuple = ()
    setup_repeats: int = 3


SYNTH = Step("synth", ("cohort.csv",))
PREPARE = Step("prepare", ("train.csv", "validation.csv", "selection.json"))
LOOCV = Step("loocv", ("loocv_ammknn.json", "loocv_knn.json"))
VALIDATE = Step("validate", ("validate_ammknn.json", "roster.json"))
PREDICT = Step("predict", ("predictions.jsonl",))
PLOT = Step("plot", ("scatter.svg",))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "loocv",
            spec={"n_rows": 896},
            setup_steps=(SYNTH, PREPARE),
            pass_steps=(LOOCV,),
            setup_repeats=7,
        ),
        Workload(
            "score-cohort",
            spec={"n_rows": 1792},
            split={"train_fraction": 0.4},
            setup_steps=(SYNTH, PREPARE),
            pass_steps=(VALIDATE, PREDICT, PLOT),
            setup_repeats=5,
        ),
        Workload(
            "prepare-wide",
            spec={"n_rows": 20000, "n_features": 48, "signal_features": 24},
            config={
                "aggregations": [
                    {"group_name": f"g{g + 1}",
                     "member_columns": [f"f{4 * g + j + 1:02d}" for j in range(4)]}
                    for g in range(6)
                ]
            },
            setup_steps=(SYNTH,),
            pass_steps=(PREPARE,),
        ),
    )
}


def golden_docs(root):
    with open(os.path.join(root, "tests", "golden", "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(root, "tests", "golden", "config.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    return spec, config


def workload_docs(root, workload, seed):
    """(spec, config) documents for one workload and seed."""
    spec, config = golden_docs(root)
    spec = copy.deepcopy(spec)
    spec.update(workload.spec, seed=seed)
    spec["split"].update(workload.split, seed=seed)
    config.update(copy.deepcopy(workload.config), seed=seed)
    return spec, config


def argv(step, work, out):
    """CLI argv for a step; set-up steps write to `out`, passes read inputs."""
    inputs = os.path.join(work, "inputs")
    config = os.path.join(work, "config.json")
    if step.name == "synth":
        return ["synth", "--spec", os.path.join(work, "spec.json"), "--out", out]
    if step.name == "prepare":
        return ["prepare", "--config", config,
                "--input", os.path.join(inputs, "cohort.csv"), "--out", out]
    if step.name == "loocv":
        return ["loocv", "--config", config,
                "--train", os.path.join(inputs, "train.csv"), "--out", out]
    if step.name in ("validate", "predict"):
        return [step.name, "--config", config,
                "--train", os.path.join(inputs, "train.csv"),
                "--cohort", os.path.join(inputs, "validation.csv"), "--out", out]
    if step.name == "plot":
        return ["plot", "--report", os.path.join(out, "validate_ammknn.json"),
                "--kind", "scatter", "--out", out]
    raise ValueError(f"unknown step {step.name!r}")


def count_rows(path):
    """Data rows of a CSV file with one header line."""
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def rows_handled(workload, work):
    """Rows one pass handles: held-out, incoming-cohort or raw input rows."""
    name = {"loocv": "train.csv", "score-cohort": "validation.csv",
            "prepare-wide": "cohort.csv"}[workload.name]
    return count_rows(os.path.join(work, "inputs", name))


# -- correctness ----------------------------------------------------------


def check_prepared(work, prepared_dir, config):
    """Compare `prepare` outputs in prepared_dir with the naive reference."""
    expected = ref.naive_prepare(os.path.join(work, "inputs", "cohort.csv"), config)
    problems = ref.mismatches(
        expected["kept"],
        ref.load_json(os.path.join(prepared_dir, "selection.json"))["kept"],
        "selection.kept",
    )
    for side in ("train", "validation"):
        actual = ref.read_table(os.path.join(prepared_dir, f"{side}.csv"), config["id_column"])
        for label, e, a in zip(("columns", "rows", "ids"), expected[side], actual):
            problems += ref.mismatches(e, a, f"{side}.csv {label}")
    return problems


def check_predictions(workload, work, config):
    """{step name: problems} comparing pass outputs with the naive ranking."""
    if workload.name not in ("loocv", "score-cohort"):
        return {}
    out = os.path.join(work, "out")
    inputs = os.path.join(work, "inputs")
    target = config["target_name"]
    max_k = config["ammknn"]["max_k"]
    cutoff = config["ammknn"]["outlier_cutoff"]
    train = ref.read_table(os.path.join(inputs, "train.csv"), config["id_column"])
    feats, train_x, train_y = ref.features_and_target(train, target)
    if workload.name == "loocv":
        reports = {m: ref.load_json(os.path.join(out, f"loocv_{m}.json"))
                   for m in ("ammknn", "knn")}
        o = feats.index(ref.outlier_feature(reports["ammknn"]))
        ammknn, knn = [], []
        for i, x in enumerate(train_x):
            order = ref.ranked(train_x, x, skip=i)
            ammknn.append(ref.naive_record(order, train_y, max_k, x[o], cutoff)["prediction"])
            knn.append(ref.knn_mean(order, train_y, config["knn_k"]))
        problems = []
        for model, expected in (("ammknn", ammknn), ("knn", knn)):
            actual = [s["predicted"] for s in reports[model]["subjects"]]
            problems += ref.mismatches(expected, actual, f"loocv_{model} predictions")
        return {"loocv": problems}
    cohort = ref.read_table(os.path.join(inputs, "validation.csv"), config["id_column"])
    cohort_feats, cohort_x, _ = ref.features_and_target(cohort, target)
    if cohort_feats != feats:
        return {"validate": [f"cohort columns {cohort_feats} != train {feats}"]}
    report = ref.load_json(os.path.join(out, "validate_ammknn.json"))
    o = feats.index(ref.outlier_feature(report))
    expected = []
    for x, rid in zip(cohort_x, cohort[2]):
        record = ref.naive_record(ref.ranked(train_x, x), train_y, max_k, x[o], cutoff)
        expected.append({"subject_id": rid, **record})
    with open(os.path.join(out, "predictions.jsonl"), encoding="utf-8") as fh:
        actual = [json.loads(line) for line in fh]
    for entry in actual:
        entry.pop("tier", None)
    return {
        "validate": ref.mismatches(
            [e["prediction"] for e in expected],
            [s["predicted"] for s in report["subjects"]],
            "validate predictions",
        ),
        "predict": ref.mismatches(expected, actual, "predictions.jsonl"),
    }
