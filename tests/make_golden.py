"""Regenerate the committed golden fixtures under tests/golden/.

Run from the repository root after an intentional behavior change:

    python tests/make_golden.py

The fixtures pin the complete seed-7 workflow byte-for-byte: generated
cohort, prepared train/validation CSVs, selection audit, both LOOCV
reports, the cohort-validation report and roster, and both SVG plots.
``workflow`` lists the steps; the golden-file acceptance test runs the
same list into a temporary directory.
"""

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from ammknn.cli import main  # noqa: E402

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
OUT_DIR = os.path.join(GOLDEN_DIR, "seed7")

SPEC = {
    "seed": 7,
    "n_rows": 224,
    "n_features": 20,
    "signal_features": 12,
    "noise_sd": 1.0,
    "target_range": [200.0, 800.0],
    "fail_rate_hint": 0.07,
    "split": {"train_fraction": 0.808, "seed": 7, "train_year": 2018, "validation_year": 2019},
}

CONFIG = {
    "target_name": "score",
    "id_column": "student_id",
    "cohort_column": "cohort",
    "year_cutoff": 2019,
    "aggregations": [],
    "include_columns": None,
    "exclude_columns": [],
    "correlation_threshold": 0.1,
    "knn_k": 12,
    "ammknn": {"max_k": 20, "outlier_feature": None, "outlier_cutoff": -2.0},
    "pass_at": 350.0,
    "tiers_actual": {"fail_below": 350.0, "at_risk_upper": 375.0},
    "tiers_predicted": {"fail_below": 350.0, "at_risk_upper": 375.0},
    "tiers_predicted_validation": {"fail_below": 350.0, "at_risk_upper": 385.0},
    "sweep_cutoffs": [349.0, 390.0, 400.0, 410.0, 420.0],
    "seed": 7,
}


def workflow(spec_path, config_path, out_dir):
    """The argv of each CLI step of the seed-7 workflow, in order, from
    the spec and config at the given paths into ``out_dir``."""
    return [
        ["synth", "--spec", spec_path, "--out", out_dir],
        ["prepare", "--config", config_path,
         "--input", os.path.join(out_dir, "cohort.csv"), "--out", out_dir],
        ["loocv", "--config", config_path,
         "--train", os.path.join(out_dir, "train.csv"), "--out", out_dir],
        ["validate", "--config", config_path,
         "--train", os.path.join(out_dir, "train.csv"),
         "--cohort", os.path.join(out_dir, "validation.csv"), "--out", out_dir],
        ["plot", "--report", os.path.join(out_dir, "validate_ammknn.json"),
         "--kind", "scatter", "--out", out_dir],
        ["plot", "--report", os.path.join(out_dir, "validate_ammknn.json"),
         "--kind", "packrat_scatter", "--out", out_dir],
    ]


def regenerate():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    spec_path = os.path.join(GOLDEN_DIR, "spec.json")
    config_path = os.path.join(GOLDEN_DIR, "config.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(SPEC, fh, indent=2)
        fh.write("\n")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(CONFIG, fh, indent=2)
        fh.write("\n")

    shutil.rmtree(OUT_DIR, ignore_errors=True)
    os.makedirs(OUT_DIR)
    for argv in workflow(spec_path, config_path, OUT_DIR):
        code = main(argv)
        if code != 0:
            raise SystemExit(f"step {argv[0]} failed with exit code {code}")
    print(f"regenerated fixtures in {OUT_DIR}")


if __name__ == "__main__":
    regenerate()
