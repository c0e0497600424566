"""End-to-end workflow steps behind the CLI subcommands.

prepare: raw cohort CSV -> aggregated, year-split, jointly standardized,
correlation-selected train/validation CSVs plus the selection audit JSON.
loocv: prepared training CSV -> adaptive and fixed-k evaluation reports.
validate: prepared train + cohort CSVs -> adaptive report and tier roster.
predict: train + unscored cohort -> prediction records as JSON lines.
synth/plot: generator and figure plumbing.

loocv, validate and predict all rank neighbors through one engine (see
``knn``): a ``math.dist`` filter over every training row, then exact
left-to-right squared distances for the few rows it keeps. loocv ranks
each training row once and reads both models from that ranking; there is
no pairwise distance cache, because its O(n^2) memory would outgrow
everything else a step holds.

Everything here is deterministic given (config, inputs, seed); re-running
a step produces byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace
from typing import Optional

from . import report as report_mod
from . import svgplot
from .config import PipelineConfig
from .errors import (
    ColumnMismatch,
    ConfigError,
    InvalidSpec,
    NonFiniteCell,
    UnknownColumn,
    UnknownTargetColumn,
)
from .evaluation import classify_tier, loocv
from .frame import (
    Frame,
    aggregate_means,
    drop_incomplete,
    drop_missing_target,
    filter_by_cutoff,
    load_csv,
    write_csv,
)
from .knn import AmmknnConfig, _finite, _training_arrays, ammknn_predict_batch
from .preprocess import _correlations, select_by_correlation, standardize_joint
from .synth import SynthSpec, assign_cohort_years, generate_cohort

TRAIN_CSV = "train.csv"
VALIDATION_CSV = "validation.csv"
SELECTION_JSON = "selection.json"
LOOCV_AMMKNN_JSON = "loocv_ammknn.json"
LOOCV_KNN_JSON = "loocv_knn.json"
VALIDATE_JSON = "validate_ammknn.json"
ROSTER_JSON = "roster.json"
PREDICTIONS_JSONL = "predictions.jsonl"
SYNTH_CSV = "cohort.csv"


def _load_for_config(config: PipelineConfig, path, target_required: bool = True) -> Frame:
    """Load a CSV, treating unresolved config-referenced labels as config errors.

    Config labels (target, id column) must resolve against the loaded
    frame; a mismatch means the config does not describe this dataset.
    """
    target = config.target_name if target_required else None
    try:
        return load_csv(path, target, config.id_column)
    except (UnknownTargetColumn, UnknownColumn) as exc:
        raise ConfigError(str(exc)) from exc


def _candidate_columns(frame: Frame, config: PipelineConfig) -> Frame:
    keep_always = {config.target_name}
    if config.cohort_column is not None:
        keep_always.add(config.cohort_column)
    if config.include_columns is not None:
        for name in config.include_columns:
            try:
                frame.column_index(name)
            except UnknownColumn as exc:
                raise ConfigError(f"include_columns: {exc}") from exc
        include = set(config.include_columns)
        keep = [n for n in frame.column_names if n in include or n in keep_always]
        frame = frame.select_columns(keep)
    if config.exclude_columns:
        drop = [
            n
            for n in config.exclude_columns
            if n in frame.column_names and n not in keep_always
        ]
        frame = frame.drop_columns(drop)
    return frame


def _split_by_year(frame: Frame, config: PipelineConfig):
    """Train rows start before the cutoff year; validation rows start in it.

    A NaN or infinite year is refused: it would fall silently into
    neither side (NaN, +inf) or into training (-inf). Rows with a missing
    year or a year outside both windows are left out; the caller counts
    them.
    """
    if config.cohort_column is None or config.year_cutoff is None:
        raise ConfigError("prepare needs cohort_column and year_cutoff")
    if config.cohort_column not in frame.column_names:
        raise ConfigError(f"cohort column {config.cohort_column!r} not in input")
    for i, year in enumerate(frame.column(config.cohort_column)):
        if year is not None and not math.isfinite(year):
            raise NonFiniteCell(
                f"input row {i}, column {config.cohort_column!r}: non-finite value {year!r}"
            )
    train = filter_by_cutoff(frame, config.cohort_column, config.year_cutoff, "below")
    at_or_after = filter_by_cutoff(
        frame, config.cohort_column, config.year_cutoff, "at_or_above"
    )
    validation = filter_by_cutoff(
        at_or_after, config.cohort_column, config.year_cutoff + 1, "below"
    )
    return (
        train.drop_columns([config.cohort_column]),
        validation.drop_columns([config.cohort_column]),
    )


def resolve_outlier_feature(train: Frame, config: AmmknnConfig) -> AmmknnConfig:
    """Default the outlier feature to the one most positively correlated
    with the target (largest signed r, first on ties).

    The rule fires on *low* feature values, so a feature that correlates
    negatively would flag the strongest students; when every feature
    does, there is no sound default and the config must name one. A
    constant column (or a constant target) counts as r = 0.
    """
    if config.outlier_feature is not None:
        if config.outlier_feature not in train.column_names:
            raise ConfigError(
                f"configured outlier feature {config.outlier_feature!r} not in training frame"
            )
        return config
    names = train.feature_names()
    columns = [train.column(name) for name in names]
    target = train.target_values()
    if not (all(map(_finite, columns)) and _finite(target)):
        # the sweep's sums would fail on a missing cell with a TypeError;
        # the engine's check refuses it first, naming its row and column
        _training_arrays(train)
    best = None
    best_r = -math.inf
    for name, r in zip(names, _correlations(columns, target)):
        if r is None:
            # degenerate (constant) columns carry no ranking signal
            r = 0.0
        if r > best_r:
            best, best_r = name, r
    if best is None:
        raise InvalidSpec("training frame has no feature columns")
    if best_r < 0.0:
        raise ConfigError(
            f"every feature correlates negatively with the target (best {best!r}, "
            f"r = {best_r!r}); set ammknn.outlier_feature"
        )
    return replace(config, outlier_feature=best)


def _split_cohort(config: PipelineConfig, input_path):
    """Raw cohort CSV -> (train, validation, row and column counts).

    Group means are added, the candidate columns picked, the rows split by
    cohort year, and rows with a missing target or any missing cell
    dropped. Only the two sides outlive this call, so the full raw table
    is freed before standardization builds its z-scores.
    """
    frame = _load_for_config(config, input_path)
    if config.aggregations:
        frame = aggregate_means(frame, config.aggregations, drop_members=True)
    frame = _candidate_columns(frame, config)
    train, validation = _split_by_year(frame, config)
    counts = {
        "dropped_outside_years": frame.n_rows - train.n_rows - validation.n_rows,
        "columns_in": frame.n_cols - (1 if config.cohort_column else 0),
    }
    train, counts["train_dropped_missing_target"] = drop_missing_target(train)
    validation, counts["validation_dropped_missing_target"] = drop_missing_target(validation)
    train, counts["train_dropped_incomplete"] = drop_incomplete(train)
    validation, counts["validation_dropped_incomplete"] = drop_incomplete(validation)
    return train, validation, counts


def run_prepare(config: PipelineConfig, input_path, out_dir) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    train, validation, counts = _split_cohort(config, input_path)
    train, validation, _ = standardize_joint(train, validation)
    train, selection = select_by_correlation(train, config.correlation_threshold)
    validation = validation.select_columns(selection.kept_columns)

    write_csv(train, os.path.join(out_dir, TRAIN_CSV))
    write_csv(validation, os.path.join(out_dir, VALIDATION_CSV))
    report_mod.dump_json(
        selection.to_json_dict(), os.path.join(out_dir, SELECTION_JSON)
    )
    return {
        "train_rows": train.n_rows,
        "validation_rows": validation.n_rows,
        **counts,
        "columns_kept": len(selection.kept_columns),
        "columns_dropped": len(selection.dropped_columns),
    }


def run_loocv(config: PipelineConfig, train_path, out_dir) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    train = _load_for_config(config, train_path)
    ammknn_cfg = resolve_outlier_feature(train, config.ammknn)

    ids = [train.row_id(i) for i in range(train.n_rows)]
    actual = list(train.target_values())
    outlier_values = list(train.column(ammknn_cfg.outlier_feature))
    ammknn_predictions, triggered, knn_predictions = loocv(train, ammknn_cfg, config.knn_k)

    ammknn_report = report_mod.build_report(
        "loocv",
        f"ammknn(max_k={ammknn_cfg.max_k},outlier={ammknn_cfg.outlier_feature})",
        config,
        ids,
        actual,
        ammknn_predictions,
        config.tiers_predicted,
        outlier_values=outlier_values,
        outlier_triggered=triggered,
    )
    knn_report = report_mod.build_report(
        "loocv",
        f"knn(k={config.knn_k})",
        config,
        ids,
        actual,
        knn_predictions,
        config.tiers_predicted,
        outlier_values=outlier_values,
    )
    report_mod.dump_json(ammknn_report, os.path.join(out_dir, LOOCV_AMMKNN_JSON))
    report_mod.dump_json(knn_report, os.path.join(out_dir, LOOCV_KNN_JSON))
    return {"ammknn": ammknn_report, "knn": knn_report}


def _load_pair(config: PipelineConfig, train_path, cohort_path, require_target: bool):
    train = _load_for_config(config, train_path)
    cohort = _load_for_config(config, cohort_path, target_required=require_target)
    if require_target:
        missing = [
            n for n in train.column_names if n not in cohort.column_names
        ]
        if missing:
            raise ColumnMismatch(f"cohort lacks prepared columns: {missing}")
    return train, cohort


def run_validate(config: PipelineConfig, train_path, cohort_path, out_dir) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    train, cohort = _load_pair(config, train_path, cohort_path, require_target=True)
    ammknn_cfg = resolve_outlier_feature(train, config.ammknn)
    records = ammknn_predict_batch(cohort, train, ammknn_cfg)

    ids = [cohort.row_id(i) for i in range(cohort.n_rows)]
    actual = list(cohort.target_values())
    predicted = [r.prediction for r in records]
    bounds = config.tiers_predicted_validation
    validate_report = report_mod.build_report(
        "validation",
        f"ammknn(max_k={ammknn_cfg.max_k},outlier={ammknn_cfg.outlier_feature})",
        config,
        ids,
        actual,
        predicted,
        bounds,
        outlier_values=[r.outlier_value for r in records],
        outlier_triggered=[r.outlier_triggered for r in records],
    )
    # worst predicted risk first, so support can be prioritized top-down
    order = sorted(range(len(records)), key=lambda i: (predicted[i], i))
    roster = [
        {
            "id": ids[i],
            "predicted": predicted[i],
            "tier": classify_tier(predicted[i], bounds),
        }
        for i in order
    ]
    report_mod.dump_json(validate_report, os.path.join(out_dir, VALIDATE_JSON))
    report_mod.dump_json(roster, os.path.join(out_dir, ROSTER_JSON))
    return {"report": validate_report, "roster": roster}


def run_predict(config: PipelineConfig, train_path, cohort_path, out_dir) -> list:
    os.makedirs(out_dir, exist_ok=True)
    train, cohort = _load_pair(config, train_path, cohort_path, require_target=False)
    ammknn_cfg = resolve_outlier_feature(train, config.ammknn)
    records = ammknn_predict_batch(cohort, train, ammknn_cfg)
    lines = []
    for r in records:
        entry = r.to_json_dict()
        entry["tier"] = classify_tier(r.prediction, config.tiers_predicted)
        lines.append(entry)
    with open(os.path.join(out_dir, PREDICTIONS_JSONL), "w", encoding="utf-8") as fh:
        for entry in lines:
            fh.write(json.dumps(entry))
            fh.write("\n")
    return lines


def run_synth(spec_doc: dict, out_dir, seed_override: Optional[int] = None) -> dict:
    """Generate a cohort CSV from a generator spec document.

    The document holds the SynthSpec fields, optionally under sibling key
    "split" ({train_fraction, seed, column, train_year, validation_year})
    to stamp a cohort-year column for the year-cutoff pipeline.
    """
    os.makedirs(out_dir, exist_ok=True)
    if not isinstance(spec_doc, dict):
        raise InvalidSpec("generator spec must be a JSON object")
    doc = dict(spec_doc)
    split = doc.pop("split", None)
    if seed_override is not None:
        doc["seed"] = seed_override
    spec = SynthSpec.from_json_dict(doc)
    frame = generate_cohort(spec)
    if split is not None:
        try:
            frame = assign_cohort_years(
                frame,
                train_fraction=float(split["train_fraction"]),
                seed=int(split.get("seed", spec.seed)),
                column=split.get("column", "cohort"),
                train_year=float(split.get("train_year", 2018)),
                validation_year=float(split.get("validation_year", 2019)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidSpec(f"bad split stanza: {exc}") from exc
    path = os.path.join(out_dir, SYNTH_CSV)
    write_csv(frame, path)
    return {"rows": frame.n_rows, "columns": frame.n_cols, "path": path}


def run_plot(report_path, kind: str, out_dir) -> str:
    os.makedirs(out_dir, exist_ok=True)
    report = report_mod.load_json(report_path)
    svg = svgplot.render_plot(report, kind)
    out_path = os.path.join(out_dir, f"{kind}.svg")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return out_path
