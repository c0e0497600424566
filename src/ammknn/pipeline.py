"""End-to-end workflow steps behind the CLI subcommands.

prepare: raw cohort CSV -> train/validation CSVs plus the selection audit
JSON. Each record is handled as it is read: it is put on its side of the
year cutoff or counted as left out (no usable year, a missing target),
and only the cells its kept columns read are held, a block of rows at a
time. Each block is transposed once; its group means are formed a
column at a time, rows with a missing cell are counted and left out,
and its cells go into one compact column per side and kept label, so
memory follows the kept cells, not the raw table. Both sides are then
jointly standardized and correlation-selected a column at a time.
loocv: prepared training CSV -> adaptive and fixed-k evaluation reports.
validate: prepared train + cohort CSVs -> adaptive report and tier roster.
predict: train + unscored cohort -> prediction records as JSON lines.
Both refuse a cohort whose feature columns are not the training table's.
synth/plot: generator and figure plumbing; synth writes each block of
rows as it is drawn. Every step turns an ``--out`` that cannot be made a
directory, or an output file that cannot be written, into a
``DataError``.

Every cell of every input is checked once, as ``frame.load_csv`` parses
its record, and a refusal names the file line and the column. loocv,
validate and predict each read their tables with ``frame.read_table``,
which keeps only what the step ranks with and refuses a missing cell
among it: the training table first, then the cohort. The outlier
feature is known here alone: ``_read_training`` resolves its name once,
from the configuration or the training table's correlations, and takes
its values with ``Table.column`` from the training table or the cohort;
``knn`` is handed those values, never the name. They all score
through one loop in ``knn``: a window over the training rows' feature
sums, a ``math.dist`` filter over the rows in it, then exact
left-to-right squared distances for the few rows it keeps. validate and predict hold one subject's ranking at a
time: validate keeps two numbers of each subject for its report, and
predict writes each subject's line as it is scored, after every cell has
been checked. ``knn.loocv`` ranks each training row once and reads both
models from that ranking; there is no pairwise distance cache, because
its O(n^2) memory would outgrow everything else a step holds.
``report.build_report`` turns the predictions into the tiers, tallies
and metrics of a report.

Everything here is deterministic given (config, inputs, seed); re-running
a step produces byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from array import array
from functools import reduce
from itertools import compress, repeat
from operator import add, itemgetter, truediv
from typing import NamedTuple, Optional

from . import report as report_mod
from . import svgplot
from .config import PipelineConfig, _from_json, _read_json
from .errors import ConfigError, DataError
from .frame import Table, _open_out, _picker, load_csv, read_table, write_csv
from .knn import ammknn_predict_batch, loocv
from .preprocess import _correlations, select_by_correlation, standardize_joint
from .report import classify_tier
from .synth import CohortSplit, SynthSpec, generate_cohort

TRAIN_CSV = "train.csv"
VALIDATION_CSV = "validation.csv"
SELECTION_JSON = "selection.json"
LOOCV_AMMKNN_JSON = "loocv_ammknn.json"
LOOCV_KNN_JSON = "loocv_knn.json"
VALIDATE_JSON = "validate_ammknn.json"
ROSTER_JSON = "roster.json"
PREDICTIONS_JSONL = "predictions.jsonl"
SYNTH_CSV = "cohort.csv"


def _make_out_dir(out_dir) -> None:
    """Create a step's output directory (and its parents) if missing. A
    path that cannot be made a directory, such as an existing file, is a
    ``DataError`` naming it."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise DataError(
            f"{out_dir}: cannot be used as the output directory ({exc.strerror})"
        ) from None


def resolve_outlier_feature(train: Table, config: PipelineConfig) -> str:
    """The name of the outlier feature: ``ammknn.outlier_feature`` if set,
    else the feature most positively correlated with the target (largest
    signed r, first on ties).

    The rule fires on *low* feature values, so a feature that correlates
    negatively would flag the strongest students; when every feature
    does, there is no sound default and the config must name one. A
    constant column (or a constant target) counts as r = 0. A configured
    outlier feature must be a feature column, not the target.
    """
    name = config.ammknn.outlier_feature
    if name is not None:
        if name == config.target_name:
            # the rule would read each student's own score, which never
            # falls below the cutoff
            raise ConfigError(
                f"ammknn.outlier_feature {name!r} is the target; name a feature column"
            )
        if name not in train.features:
            raise ConfigError(f"configured outlier feature {name!r} not in training frame")
        return name
    names = train.features
    columns = [train.column(name) for name in names]
    best = None
    best_r = -math.inf
    for name, r in zip(names, _correlations(columns, train.target)):
        if r is None:
            # degenerate (constant) columns carry no ranking signal
            r = 0.0
        elif math.isnan(r):
            # no r would win, and the table would seem to have no features
            raise DataError(
                f"training column {name!r}: its correlation with the target "
                f"{config.target_name!r} overflows"
            )
        if r > best_r:
            best, best_r = name, r
    if best is None:
        raise DataError("training frame has no feature columns")
    if best_r < 0.0:
        raise ConfigError(
            f"every feature correlates negatively with the target (best {best!r}, "
            f"r = {best_r!r}); set ammknn.outlier_feature"
        )
    return best


class _Side(NamedTuple):
    """One side of ``prepare``'s year split: the kept rows' ids (each None
    where the input has no id column) and one column per kept label."""

    ids: list
    columns: list


# kept rows are moved into the compact columns this many at a time
_BLOCK_ROWS = 256


def _row_mean(cells, k: int):
    """The mean of one row's group members, or None if one is missing:
    added left to right from 0.0, as built-in sum() would not be from
    Python 3.12 on."""
    try:
        return reduce(add, cells, 0.0) / k
    except TypeError:  # float + None: a missing member cell
        return None


def _move(rows: list, columns: list, plan: list) -> bool:
    """Append a block of picked rows to ``columns``, one kept column per
    ``(first cell, member count)`` of ``plan``: a plain column's one cell,
    or the mean of a group's members. Returns False, with every column as
    it was, if a cell is missing.

    Each group's mean is a chain of ``map(add, ...)`` over its member
    columns, seeded with ``repeat(0.0)``, then divided by the member
    count: per row, the same operations in the same order as
    ``_row_mean``.
    """
    if not rows:
        return True
    cells = list(zip(*rows))
    done = len(columns[0])
    try:
        for column, (at, k) in zip(columns, plan):
            if k:
                total = repeat(0.0)
                for member in cells[at:at + k]:
                    total = map(add, total, member)
                column.fromlist(list(map(truediv, total, repeat(k))))
            else:
                column.fromlist(list(cells[at]))
    except TypeError:  # float + None, or None into an array('d')
        for column in columns:
            del column[done:]
        return False
    return True


def _split_records(config: PipelineConfig, path, names: list, records) -> tuple:
    """``prepare``'s pass over the raw records; see ``_split_cohort``."""
    known = list(names)
    groups = {}  # group label -> positions of its members in a raw row
    for spec in config.aggregations:
        for m in spec.member_columns:
            if m not in names:
                raise DataError(f"no column named {m!r}")
        if spec.group_name in known:
            raise DataError(f"column {spec.group_name!r} already exists")
        known.append(spec.group_name)
        groups[spec.group_name] = [names.index(m) for m in spec.member_columns]
    members = set()
    for spec in config.aggregations:
        if config.target_name in spec.member_columns:
            raise ConfigError(f"aggregation {spec.group_name!r} would drop the target column")
        members.update(spec.member_columns)
    available = [n for n in known if n not in members]
    include = config.include_columns
    for name in include or ():
        if name not in available:
            raise ConfigError(f"include_columns: no column named {name!r}")
    for name in config.exclude_columns:  # a group member may be excluded too
        if name not in known:
            raise ConfigError(f"exclude_columns: no column named {name!r}")
    cohort, cutoff = config.cohort_column, config.year_cutoff
    if cohort is None or cutoff is None:
        raise ConfigError("prepare needs cohort_column and year_cutoff")
    if cohort not in available:
        raise ConfigError(f"cohort column {cohort!r} not in input")

    columns = [
        n for n in available
        if n != cohort and (
            n == config.target_name
            or (include is None or n in include) and n not in config.exclude_columns
        )
    ]
    # the cells the kept columns read from a raw row, in one itemgetter:
    # a plain column's own cell, or every member of a group
    at, plan = [], []
    for n in columns:
        plan.append((len(at), len(groups[n]) if n in groups else 0))
        at.extend(groups.get(n) or [names.index(n)])
    pick = _picker(at)
    if cohort in groups:  # a group's mean serves as the year
        get_members, k = _picker(groups[cohort]), len(groups[cohort])
        year_of = lambda row: _row_mean(get_members(row), k)  # noqa: E731
    else:
        year_of = itemgetter(names.index(cohort))
    target = names.index(config.target_name)
    next_year = cutoff + 1
    outside = 0
    missing_target, incomplete = [0, 0], [0, 0]
    sides = tuple(_Side([], [array("d") for _ in columns]) for _ in (0, 1))
    blocks = tuple(([], []) for _ in (0, 1))  # per side: picked cells and ids not yet moved

    def flush(side: int) -> None:
        rows, ids = blocks[side]
        if not _move(rows, sides[side].columns, plan):
            # a block that holds a missing cell: drop its incomplete rows
            complete = [None not in cells for cells in rows]
            incomplete[side] += complete.count(False)
            _move(list(compress(rows, complete)), sides[side].columns, plan)
            ids = compress(ids, complete)
        sides[side].ids.extend(ids)
        for pending in blocks[side]:
            pending.clear()

    for line, rid, row in records:
        y = year_of(row)
        if y is None or not -math.inf < y < next_year:
            if y is not None and not math.isfinite(y):
                # a group's mean that overflows would fall into neither
                # side (NaN, +inf) or into training (-inf)
                raise DataError(f"{path}, line {line}, column {cohort!r}: non-finite value {y!r}")
            outside += 1
            continue
        side = 0 if y < cutoff else 1
        if row[target] is None:
            missing_target[side] += 1
            continue
        rows, ids = blocks[side]
        rows.append(pick(row))
        ids.append(rid)
        if len(rows) == _BLOCK_ROWS:
            flush(side)
    flush(0)
    flush(1)

    counts = {
        "dropped_outside_years": outside,
        "columns_in": len(columns),
        "train_dropped_missing_target": missing_target[0],
        "validation_dropped_missing_target": missing_target[1],
        "train_dropped_incomplete": incomplete[0],
        "validation_dropped_incomplete": incomplete[1],
    }
    return columns, sides[0], sides[1], counts


def _split_cohort(config: PipelineConfig, input_path):
    """Raw cohort CSV -> (kept column labels, train side, validation side,
    row and column counts).

    The kept columns are the candidate columns (``include_columns`` less
    ``exclude_columns``; the target is always kept) without the group
    members and the cohort year. Each record goes to the first bucket
    that fits, counting the first three: (1) no cohort year, or one
    outside both windows; (2) a missing target; (3) any other missing
    cell in the kept columns, a group's mean being missing when one of
    its members is; (4) train, a year before ``year_cutoff``; (5)
    validation, a year in ``[year_cutoff, year_cutoff + 1)``.

    The work runs in this order. As ``load_csv`` parses each record, its
    year (a group's mean, formed for that record alone, where the cohort
    column is a group) and then its target decide (1) and (2), and a
    record that passes both keeps, in one tuple, only the cells the kept
    columns read: a plain column's own cell and every member of a kept
    group. Each block of ``_BLOCK_ROWS`` such tuples per side is
    transposed once, each kept group's mean is formed over the block's
    member columns (members added left to right from 0.0, then divided
    by their count), and every kept column is appended to that side's
    ``array('d')``. Only a block that holds a missing cell is gone over
    again row by row: its rows with one are counted in (3) and the rest
    are moved as before.

    The configuration's columns are checked against the header before any
    row is read. ``load_csv`` refuses a non-finite cell as it parses it,
    so only a group's mean can make a year non-finite, by overflowing: it
    is refused at its record, naming the file line and the cohort column.
    """
    split = []
    load_csv(
        input_path, config.target_name, config.id_column,
        lambda names, records: split.extend(_split_records(config, input_path, names, records)),
    )
    return tuple(split)


def run_prepare(config: PipelineConfig, input_path, out_dir) -> dict:
    _make_out_dir(out_dir)
    names, train, validation, counts = _split_cohort(config, input_path)
    if len(train.ids) < 2:  # the correlation filter needs 2 training rows
        raise DataError(
            f"{len(train.ids)} training rows kept (cohort year before year_cutoff "
            f"{config.year_cutoff!r}); prepare needs at least 2"
        )
    standardize_joint(names, config.target_name, train.columns, validation.columns)
    selection = select_by_correlation(
        names, config.target_name, train.columns, config.correlation_threshold
    )
    kept = [names.index(n) for n in selection.kept_columns]
    header = list(selection.kept_columns)
    if config.id_column is not None:
        header.insert(0, config.id_column)
    for side, file_name in ((train, TRAIN_CSV), (validation, VALIDATION_CSV)):
        columns = [side.columns[j] for j in kept]
        if config.id_column is not None:
            columns.insert(0, side.ids)
        write_csv(header, os.path.join(out_dir, file_name), zip(*columns))
    report_mod.dump_json(
        selection.to_json_dict(), os.path.join(out_dir, SELECTION_JSON)
    )
    return {
        "train_rows": len(train.ids),
        "validation_rows": len(validation.ids),
        **counts,
        "columns_kept": len(selection.kept_columns),
        "columns_dropped": len(selection.dropped_columns),
    }


def _read_training(config: PipelineConfig, train_path):
    """The training table, the name of its outlier feature and the label
    of the adaptive model.

    Once the outlier feature is resolved, a table whose running mean of
    up to ``max(max_k, knn_k)`` targets could overflow is refused: its
    predictions would be infinite. The bound is the largest
    ``|target|`` times that depth, widened by a relative margin for the
    rounding of each partial sum.
    """
    train = read_table(train_path, config.target_name, config.id_column)
    outlier = resolve_outlier_feature(train, config)
    depth = min(max(config.ammknn.max_k, config.knn_k), len(train.target))
    largest = max(map(abs, train.target), default=0.0)
    if not math.isfinite(largest * depth * (1 + depth * 2.0**-52)):
        raise DataError(
            f"{train_path}: a running mean of up to {depth} values of target "
            f"{config.target_name!r} overflows"
        )
    return train, outlier, f"ammknn(max_k={config.ammknn.max_k},outlier={outlier})"


def run_loocv(config: PipelineConfig, train_path, out_dir) -> dict:
    _make_out_dir(out_dir)
    train, outlier, model = _read_training(config, train_path)
    outlier_values = train.column(outlier)
    ammknn_predictions, triggered, knn_predictions = loocv(
        train.rows, train.target, outlier_values, config.ammknn, config.knn_k
    )

    ammknn_report = report_mod.build_report(
        "loocv",
        model,
        config,
        train.ids,
        train.target,
        ammknn_predictions,
        config.tiers_predicted,
        outlier_values,
        outlier_triggered=triggered,
    )
    knn_report = report_mod.build_report(
        "loocv",
        f"knn(k={config.knn_k})",
        config,
        train.ids,
        train.target,
        knn_predictions,
        config.tiers_predicted,
        outlier_values,
    )
    report_mod.dump_json(ammknn_report, os.path.join(out_dir, LOOCV_AMMKNN_JSON))
    report_mod.dump_json(knn_report, os.path.join(out_dir, LOOCV_KNN_JSON))
    return {"ammknn": ammknn_report, "knn": knn_report}


def _scored_cohort(config: PipelineConfig, train_path, cohort_path, scored: bool):
    """The adaptive model's label, the cohort as read, its outlier values
    and an iterator of its ``PredictionRecord``s. The training table is
    read first, then the cohort, which must hold exactly the training
    table's feature columns, with or without the target: any other
    cohort, such as a raw one that still holds its year column, is a
    ``DataError``. Every cell is checked before the first record is
    scored."""
    train, outlier, model = _read_training(config, train_path)
    cohort = read_table(
        cohort_path, config.target_name, config.id_column, features=train.features, scored=scored
    )
    outlier_values = cohort.column(outlier)
    records = ammknn_predict_batch(
        cohort.rows, outlier_values, cohort.ids, train.rows, train.target, config.ammknn
    )
    return model, cohort, outlier_values, records


def run_validate(config: PipelineConfig, train_path, cohort_path, out_dir) -> dict:
    _make_out_dir(out_dir)
    model, cohort, outlier_values, records = _scored_cohort(
        config, train_path, cohort_path, scored=True
    )
    predicted, triggered = [], []
    for r in records:
        predicted.append(r.prediction)
        triggered.append(r.outlier_triggered)

    ids = cohort.ids
    bounds = config.tiers_predicted_validation
    validate_report = report_mod.build_report(
        "validation",
        model,
        config,
        ids,
        cohort.target,
        predicted,
        bounds,
        outlier_values,
        outlier_triggered=triggered,
    )
    # worst predicted risk first, so support can be prioritized top-down
    order = sorted(range(len(predicted)), key=lambda i: (predicted[i], i))
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


def run_predict(config: PipelineConfig, train_path, cohort_path, out_dir) -> int:
    """Write one JSON line per cohort row to ``predictions.jsonl``, each
    as it is scored, once every check has passed; returns the count."""
    _make_out_dir(out_dir)
    *_, records = _scored_cohort(config, train_path, cohort_path, scored=False)
    count = 0
    with _open_out(os.path.join(out_dir, PREDICTIONS_JSONL)) as fh:
        for r in records:
            entry = r.to_json_dict()
            entry["tier"] = classify_tier(r.prediction, config.tiers_predicted)
            fh.write(json.dumps(entry))
            fh.write("\n")
            count += 1
    return count


def run_synth(spec_doc: dict, out_dir, seed_override: Optional[int] = None) -> dict:
    """Generate a cohort CSV from a generator spec document.

    The document holds the SynthSpec fields, optionally under sibling key
    "split" the CohortSplit fields, to stamp a cohort-year column for the
    year-cutoff pipeline. Each block of rows is written as it is drawn.
    """
    _make_out_dir(out_dir)
    if not isinstance(spec_doc, dict):
        raise ConfigError("generator spec must be a JSON object")
    doc = dict(spec_doc)
    split = doc.pop("split", None)
    if seed_override is not None:
        doc["seed"] = seed_override
    spec = SynthSpec.from_json_dict(doc)
    if split is not None:
        split = _from_json(CohortSplit, split, "split", seed=spec.seed)
    header, rows = generate_cohort(spec, split)
    path = os.path.join(out_dir, SYNTH_CSV)
    write_csv(header, path, rows)
    return {"rows": spec.n_rows, "columns": len(header) - 1, "path": path}


def run_plot(report_path, kind: str, out_dir) -> str:
    _make_out_dir(out_dir)
    report = _read_json(report_path, DataError, "report")
    try:
        svg = svgplot.render_plot(report, kind)
    except DataError as exc:
        raise DataError(f"{report_path}: {exc}") from None
    out_path = os.path.join(out_dir, f"{kind}.svg")
    with _open_out(out_path) as fh:
        fh.write(svg)
    return out_path
