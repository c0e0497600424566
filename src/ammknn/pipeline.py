"""End-to-end workflow steps behind the CLI subcommands.

Every fault of the configuration that needs no input has been refused
as it was loaded (see ``config``); what is left here needs a file.
prepare: raw cohort CSV -> train/validation CSVs plus the selection audit
JSON. ``_plan`` checks the configuration against the header and plans
the kept columns before the first record is read; the record pass that
follows refuses nothing. Each record is handled as it is read: it is
put on its side of the year cutoff or counted as left out (no usable
year, a missing target), and only the cells its kept columns read are
held, a block of rows at a time. Each block is transposed once; its
group means are formed a column at a time, rows with a missing cell are
counted and left out, and its cells go into one compact column per side
and kept label, so memory follows the kept cells, not the raw table.
Both sides are then jointly standardized and correlation-selected a
column at a time; a selection that keeps no feature is refused.
loocv: prepared training CSV -> adaptive and fixed-k evaluation reports.
validate: prepared train + cohort CSVs -> adaptive report and tier roster.
predict: train + unscored cohort -> prediction records as JSON lines.
Both refuse a cohort whose feature columns are not the training table's.
synth/plot: generator and figure plumbing; synth writes each block of
rows as it is drawn.

Every step writes each output under a temporary name in ``--out`` and
puts them all in place together, with ``os.replace``, only once it has
succeeded (see ``_outputs``). So a step that is refused, or fails for
any other reason, leaves every output as it was and no temporary file.
An ``--out`` that cannot be made a directory, or an output whose path is
a directory, is a ``DataError`` naming it.

Every cell of every input is checked once, as ``frame.load_csv`` parses
its record, and a refusal names the file line and the column. Every
number read lies within ±``frame.BOUND``, so nothing formed from the
cells here (a group's mean, a running mean, a correlation) can overflow,
and no step checks for it. loocv, validate and predict read the
training table whole with ``frame.read_table``, which keeps only what
the step ranks with and refuses a missing cell among it. The outlier
feature is known here alone: ``_read_training`` refuses a training table
of fewer than 2 rows, resolves the feature's name once,
from the configuration or the training table's correlations, and takes
its values from the training table's rows or the cohort's; ``knn`` is
handed those values, never the name. They all score
through one generator, ``knn.score``: a window over the training rows'
feature sums, a ``math.dist`` filter over the rows in it, then exact
left-to-right squared distances for the few rows it keeps, and the
adaptive rule. validate and predict stream the cohort, after its header
has been checked against the training table, through one pass of
``frame.stream_table`` into ``knn.score``: each record is parsed,
checked and ranked in turn, and nothing holds the cohort's feature
cells. A bad cell is found when its record is reached, after the
subjects before it were scored, and the step is refused before any
output is put in place. Each step reads from a subject's tuple only
what it needs, one subject at a time: validate keeps the id, score,
outlier value, prediction and outlier flag for its report, and predict
writes each subject's line as it is scored and keeps nothing. loocv
refuses a ``knn_k`` beyond the n - 1 rows of a fold, ranks each training
row once, held out of its own ranking, and reads both models from that
ranking; there is no pairwise distance cache, because its O(n^2) memory
would outgrow everything else a step holds.
``report.build_report`` turns the predictions into the tiers, tallies
and metrics of a report.

Everything here is deterministic given (config, inputs, seed); re-running
a step produces byte-identical files.
"""

from __future__ import annotations

import errno
import json
import math
import os
from array import array
from contextlib import contextmanager
from itertools import compress, repeat, tee
from operator import add, itemgetter, truediv
from typing import Callable, Iterator, NamedTuple, Optional

from . import report as report_mod
from . import svgplot
from .config import PipelineConfig, _from_json, _read_json
from .errors import ConfigError, DataError
from .frame import Table, _open_out, _picker, load_csv, read_table, stream_table, write_csv
from .knn import score
from .preprocess import _correlations, _spread, left_sum, select_by_correlation, standardize_joint
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


@contextmanager
def _outputs(out_dir) -> Iterator[Callable[[str], str]]:
    """A step's output directory, made (with its parents) if missing, and
    a function from an output's file name to the path to write it at:
    ``<name>.tmp`` in the directory.

    When the step has succeeded, every destination is checked before any
    is replaced: one that is a directory is a ``DataError`` naming it.
    Then each temporary file is moved into place with ``os.replace``. A
    step that fails, for whatever reason, leaves every output as it was
    and no ``<name>.tmp`` of its outputs. An ``--out`` that cannot be made
    a directory, such as an existing file, is a ``DataError`` naming it.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise DataError(
            f"{out_dir}: cannot be used as the output directory ({exc.strerror})"
        ) from None
    finals = []

    def temporary(name: str) -> str:
        finals.append(os.path.join(out_dir, name))
        return finals[-1] + ".tmp"

    try:
        yield temporary
        for final in finals:
            if os.path.isdir(final):
                raise DataError(f"{final}: cannot be written ({os.strerror(errno.EISDIR)})")
        for final in finals:
            os.replace(final + ".tmp", final)
    finally:
        for final in finals:
            if os.path.isfile(final + ".tmp"):
                os.remove(final + ".tmp")


def resolve_outlier_feature(train: Table, config: PipelineConfig, path) -> str:
    """The name of the outlier feature: ``ammknn.outlier_feature`` if set,
    else the feature most positively correlated with the target (largest
    signed r, first on ties).

    The rule fires on *low* feature values, so a feature that correlates
    negatively would flag the strongest students; when every feature
    does, there is no sound default and the config must name one. A
    constant column (or a constant target) counts as r = 0. A configured
    outlier feature must be a feature column (``PipelineConfig`` refuses
    the target). ``path``, the training file, is named in a refusal.
    """
    name = config.ammknn.outlier_feature
    if name is not None:
        if name not in train.features:
            raise ConfigError(f"ammknn.outlier_feature {name!r} is not a feature column of {path}")
        return name
    if not train.features:
        raise DataError(f"{path}: training table has no feature columns")
    correlations = _correlations(map(train.column, train.features), _spread(train.target))
    rs = [0.0 if r is None else r for r in correlations]  # a constant column carries no signal
    best_r = max(rs)
    best = train.features[rs.index(best_r)]
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
    added left to right from 0.0 by ``left_sum``."""
    try:
        return left_sum(cells) / k
    except TypeError:  # float + None: a missing member cell
        return None


def _move(rows: list, columns: list, layout: list) -> bool:
    """Append a block of picked rows to ``columns``, one kept column per
    ``(first cell, member count)`` of ``layout``: a plain column's one cell,
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
        for column, (at, k) in zip(columns, layout):
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


def _plan(config: PipelineConfig, names: list) -> tuple:
    """``prepare``'s column plan, made from the header ``names`` (the id
    column left out) before the first record is read: the kept column
    labels, their ``(first cell, member count)`` layout in a picked row,
    the picker of those cells from a raw row, the year reader and the
    target's position.

    Every check of the configuration that needs the header is made here,
    each a ``ConfigError``: an aggregation member, an ``include_columns``
    or ``exclude_columns`` name or a cohort column that the input lacks,
    a group named like an input column, and candidate columns that hold
    no feature; so is ``prepare``'s need of a cohort column and a year
    cutoff. ``PipelineConfig`` has made every check that needs no
    header."""
    groups = {}  # group label -> positions of its members in a raw row
    for spec in config.aggregations:
        g = spec.group_name
        for m in spec.member_columns:
            if m not in names:
                raise ConfigError(f"aggregation {g!r}: no column named {m!r}")
        if g in names:
            raise ConfigError(f"aggregation {g!r}: column {g!r} already exists in the input")
        groups[g] = [names.index(m) for m in spec.member_columns]
    members = {m for spec in config.aggregations for m in spec.member_columns}
    known = names + list(groups)
    available = [n for n in known if n not in members]
    include = config.include_columns
    for name in include or ():
        if name not in available:
            raise ConfigError(f"include_columns: no column named {name!r}")
    for name in config.exclude_columns:  # a group member may be excluded too
        if name not in known:
            raise ConfigError(f"exclude_columns: no column named {name!r}")
    cohort = config.cohort_column
    if cohort is None or config.year_cutoff is None:
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
    if len(columns) < 2:  # the target is always kept
        raise ConfigError(
            "no candidate feature column is left once the cohort column, "
            "include_columns and exclude_columns are applied"
        )
    # the cells the kept columns read from a raw row, in one itemgetter:
    # a plain column's own cell, or every member of a group
    at, layout = [], []
    for n in columns:
        layout.append((len(at), len(groups[n]) if n in groups else 0))
        at.extend(groups.get(n) or [names.index(n)])
    if cohort in groups:  # a group's mean serves as the year
        get_members, k = _picker(groups[cohort]), len(groups[cohort])
        year_of = lambda row: _row_mean(get_members(row), k)  # noqa: E731
    else:
        year_of = itemgetter(names.index(cohort))
    return columns, layout, _picker(at), year_of, names.index(config.target_name)


def _split_records(plan: tuple, cutoff: float, records) -> tuple:
    """``prepare``'s pass over the raw records, by the column plan of
    ``_plan``; see ``_split_cohort``. It refuses nothing: the plan was
    checked against the header, and ``load_csv`` checks each cell."""
    columns, layout, pick, year_of, target = plan
    next_year = cutoff + 1
    outside = 0
    missing_target, incomplete = [0, 0], [0, 0]
    sides = tuple(_Side([], [array("d") for _ in columns]) for _ in (0, 1))
    blocks = tuple(([], []) for _ in (0, 1))  # per side: picked cells and ids not yet moved

    def flush(side: int) -> None:
        rows, ids = blocks[side]
        if not _move(rows, sides[side].columns, layout):
            # a block that holds a missing cell: drop its incomplete rows
            complete = [None not in cells for cells in rows]
            incomplete[side] += complete.count(False)
            _move(list(compress(rows, complete)), sides[side].columns, layout)
            ids = compress(ids, complete)
        sides[side].ids.extend(ids)
        for pending in blocks[side]:
            pending.clear()

    for _, rid, row in records:
        y = year_of(row)
        if y is None or not y < next_year:
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

    ``_plan`` checks the configuration's columns against the header
    before any row is read. ``load_csv`` refuses a cell beyond
    ±``frame.BOUND`` as it parses it, so every year, a group's mean
    included, is finite.
    """
    split = []
    load_csv(
        input_path, config.target_name, config.id_column,
        lambda names, records: split.extend(
            _split_records(_plan(config, names), config.year_cutoff, records)
        ),
    )
    return tuple(split)


def run_prepare(config: PipelineConfig, input_path, out_dir) -> dict:
    """Every refusal of the kept rows names ``input_path``."""
    with _outputs(out_dir) as out:
        names, train, validation, counts = _split_cohort(config, input_path)
        if len(train.ids) < 2:  # the correlation filter needs 2 training rows
            raise DataError(
                f"{input_path}: {len(train.ids)} training rows kept (cohort year before "
                f"year_cutoff {config.year_cutoff!r}); prepare needs at least 2"
            )
        try:
            standardize_joint(names, config.target_name, train.columns, validation.columns)
            selection = select_by_correlation(
                names, config.target_name, train.columns, config.correlation_threshold
            )
        except DataError as exc:  # a column without spread
            raise DataError(f"{input_path}: {exc}") from None
        if len(selection.kept_columns) < 2:  # the target is always kept
            raise DataError(
                f"{input_path}: no feature column correlates with the target at "
                f"correlation_threshold {config.correlation_threshold!r} or above"
            )
        kept = [names.index(n) for n in selection.kept_columns]
        header = list(selection.kept_columns)
        if config.id_column is not None:
            header.insert(0, config.id_column)
        for side, file_name in ((train, TRAIN_CSV), (validation, VALIDATION_CSV)):
            columns = [side.columns[j] for j in kept]
            if config.id_column is not None:
                columns.insert(0, side.ids)
            write_csv(header, out(file_name), zip(*columns))
        report_mod.dump_json(selection.to_json_dict(), out(SELECTION_JSON))
    return {
        "train_rows": len(train.ids),
        "validation_rows": len(validation.ids),
        **counts,
        "columns_kept": len(selection.kept_columns),
        "columns_dropped": len(selection.dropped_columns),
    }


def _read_training(config: PipelineConfig, train_path):
    """The training table, the name of its outlier feature and the label
    of the adaptive model. A table of fewer than 2 rows is refused,
    whatever the configuration: no step can rank against it."""
    train = read_table(train_path, config.target_name, config.id_column)
    if len(train.rows) < 2:
        raise DataError(f"{train_path}: {len(train.rows)} training rows; at least 2 are needed")
    outlier = resolve_outlier_feature(train, config, train_path)
    return train, outlier, f"ammknn(max_k={config.ammknn.max_k},outlier={outlier})"


def run_loocv(config: PipelineConfig, train_path, out_dir) -> dict:
    with _outputs(out_dir) as out:
        train, outlier, model = _read_training(config, train_path)
        k, n = config.knn_k, len(train.rows)
        if k > n - 1:
            raise DataError(f"{train_path}: k={k} exceeds {n - 1} training rows per fold")
        outlier_values = train.column(outlier)
        depth = max(config.ammknn.max_k, k)
        ammknn_predictions, triggered, knn_predictions = [], [], []
        for _, _, means, prediction, fired in score(
            train.rows, train.target, train.rows, outlier_values, config.ammknn, depth,
            held_out=True,
        ):
            ammknn_predictions.append(prediction)
            triggered.append(fired)
            knn_predictions.append(means[k - 1])

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
        report_mod.dump_json(ammknn_report, out(LOOCV_AMMKNN_JSON))
        report_mod.dump_json(knn_report, out(LOOCV_KNN_JSON))
    return {"ammknn": ammknn_report, "knn": knn_report}


def _scored_cohort(
    config: PipelineConfig, train_path, cohort_path, scored: bool, consume: Callable
) -> tuple:
    """Score a cohort as it is read: the adaptive model's label and the
    count of the cohort's records.

    The training table is read whole first; then the cohort is read in
    one pass of ``frame.stream_table``. Its header must hold exactly the
    training table's feature columns, with or without the target: any
    other cohort, such as a raw one that still holds its year column, is
    a ``DataError`` before the first record is read or scored. Then
    ``consume`` is called once with an iterator of ``(id, target or None,
    outlier value, the subject's tuple from knn.score)``: each record is
    parsed, its cells are checked, and it is ranked as ``consume`` asks
    for it, so nothing holds the cohort. A bad cell is refused when its
    record is reached, after the subjects before it have been scored;
    the step's outputs are put in place only once it has succeeded (see
    ``_outputs``)."""
    train, outlier, model = _read_training(config, train_path)
    at = train.features.index(outlier)

    def rank(_: tuple, rows: Iterator) -> None:
        # one pass of the file feeds the ranking and the consumer alike
        entries, subjects, values = tee(rows, 3)
        results = score(
            train.rows, train.target, map(itemgetter(1), subjects),
            map(itemgetter(at), map(itemgetter(1), values)), config.ammknn, config.ammknn.max_k,
        )
        consume((rid, target, row[at], result) for (rid, row, target), result in zip(entries, results))

    shape = stream_table(
        cohort_path, config.target_name, config.id_column, rank, train.features, scored
    )
    return model, shape.n_rows


def run_validate(config: PipelineConfig, train_path, cohort_path, out_dir) -> dict:
    """Of each subject, only what the report reads is kept: its id, score,
    outlier value, prediction and outlier flag."""
    with _outputs(out_dir) as out:
        ids, actual, outlier_values, predicted, triggered = [], [], [], [], []

        def keep(subjects: Iterator) -> None:
            for rid, target, value, (*_, prediction, fired) in subjects:
                ids.append(rid)
                actual.append(target)
                outlier_values.append(value)
                predicted.append(prediction)
                triggered.append(fired)

        model, _ = _scored_cohort(config, train_path, cohort_path, True, keep)
        validate_report = report_mod.build_report(
            "validation",
            model,
            config,
            ids,
            actual,
            predicted,
            config.tiers_predicted_validation,
            outlier_values,
            outlier_triggered=triggered,
        )
        # worst predicted risk first, so support can be prioritized top-down;
        # the sort is stable, so tied predictions keep cohort order
        roster = [
            {"id": s["id"], "predicted": s["predicted"], "tier": s["tier_predicted"]}
            for s in sorted(validate_report["subjects"], key=itemgetter("predicted"))
        ]
        report_mod.dump_json(validate_report, out(VALIDATE_JSON))
        report_mod.dump_json(roster, out(ROSTER_JSON))
    return {"report": validate_report, "roster": roster}


def run_predict(config: PipelineConfig, train_path, cohort_path, out_dir) -> int:
    """Write one JSON line per cohort row to ``predictions.jsonl``, each
    as it is scored; returns the count. Nothing is kept of a subject once
    its line is written but its id, which a repeat is refused against. A
    cell is checked as its record is reached, so a refusal can come after
    earlier lines were written; those lines go to the temporary file,
    which is put in place only once every record has been scored (see
    ``_outputs``)."""
    with _outputs(out_dir) as out:

        def write(subjects: Iterator) -> None:
            with _open_out(out(PREDICTIONS_JSONL)) as fh:
                for rid, _, value, (ranked, targets, means, prediction, fired) in subjects:
                    fh.write(json.dumps({
                        "subject_id": rid,
                        "neighbors": [[j, math.sqrt(sq)] for sq, j in ranked],
                        "cumulative_means": means,
                        "min_of_means": min(means),
                        "min_match": min(targets),
                        "outlier_value": value,
                        "outlier_triggered": fired,
                        "prediction": prediction,
                        "tier": classify_tier(prediction, config.tiers_predicted),
                    }))
                    fh.write("\n")

        _, count = _scored_cohort(config, train_path, cohort_path, False, write)
    return count


def run_synth(spec_doc: dict, out_dir, seed_override: Optional[int] = None) -> dict:
    """Generate a cohort CSV from a generator spec document.

    The document holds the SynthSpec fields, optionally under sibling key
    "split" the CohortSplit fields, to stamp a cohort-year column for the
    year-cutoff pipeline. Each block of rows is written as it is drawn.
    """
    with _outputs(out_dir) as out:
        if not isinstance(spec_doc, dict):
            raise ConfigError("generator spec must be a JSON object")
        doc = dict(spec_doc)
        split = doc.pop("split", None)
        if seed_override is not None:
            doc["seed"] = seed_override
        spec = _from_json(SynthSpec, doc, "generator spec")
        if split is not None:
            split = _from_json(CohortSplit, split, "split", seed=spec.seed)
        header, rows = generate_cohort(spec, split)
        write_csv(header, out(SYNTH_CSV), rows)
    return {"rows": spec.n_rows, "columns": len(header) - 1, "path": os.path.join(out_dir, SYNTH_CSV)}


def run_plot(report_path, kind: str, out_dir) -> str:
    with _outputs(out_dir) as out:
        report = _read_json(report_path, DataError, "report")
        try:
            svg = svgplot.render_plot(report, kind)
        except DataError as exc:
            raise DataError(f"{report_path}: {exc}") from None
        with _open_out(out(f"{kind}.svg")) as fh:
            fh.write(svg)
    return os.path.join(out_dir, f"{kind}.svg")
