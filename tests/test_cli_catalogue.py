"""Every refusal of the command line, in one catalogue of cases, each run
through ``cli.main`` and checked the same way.

A case changes inputs of one step of the seed-7 run, whose inputs and
outputs are the fixtures under ``tests/golden``: the config or the
generator spec, a CSV table, a report, or the ``--out`` path. Before the
run, each output file of the step is seeded with a sentinel. A refusal
case gives its exit code and its message, and ``test_refusal`` checks
every one alike:

- the exit code is the one given, 2 (a config error) or 3 (a data
  error), never 4 (a bug);
- stderr is one line, ``config error: `` or ``data error: `` and the
  message;
- a data error's message starts with the path of a file the case
  changed (the step's input or ``--out``, when only the config changed),
  and a cell fault names its file line and column;
- every seeded output file still holds its sentinel, and nothing else
  is written under ``--out``: no output is put in place, nor any
  temporary file left, by a step that is refused.

An accepted case (exit 0) gives instead a check of the step's output
files against the unchanged run's; most say that not a byte differs.
A message names each path by its input, as ``{train}`` or ``{out}``.
A changed table may be read through a FIFO, which cannot seek, as
``--cohort <(cat cohort.csv)`` reads it.
"""

import json
import os
import re
import tempfile
import threading
from dataclasses import is_dataclass
from functools import reduce
from pathlib import Path
from typing import Callable, NamedTuple, Union, get_args, get_origin, get_type_hints

import pytest

from ammknn.cli import main
from ammknn.config import PipelineConfig
from ammknn.synth import CohortSplit, SynthSpec

GOLDEN = Path(__file__).parent / "golden"
SEED7 = GOLDEN / "seed7"

# each input of a step, by its flag, and the fixture it is read from
INPUTS = {
    "config": GOLDEN / "config.json",
    "spec": GOLDEN / "spec.json",
    "input": SEED7 / "cohort.csv",
    "train": SEED7 / "train.csv",
    "cohort": SEED7 / "validation.csv",
    "report": SEED7 / "validate_ammknn.json",
}

# each step: the inputs it reads and the files it writes
STEPS = {
    "synth": (["spec"], ["cohort.csv"]),
    "prepare": (["config", "input"], ["train.csv", "validation.csv", "selection.json"]),
    "loocv": (["config", "train"], ["loocv_ammknn.json", "loocv_knn.json"]),
    "validate": (["config", "train", "cohort"], ["validate_ammknn.json", "roster.json"]),
    "predict": (["config", "train", "cohort"], ["predictions.jsonl"]),
    "plot": (["report"], ["scatter.svg"]),
    "plot --kind packrat_scatter": (["report"], ["packrat_scatter.svg"]),
}

SENTINEL = b"written before the run\n"


class Case(NamedTuple):
    step: str  # a key of STEPS
    changes: dict  # input -> a change of its text, or "out" -> of the --out path
    code: int  # 0, 2 or 3
    expect: Union[str, Callable]  # the message, or for exit 0 a check of the outputs


def case(step, code, expect, **changes):
    return Case(step, changes, code, expect)


# --------------------------------------------------------------------------
# changes
# --------------------------------------------------------------------------

DIRECTORY = object()  # a change's result: a directory in the file's place
DROP = object()  # a value of doc_with: the key is deleted


class Piped(NamedTuple):
    """A change's result: its text, read through a FIFO in the file's place."""

    text: str


def piped(change):
    """``change``, its result read through a FIFO."""
    return lambda text: Piped(change(text))


def _feed(path, data):
    """Write ``data`` into the FIFO at ``path`` once a reader opens it; a
    reader that refuses a record closes the pipe before reading the rest."""
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except BrokenPipeError:
        pass


def missing(text):
    return None  # no file at all


def directory(text):
    return DIRECTORY


def _as_directory(path):
    path.unlink()
    path.mkdir()


def doc_with(changes):
    """A JSON document with each dotted key path of ``changes`` (a list
    index counting as a key) set to its value, or deleted for ``DROP``."""

    def change(text):
        doc = json.loads(text)
        for path, value in changes.items():
            *outer, key = path.split(".")
            node = reduce(lambda n, k: n[int(k) if isinstance(n, list) else k], outer, doc)
            key = int(key) if isinstance(node, list) else key
            if value is DROP:
                del node[key]
            else:
                node[key] = value
        return json.dumps(doc)

    return change


def rows_of(edit):
    """A CSV changed by ``edit`` of its list of rows, each a list of cells
    (no fixture quotes a cell), header first; line ends stay CRLF."""
    return lambda text: "".join(
        ",".join(row) + "\r\n" for row in edit([line.split(",") for line in text.splitlines()])
    )


def cells(column, text, rows=None):
    """A CSV with ``column`` set to ``text`` (or ``text(old cell)``) in each
    data row of ``rows`` (the first is 0), or in every data row."""

    def edit(table):
        j = table[0].index(column)
        for i in range(len(table) - 1) if rows is None else rows:
            cell = table[i + 1][j]
            table[i + 1][j] = text(cell) if callable(text) else text
        return table

    return rows_of(edit)


def without(column):
    """A CSV without ``column``."""
    return rows_of(lambda table: [r[:table[0].index(column)] + r[table[0].index(column) + 1:]
                                  for r in table])


def first(n):
    """A CSV of its header and first ``n`` data rows."""
    return rows_of(lambda table: table[:n + 1])


def then(*changes):
    return lambda text: reduce(lambda t, change: change(t), changes, text)


def blank_line_after(n):
    """A CSV with a blank line after its ``n``-th data row."""
    return rows_of(lambda table: [*table[:n + 1], [""], *table[n + 1:]])


def repeated_id(table):
    """The third data row under the second's id."""
    return [*table[:3], [table[2][0], *table[3][1:]], *table[4:]]


def twice_over(table):
    """The rows twice over, the copy under fresh ids."""
    return table + [[f"{r[0]}-2", *r[1:]] for r in table[1:]]


def negated(cell):
    return cell[1:] if cell.startswith("-") else "-" + cell


def r_quoted(text):
    """A CSV as R's ``write.csv`` writes it: the header and the ids (the
    text column) quoted, numbers bare, LF line ends."""
    lines = text.splitlines()
    return "".join(
        ",".join(f'"{c}"' if i == 0 or j == 0 else c for j, c in enumerate(line.split(","))) + "\n"
        for i, line in enumerate(lines)
    )


def renamed(old, new):
    """A CSV with the id ``old`` given as ``new``, quoted as it must be."""
    return lambda text: text.replace(f"\n{old},", f'\n"{new}",')


def _id_on_line(table, line):
    return INPUTS[table].read_text(encoding="utf-8").splitlines()[line - 1].split(",")[0]


# ids of the seed-7 fixtures: S007 is the first validation row
ID, COMMA_ID = "S007", "Doe, Jane"

FEATURES = [f"f{j:02d}" for j in (*range(1, 13), *range(15, 20))]  # of train.csv
POSITIVE = [f for f in FEATURES if f not in ("f15", "f17")]  # by r with the score


def _training_rows():
    """The data rows of the raw input that prepare puts on the training
    side (the first is 0): those whose cohort year is before 2019."""
    lines = INPUTS["input"].read_text(encoding="utf-8").splitlines()
    header, *rows = (line.split(",") for line in lines)
    return [i for i, row in enumerate(rows) if float(row[header.index("cohort")]) < 2019.0]


TRAINING_ROWS = _training_rows()

# the file line of the last record of the cohort
LAST_LINE = len(INPUTS["cohort"].read_text(encoding="utf-8").splitlines())


# --------------------------------------------------------------------------
# the catalogue
# --------------------------------------------------------------------------

# each step's CSV inputs
TABLES = [
    ("prepare", "input"), ("loocv", "train"), ("validate", "train"),
    ("validate", "cohort"), ("predict", "train"), ("predict", "cohort"),
]
RANKING = ["loocv", "validate", "predict"]
CONFIGURED = ["prepare", *RANKING]

CELL_FAULTS = [
    ("x1", "non-numeric cell 'x1'"),
    ("nan", "non-finite value nan"),
    ("-inf", "non-finite value -inf"),
    ("1e999", "non-finite value inf"),
    ("", "missing cell"),
]

# faults of the config alone: every step refuses them as it loads it
CONFIG_FAULTS = [
    ({"ammknn.outlier_feature": "score"},
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
    # a flag must name a student
    ({"id_column": DROP}, "config is missing ['id_column']"),
    ({"id_column": None}, "id_column is required"),
    ({"id_column": ""}, "id_column is required"),
    # a value of the wrong JSON type: a list was hashed as a column name,
    # and text was split into one column name per character
    ({"id_column": ["student_id"]}, """bad config value for 'id_column': ["student_id"] is not text"""),
    ({"exclude_columns": "f01"}, """bad config value for 'exclude_columns': "f01" is not a list"""),
    ({"sweep_cutoffs": "349"}, """bad config value for 'sweep_cutoffs': "349" is not a list"""),
    ({"correlation_threshold": 1.5}, "correlation_threshold must be in [0, 1]"),
    # the only check of knn_k >= 1: loocv's fold-size check assumes it
    ({"knn_k": 0}, "knn_k must be >= 1"),
    ({"ammknn.max_k": 0}, "max_k must be >= 1, got 0"),
    ({"tiers_actual": {"fail_below": 375.0, "at_risk_upper": 350.0}},
     "fail_below 375.0 must be below at_risk_upper 350.0"),
    ({"tiers_predicted.at_risk_upper": 900.0}, "tier boundary 900.0 outside score range"),
    ({"id_column": "score"}, "id_column and target_name both name 'score'"),
    ({"id_column": "cohort"}, "id_column and cohort_column both name 'cohort'"),
    ({"sweep_cutoffs": []}, "sweep_cutoffs must be non-empty"),
    ({"cohort_column": "score"}, "cohort_column and target_name both name 'score'"),
]

# faults of the config against prepare's raw input, or in the aggregations
# that only prepare applies
PREPARE_CONFIG_FAULTS = [
    ({"target_name": "nonexistent"}, "{input}: target 'nonexistent' not in header"),
    ({"year_cutoff": None}, "prepare needs cohort_column and year_cutoff"),
    ({"cohort_column": "year"}, "cohort column 'year' not in input"),
    ({"aggregations": [{"group_name": "g", "member_columns": ["cohort", "f01"]}]},
     "cohort_column: 'cohort' is a member of aggregation 'g'"),
    ({"aggregations": [{"group_name": "g", "member_columns": ["f01", "f99"]}]},
     "aggregation 'g': no column named 'f99'"),
    # a member named twice would weigh twice in the group's mean
    ({"aggregations": [{"group_name": "g", "member_columns": ["f01", "f01", "f02"]}]},
     "aggregation 'g': member 'f01' is listed twice"),
    ({"aggregations": [{"group_name": "g", "member_columns": ["f01", "f02"]}],
      "include_columns": ["f01"]},
     "include_columns: 'f01' is a member of aggregation 'g'"),
    ({"include_columns": ["f01", "f99"]}, "include_columns: no column named 'f99'"),
    ({"exclude_columns": ["f1"]}, "exclude_columns: no column named 'f1'"),
    # the input is fine: a group named like one of its columns is the
    # config's fault, and the group is named
    ({"aggregations": [{"group_name": "f01", "member_columns": ["f02"]}]},
     "aggregation 'f01': column 'f01' already exists in the input"),
    # prepare wrote a train.csv of only student_id,score, which loocv refused
    ({"include_columns": []}, "no candidate feature column is left once the cohort column, "
     "include_columns and exclude_columns are applied"),
    ({"exclude_columns": [f"f{j:02d}" for j in range(1, 21)]},
     "no candidate feature column is left once the cohort column, "
     "include_columns and exclude_columns are applied"),
    # an outlier feature that train.csv would not hold: prepare wrote its
    # outputs, and every later step refused the config
    ({"ammknn.outlier_feature": "nope"}, "ammknn.outlier_feature: no column named 'nope'"),
    ({"ammknn.outlier_feature": "f05", "exclude_columns": ["f05"]},
     "ammknn.outlier_feature: 'f05' is in exclude_columns"),
    ({"ammknn.outlier_feature": "f02", "include_columns": ["f01"]},
     "ammknn.outlier_feature: 'f02' is not in include_columns"),
    ({"ammknn.outlier_feature": "f01",
      "aggregations": [{"group_name": "g1", "member_columns": ["f01", "f02"]}]},
     "ammknn.outlier_feature: 'f01' is a member of aggregation 'g1'"),
    ({"ammknn.outlier_feature": "cohort"}, "ammknn.outlier_feature: 'cohort' is the cohort column"),
    # f20's r is -0.03457483, and the selection drops it
    ({"ammknn.outlier_feature": "f20"},
     "ammknn.outlier_feature 'f20' is dropped by the selection: its r with the target, "
     "-0.034574831188139636, is below correlation_threshold 0.1"),
]

# stanzas that must not be read: not an object, or an unknown or missing key
STANZA_FAULTS = [
    ({"ammknn": None}, "ammknn must be a JSON object, got null"),
    ({"ammknn": "x"}, 'ammknn must be a JSON object, got "x"'),
    ({"ammknn": {"max_K": 5}}, "unknown ammknn keys: ['max_K']"),
    ({"tiers_actual": {"fail_below": 350.0, "at_risk_upper": 375.0, "pass_at": 400.0}},
     "unknown tiers_actual keys: ['pass_at']"),
    ({"tiers_predicted_validation": {"fail_below": 350.0}},
     "tiers_predicted_validation is missing ['at_risk_upper']"),
    ({"aggregations": [{"group_name": "g", "member_columns": ["f01"], "weights": [1]}]},
     "unknown aggregations entry keys: ['weights']"),
]

SPEC_FAULTS = [
    ({"n_rows": 0}, "n_rows must be positive"),
    ({"n_features": 0}, "n_features must be positive"),
    ({"signal_features": 21}, "signal_features must be in [1, n_features]"),
    ({"noise_sd": 0.0}, "noise_sd must be positive, with 8.6 * (1 + noise_sd) within 1e+50, got 0.0"),
    # finite, but the noise overflows or a drawn cell would lie beyond
    # the bound that prepare holds every cell to
    ({"noise_sd": 1e308}, "noise_sd must be positive, with 8.6 * (1 + noise_sd) within 1e+50, "
     "got 1e+308"),
    ({"noise_sd": 1e60}, "noise_sd must be positive, with 8.6 * (1 + noise_sd) within 1e+50, "
     "got 1e+60"),
    ({"target_range": [200.0]}, "target_range must be [low, high], got [200.0]"),
    ({"target_range": [800.0, 200.0]}, "target_range low must be below high"),
    ({"target_range": [-1e308, 1e308]},
     "target_range bounds must lie within ±1e+50, got [-1e+308, 1e+308]"),
    # each bound within ±1e50, but the mapped scores are not
    ({"target_range": [200.0, 1e50]}, "target_range [200.0, 1e+50] with fail_rate_hint 0.07 "
     "puts scores beyond ±1e+50"),
    ({"fail_rate_hint": 1.5}, "fail_rate_hint must be in (0, 1)"),
    ({"n_rows": 1}, "a split needs n_rows >= 2, got 1"),
    ({"split.train_fraction": 1.5}, "train_fraction must be in (0, 1), got 1.5"),
    # synth wrote these cohorts, and prepare refused them: a repeated
    # header name, or a year cell beyond the bound
    ({"split.column": "f01"}, "split column 'f01' is already a generated column"),
    ({"split.column": "score"}, "split column 'score' is already a generated column"),
    ({"split.column": "student_id"}, "split column 'student_id' is already a generated column"),
    # synth wrote a column named None
    ({"split.column": None}, "column is required"),
    ({"split.train_year": 1e300}, "split train_year 1e+300 lies beyond ±1e+50"),
    ({"split.validation_year": -1e51}, "split validation_year -1e+51 lies beyond ±1e+50"),
    ({"split": {"train_fraction": 0.808, "validaton_year": 2020}},
     "unknown split keys: ['validaton_year']"),
]


def _number_fields(cls):
    """(key path, int or float, whether a tuple) of each number field of
    ``cls``, its tuples of numbers and nested stanzas included."""
    for name, hint in get_type_hints(cls).items():
        if get_origin(hint) is Union:  # Optional[X]
            hint = get_args(hint)[0]
        if is_dataclass(hint):
            for path, kind, many in _number_fields(hint):
                yield (name, *path), kind, many
        elif get_origin(hint) is tuple and get_args(hint)[0] in (int, float):
            yield (name,), get_args(hint)[0], True
        elif hint in (int, float):
            yield (name,), hint, False


def _number_case(step, document, stanza, path, kind, many, bad):
    """A config or spec with one number field (a tuple's last entry) given
    a value that is not a number of its kind."""
    if isinstance(bad, (bool, str)):
        why = f"{json.dumps(bad, ensure_ascii=False)} is not a number"
    elif kind is int:
        why = "cannot convert float NaN to integer" if bad != bad else f"{bad!r} is not an integer"
    else:
        why = f"{bad!r} is not finite"
    key = path[-1] + (" entry" if many else "")
    stanza = path[-2] if len(path) > 1 else stanza

    def change(text):
        doc = json.loads(text)
        node = reduce(lambda n, k: n[k], path[:-1], doc)
        old = node[path[-1]]
        node[path[-1]] = [*old[:-1], bad] if many else bad
        return json.dumps(doc)

    return case(step, 2, f"bad {stanza} value for '{key}': {why}", **{document: change})


# JSON NaN, Infinity, -Infinity, true and text for each float; a fraction,
# true, NaN and text for each int; text that int() and float() would read
NUMBER_CASES = [
    _number_case(step, document, stanza, prefix + path, kind, many, bad)
    for step, document, stanza, cls, prefix in (
        ("validate", "config", "config", PipelineConfig, ()),
        ("synth", "spec", "generator spec", SynthSpec, ()),
        ("synth", "spec", "generator spec", CohortSplit, ("split",)),
    )
    for path, kind, many in _number_fields(cls)
    for bad in ([2.5, True, float("nan")] if kind is int
                else [float("nan"), float("inf"), float("-inf"), "nan", True]) + ["12", "1_2", "٣"]
]

REFUSALS = [
    # -- the config and the spec as files --
    case("loocv", 2, "{config}: no such config file", config=missing),
    case("prepare", 2, "{config}: is a directory, not a config file", config=directory),
    case("prepare", 2, "{config}: not UTF-8 text",
         config=lambda text: json.dumps({"exclude_columns": ["José"]}, ensure_ascii=False).encode("latin-1")),
    case("prepare", 2, "config is missing ['target_name', 'id_column']",
         config=lambda text: json.dumps({"correlation_threshold": 0.1})),
    case("synth", 2, "{spec}: no such spec file", spec=missing),
    case("synth", 2, "{spec}: is a directory, not a spec file", spec=directory),
    case("synth", 2, "generator spec must be a JSON object", spec=lambda text: f"[{text}]"),
    # -- faults of the config and the spec --
    *(case(step, 2, message, config=doc_with(change))
      for step in CONFIGURED for change, message in CONFIG_FAULTS),
    *(case("prepare", 2, message, config=doc_with(change)) for change, message in PREPARE_CONFIG_FAULTS),
    *(case("prepare", 2, message, config=doc_with(change)) for change, message in STANZA_FAULTS),
    *(case(step, 2, "ammknn.outlier_feature 'f99' is not a feature column of {train}",
           config=doc_with({"ammknn.outlier_feature": "f99"})) for step in RANKING),
    *(case("synth", 2, message, spec=doc_with(change)) for change, message in SPEC_FAULTS),
    *NUMBER_CASES,
    # -- any CSV table --
    *(c for step, table in TABLES for c in (
        case(step, 3, f"{{{table}}}: file is empty", **{table: lambda text: ""}),
        case(step, 3, f"{{{table}}}: blank header row",
             **{table: lambda text: "\r\n" + text.split("\r\n", 1)[1]}),
        case(step, 3, f"{{{table}}}: duplicate column names in header",
             **{table: lambda text: text.replace("f02", "f01", 1)}),
        case(step, 2, f"{{{table}}}: id column 'student_id' not in header", **{table: without("student_id")}),
        # a roster entry must name one student: a repeated id gave two
        # entries for one id, and an empty one an entry no educator can act on
        case(step, 3, f"{{{table}}}, line 4: empty id", **{table: cells("student_id", "", [2])}),
        case(step, 3, f"{{{table}}}, lines 3 and 4 have the same id '{_id_on_line(table, 3)}'",
             **{table: rows_of(repeated_id)}),
        # one blank line before the bad cell: the line an editor shows counts it
        *(case(step, 3, f"{{{table}}}, line 7, column 'f05': {problem}",
               **{table: then(cells("f05", text, [4]), blank_line_after(1))})
          for text, problem in CELL_FAULTS
          if not (step == "prepare" and text == "")),  # prepare leaves such a row out
    )),
    # -- the raw input of prepare --
    case("prepare", 3, "{input}: no such file", input=missing),
    case("prepare", 3, "{input}: is a directory, not a CSV file", input=directory),
    case("prepare", 3, "{input}: not UTF-8 text", input=lambda text: text.replace("S001", "José").encode("latin-1")),
    case("prepare", 3, "{input}, line 3: 22 fields, header has 23",
         input=rows_of(lambda t: [*t[:2], t[2][:-1], *t[3:]])),
    # a square overflowed, so an sd was inf; the score's made every r 0.0
    case("prepare", 3, "{input}, line 2, column 'f05': value 1e+200 beyond ±1e+50",
         input=cells("f05", "1e200", [0])),
    case("prepare", 3, "{input}, line 2, column 'score': value 1e+200 beyond ±1e+50",
         input=cells("score", "1e200", [0])),
    *(case("prepare", 3, f"{{input}}, line 6, column 'cohort': {why}", input=cells("cohort", year, [4]))
      for year, why in [("nan", "non-finite value nan"), ("inf", "non-finite value inf"),
                        ("-inf", "non-finite value -inf"), ("1e308", "value 1e+308 beyond ±1e+50"),
                        ("-1e308", "value -1e+308 beyond ±1e+50")]),
    case("prepare", 3, "{input}: 0 training rows kept (cohort year before year_cutoff 2019.0); "
         "prepare needs at least 2", input=cells("cohort", "2019.0")),
    # a row with a missing cell is left out, and not counted
    case("prepare", 3, "{input}: 1 training rows kept (cohort year before year_cutoff 2019.0); "
         "prepare needs at least 2",
         input=then(cells("cohort", "2019.0"), cells("cohort", "2018.0", [0, 1]), cells("f05", "", [1]))),
    # a year from a group is missing where a member is
    case("prepare", 3, "{input}: 0 training rows kept (cohort year before year_cutoff 2019.0); "
         "prepare needs at least 2",
         config=doc_with({"cohort_column": "year",
                          "aggregations": [{"group_name": "year", "member_columns": ["cohort"]}]}),
         input=cells("cohort", "")),
    # more rows than a block, on the training side
    case("prepare", 3, "{input}: column 'f03' has zero variance",
         input=then(rows_of(twice_over), cells("f03", "1.5"))),
    # the mean of these does not round back to the value: every deviation
    # was one tiny eps, and prepare logged an r of about -3e-16
    *(case("prepare", 3, "{input}: column 'f03' has zero variance", input=cells("f03", value))
      for value in ("0.1", "444.3")),
    # its training z-scores are one value, whose mean does not round back
    # to it: prepare logged an r of about -3e-16 and kept the rest
    case("prepare", 3, "{input}: column 'f03' has no r with the target: it is constant, or "
         "nearly so, in the training rows", input=cells("f03", "1.5", TRAINING_ROWS)),
    # z-scored over both sides, a column may still be constant in training:
    # f03's pooled mean is 1.5 exactly, so its training z-scores are all 0.0
    case("prepare", 3, "{input}: column 'f03' has no r with the target: it is constant, or "
         "nearly so, in the training rows",
         input=then(cells("f03", "1.5"), cells("f03", "0.5", [6]), cells("f03", "2.5", [18]))),
    # the refusal named the first feature, whose r the constant target
    # left undefined; the row without a score is left out first
    case("prepare", 3, "{input}: target column 'score' is constant",
         input=then(cells("score", "400"), cells("score", "", [0]))),
    # not constant, but their squared deviations underflow to 0.0
    case("prepare", 3, "{input}: target column 'score' varies too little: its squared "
         "deviations underflow to 0.0",
         input=cells("score", lambda cell: repr(float(cell) * 1e-202))),
    # prepare wrote a train.csv of only student_id,score, which loocv refused
    case("prepare", 3, "{input}: no feature column correlates with the target at "
         "correlation_threshold 1.0 or above", config=doc_with({"correlation_threshold": 1.0})),
    case("prepare", 3, "{input}: no feature column correlates with the target at "
         "correlation_threshold 1.0 or above",
         config=doc_with({"correlation_threshold": 1.0,
                          "aggregations": [{"group_name": "g", "member_columns": ["f01", "f02"]}]})),
    # -- a prepared training table --
    *(c for step in RANKING for c in (
        case(step, 3, "{train}: training table has no feature columns",
             train=rows_of(lambda t: [[r[0], r[-1]] for r in t])),
        *(case(step, 3, f"{{train}}: {rows} training rows; at least 2 are needed", train=first(rows),
               **({"config": doc_with({"ammknn.outlier_feature": "f01"})} if outlier else {}))
          for rows in (0, 1) for outlier in (False, True)),
        # the default outlier feature is resolved by a correlation sweep
        # over the training columns, which must not see the gap first
        case(step, 3, "{train}, line 6, column 'score': missing cell", train=cells("score", "", [4])),
        # a running mean of such scores overflowed to -Infinity
        case(step, 3, "{train}, line 2, column 'score': value -1.5e+308 beyond ±1e+50",
             train=cells("score", "-1.5e308")),
        case(step, 3, "{train}, line 2, column 'score': value 1e+308 beyond ±1e+50",
             train=cells("score", "1e308", [0, 1])),
        # the rule fires on low values, so it would flag the strongest students
        case(step, 2, "every feature correlates negatively with the target (best 'f19', "
             "r = -0.10131213276247951); set ammknn.outlier_feature",
             train=then(*(cells(f, negated) for f in POSITIVE))),
    )),
    # every correlation with the target was NaN, so no feature won
    case("loocv", 3, "{train}, line 2, column 'f01': value 1e+308 beyond ±1e+50",
         train=then(*(cells(f, "1e308", [0]) for f in FEATURES))),
    # the correlation of predictions and scores overflowed to NaN
    case("loocv", 3, "{train}, line 2, column 'score': value 1e+200 beyond ±1e+50",
         train=cells("score", "1e200", [0])),
    # a constant column counts as r = 0 for the outlier feature; knn_k is
    # 12, and a fold of 5 rows holds 4
    case("loocv", 3, "{train}: k=12 exceeds 4 training rows per fold",
         train=then(first(5), cells("f16", "0.5"))),
    case("loocv", 3, "{train}: k=4 exceeds 3 training rows per fold", train=first(4),
         config=doc_with({"knn_k": 4, "ammknn.outlier_feature": "f11"})),
    # -- a cohort --
    # an empty score broke the report's tallies; a NaN one was scored as a pass
    case("validate", 3, "{cohort}, line 4, column 'score': missing cell", cohort=cells("score", "", [2])),
    case("validate", 3, "{cohort}, line 4, column 'score': non-finite value nan",
         cohort=cells("score", "nan", [2])),
    case("validate", 3, "{cohort}, line 2, column 'score': value 1e+200 beyond ±1e+50",
         cohort=cells("score", "1e200", [0])),
    *(c for step in ("validate", "predict") for c in (
        # every squared distance overflowed: predict ranked rows by index
        case(step, 3, "{cohort}, line 2, column 'f02': value 1e+200 beyond ±1e+50",
             cohort=cells("f02", "1e200", [0])),
        # unstandardized, with the cohort year and the columns prepare dropped
        case(step, 3, "{cohort}: feature columns differ from training: "
             "extra ['cohort', 'f13', 'f14', 'f20'], missing []",
             cohort=lambda text: INPUTS["input"].read_text(encoding="utf-8")),
        case(step, 3, "{cohort}: feature columns differ from training: extra [], missing ['f05']",
             cohort=without("f05")),
    )),
    # a student scored against their own past row: validate on train.csv as
    # its own cohort reported sensitivity 1.000, where loocv gives 0.750
    case("validate", 3, "{cohort}, line 2: id 'S001' is also a training student ({train}, line 2)",
         cohort=lambda text: INPUTS["train"].read_text(encoding="utf-8")),
    case("predict", 3, "{cohort}, line 4: id 'S003' is also a training student ({train}, line 4)",
         cohort=cells("student_id", "S003", [2])),
    # a pipe cannot be read again to find the training line
    case("predict", 3, "{cohort}, line 4: id 'S003' is also a training student ({train})",
         cohort=cells("student_id", "S003", [2]), train=piped(lambda text: text)),
    # the first float past the bound
    case("predict", 3, "{cohort}, line 2, column 'f01': value 1.0000000000000003e+50 beyond ±1e+50",
         cohort=cells("f01", "1.0000000000000003e50", [0])),
    # a quoted id that spans two lines: the bad cell's line counts both
    case("predict", 3, "{cohort}, line 5, column 'f05': non-numeric cell 'x1'",
         cohort=then(cells("f05", "x1", [2]), cells("student_id", '"S007\nJr."', [0]))),
    # a pipe cannot be read again to find the earlier line: it crashed
    # with exit 4
    *(case(step, 3, f"{{{table}}}, line 4 has the same id '{_id_on_line(table, 3)}' as an earlier line",
           **{table: piped(rows_of(repeated_id))})
      for step, table in (("predict", "cohort"), ("loocv", "train"))),
    # the csv module's field size limit crashed predict with exit 4; a cell
    # split at its commas is only ever refused as a cell
    case("predict", 3, "{cohort}, line 2, column 'f01': non-finite value inf",
         cohort=cells("f01", "9" * 200_000, [0])),
    case("predict", 3, "{cohort}, line 2: field larger than field limit (131072)",
         cohort=cells("f01", '"' + "9" * 200_000 + '"', [0])),
    # -- a report --
    case("plot", 3, "{report}: no such report file", report=missing),
    case("plot", 3, "{report}: invalid JSON: Expecting value: line 1 column 15 (char 14)",
         report=lambda text: '{"subjects": ['),
    case("plot", 3, "{report}: report lacks 'subjects'/'bounds' sections",
         report=lambda text: json.dumps({"not_a_report": True})),
    *(case(step, 3, f"{{report}}: {message}", report=doc_with(change))
      for step in ("plot", "plot --kind packrat_scatter")
      for change, message in [
          ({"bounds": {}}, "report lacks bounds.actual.fail_below"),
          ({"bounds.actual.fail_below": "x"},
           "bounds.actual.fail_below is not a number within ±1e+50: 'x'"),
          # json writes a float NaN or infinity as the bare NaN or Infinity token
          ({"subjects.0.actual": float("nan")}, "subject 0 actual is not a number within ±1e+50: nan"),
          ({"bounds.actual.at_risk_upper": float("inf")},
           "bounds.actual.at_risk_upper is not a number within ±1e+50: inf"),
          ({"subjects.0.actual": DROP}, "subject 0 lacks plottable fields: 'actual'"),
      ]),
    # the axis span overflowed: plot drew every circle at cx="nan"
    case("plot", 3, "{report}: subject 0 predicted is not a number within ±1e+50: 1e+308",
         report=doc_with({"subjects.0.predicted": 1e308, "subjects.1.predicted": -1e308})),
    # a bad cell in the last record is found after every subject before it
    # was scored, and after predict wrote their lines
    *(case(step, 3, f"{{cohort}}, line {LAST_LINE}, column 'f05': {problem}",
           cohort=cells("f05", text, [LAST_LINE - 2]))
      for step in ("validate", "predict") for text, problem in CELL_FAULTS if text in ("x1", "")),
    # -- --out --
    *(c for step in STEPS if step != "plot --kind packrat_scatter" for c in (
        case(step, 3, "{out}: cannot be used as the output directory (File exists)",
             out=lambda out, name=STEPS[step][1][0]: out / name),
        case(step, 3, "{out}: cannot be used as the output directory (Not a directory)",
             out=lambda out, name=STEPS[step][1][0]: out / name / "sub"),
    )),
    # every output: prepare with selection.json a directory, and validate
    # with roster.json one, had overwritten the outputs written before it
    *(case(step, 3, f"{{out}}/{name}: cannot be written (Is a directory)",
           out=lambda out, name=name: _as_directory(out / name) or out)
      for step, (_, outputs) in STEPS.items() for name in outputs),
    # a directory where a step writes an output before putting it in place
    *(case(step, 3, f"{{out}}/{outputs[0]}.tmp: cannot be written (Is a directory)",
           out=lambda out, name=outputs[0]: (out / f"{name}.tmp").mkdir() or out)
      for step, (_, outputs) in STEPS.items()),
]


def _same(written, reference):
    return written == reference


def _with_id(old, new):
    """The outputs with each id ``old`` given as ``new``: quoted in a CSV,
    a JSON string in a report."""

    def check(written, reference):
        def rename(data):
            data = data.replace(b"\r\n" + old.encode() + b",", b'\r\n"' + new.encode() + b'",')
            return data.replace(json.dumps(old).encode(), json.dumps(new).encode())

        return written == {name: rename(data) for name, data in reference.items()}

    return check


def _without_cohort(written, reference):
    return written["cohort.csv"] == without("cohort")(reference["cohort.csv"].decode()).encode()


def _canonical_cells(written, reference):
    """Every number of the generated cohort is written as its shortest
    repr, and some feature is 1e9 or more."""
    rows = [line.split(",")[1:] for line in written["cohort.csv"].decode().splitlines()[1:]]
    numbers = [cell for row in rows for cell in row]
    return all(cell == repr(float(cell)) for cell in numbers) and max(map(float, numbers)) >= 1e9


def _scored(n):
    """A check that each report the step writes scores ``n`` subjects."""
    return lambda written, reference: all(
        json.loads(data)["n_subjects"] == n for name, data in written.items() if name != "roster.json"
    )


def _one_point(written, reference):
    return written["packrat_scatter.svg"].count(b'class="pt"') == 1


def _no_r(written, reference):
    """Each report gives r as null, and ``plot`` captions it with n alone."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in written.items():
            report = Path(tmp) / name
            report.write_bytes(data)
            if json.loads(data)["prediction_actual_correlation"] is not None or main(
                ["plot", "--report", str(report), "--out", tmp]
            ):
                return False
            if '">n = 8</text>' not in (Path(tmp) / "scatter.svg").read_text(encoding="utf-8"):
                return False
    return True


GROUP = [{"group_name": "g", "member_columns": ["f01", "f02"]}]
# the raw input's candidate columns but f03, f05 and the members of GROUP
OTHERS = [f"f{j:02d}" for j in (4, *range(6, 21))]


def _kept_as_excluded(written, reference):
    """``include_columns`` keeps a group and two columns, byte for byte as
    ``exclude_columns`` naming every other candidate does."""
    excluded = case("prepare", 0, None, config=doc_with({"aggregations": GROUP, "exclude_columns": OTHERS}))
    with tempfile.TemporaryDirectory() as tmp:
        argv, _, out, _ = _setup(excluded, Path(tmp))
        return (
            written["train.csv"].startswith(b"student_id,f03,f05,score,g\r\n")
            and main(argv) == 0
            and written == {name: (out / name).read_bytes() for name in STEPS["prepare"][1]}
        )


EXPORTS = {
    "LF line ends": lambda text: text.replace("\r\n", "\n"),
    "CR line ends": lambda text: text.replace("\r\n", "\r"),
    "R write.csv quoting": r_quoted,
    # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark,
    # which once hid the first header label from every step
    "byte-order mark": lambda text: "\ufeff" + text,
    # a blank line holds no student
    "blank lines": lambda text: blank_line_after(2)(text) + "\r\n",
}

# the exit-0 cases, by name
ACCEPTED = {
    **{f"{step}:{export}": case(step, 0, _same, **{
        name: change for name in STEPS[step][0] if name != "config" or export == "byte-order mark"
    }) for export, change in EXPORTS.items() for step in CONFIGURED},
    # prepare writes an id that holds a comma quoted, and every step reads it back
    "prepare:comma id": case("prepare", 0, _with_id(ID, COMMA_ID), input=renamed(ID, COMMA_ID)),
    "loocv:comma id": case("loocv", 0, _with_id("S001", COMMA_ID), train=renamed("S001", COMMA_ID)),
    **{f"{step}:comma id": case(step, 0, _with_id(ID, COMMA_ID), cohort=renamed(ID, COMMA_ID))
       for step in ("validate", "predict")},
    # a constant column has r = 0, and adds nothing to a distance
    "loocv:constant column": case("loocv", 0, _same, train=rows_of(
        lambda t: [[*t[0][:-1], "flat", t[0][-1]]] + [[*r[:-1], "0.5", r[-1]] for r in t[1:]]
    )),
    # every score is equal, so r is undefined; their mean did not round
    # back to the score, and both reports gave 1.0, which plot captioned
    "loocv:equal scores": case("loocv", 0, _no_r, config=doc_with({"knn_k": 2}), train=lambda text: (
        "student_id,f01,f02,score\r\n"
        + "".join(f"C{i},{i}.0,{(i * 7) % 5}.5,444.3\r\n" for i in range(8))
    )),
    # the fewest training rows a step ranks; k as large as a fold allows
    "validate:two training rows": case("validate", 0, _scored(43), train=first(2)),
    "loocv:k of every row of a fold": case("loocv", 0, _scored(5), train=first(5), config=doc_with(
        {"knn_k": 4, "ammknn.outlier_feature": "f11"}
    )),
    "prepare:include_columns": case("prepare", 0, _kept_as_excluded, config=doc_with(
        {"aggregations": GROUP, "include_columns": ["g", "f03", "f05"]}
    )),
    "packrat_scatter:one subject": case("plot --kind packrat_scatter", 0, _one_point, report=doc_with(
        {"subjects": [json.loads(INPUTS["report"].read_text(encoding="utf-8"))["subjects"][0]]}
    )),
    "synth:no split": case("synth", 0, _without_cohort, spec=doc_with({"split": DROP})),
    "synth:cells of 1e9 and more": case("synth", 0, _canonical_cells, spec=doc_with({"noise_sd": 1e9})),
}


# --------------------------------------------------------------------------
# the runner
# --------------------------------------------------------------------------

def _setup(case, tmp_path):
    """The argv of ``case``, the path of each input and of --out by name,
    the output directory, with each output file seeded, and the started
    thread that feeds each FIFO."""
    reads, outputs = STEPS[case.step]
    assert set(case.changes) <= {*reads, "out"}
    paths, feeders = {}, []
    for name in reads:
        paths[name] = INPUTS[name]
        if name in case.changes:
            paths[name] = tmp_path / INPUTS[name].name
            text = case.changes[name](INPUTS[name].read_bytes().decode("utf-8"))
            if text is DIRECTORY:
                paths[name].mkdir()
            elif isinstance(text, Piped):
                os.mkfifo(paths[name])
                feeders.append(threading.Thread(
                    target=_feed, args=(paths[name], text.text.encode("utf-8")), daemon=True
                ))
                feeders[-1].start()
            elif text is not None:
                paths[name].write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    out = tmp_path / "out"
    out.mkdir()
    for name in outputs:
        (out / name).write_bytes(SENTINEL)
    paths["out"] = case.changes.get("out", lambda out: out)(out)
    argv = case.step.split() + [arg for name, path in paths.items() for arg in (f"--{name}", str(path))]
    return argv, paths, out, feeders


def _tree(root):
    return {path: path.read_bytes() if path.is_file() else None for path in root.rglob("*")}


@pytest.mark.parametrize(
    "case", REFUSALS, ids=[f"{c.step.split()[-1]}:{'+'.join(c.changes)}:{c.expect[:70]}" for c in REFUSALS]
)
def test_refusal(case, tmp_path, capsys):
    assert case.code in (2, 3)
    argv, paths, out, feeders = _setup(case, tmp_path)
    seeded = _tree(out)
    capsys.readouterr()
    assert main(argv) == case.code
    for feeder in feeders:  # the step opened the FIFO, so its writer ends
        feeder.join(timeout=10)
        assert not feeder.is_alive()
    message = case.expect.format(**paths)
    family = "config" if case.code == 2 else "data"
    assert capsys.readouterr().err == f"{family} error: {message}\n"
    if case.code == 3:
        named = [p for n, p in paths.items() if n in case.changes and n != "config"]
        assert any(message.startswith(str(p)) for p in named or paths.values()), message
        if ", column " in message:
            assert re.match(r".+, line \d+, column '[^']+': ", message), message
    assert _tree(out) == seeded


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The output files of each step on the unchanged inputs, by name."""
    outputs = {}

    def of(step):
        if step not in outputs:
            argv, _, out, _ = _setup(case(step, 0, None), tmp_path_factory.mktemp("reference"))
            assert main(argv) == 0
            outputs[step] = {name: (out / name).read_bytes() for name in STEPS[step][1]}
        return outputs[step]

    return of


@pytest.mark.parametrize("case", ACCEPTED.values(), ids=list(ACCEPTED))
def test_accepted(case, tmp_path, capsys, reference):
    argv, _, out, _ = _setup(case, tmp_path)
    expected = reference(case.step)
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    written = {name: (out / name).read_bytes() for name in STEPS[case.step][1]}
    assert case.expect(written, expected)
