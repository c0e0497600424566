"""`prepare` against a naive per-cell reference, bit for bit.

The reference below parses, aggregates, splits, drops, checks, z-scores
and correlates one cell and one column at a time with plain left-to-right
float loops, and counts the rows it drops by reason. `run_prepare`
streams the records into compact columns and works on them with shared
sweeps; the two must write the same bytes and report the same counts, or
refuse the same NaN, infinite or out-of-bound cell, at its file line,
with the same message.

The column pass alone, ``standardize_and_select`` and
``_correlations``, is also checked against a naive two-pass reference
on drawn columns, constant, tiny and at the bound among them: the same
r, the same None, the same kept columns and z-scores, bit for bit, or
the same refusal.
"""

import csv
import io
import json
import math
import random
import tempfile
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ammknn.config import PipelineConfig, _from_json
from ammknn.errors import DataError
from ammknn.pipeline import SELECTION_JSON, TRAIN_CSV, VALIDATION_CSV, run_prepare
from ammknn.preprocess import _correlations, _spread, standardize_and_select

CUTOFF = 2019.0
AGGREGATIONS = [
    {"group_name": "g_pair", "member_columns": ["q1", "q2"]},
    {"group_name": "g_one", "member_columns": ["q3"]},
]
MEMBERS = ["q1", "q2", "q3"]


def _left(values):
    total = 0.0
    for v in values:
        total += v
    return total


def _pearson(x, y):
    mx, my = _left(x) / len(x), _left(y) / len(y)
    sxy = _left([(a - mx) * (b - my) for a, b in zip(x, y)])
    sxx = _left([(a - mx) * (a - mx) for a in x])
    syy = _left([(b - my) * (b - my) for b in y])
    return sxy / math.sqrt(sxx * syy)


def naive_prepare(text, threshold, exclude, path):
    """([train.csv, validation.csv, selection.json] as bytes, prepare's
    summary) for the CSV ``text`` read from ``path``; DataError naming the
    first NaN or infinite cell, or cell beyond ±1e50, of the file, used
    or not, by its line, or the threshold that keeps no feature;
    ZeroDivisionError where a column, the target or a side leaves nothing
    to divide by."""
    lines = list(enumerate(csv.reader(io.StringIO(text)), start=1))
    header = lines[0][1]
    records = []
    for line, r in lines[1:]:
        if not r:
            continue  # a blank line holds no row, but is a line
        for name, c in zip(header[1:], r[1:]):
            if c != "" and not math.isfinite(float(c)):
                raise DataError(f"{path}, line {line}, column {name!r}: non-finite value {float(c)!r}")
            if c != "" and abs(float(c)) > 1e50:
                raise DataError(f"{path}, line {line}, column {name!r}: value {float(c)!r} beyond ±1e+50")
        records.append(r)
    names = header[1:]
    rows = [[None if c == "" else float(c) for c in r[1:]] for r in records]
    for agg in AGGREGATIONS:
        idx = [names.index(m) for m in agg["member_columns"]]
        for row in rows:
            total = 0.0
            for i in idx:
                total = None if total is None or row[i] is None else total + row[i]
            row.append(None if total is None else total / len(idx))
        names.append(agg["group_name"])
    keep = [
        j for j, n in enumerate(names)
        if n not in MEMBERS and n != "cohort" and (n == "score" or n not in exclude)
    ]
    year, score = names.index("cohort"), names.index("score")
    sides = {"train": [], "validation": []}
    outside = 0
    missing_target = {"train": 0, "validation": 0}
    incomplete = {"train": 0, "validation": 0}
    for row, record in zip(rows, records):
        y = row[year]
        side = None if y is None else "train" if y < CUTOFF else "validation" if y < CUTOFF + 1 else None
        cells = [row[j] for j in keep]
        if side is None:
            outside += 1
        elif row[score] is None:
            missing_target[side] += 1
        elif None in cells:
            incomplete[side] += 1
        else:
            sides[side].append((cells, record[0]))
    names = [names[j] for j in keep]
    t = names.index("score")
    pooled = [cells for cells, _ in sides["train"] + sides["validation"]]
    for j in range(len(names)):
        if j != t:
            column = [r[j] for r in pooled]
            mean = _left(column) / len(column)
            sd = math.sqrt(_left([(v - mean) * (v - mean) for v in column]) / (len(column) - 1))
            for r in pooled:
                r[j] = (r[j] - mean) / sd
    y = [cells[t] for cells, _ in sides["train"]]
    kept, dropped = [], []
    for j, name in enumerate(names):
        r = None if j == t else _pearson([cells[j] for cells, _ in sides["train"]], y)
        if r is None or abs(r) >= threshold:
            kept.append(name)
        else:
            dropped.append([name, r])
    if kept == ["score"]:
        raise DataError(
            f"{path}: no feature column correlates with the target at correlation_threshold "
            f"{threshold!r} or above"
        )
    out = []
    for side in ("train", "validation"):
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["student_id", *kept])
        for cells, rid in sides[side]:
            writer.writerow([rid, *(repr(cells[names.index(n)]) for n in kept)])
        out.append(buf.getvalue().encode())
    selection = {"kept": kept, "dropped": dropped, "threshold": threshold}
    out.append((json.dumps(selection, indent=2) + "\n").encode())
    summary = {
        "train_rows": len(sides["train"]),
        "validation_rows": len(sides["validation"]),
        "dropped_outside_years": outside,
        "columns_in": len(names),
        "train_dropped_missing_target": missing_target["train"],
        "validation_dropped_missing_target": missing_target["validation"],
        "train_dropped_incomplete": incomplete["train"],
        "validation_dropped_incomplete": incomplete["validation"],
        "columns_kept": len(kept),
        "columns_dropped": len(dropped),
    }
    return out, summary


# each column draws its cells from a permutation, so no column is constant
# (but for 0.0 and -0.0, which a 2-row column may draw together)
VALUES = [-2.5, -1.0, -0.1, -0.0, 0.0, 0.1, 0.2, 0.3, 1 / 3, 0.7, 1.5, 3.0, 12.25, 1e3]
SCORES = [250.0, 310.0, 349.0, 350.0, 401.0, 455.5, 512.0, 600.0, 777.0, 333.3, 420.0, 530.5, 690.0]
# training years first, then validation, then years outside both windows
YEARS = st.sampled_from([2018.0, 2019.0, 2017.5, 2019.5, 2016.0, 2018.9, None, 2020.0, 2021.0])
GAP = st.sampled_from([False] * 7 + [True])
RARELY = st.sampled_from([False] * 7 + [True])


@st.composite
def cohorts(draw):
    """(cohort CSV text, threshold, exclude_columns) with gaps in the group
    members and the target, rare NaN, infinite and out-of-bound cells, and rare blank
    lines. The target and cohort year may be named in exclude_columns;
    prepare keeps them all the same."""
    n = draw(st.integers(2, len(SCORES)))

    def column(values, gaps=True):
        cells = draw(st.permutations(values))[:n]
        return [None if gaps and draw(GAP) else c for c in cells]

    plain = [f"x{j}" for j in range(draw(st.integers(1, 3)))]
    header = ["student_id", "cohort", "q1", *plain, "q2", "q3", "score"]
    columns = [
        draw(st.lists(YEARS, min_size=n, max_size=n)),
        column(VALUES),
        *(column(VALUES, gaps=False) for _ in plain),
        column(VALUES),
        column(VALUES),
        column(SCORES),
    ]
    if draw(RARELY):  # one NaN, infinite or out-of-bound cell anywhere but the year
        j = draw(st.integers(1, len(columns) - 1))
        columns[j][draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf, 1e200, -1.5e50])
        )
    blank_after = draw(st.lists(st.integers(0, n), min_size=1, max_size=2)) if draw(RARELY) else []
    exclude = draw(st.lists(st.sampled_from([*plain, "score", "cohort"]), unique=True))
    text = _csv_text(header, list(zip(*columns)), blank_after)
    return text, draw(st.sampled_from([0.0, 0.2, 0.5, 0.9])), exclude


def _csv_text(header, rows, blank_after=()):
    """CSV text of rows with ids S0, S1, ... and a blank line after the
    i-th row (0: after the header) for each i in ``blank_after``."""
    lines = [",".join(header)]
    lines += [""] * blank_after.count(0)
    for i, cells in enumerate(rows, start=1):
        lines.append(",".join([f"S{i - 1}", *("" if c is None else repr(c) for c in cells)]))
        lines += [""] * blank_after.count(i)
    return "\n".join(lines) + "\n"


def _cohort(rows, blank_after=()):
    """CSV text for explicit examples: rows of (year, q1, x0, q2, q3, score)."""
    header = ["student_id", "cohort", "q1", "x0", "q2", "q3", "score"]
    return _csv_text(header, rows, list(blank_after))


TRAIN_ROWS = [
    (2018.0, 0.1, 1.5, 0.2, 3.0, 310.0),
    (2017.5, 0.7, -1.0, 1.5, 0.3, 455.5),
    (2018.0, -0.1, 0.3, 0.0, -2.5, 512.0),
    (2016.0, 3.0, 12.25, -1.0, 0.7, 250.0),
]


@settings(max_examples=250, deadline=None)
@given(cohorts())
# a missing cell in a member of each group, and a missing target
@example((_cohort(TRAIN_ROWS + [
    (2018.0, None, 0.1, 0.2, 0.3, 401.0),
    (2019.0, 0.2, 0.1, 0.2, None, 600.0),
    (2019.5, 0.1, 0.7, 0.3, 1.5, None),
    (2019.0, 1.5, 0.2, 0.1, 0.3, 349.0),
]), 0.2, []))
# years outside both windows or missing; no validation rows
@example((_cohort(TRAIN_ROWS + [
    (2020.0, 0.1, 0.2, 0.3, 0.7, 401.0),
    (None, 0.2, 0.1, 0.2, 0.3, 600.0),
    (2021.0, 0.3, 0.3, 0.1, 0.2, 777.0),
]), 0.5, ["score", "cohort"]))
# exactly one validation row
@example((_cohort(TRAIN_ROWS + [(2019.5, 0.3, 0.2, 0.7, 0.1, 350.0)]), 0.9, []))
# the plain column excluded, with a gap in it that must not drop its row
@example((_cohort(TRAIN_ROWS + [
    (2018.0, 0.2, None, 0.3, 0.1, 401.0),
    (2019.0, 1.5, 0.2, 0.1, 0.3, 349.0),
    (2019.0, 0.3, 0.7, 0.2, 1.5, 600.0),
]), 0.0, ["x0"]))
# NaN in a group member of a validation row, then infinity in a training
# target: the first in the file is named
@example((_cohort(TRAIN_ROWS + [
    (2019.0, math.nan, 0.1, 0.2, 0.3, 401.0),
    (2018.0, 0.2, 0.1, 0.2, 0.7, math.inf),
]), 0.2, []))
# NaN in a plain validation column, then infinity in a training one: the
# first in the file is named
@example((_cohort(TRAIN_ROWS + [
    (2019.0, 0.1, math.nan, 0.2, 0.3, 401.0),
    (2018.0, 0.2, -math.inf, 0.2, 0.7, 600.0),
]), 0.0, []))
# NaN and infinity where nothing is kept: an excluded column, a row
# outside both windows and a row dropped for its missing target; each is
# refused all the same, and the first is named
@example((_cohort(TRAIN_ROWS + [
    (2018.0, 0.1, math.nan, 0.2, 0.3, 401.0),
    (2021.0, math.inf, 0.1, 0.2, 0.3, math.nan),
    (2019.0, math.inf, 0.3, 0.1, 0.2, None),
    (2019.0, 1.5, 0.2, 0.1, 0.3, 349.0),
]), 0.5, ["x0"]))
# gaps in group members of rows outside both windows, which are not refused
@example((_cohort(TRAIN_ROWS + [
    (2021.0, None, 0.1, 0.2, 0.3, 401.0),
    (None, 0.1, 0.2, None, None, 600.0),
    (2019.0, 1.5, 0.2, 0.1, 0.3, 349.0),
]), 0.2, []))
# -0.0 in a group, in a plain column and as its single member's mean
@example((_cohort(TRAIN_ROWS + [
    (2018.0, -0.0, -0.0, 0.2, -0.0, 401.0),
    (2019.0, 0.3, 0.7, -0.0, 1.5, 349.0),
]), 0.0, []))
# blank lines after the header, between rows and at the end
@example((_cohort(TRAIN_ROWS + [(2019.5, 0.3, 0.2, 0.7, 0.1, 350.0)], blank_after=[0, 2, 5]), 0.2, []))
def test_prepare_matches_naive_reference(case):
    text, threshold, exclude = case
    config = _from_json(PipelineConfig, {
        "target_name": "score",
        "id_column": "student_id",
        "cohort_column": "cohort",
        "year_cutoff": CUTOFF,
        "aggregations": AGGREGATIONS,
        "exclude_columns": exclude,
        "correlation_threshold": threshold,
    }, "config")
    with tempfile.TemporaryDirectory() as tmp:
        cohort = Path(tmp, "cohort.csv")
        cohort.write_text(text, encoding="utf-8")
        try:
            expected, counts = naive_prepare(text, threshold, exclude, cohort)
        except DataError as refused:
            with pytest.raises(DataError) as exc:
                run_prepare(config, cohort, Path(tmp, "out"))
            assert str(exc.value) == str(refused)
            return
        except ZeroDivisionError:
            # too few rows, a constant column or a constant target
            try:
                run_prepare(config, cohort, Path(tmp, "out"))
            except DataError:
                return
            raise AssertionError("prepare accepted input the reference cannot standardize")
        summary = run_prepare(config, cohort, Path(tmp, "out"))
        written = [Path(tmp, "out", name).read_bytes() for name in (TRAIN_CSV, VALIDATION_CSV, SELECTION_JSON)]
    assert written == expected
    assert list(summary.items()) == list(counts.items())


def _block_rows(seed, n_rows=1100):
    """Rows of (year, q1, x0, q2, q3, score), most of them kept, with rows
    that prepare drops or must keep crowded round each side's blocks.

    Wherever a side has just taken in 254 to 257 rows, modulo 256, that
    could be kept, the next rows of that side are one of each kind below:
    a missing target, a year outside both windows or missing, a gap in
    one group's member alone (q3: the last kept column), a gap in the
    plain column, a g_pair of two -0.0 members, and a g_pair with one
    member missing. Such rows are also drawn at random.
    """
    rng = random.Random(seed)
    cell = lambda: round(rng.gauss(0.0, 1.0), 6)  # noqa: E731

    def row(side, kind):
        year = rng.choice([2016.0, 2017.5, 2018.0, 2018.9] if side == 0 else [2019.0, 2019.5])
        q1, x0, q2, q3 = cell(), cell(), cell(), cell()
        score = round(400.0 + 40.0 * (x0 + q1 + q2) + rng.gauss(0.0, 30.0), 1)
        if kind == "no target":
            score = None
        elif kind == "outside":
            year = rng.choice([2020.0, 2021.5, None])
        elif kind == "gap in one group":
            q3 = None
        elif kind == "gap in a plain column":
            x0 = None
        elif kind == "negative zeros":
            q1 = q2 = -0.0
        elif kind == "gap in g_pair":
            q1, q2 = rng.choice([(None, q2), (q1, None)])
        return (year, q1, x0, q2, q3, score)

    kinds = ["no target", "outside", "gap in one group", "gap in a plain column",
             "negative zeros", "gap in g_pair"]
    rows = []
    entered = [0, 0]  # rows per side with a usable year and a target
    while len(rows) < n_rows:
        side = 0 if rng.random() < 0.6 else 1
        if entered[side] % 256 in (254, 255, 0, 1):
            batch = [row(side, kind) for kind in kinds]
        else:
            batch = [row(side, rng.choice(kinds) if rng.random() < 0.05 else None)]
        for r in batch:
            if r[0] is not None and r[0] < CUTOFF + 1 and r[-1] is not None:
                entered[side] += 1
        rows += batch
    return rows


@pytest.mark.parametrize("exclude", [[], ["g_pair"]])
def test_prepare_matches_naive_reference_across_blocks(exclude):
    # about 1 100 rows, so each side fills more than one block of rows
    text = _cohort(_block_rows(20231))
    config = _from_json(PipelineConfig, {
        "target_name": "score",
        "id_column": "student_id",
        "cohort_column": "cohort",
        "year_cutoff": CUTOFF,
        "aggregations": AGGREGATIONS,
        "exclude_columns": exclude,
        "correlation_threshold": 0.1,
    }, "config")
    with tempfile.TemporaryDirectory() as tmp:
        cohort = Path(tmp, "cohort.csv")
        cohort.write_text(text, encoding="utf-8")
        expected, counts = naive_prepare(text, 0.1, exclude, cohort)
        summary = run_prepare(config, cohort, Path(tmp, "out"))
        written = [Path(tmp, "out", name).read_bytes() for name in (TRAIN_CSV, VALIDATION_CSV, SELECTION_JSON)]
    assert written == expected
    assert list(summary.items()) == list(counts.items())
    assert summary["train_rows"] > 2 * 256 and summary["validation_rows"] > 256
    for side in ("train", "validation"):
        assert summary[f"{side}_dropped_missing_target"] > 5
        assert summary[f"{side}_dropped_incomplete"] > 5
    assert summary["dropped_outside_years"] > 5
    assert summary["columns_dropped"] >= 1  # g_one: a dropped column crosses blocks too


# cells of a drawn column: the bound, zeros of both signs, ordinary values,
# and values whose squared deviations come near underflow (1e-160) or
# underflow to 0.0 (1e-170)
CELLS = [-1e50, -2.5, -0.0, 0.0, 1e-170, 2e-170, 1e-160, 3e-160, 0.1, 1 / 3, 444.3, 1e50]
CELL = st.one_of(st.sampled_from(CELLS), st.floats(-1e50, 1e50, allow_nan=False))
KINDS = st.sampled_from(["any"] * 9 + ["constant", "constant in training", "tiny"])


@st.composite
def column_tables(draw):
    """(labels, training columns, validation columns, threshold): the
    target ``t`` among one to four features, 2 to 8 training rows and 0 to
    4 validation rows. Each column is drawn whole as one of: any cells;
    one value throughout; one value in its training rows only; or small
    multiples of 1e-160 or 1e-170."""
    n, m = draw(st.integers(2, 8)), draw(st.integers(0, 4))

    def column(kind):
        if kind == "any":
            cells = draw(st.lists(CELL, min_size=n + m, max_size=n + m))
        elif kind == "constant":
            cells = [draw(CELL)] * (n + m)
        elif kind == "constant in training":
            cells = [draw(CELL)] * n + draw(st.lists(CELL, min_size=m, max_size=m))
        else:
            scale = draw(st.sampled_from([1e-160, 1e-170]))
            cells = [k * scale for k in draw(st.lists(st.integers(-3, 3), min_size=n + m, max_size=n + m))]
        return cells[:n], cells[n:]

    names = [f"x{j}" for j in range(draw(st.integers(1, 4)))]
    names.insert(draw(st.integers(0, len(names))), "t")
    sides = [column(draw(KINDS)) for _ in names]
    return names, [a for a, _ in sides], [b for _, b in sides], draw(st.sampled_from([0.0, 0.3, 0.9]))


def naive_r(x, y):
    """``_pearson`` of ``x`` and ``y``, or None where r is undefined: one
    side's values all equal, or its summed squares multiplying to 0.0."""
    mx, my = _left(x) / len(x), _left(y) / len(y)
    sxx = _left([(a - mx) * (a - mx) for a in x])
    syy = _left([(b - my) * (b - my) for b in y])
    if min(x) == max(x) or min(y) == max(y) or sxx * syy == 0.0:
        return None
    return _pearson(x, y)


def naive_select(names, train, validation, threshold):
    """(kept labels, dropped (label, r) pairs, each kept feature's two sides
    of z-scores) from separate passes over the columns, or the message of
    the refusal, in the order ``standardize_and_select`` refuses."""
    y = train[names.index("t")]
    z = {}
    for name, a, b in zip(names, train, validation):
        if name != "t":
            pooled = a + b
            mean = _left(pooled) / len(pooled)
            sd = math.sqrt(_left([(v - mean) * (v - mean) for v in pooled]) / (len(pooled) - 1))
            if min(pooled) == max(pooled) or sd == 0.0:
                return f"column {name!r} has zero variance"
            z[name] = ([(v - mean) / sd for v in a], [(v - mean) / sd for v in b])
    my = _left(y) / len(y)
    if min(y) == max(y):
        return "target column 't' is constant"
    if _left([(v - my) * (v - my) for v in y]) == 0.0:
        return "target column 't' varies too little: its squared deviations underflow to 0.0"
    rs = {name: naive_r(train_z, y) for name, (train_z, _) in z.items()}
    for name, r in rs.items():
        if r is None:
            return (f"column {name!r} has no r with the target: it is constant, or nearly so, "
                    "in the training rows")
    kept = [name for name in names if name == "t" or abs(rs[name]) >= threshold]
    dropped = [(name, r) for name, r in rs.items() if abs(r) < threshold]
    return kept, dropped, {name: z[name] for name in kept if name != "t"}


# n = 2, cells at the bound and -0.0 cells
BOUND_PAIR = (["x0", "t", "x1"], [[1e50, -1e50], [300.0, 500.0], [-0.0, 1.0]], [[0.0], [400.0], [-0.0]], 0.3)
# a constant column
CONSTANT = (["t", "x0", "x1"], [[1.0, 2.0, 3.0], [0.1] * 3, [1.0, 0.0, 2.0]], [[4.0], [0.1], [1.0]], 0.0)
# constant in its training rows only: every training z-score is 0.0
CONSTANT_IN_TRAINING = (["x0", "t"], [[1.5] * 3, [300.0, 450.0, 350.0]], [[0.5, 2.5], [400.0, 410.0]], 0.0)
# squared deviations near 1e-320, which keep a spread, beside a target
# whose squared deviations underflow to 0.0
TINY = (["x0", "x1", "t"], [[1e-160, 3e-160, 0.0], [1.0, 2.0, 4.0], [1e-170, 0.0, 2e-170]], [[], [], []], 0.3)
TINY_KEPT = (["x0", "t"], [[1e-160, 3e-160, 0.0], [300.0, 500.0, 350.0]], [[-1e-160], [410.0]], 0.3)


@settings(max_examples=300, deadline=None)
@given(column_tables())
@example(BOUND_PAIR)
@example(CONSTANT)
@example(CONSTANT_IN_TRAINING)
@example(TINY)
@example(TINY_KEPT)
def test_column_pass_matches_naive_reference(table):
    # the same kept columns, r and z-scores, bit for bit, or the same refusal
    names, train, validation, threshold = table
    expected = naive_select(names, train, validation, threshold)
    columns = [array("d", c) for c in train], [array("d", c) for c in validation]
    target = columns[0][names.index("t")]
    try:
        selection = standardize_and_select(names, "t", *columns, threshold)
    except DataError as exc:
        assert str(exc) == expected
        return
    kept, dropped, z = expected
    assert selection.kept_columns == tuple(kept)
    assert repr(selection.dropped_columns) == repr(tuple(dropped))
    assert columns[0][names.index("t")] is target
    for j, name in enumerate(names):
        if name in z:
            assert repr((columns[0][j].tolist(), columns[1][j].tolist())) == repr(z[name])
        elif name != "t":
            assert columns[0][j] is None and columns[1][j] is None


@given(column_tables())
@example(BOUND_PAIR)
@example(CONSTANT)
@example(TINY)
# both sides' squared deviations near 1e-320: their product underflows
@example((["x0", "t"], [[1e-160, 3e-160, 0.0], [2e-160, 0.0, 1e-160]], [[], []], 0.0))
def test_correlations_match_naive_reference(table):
    # each column's r with the target, the target's own included, bit for
    # bit, and None where the naive r is undefined
    names, train, _, _ = table
    y = train[names.index("t")]
    assert repr(list(_correlations(train, _spread(y)))) == repr([naive_r(x, y) for x in train])
