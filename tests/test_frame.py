import csv
import io
import math
import re
from array import array
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ammknn.config import PipelineConfig, _from_json
from ammknn.errors import ConfigError, DataError
from ammknn.frame import BOUND, Shape, _split_lines, load_csv, read_table, stream_table, write_csv
from ammknn.pipeline import _split_cohort
from ammknn.preprocess import standardize_joint


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def write_table(path, names, rows, ids=None, id_name="id"):
    """Write rows of cells as a CSV, an id column first when ``ids`` is
    given, and a missing cell (None) as an empty field."""
    rows = [["" if c is None else c for c in row] for row in rows]
    if ids is None:
        write_csv(names, path, rows)
    else:
        write_csv([id_name, *names], path, ((rid, *row) for rid, row in zip(ids, rows)))
    return path


class Loaded(NamedTuple):
    """What ``load_csv`` returns, and the labels and records it hands ``consume``."""

    shape: Shape
    names: tuple
    rows: tuple
    ids: tuple


def load(path, target_name, id_column=None):
    seen = []
    shape = load_csv(
        path, target_name, id_column, lambda names, records: seen.extend([names, *records])
    )
    names, *records = seen
    return Loaded(
        shape, tuple(names), tuple(tuple(cells) for _, _, cells in records),
        tuple(rid for _, rid, _ in records),
    )


class TestLoadCsv:
    def test_basic_load(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,x,y\nA,1,2\nB,3,4\nC,5,6\n")
        frame = load(path, "y", id_column="id")
        assert frame.shape == Shape(n_rows=3, n_cols=2)
        assert frame.names == ("x", "y")
        assert frame.ids == ("A", "B", "C")
        assert frame.rows[0] == (1.0, 2.0)

    def test_quoted_header_and_ids_load_as_unquoted(self, tmp_path):
        # R's write.csv quotes the header and every string cell
        plain = write(tmp_path, "p.csv", "id,x,y\nA,1,2\n\nB,3,4\n")
        quoted = write(tmp_path, "q.csv", '"id","x","y"\n"A",1,2\n\n"B",3,4\n')
        assert load(quoted, "y", id_column="id") == load(plain, "y", id_column="id")
        # a quoted id spanning lines 5 and 6; the bad cell is named on line 6
        path = write(tmp_path, "r.csv", '"id","x","y"\n"A",1,2\n\n"B",3,4\n"C\nD",x,6\n')
        with pytest.raises(DataError) as exc:
            load(path, "y", id_column="id")
        assert str(exc.value) == f"{path}, line 6, column 'x': non-numeric cell 'x'"

    def test_missing_target_column(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n")
        with pytest.raises(ConfigError, match="target 'y' not in header"):
            load(path, "y")

    def test_non_numeric_cell(self, tmp_path):
        path = write(tmp_path, "d.csv", "x,y\nabc,2\n")
        with pytest.raises(DataError) as exc:
            load(path, "y")
        assert str(exc.value) == f"{path}, line 2, column 'x': non-numeric cell 'abc'"

    def test_empty_cell_becomes_missing(self, tmp_path):
        path = write(tmp_path, "d.csv", "x,y\n,2\n")
        assert load(path, "y").rows[0] == (None, 2.0)

    @pytest.mark.parametrize("bad", [" ", "x"])
    def test_unparsable_cell_named_next_to_a_missing_one(self, tmp_path, bad):
        path = write(tmp_path, "d.csv", f"id,x,y,z\nA,1,,3\nB,,{bad},6\n")
        with pytest.raises(DataError) as exc:
            load(path, "z", id_column="id")
        assert str(exc.value) == f"{path}, line 3, column 'y': non-numeric cell {bad!r}"

    def test_missing_cells_load_as_none_beside_parsed_ones(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,x,y,z\nA,1,,3\nB,, 4.5 ,\n")
        assert load(path, "z", id_column="id").rows == ((1.0, None, 3.0), (None, 4.5, None))

    def test_first_of_two_bad_cells_is_named(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,x,y,z\nA,1,2,3\nB,4,oops,bad\n")
        with pytest.raises(DataError) as exc:
            load(path, "z", id_column="id")
        assert str(exc.value) == f"{path}, line 3, column 'y': non-numeric cell 'oops'"

    def test_ragged_row_is_named(self, tmp_path):
        path = write(tmp_path, "d.csv", "x,y\n1,2\n3\n")
        with pytest.raises(DataError) as exc:
            load(path, "y")
        assert str(exc.value) == f"{path}, line 3: 1 fields, header has 2"

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
    def test_refuses_non_finite_cell(self, tmp_path, bad):
        path = write(tmp_path, "d.csv", f"x,t\n0,1\n1,2\n2,3\n{bad},4\n")
        with pytest.raises(DataError) as exc:
            load(path, "t")
        assert str(exc.value) == f"{path}, line 5, column 'x': non-finite value {float(bad)!r}"

    def test_refuses_non_finite_target(self, tmp_path):
        path = write(tmp_path, "d.csv", "x,t\n0,1\n1,inf\n2,3\n")
        with pytest.raises(DataError) as exc:
            load(path, "t")
        assert str(exc.value) == f"{path}, line 3, column 't': non-finite value inf"

    def test_first_bad_cell_in_file_order(self, tmp_path):
        # row by row, then column by column; the target is a column like
        # any other. Each cell named is mended before the next read.
        names = ["x", "t", "y"]
        rows = [["0", "1", "1"], ["1", "nan", "2"], ["2", "3", "inf"], ["inf", "nan", "1"], ["1", "2", "2"]]
        path = tmp_path / "d.csv"
        for line, column, value in [(3, "t", "nan"), (4, "y", "inf"), (5, "x", "inf"), (5, "t", "nan")]:
            path.write_text("\n".join(map(",".join, [names, *rows])) + "\n")
            with pytest.raises(DataError) as exc:
                load(path, "t")
            assert str(exc.value) == f"{path}, line {line}, column {column!r}: non-finite value {value}"
            rows[line - 2][names.index(column)] = "0.5"
        path.write_text("\n".join(map(",".join, [names, *rows])) + "\n")
        assert load(path, "t").shape == Shape(5, 3)

    def test_cell_beyond_the_bound_is_refused(self, tmp_path):
        # the cells' sum is finite; the first cell past 1e50 is named
        path = write(tmp_path, "d.csv", "x,y,t\n1e50,-1e50,1\n1e308,-1e308,2\n")
        with pytest.raises(DataError) as exc:
            load(path, "t")
        assert str(exc.value) == f"{path}, line 3, column 'x': value 1e+308 beyond ±1e+50"

    @pytest.mark.parametrize("cell", ["1e50", "-1e50", "1.0000000000000001e50"])
    def test_cells_at_the_bound_are_read(self, tmp_path, cell):
        # their norm fails the fast gate, so each is checked on its own
        assert abs(float(cell)) == BOUND
        path = write(tmp_path, "d.csv", f"x,y,t\n{cell},{cell},1\n0,0,2\n")
        value = float(cell)
        assert load(path, "t").rows == ((value, value, 1.0), (0.0, 0.0, 2.0))

    def test_cell_just_past_the_bound_is_refused(self, tmp_path):
        past = math.nextafter(BOUND, math.inf)
        path = write(tmp_path, "d.csv", f"x,t\n0,1\n{past!r},2\n")
        with pytest.raises(DataError) as exc:
            load(path, "t")
        assert str(exc.value) == f"{path}, line 3, column 'x': value {past!r} beyond ±1e+50"

    def test_directory_is_unreadable(self, tmp_path):
        with pytest.raises(DataError, match="is a directory, not a CSV file"):
            load(tmp_path, "y")

    def test_not_utf8_is_unreadable(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("x,y\n1,2\n".encode() + "caf\u00e9,3\n".encode("latin-1"))
        with pytest.raises(DataError, match="not UTF-8 text"):
            load(path, "y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="nope.csv: no such file"):
            load(tmp_path / "nope.csv", "y")

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "d.csv", "")
        with pytest.raises(DataError, match="file is empty"):
            load(path, "y")

    def test_duplicate_header(self, tmp_path):
        path = write(tmp_path, "d.csv", "x,x\n1,2\n")
        with pytest.raises(DataError, match="duplicate column names in header"):
            load(path, "x")

    def test_blank_lines_hold_no_row_but_keep_line_numbers(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,x,y\nA,1,2\n\nB,3,4\n\n")
        frame = load(path, "y", id_column="id")
        assert frame.rows == ((1.0, 2.0), (3.0, 4.0))
        assert frame.ids == ("A", "B")
        path = write(tmp_path, "e.csv", "id,x,y\nA,1,2\n\nB,oops,4\n")
        with pytest.raises(DataError) as exc:
            load(path, "y", id_column="id")
        assert str(exc.value) == f"{path}, line 4, column 'x': non-numeric cell 'oops'"

    def test_a_lone_missing_cell_is_not_a_blank_line(self, tmp_path):
        rows = ((1.0,), (None,), (2.0,))
        out = write_table(tmp_path / "out.csv", ["x"], rows)
        assert load(out, None).rows == rows

    def test_consume_sees_each_record_and_nothing_is_kept(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,x,y\nA,1,\n\nB,3,4\n")
        seen = []
        shape = load_csv(
            path, "y", id_column="id",
            consume=lambda names, records: seen.extend([names, *records]),
        )
        assert seen == [["x", "y"], (2, "A", [1.0, None]), (4, "B", [3.0, 4.0])]
        assert shape == Shape(n_rows=2, n_cols=2)

    def test_round_trip_identical_frame(self, tmp_path):
        path = write(
            tmp_path, "d.csv", "id,x,y\nA,1.5,\nB,0.1,410\nC,-2.25,305\n"
        )
        frame = load(path, "y", id_column="id")
        out = write_table(tmp_path / "out.csv", frame.names, frame.rows, frame.ids)
        again = load(out, "y", id_column="id")
        assert again == frame

    @pytest.mark.parametrize("ids", [None, ["A", "B"]])
    def test_round_trip_keeps_every_bit(self, tmp_path, ids):
        rows = ((None, -0.0), (1e-320, -1e50))
        out = write_table(tmp_path / "out.csv", ["x", "y"], rows, ids)
        body = "x,y\r\n,-0.0\r\n1e-320,-1e+50\r\n"
        if ids:
            body = "id,x,y\r\nA,,-0.0\r\nB,1e-320,-1e+50\r\n"
        assert out.read_bytes() == body.encode()
        again = load(out, "y", id_column="id" if ids else None)
        assert [list(map(repr, row)) for row in again.rows] == [
            list(map(repr, row)) for row in rows
        ]

    @pytest.mark.parametrize("text, message", [
        ("id,x\nA,1\n,2\n", ", line 3: empty id"),
        ("id,x\nA,1\n\nB,2\nA,3\n", ", lines 2 and 5 have the same id 'A'"),
        # the earlier line is found by reading the file again: past a
        # byte-order mark and the header, and through quoted fields, one
        # of them spanning two lines
        ('\ufeffx,id\n1,A\n"2",B\n4,"C\nD"\n5,A\n', ", lines 2 and 6 have the same id 'A'"),
        ("id,x\nid,1\nid,2\n", ", lines 2 and 3 have the same id 'id'"),
        # the first empty id is named as empty, not as a repeat
        ("id,x\nA,1\n,2\n,3\n", ", line 3: empty id"),
    ])
    def test_empty_or_repeated_id_is_refused(self, tmp_path, text, message):
        path = write(tmp_path, "d.csv", text)
        with pytest.raises(DataError) as exc:
            load(path, None, id_column="id")
        assert str(exc.value) == f"{path}{message}"

    @pytest.mark.parametrize("fault", [
        FileNotFoundError(2, "No such file or directory", "out/x.json"),
        IsADirectoryError(21, "Is a directory", "out/x.json"),
        UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),
    ])
    def test_a_fault_of_the_consumer_is_not_one_of_the_file(self, tmp_path, fault):
        # the consumer ranks and writes as it reads: a fault of its own
        # was reported as the CSV file's ("no such file", "not UTF-8 text")
        path = write(tmp_path, "d.csv", "x\n1\n")

        def consume(names, records):
            next(records)
            raise fault

        with pytest.raises(type(fault)) as exc:
            load_csv(path, None, None, consume)
        assert exc.value is fault


def read_training(tmp_path, names, rows):
    """``read_table`` of a training CSV of ``rows`` under ``names``, target ``t``."""
    return read_table(write_table(tmp_path / "train.csv", names, rows), "t", None)


def stream(path, target_name, id_column, features, scored):
    """``(features, rows)`` that ``stream_table`` hands its consumer, the
    rows drawn to the end as they are read."""
    streamed = []
    stream_table(
        path, target_name, id_column,
        lambda features, rows: streamed.append((features, list(rows))), features, scored,
    )
    return streamed[0]


def read_subjects(tmp_path, names, rows, features=None):
    """The streamed rows of an unscored cohort CSV whose features are ``names``."""
    path = write_table(tmp_path / "cohort.csv", names, rows)
    return stream(path, "t", None, features or names, scored=False)


class TestReadTable:
    """``read_table`` and ``stream_table`` keep what a ranking reads and
    refuse cells it cannot rank."""

    def test_training_and_cohort(self, tmp_path):
        train = read_table(write(tmp_path, "t.csv", "id,x,t,y\nA,1,400,2\nB,3,300,4\n"), "t", "id")
        assert train.features == ("x", "y")
        assert train.rows == [(1.0, 2.0), (3.0, 4.0)]
        assert train.target == [400.0, 300.0]
        assert train.ids == ["A", "B"]
        assert train.column("y") == [2.0, 4.0]
        # a cohort's rows follow the training table's feature order; an
        # unscored cohort's score may be blank
        path = write(tmp_path, "c.csv", "id,y,t,x\nC,5,,6\nD,7,,8\n")
        assert stream(path, "t", "id", train.features, scored=False) == (
            ("x", "y"), [("C", (6.0, 5.0), None), ("D", (8.0, 7.0), None)]
        )
        assert stream(path.with_name("t.csv"), "t", "id", ("y", "x"), scored=True) == (
            ("y", "x"), [("A", (2.0, 1.0), 400.0), ("B", (4.0, 3.0), 300.0)]
        )

    def test_cohort_rows_come_as_they_are_read(self, tmp_path):
        # the first row is handed out before the bad cell of the second is read
        path = write(tmp_path, "c.csv", "x,t\n1,400\n2,x1\n")
        seen = []

        def consume(features, rows):
            seen.append(next(rows))
            next(rows)

        with pytest.raises(DataError, match="line 3, column 't': non-numeric cell 'x1'"):
            stream_table(path, "t", None, consume)
        assert seen == [(None, (1.0,), 400.0)]

    @pytest.mark.parametrize("cell, problem", [("nan", "non-finite value nan"), ("", "missing cell")])
    def test_blank_lines_are_counted_in_refusals(self, tmp_path, cell, problem):
        path = write(tmp_path, "t.csv", f"x,t\n1,400\n\n2,{cell}\n")
        with pytest.raises(DataError) as exc:
            read_table(path, "t", None)
        assert str(exc.value) == f"{path}, line 4, column 't': {problem}"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, float("1e999")])
    def test_training_feature(self, tmp_path, bad):
        with pytest.raises(DataError, match="line 3, column 'x1': non-finite value"):
            read_training(tmp_path, ["x0", "x1", "t"], [[0.0, 0.0, 400.0], [1.0, bad, 300.0]])

    def test_training_target(self, tmp_path):
        with pytest.raises(DataError, match="line 3, column 't': non-finite value nan"):
            read_training(tmp_path, ["x0", "t"], [[0.0, 400.0], [1.0, math.nan], [2.0, 300.0]])

    def test_first_bad_training_cell_in_row_order(self, tmp_path):
        rows = [[0.0, 0.0, 1.0], [0.0, None, 2.0], [math.inf, 0.0, 3.0]]
        with pytest.raises(DataError, match="line 3, column 'x1': missing cell"):
            read_training(tmp_path, ["x0", "x1", "t"], rows)

    def test_fold_errors_tagged(self, tmp_path):
        with pytest.raises(DataError, match="line 3, column 'x': missing cell"):
            read_training(tmp_path, ["x", "t"], [[0.0, 1], [None, 2], [2.0, 3]])

    @pytest.mark.parametrize("cells", [[0.0, math.inf], [math.nan, 0.0]])
    def test_subject_cell(self, tmp_path, cells):
        with pytest.raises(DataError, match=r"cohort\.csv, line 3, column 'x\d': non-finite value"):
            read_subjects(tmp_path, ["x0", "x1"], [[0.0, 0.0], cells])

    def test_subject_outlier_cell(self, tmp_path):
        with pytest.raises(DataError, match="line 2, column 'o': non-finite value nan"):
            read_subjects(tmp_path, ["x0", "o"], [[0.0, math.nan]])

    def test_row_errors_tagged_with_index(self, tmp_path):
        with pytest.raises(DataError, match="line 3, column 'x0': missing cell"):
            read_subjects(tmp_path, ["x0"], [[0.0], [None]])

    @pytest.mark.parametrize("cells, features, missing", [
        ([1.0, 2.0], ["x0", "x1", "x2"], "x2"),  # a subject shorter than the training rows
        ([0.0], ["x0", "x1"], "x1"),
    ])
    def test_cohort_lacking_a_training_feature(self, tmp_path, cells, features, missing):
        names = [f"x{j}" for j in range(len(cells))]
        message = f"feature columns differ from training: extra [], missing [{missing!r}]"
        with pytest.raises(DataError, match=re.escape(message)):
            read_subjects(tmp_path, names, [cells], features)


def split_cohort(tmp_path, header, rows, **config):
    """``prepare``'s year split of a cohort CSV with an id column, a
    ``year`` column, ``header`` and target ``t``; rows are ids r0, r1, ..."""
    lines = [",".join(["id", "year", *header])]
    for i, row in enumerate(rows):
        lines.append(",".join([f"r{i}", *("" if c is None else repr(float(c)) for c in row)]))
    path = write(tmp_path, "cohort.csv", "\n".join(lines) + "\n")
    doc = {
        "target_name": "t", "id_column": "id", "cohort_column": "year", "year_cutoff": 2019,
        **config,
    }
    config = _from_json(PipelineConfig, doc, "config")
    names, train, validation, counts = _split_cohort(config, path)
    for side in (train, validation):
        assert all(type(c) is array and c.typecode == "d" for c in side.columns)
        assert {len(c) for c in side.columns} == {len(side.ids)}
    return side_frame(names, train), side_frame(names, validation), counts


class Side(NamedTuple):
    """One side of ``prepare``'s split: its labels, its rows and their ids."""

    column_names: tuple
    rows: tuple
    row_ids: tuple

    @property
    def n_rows(self):
        return len(self.rows)

    def column(self, name):
        j = self.column_names.index(name)
        return tuple(row[j] for row in self.rows)


def side_frame(names, side):
    """One side of ``prepare``'s split as a ``Side``."""
    return Side(tuple(names), tuple(zip(*side.columns)), tuple(side.ids))


def split_years(tmp_path, rows, **config):
    """``split_cohort`` of rows (year, x, t)."""
    return split_cohort(tmp_path, ["x", "t"], rows, **config)


YEARS = [[float(y), float(i), 400.0] for i, y in enumerate(range(2015, 2022))]


class TestFilters:
    """Rows go to training before the cutoff year and to validation in it."""

    def test_cutoff_below(self, tmp_path):
        train, _, _ = split_years(tmp_path, YEARS)
        assert train.row_ids == ("r0", "r1", "r2", "r3")
        assert train.column("x") == (0.0, 1.0, 2.0, 3.0)

    def test_cutoff_below_everything(self, tmp_path):
        train, validation, counts = split_years(tmp_path, YEARS, year_cutoff=1900)
        assert train.n_rows == validation.n_rows == 0
        assert train.column_names == validation.column_names == ("x", "t")
        assert counts["dropped_outside_years"] == len(YEARS)

    def test_equality_via_composed_filters(self, tmp_path):
        # validation is the cutoff year alone: at or above it, below the next
        _, validation, counts = split_years(tmp_path, YEARS)
        assert validation.row_ids == ("r4",)
        assert counts["dropped_outside_years"] == 2

    def test_unknown_column(self, tmp_path):
        with pytest.raises(ConfigError, match="cohort column 'cohort' not in input"):
            split_years(tmp_path, YEARS, cohort_column="cohort")

    def test_preserves_order(self, tmp_path):
        rows = [[2019, 1, 1], [2017, 2, 2], [2018, 3, 3], [2016, 4, 4]]
        train, _, _ = split_years(tmp_path, rows)
        assert train.column("t") == (2.0, 3.0, 4.0)
        assert train.row_ids == ("r1", "r2", "r3")


class TestDrops:
    """A row left out is counted once, in the first bucket that fits."""

    def test_drop_missing_target(self, tmp_path):
        rows = [[2018, 1, None], [2018, 2, 5], [2019, 3, None], [2018, 4, 7]]
        train, validation, counts = split_years(tmp_path, rows)
        assert counts["train_dropped_missing_target"] == 1
        assert counts["validation_dropped_missing_target"] == 1
        assert train.column("t") == (5.0, 7.0)
        assert validation.n_rows == 0

    def test_drop_missing_target_identity(self, tmp_path):
        rows = [[2018, 1, 2], [2019, 3, 4]]
        train, validation, counts = split_years(tmp_path, rows)
        assert train.rows == ((1.0, 2.0),)
        assert validation.rows == ((3.0, 4.0),)
        assert counts == {
            "dropped_outside_years": 0,
            "columns_in": 2,
            "train_dropped_missing_target": 0,
            "validation_dropped_missing_target": 0,
            "train_dropped_incomplete": 0,
            "validation_dropped_incomplete": 0,
        }

    def test_drop_incomplete(self, tmp_path):
        rows = [[2018, 1, 2], [2018, None, 4], [2018, 5, None], [2018, 6, 7]]
        train, _, counts = split_years(tmp_path, rows)
        assert train.rows == ((1.0, 2.0), (6.0, 7.0))
        assert train.row_ids == ("r0", "r3")
        assert counts["train_dropped_incomplete"] == 1
        assert counts["train_dropped_missing_target"] == 1

    def test_drop_incomplete_all_rows(self, tmp_path):
        rows = [[2018, None, 2], [2019, None, 3]]
        train, validation, counts = split_years(tmp_path, rows)
        assert train.n_rows == validation.n_rows == 0
        assert counts["train_dropped_incomplete"] == counts["validation_dropped_incomplete"] == 1

    def test_order_of_drops_equivalent(self, tmp_path):
        # no year beats a missing target, which beats a missing cell
        rows = [[None, None, None], [2018, None, None], [2018, None, 4], [2018, 8, 9]]
        train, _, counts = split_years(tmp_path, rows)
        assert counts["dropped_outside_years"] == 1
        assert counts["train_dropped_missing_target"] == 1
        assert counts["train_dropped_incomplete"] == 1
        assert train.rows == ((8.0, 9.0),)


class TestAggregateMeans:
    """Group means are added to each record as ``prepare`` reads it."""

    def test_mean_of_members(self, tmp_path):
        train, _, _ = split_cohort(
            tmp_path, ["q1", "q2", "q3", "t"], [[2018, 0.8, 0.9, 1.0, 400]],
            aggregations=[{"group_name": "q_mean", "member_columns": ["q1", "q2", "q3"]}],
        )
        assert train.column("q_mean") == (pytest.approx(0.9),)

    def test_single_member_copies(self, tmp_path):
        train, _, _ = split_cohort(
            tmp_path, ["q1", "t"], [[2018, 0.7, 400], [2018, 0.4, 300]],
            aggregations=[{"group_name": "g", "member_columns": ["q1"]}],
        )
        assert train.column("g") == (0.7, 0.4)

    def test_missing_poisons_the_mean(self, tmp_path):
        # row-wise oracle: a mean over complete members would give 0.8 for
        # row 0; the policy instead marks the group value missing, which
        # drops the row as incomplete
        train, _, counts = split_cohort(
            tmp_path, ["q1", "q2", "t"], [[2018, 0.8, None, 400], [2018, 0.6, 0.8, 300]],
            aggregations=[{"group_name": "g", "member_columns": ["q1", "q2"]}],
        )
        assert train.column("g") == (0.7,)
        assert counts["train_dropped_incomplete"] == 1

    def test_members_sum_left_to_right(self, tmp_path):
        # compensated summation (built-in sum() from Python 3.12 on) would
        # give 1/3; the files this package writes must not depend on it
        train, _, _ = split_cohort(
            tmp_path, ["a", "b", "c", "t"], [[2018, 1e16, 1.0, -1e16, 400]],
            aggregations=[{"group_name": "m", "member_columns": ["a", "b", "c"]}],
        )
        assert train.column("m") == (0.0 / 3,)

    def test_drop_members(self, tmp_path):
        # the group's members leave prepare's column list; its mean joins it
        aggregations = [{"group_name": "g", "member_columns": ["q1", "q2"]}]
        train, _, _ = split_cohort(
            tmp_path, ["q1", "q2", "x", "t"], [[2018, 1, 2, 3, 4]], aggregations=aggregations
        )
        assert train.column_names == ("x", "t", "g")
        assert train.rows == ((3.0, 4.0, 1.5),)

    def test_other_columns_preserved(self, tmp_path):
        rows = [[2018, 1, 2, 7, 3], [2018, 4, 5, 8, 6]]
        train, _, _ = split_cohort(
            tmp_path, ["q1", "q2", "x", "t"], rows,
            aggregations=[{"group_name": "g", "member_columns": ["q1", "q2"]}],
        )
        assert train.column("x") == (7.0, 8.0)
        assert train.column("t") == (3.0, 6.0)

    def test_name_collision(self, tmp_path):
        # the input is fine: the config names a column twice
        with pytest.raises(ConfigError) as exc:
            split_cohort(
                tmp_path, ["q1", "t"], [[2018, 1, 2]],
                aggregations=[{"group_name": "q1", "member_columns": ["q1"]}],
            )
        assert str(exc.value) == "aggregation 'q1': column 'q1' already exists in the input"

    @pytest.mark.parametrize("groups", [
        [{"group_name": "id", "member_columns": ["q1"]}],
        [{"group_name": "g", "member_columns": ["q1"]}, {"group_name": "g", "member_columns": ["t"]}],
    ], ids=["id", "earlier-group"])
    def test_group_named_as_the_id_column(self, groups):
        # the written header would name the id or the group twice, which
        # loocv refuses; no header is needed to see it
        with pytest.raises(ConfigError, match=f"column '{groups[-1]['group_name']}' already exists"):
            _from_json(
                PipelineConfig,
                {"target_name": "x", "id_column": "id", "aggregations": groups},
                "config",
            )

    @pytest.mark.parametrize("member, problem", [
        ("q9", "no column named 'q9'"),
        # the id column is no feature, so it cannot enter a mean
        ("id", "the id column 'id' cannot be a member"),
    ])
    def test_unknown_member(self, tmp_path, member, problem):
        with pytest.raises(ConfigError) as exc:
            split_cohort(
                tmp_path, ["q1", "t"], [[2018, 1, 2]],
                aggregations=[{"group_name": "g", "member_columns": [member, "q1"]}],
            )
        assert str(exc.value) == f"aggregation 'g': {problem}"


class FloatSubclass(float):
    pass


# every kind of cell a caller may hand to write_csv once it has gone
# through float(), or None for write_table; NaN is left out because it
# never compares equal to itself
FINITE = st.floats(allow_nan=False)
CELLS = st.one_of(
    st.none(),
    FINITE,
    st.integers(-10**6, 10**6),
    st.booleans(),
    FINITE.map(repr),
    st.integers(-999, 999).map(str),
    FINITE.map(FloatSubclass),
)


def csv_reader_records(path):
    """(line_num, record) of each record ``csv.reader`` reads from ``path``,
    then (line_num, message) of its refusal, if it refuses one."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            for record in reader:
                out.append((reader.line_num, record))
        except csv.Error as exc:
            out.append((reader.line_num, str(exc)))
    return out


# every character csv.reader treats apart, each line ending, and plain text
CSV_PIECES = ["a", ",", '"', "\n", "\r", "\r\n", " ", "1.5", "\0"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(CSV_PIECES), max_size=30).map("".join))
def test_split_lines_reads_records_and_lines_as_csv_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes(text.encode())
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            out.extend(_split_lines(fh, path))
        except DataError as exc:  # a NUL, on Python 3.10
            line, reason = re.fullmatch(rf"{re.escape(str(path))}, line (\d+): (.*)", str(exc)).groups()
            out.append((int(line), reason))
    assert out == csv_reader_records(path)


# cells csv.writer quotes; NUL is left out, since csv.writer refuses it on
# Python 3.10, where no file holding one is read
QUOTED = st.lists(st.sampled_from(CSV_PIECES[:-1]), min_size=1, max_size=4).map("".join)
WRITTEN = st.one_of(CELLS.filter(lambda c: c is not None), QUOTED, st.just(""))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(WRITTEN, max_size=3),
    st.lists(st.one_of(st.lists(WRITTEN, max_size=4), st.just([""])), max_size=5),
)
def test_write_csv_writes_the_bytes_of_csv_writer(tmp_path_factory, header, rows):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(header, path, rows)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    writer.writerows(rows)
    assert path.read_bytes() == expected.getvalue().encode()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_loaded_records_and_prepared_columns_hold_checked_cells(tmp_path_factory, data):
    width = data.draw(st.integers(2, 4))
    names = [f"c{j}" for j in range(width)]
    rows = data.draw(st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=6))
    ids = data.draw(st.one_of(st.none(), st.just([f"r{i}" for i in range(len(rows))])))
    rows = tuple(tuple(None if c is None else float(c) for c in row) for row in rows)
    some = data.draw(st.lists(st.sampled_from(names[1:]), unique=True))

    path = write_table(tmp_path_factory.mktemp("csv") / "frame.csv", names, rows, ids)
    # an infinite cell, or a finite one beyond the bound, in whichever
    # column, is refused as its record is parsed
    bad = [(i, j) for i, row in enumerate(rows) for j, c in enumerate(row) if c is not None and abs(c) > BOUND]
    if bad:
        i, j = bad[0]
        with pytest.raises(DataError) as exc:
            load(path, "c0", None if ids is None else "id")
        cell = rows[i][j]
        problem = f"non-finite value {cell!r}" if math.isinf(cell) else f"value {cell!r} beyond ±1e+50"
        assert str(exc.value) == f"{path}, line {i + 2}, column {names[j]!r}: {problem}"
        return
    loaded = load(path, "c0", None if ids is None else "id")
    assert loaded.shape == Shape(len(rows), width)
    assert loaded.rows == rows
    assert all(type(c) is float or c is None for row in loaded.rows for c in row)
    assert loaded.ids == (tuple(ids) if ids else (None,) * len(rows))
    config = _from_json(PipelineConfig, {
        "target_name": "c0",
        "id_column": None if ids is None else "id",
        "cohort_column": "c1",
        "year_cutoff": 0.5,
        "aggregations": [{"group_name": "g", "member_columns": names[2:]}] if width > 2 else [],
        "exclude_columns": some,
    }, "config")
    if width == 2:  # the target and the cohort year leave no candidate feature
        with pytest.raises(ConfigError, match="no candidate feature column"):
            _split_cohort(config, path)
        return
    kept, train, validation, _ = _split_cohort(config, path)
    sides = (train.columns, validation.columns)
    try:
        if len(train.ids) + len(validation.ids) >= 2:  # run_prepare refuses fewer first
            standardize_joint(kept, "c0", *sides)
    except DataError:
        pass  # a constant column
    for side, columns in zip((train, validation), sides):
        assert len(columns) == len(kept)
        for column in columns:
            assert type(column) is array and column.typecode == "d"
            assert len(column) == len(side.ids)


def test_standardized_columns_are_float_arrays():
    train = [[1, True, 3], [2.5, 4.0, -1], [300, 420.0, 410]]
    validation = [[0.5], [7], [380]]
    standardize_joint(["a", "b", "t"], "t", train, validation)
    for column in train[:2] + validation[:2]:
        assert type(column) is array and column.typecode == "d"
    assert train[2] == [300, 420.0, 410] and validation[2] == [380]
