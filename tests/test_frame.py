from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ammknn import Frame, load_csv, write_csv
from ammknn.config import config_from_json_dict
from ammknn.errors import ConfigError, DataError
from ammknn.pipeline import _split_cohort
from ammknn.preprocess import standardize_joint


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def write_frame(frame, path):
    """Write a Frame as a CSV, its id column first when it has one."""
    if frame.row_ids is None:
        write_csv(frame.column_names, path, frame.rows)
    else:
        write_csv(
            [frame.id_name or "id", *frame.column_names], path,
            ((rid, *row) for rid, row in zip(frame.row_ids, frame.rows)),
        )


class TestLoadCsv:
    def test_basic_load(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,x,y\nA,1,2\nB,3,4\nC,5,6\n")
        frame = load_csv(path, "y", id_column="id")
        assert frame.n_rows == 3
        assert frame.column_names == ("x", "y")
        assert frame.row_ids == ("A", "B", "C")
        assert frame.target_name == "y"
        assert frame.rows[0] == (1.0, 2.0)

    def test_missing_target_column(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n")
        with pytest.raises(ConfigError, match="target 'y' not in header"):
            load_csv(path, "y")

    def test_non_numeric_cell(self, tmp_path):
        path = write(tmp_path, "d.csv", "x,y\nabc,2\n")
        with pytest.raises(DataError) as exc:
            load_csv(path, "y")
        assert str(exc.value) == "non-numeric cell 'abc' at row 1, column 'x'"

    def test_empty_cell_becomes_missing(self, tmp_path):
        path = write(tmp_path, "d.csv", "x,y\n,2\n")
        frame = load_csv(path, "y")
        assert frame.rows[0] == (None, 2.0)

    @pytest.mark.parametrize("bad", [" ", "x"])
    def test_unparsable_cell_named_next_to_a_missing_one(self, tmp_path, bad):
        path = write(tmp_path, "d.csv", f"id,x,y,z\nA,1,,3\nB,,{bad},6\n")
        with pytest.raises(DataError) as exc:
            load_csv(path, "z", id_column="id")
        assert str(exc.value) == f"non-numeric cell {bad!r} at row 2, column 'y'"

    def test_missing_cells_load_as_none_beside_parsed_ones(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,x,y,z\nA,1,,3\nB,, 4.5 ,\n")
        frame = load_csv(path, "z", id_column="id")
        assert frame.rows == ((1.0, None, 3.0), (None, 4.5, None))

    def test_first_of_two_bad_cells_is_named(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,x,y,z\nA,1,2,3\nB,4,oops,bad\n")
        with pytest.raises(DataError) as exc:
            load_csv(path, "z", id_column="id")
        assert str(exc.value) == "non-numeric cell 'oops' at row 2, column 'y'"

    def test_directory_is_unreadable(self, tmp_path):
        with pytest.raises(DataError, match="is a directory, not a CSV file"):
            load_csv(tmp_path, "y")

    def test_not_utf8_is_unreadable(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("x,y\n1,2\n".encode() + "caf\u00e9,3\n".encode("latin-1"))
        with pytest.raises(DataError, match="not UTF-8 text"):
            load_csv(path, "y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="nope.csv: no such file"):
            load_csv(tmp_path / "nope.csv", "y")

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "d.csv", "")
        with pytest.raises(DataError, match="file is empty"):
            load_csv(path, "y")

    def test_duplicate_header(self, tmp_path):
        path = write(tmp_path, "d.csv", "x,x\n1,2\n")
        with pytest.raises(DataError, match="duplicate column names in header"):
            load_csv(path, "x")

    def test_blank_lines_hold_no_row_but_keep_row_numbers(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,x,y\nA,1,2\n\nB,3,4\n\n")
        frame = load_csv(path, "y", id_column="id")
        assert frame.rows == ((1.0, 2.0), (3.0, 4.0))
        assert frame.row_ids == ("A", "B")
        path = write(tmp_path, "e.csv", "id,x,y\nA,1,2\n\nB,oops,4\n")
        with pytest.raises(DataError) as exc:
            load_csv(path, "y", id_column="id")
        assert str(exc.value) == "non-numeric cell 'oops' at row 3, column 'x'"

    def test_a_lone_missing_cell_is_not_a_blank_line(self, tmp_path):
        frame = Frame(["x"], [[1.0], [None], [2.0]], None)
        out = tmp_path / "out.csv"
        write_frame(frame, out)
        assert load_csv(out, None).rows == frame.rows

    def test_consume_sees_each_record_and_nothing_is_kept(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,x,y\nA,1,\n\nB,3,4\n")
        seen = []
        frame = load_csv(
            path, "y", id_column="id",
            consume=lambda names, records: seen.extend([names, *records]),
        )
        assert seen == [["x", "y"], (1, "A", [1.0, None]), (3, "B", [3.0, 4.0])]
        assert (frame.column_names, frame.rows, frame.row_ids) == (("x", "y"), (), ())

    def test_round_trip_identical_frame(self, tmp_path):
        path = write(
            tmp_path, "d.csv", "id,x,y\nA,1.5,\nB,0.1,410\nC,-2.25,305\n"
        )
        frame = load_csv(path, "y", id_column="id")
        out = tmp_path / "out.csv"
        write_frame(frame, out)
        again = load_csv(out, "y", id_column="id")
        assert again == frame

    @pytest.mark.parametrize("ids", [None, ["A", "B"]])
    def test_round_trip_keeps_every_bit(self, tmp_path, ids):
        frame = Frame(["x", "y"], [[None, -0.0], [1e-320, 1e200]], "y", row_ids=ids)
        out = tmp_path / "out.csv"
        write_frame(frame, out)
        body = "x,y\r\n,-0.0\r\n1e-320,1e+200\r\n"
        if ids:
            body = "id,x,y\r\nA,,-0.0\r\nB,1e-320,1e+200\r\n"
        assert out.read_bytes() == body.encode()
        again = load_csv(out, "y", id_column="id" if ids else None)
        assert [list(map(repr, row)) for row in again.rows] == [
            list(map(repr, row)) for row in frame.rows
        ]


class TestFrameInvariants:
    def test_row_width_checked(self):
        with pytest.raises(Exception, match="cells"):
            Frame(["a", "b"], [[1.0]], "b")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(DataError, match="duplicate column labels"):
            Frame(["a", "a"], [[1.0, 2.0]], "a")

    def test_target_must_be_member(self):
        with pytest.raises(DataError, match="target column 'b' not present"):
            Frame(["a"], [[1.0]], "b")

    def test_prediction_only_frame_has_no_target(self):
        frame = Frame(["a"], [[1.0]], None)
        with pytest.raises(DataError, match="frame has no target column"):
            frame.target_values()
        assert frame.feature_names() == ("a",)


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
    names, train, validation, counts = _split_cohort(config_from_json_dict(doc), path)
    for side in (train, validation):
        assert all(type(c) is array and c.typecode == "d" for c in side.columns)
        assert {len(c) for c in side.columns} == {len(side.ids)}
    return side_frame(names, train), side_frame(names, validation), counts


def side_frame(names, side):
    """One side of ``prepare``'s split as a Frame."""
    return Frame(names, list(zip(*side.columns)), "t", side.ids, "id")


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
        with pytest.raises(DataError, match="column 'q1' already exists"):
            split_cohort(
                tmp_path, ["q1", "t"], [[2018, 1, 2]],
                aggregations=[{"group_name": "q1", "member_columns": ["q1"]}],
            )

    def test_unknown_member(self, tmp_path):
        with pytest.raises(DataError, match="no column named 'q9'"):
            split_cohort(
                tmp_path, ["q1", "t"], [[2018, 1, 2]],
                aggregations=[{"group_name": "g", "member_columns": ["q9"]}],
            )


class FloatSubclass(float):
    pass


# every kind of cell a caller may hand to Frame; NaN is left out because it
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


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda width: st.tuples(
        st.just(width), st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=6)
    )
))
def test_mixed_cells_equal_per_cell_float_conversion(case):
    width, rows = case
    names = [f"c{j}" for j in range(width)]
    frame = Frame(names, rows, None)
    assert frame.rows == tuple(
        tuple(None if c is None else float(c) for c in row) for row in rows
    )
    assert all(type(c) in (float, type(None)) for row in frame.rows for c in row)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(CELLS, min_size=2, max_size=2), min_size=1, max_size=6),
    st.data(),
)
def test_ragged_rows_raise_invalid_spec(rows, data):
    i = data.draw(st.integers(0, len(rows) - 1))
    rows[i] = data.draw(st.sampled_from([rows[i][:1], rows[i] + [1.0]]))
    with pytest.raises(ConfigError, match=f"row {i} has .* cells, expected 2"):
        Frame(["a", "b"], rows, None)


def assert_checked(frame):
    """The invariant that lets derived Frames skip the per-cell scan."""
    assert type(frame.rows) is tuple
    for row in frame.rows:
        assert type(row) is tuple and len(row) == frame.n_cols
        assert all(type(c) is float or c is None for c in row)
    assert frame.row_ids is None or (
        type(frame.row_ids) is tuple and len(frame.row_ids) == frame.n_rows
    )
    assert frame == Frame(
        frame.column_names, frame.rows, frame.target_name, frame.row_ids, frame.id_name
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_loaded_frames_and_prepared_columns_hold_checked_cells(tmp_path_factory, data):
    width = data.draw(st.integers(2, 4))
    names = [f"c{j}" for j in range(width)]
    rows = data.draw(st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=6))
    ids = data.draw(st.one_of(st.none(), st.just([f"r{i}" for i in range(len(rows))])))
    frame = Frame(names, rows, "c0", ids, None if ids is None else "id")
    some = data.draw(st.lists(st.sampled_from(names[1:]), unique=True))

    path = tmp_path_factory.mktemp("csv") / "frame.csv"
    write_frame(frame, path)
    assert_checked(load_csv(path, "c0", None if ids is None else "id"))
    config = config_from_json_dict({
        "target_name": "c0",
        "id_column": None if ids is None else "id",
        "cohort_column": "c1",
        "year_cutoff": 0.5,
        "aggregations": [{"group_name": "g", "member_columns": names[2:]}] if width > 2 else [],
        "exclude_columns": some,
    })
    try:
        kept, train, validation, _ = _split_cohort(config, path)
    except DataError:
        return  # a non-finite year
    sides = (train.columns, validation.columns)
    try:
        standardize_joint(kept, "c0", *sides)
    except DataError:
        pass  # too few rows, a constant column or a non-finite cell
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
