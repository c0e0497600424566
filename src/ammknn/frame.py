"""CSV reading and writing, and the check of every cell a ranking reads.

``load_csv`` reads a CSV's header and hands ``consume`` an iterator that
parses each record as it is asked for one; nothing else holds the table.
``prepare`` consumes the raw records itself (see ``pipeline``).
``read_table`` consumes a prepared table for ``loocv``, ``validate`` and
``predict``: it keeps only what a ranking step reads, one tuple of
feature cells per row, in the training table's feature order, the
targets, the outlier column and the ids, and checks each of those cells
as its record is parsed. ``write_csv`` writes rows from any iterable, so
neither ``prepare`` nor ``synth`` holds a table it writes.

Whether a cell may enter arithmetic is decided by one helper,
``refuse_unusable``, wherever cells first enter it: the cohort year, the
pooled columns being standardized, and every cell ``read_table`` picks.
A missing or NaN/infinite cell is refused, naming it as
``<training|validation|subject|input> row i, column c``.

CSV conventions: UTF-8 (a leading byte-order mark is skipped), one
header row, ``.`` decimal separator, empty string means missing, and a
blank line holds no row. Column labels are taken verbatim from the
header and treated as opaque keys (no sanitization). Every id in the id
column is non-empty and appears once.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import ConfigError, DataError

Cell = Optional[float]


def refuse_unusable(
    row_name: Callable[[int], str],
    names: Sequence[str],
    columns: Sequence[Sequence[Cell]],
    missing_ok: bool = False,
) -> None:
    """Refuse the first missing (unless ``missing_ok``), NaN or infinite
    cell of ``columns``, in row order, as ``"{row_name(i)}, column {name!r}"``.

    A NaN has no place in a distance order and turns a column's mean and
    sd into NaN; a missing cell cannot be summed. The common case, every
    cell finite, costs one ``isfinite`` pass per column.
    """
    bad = []
    for name, column in zip(names, columns):
        try:
            if all(map(math.isfinite, column)):
                continue
        except TypeError:  # a missing cell (None)
            pass
        bad.append((name, column))
    if not bad:
        return
    for i, cells in enumerate(zip(*(column for _, column in bad))):
        for (name, _), v in zip(bad, cells):
            if v is None:
                if not missing_ok:
                    raise DataError(f"{row_name(i)}, column {name!r}: missing cell")
            elif not math.isfinite(v):
                raise DataError(f"{row_name(i)}, column {name!r}: non-finite value {v!r}")


def _picker(idx: Sequence[int]) -> Callable:
    """A function from a row to the tuple of its cells at ``idx``."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return lambda row: tuple(row[i] for i in idx)


@dataclass(frozen=True)
class AggregationSpec:
    """Collapse several columns into one row-wise mean column."""

    group_name: str
    member_columns: tuple

    def __post_init__(self):
        object.__setattr__(self, "member_columns", tuple(self.member_columns))
        if not self.member_columns:
            raise ConfigError(f"aggregation {self.group_name!r} has no member columns")


# --------------------------------------------------------------------------
# CSV I/O
# --------------------------------------------------------------------------

def _parse_cell(text: str, row: int, column: str) -> Cell:
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        raise DataError(f"non-numeric cell {text!r} at row {row}, column {column!r}") from None


def _read_header(reader, path, target_name: Optional[str], id_column: Optional[str]):
    """(column names without the id, id position or None) from a CSV reader."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: file is empty") from None
    if not header or all(h == "" for h in header):
        raise DataError(f"{path}: blank header row")
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    if target_name is not None and target_name not in header:
        raise ConfigError(f"{path}: target {target_name!r} not in header")
    if id_column is not None and id_column not in header:
        raise ConfigError(f"{path}: id column {id_column!r} not in header")
    id_pos = header.index(id_column) if id_column is not None else None
    return [h for i, h in enumerate(header) if i != id_pos], id_pos


def _records(reader, path, names: Sequence[str], id_pos: Optional[int], tally: list) -> Iterator:
    """(row number, id or None, list of cells) for each record after the
    header, adding 1 to ``tally[0]`` for each.

    A blank line (a record of no fields) holds no subject and is skipped,
    but still counted, so the rows after it keep their numbers. An empty
    id is refused, naming its row, and so is an id that an earlier row
    holds, naming both rows: the rows seen are kept as a dict from id to
    row number, which is smaller than a set of the ids.
    """
    width = len(names) + (id_pos is not None)
    seen = {}
    for lineno, record in enumerate(reader, start=1):
        if len(record) != width:
            if not record:
                continue
            raise DataError(f"{path}: row {lineno} has {len(record)} fields, header has {width}")
        rid = None
        if id_pos is not None:
            rid = record.pop(id_pos)
            first = seen.setdefault(rid, lineno)
            if first != lineno:
                raise DataError(f"{path}: rows {first} and {lineno} have the same id {rid!r}")
            if not rid:
                raise DataError(f"{path}: row {lineno} has an empty id")
        try:
            cells = list(map(float, record))
        except ValueError:
            # an empty (missing) cell, or a cell float() refuses
            cells = [_parse_cell(text, lineno, name) for text, name in zip(record, names)]
        tally[0] += 1
        yield lineno, rid, cells


class Shape(NamedTuple):
    """What ``load_csv`` read: its records, blank lines not counted, and
    its columns, the id column not counted."""

    n_rows: int
    n_cols: int


def load_csv(
    path,
    target_name: Optional[str],
    id_column: Optional[str],
    consume: Callable[[list, Iterator], None],
) -> Shape:
    """Read a CSV file, one record at a time, into ``consume``.

    ``consume(names, records)`` is called once with the column labels
    (the id column left out) and an iterator that parses each record as
    it is asked for one, as ``(row number, id or None, list of cells)``;
    no row is kept here. Empty cells become ``None``, every other cell
    goes through ``float()`` or is refused, and the id column is the only
    one that may hold other text. ``target_name`` may be None for an
    unscored cohort. A header that lacks the named target or id column is
    a ``ConfigError``: those names always come from the configuration.
    """
    tally = [0]
    try:
        # utf-8-sig skips the byte-order mark that some spreadsheet
        # exports put before the header
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            names, id_pos = _read_header(reader, path, target_name, id_column)
            consume(names, _records(reader, path, names, id_pos, tally))
    except FileNotFoundError:
        raise DataError(f"{path}: no such file") from None
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    except IsADirectoryError:
        raise DataError(f"{path}: is a directory, not a CSV file") from None
    return Shape(tally[0], len(names))


class Table(NamedTuple):
    """What a ranking step reads from one CSV table; every cell is finite."""

    features: tuple  # the label of each cell of a row, in order
    rows: list  # one tuple of feature cells per record
    target_name: Optional[str]  # None when the target was not read
    target: list  # each record's target cell, or nothing
    outlier: list  # each record's outlier cell, or nothing
    ids: list  # each record's id, None where there is no id column

    def column(self, name: str) -> list:
        """The cells of the target or of one feature column, in record order."""
        if name == self.target_name:
            return self.target
        k = self.features.index(name)
        return [row[k] for row in self.rows]


def read_table(
    path,
    role: str,
    target_name: str,
    id_column: Optional[str],
    features: Optional[Sequence[str]] = None,
    outlier: Optional[str] = None,
    scored: bool = True,
) -> Table:
    """What ``loocv``, ``validate`` and ``predict`` rank with, from one
    prepared CSV table, in one pass of ``load_csv``.

    Each row holds the cells of ``features``, in that order: by default
    every column but the target, in file order (a training table). Given
    ``features``, the table's columns other than the target must be
    exactly those, or it is refused (a cohort, whose columns must be the
    training table's). The cells of the ``outlier`` column, if named, are
    kept on their own too. The target is read only when ``scored``: an
    unscored cohort may lack it or leave it blank.

    Each picked cell is checked as its record is parsed, row first and
    then column in file order. A missing, NaN or infinite one is refused
    as ``"{role} row i, column c"``, where i counts the table's records
    from 0, blank lines not counted.
    """
    table = []

    def consume(names: list, records: Iterator) -> None:
        given = [n for n in names if n != target_name]
        picked = given if features is None else list(features)
        if set(given) != set(picked):
            raise DataError(
                f"{path}: feature columns differ from training: "
                f"extra {sorted(set(given) - set(picked))}, "
                f"missing {sorted(set(picked) - set(given))}"
            )
        if outlier is not None and outlier not in names:
            raise DataError(f"outlier feature {outlier!r} not in subjects")
        at = [names.index(n) for n in picked]
        t = names.index(target_name) if scored else None
        o = None if outlier is None else names.index(outlier)
        checked = sorted({*at, *(p for p in (t, o) if p is not None)})
        labels = [names[p] for p in checked]
        check, pick = _picker(checked), _picker(at)
        rows, target, outliers, ids = [], [], [], []
        row_name = lambda _: f"{role} row {len(rows)}"  # noqa: E731
        for _, rid, cells in records:
            try:
                finite = all(map(math.isfinite, check(cells)))
            except TypeError:  # a missing cell (None)
                finite = False
            if not finite:
                refuse_unusable(row_name, labels, [(c,) for c in check(cells)])
            rows.append(pick(cells))
            if t is not None:
                target.append(cells[t])
            if o is not None:
                outliers.append(cells[o])
            ids.append(rid)
        table.append(Table(tuple(picked), rows, target_name if scored else None, target, outliers, ids))

    load_csv(path, target_name if scored else None, id_column, consume)
    return table[0]


def _open_out(path, newline: Optional[str] = None):
    """Open an output file for writing UTF-8 text. A path that cannot be
    written, such as a directory, is a ``DataError`` naming it."""
    try:
        return open(path, "w", newline=newline, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{path}: cannot be written ({exc.strerror})") from None


def write_csv(header: Sequence[str], path, rows: Iterable[Sequence]) -> None:
    """Write a header row, then each row of ``rows`` as it comes.

    The csv module writes a missing cell (None) as an empty field and a
    float with ``repr()``, the shortest round-trip form, so load -> write
    -> load reproduces every cell bit for bit. Nothing but the current row
    is held, so ``rows`` may be drawn or computed as it is written.
    """
    with _open_out(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
