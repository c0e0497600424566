"""Rectangular cohort data: the Frame, and CSV reading and writing.

A Frame is an immutable in-memory table of numeric cells (missing cells
are ``None``). Every row is one subject; one column is designated as the
prediction target. Frames can be shared freely across workers.

Cells are checked once, where they enter: the public ``Frame(...)``
constructor checks the shape of every row and converts every cell that
is not an exact ``float`` or ``None``, and ``load_csv`` parses every cell
with ``float()`` or refuses it, so it builds its Frame through
``Frame._derived``, which checks column labels but not cells.

``prepare`` keeps no Frame of its raw input: ``load_csv`` hands it each
record as it is parsed, and ``write_csv`` writes rows from any iterable,
so neither ``prepare`` nor ``synth`` holds a table it writes.

Whether a cell may enter arithmetic is decided by one helper,
``refuse_unusable``, wherever cells first enter it: the cohort year, the
pooled columns being standardized, the training table and the subjects
of a ranking, and the scores of a validated cohort. A missing or
NaN/infinite cell is refused, naming it as ``<training|validation|
subject|input> row i, column c``.

CSV conventions: UTF-8 (a leading byte-order mark is skipped), one
header row, ``.`` decimal separator, empty string means missing, and a
blank line holds no row. Column labels are taken verbatim from the
header and treated as opaque keys (no sanitization).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import ConfigError, DataError

Cell = Optional[float]

# Cells of these exact types are stored as they are; anything else (int,
# bool, numeric text, float subclasses) goes through float().
_STORED_AS_IS = frozenset({float, type(None)})


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


def _check_labels(names: tuple, target_name: Optional[str]) -> None:
    if len(set(names)) != len(names):
        raise DataError(f"duplicate column labels in {names}")
    if target_name is not None and target_name not in names:
        raise DataError(f"target column {target_name!r} not present")


class Frame:
    """Immutable table of numeric cells with a designated target column.

    ``target_name`` may be None for prediction-only cohorts that carry no
    outcome column; whenever it is set it must name an existing column.
    ``row_ids`` are optional per-row text identifiers (for example a
    student id pulled out of the CSV); they are bookkeeping, not data.

    Invariant: ``rows`` is a tuple of equal-width tuples whose cells are
    exact ``float`` or ``None``. ``Frame(...)`` establishes it for any
    input: ragged rows are refused and other cells go through ``float()``.
    ``load_csv`` builds its Frame with ``_derived``, which trusts it,
    because every cell it stores comes from ``float()``; re-scanning
    those cells was most of the time spent constructing Frames.
    """

    __slots__ = ("column_names", "rows", "target_name", "row_ids", "id_name")

    def __init__(
        self,
        column_names: Sequence[str],
        rows: Sequence[Sequence[Cell]],
        target_name: Optional[str],
        row_ids: Optional[Sequence[str]] = None,
        id_name: Optional[str] = None,
    ):
        names = tuple(column_names)
        _check_labels(names, target_name)
        frozen = tuple(map(tuple, rows))
        if not set(map(len, frozen)) <= {len(names)}:
            i, cells = next((i, c) for i, c in enumerate(frozen) if len(c) != len(names))
            raise ConfigError(f"row {i} has {len(cells)} cells, expected {len(names)}")
        if not _STORED_AS_IS.issuperset(map(type, chain.from_iterable(frozen))):
            frozen = tuple(
                tuple(None if c is None else float(c) for c in row) for row in frozen
            )
        if row_ids is not None and len(row_ids) != len(frozen):
            raise ConfigError("row_ids length does not match row count")
        self.column_names = names
        self.rows = frozen
        self.target_name = target_name
        self.row_ids = tuple(row_ids) if row_ids is not None else None
        self.id_name = id_name

    @classmethod
    def _derived(
        cls,
        column_names: Sequence[str],
        rows: tuple,
        target_name: Optional[str],
        row_ids: Optional[tuple],
        id_name: Optional[str],
    ) -> "Frame":
        """A Frame over rows that already satisfy the class invariant.

        ``rows`` must be a tuple of tuples, each ``len(column_names)``
        wide, of exact ``float`` or ``None``, and ``row_ids`` None or a
        tuple of the same length. Column labels are still checked; cells
        are not.
        """
        names = tuple(column_names)
        _check_labels(names, target_name)
        frame = object.__new__(cls)
        frame.column_names = names
        frame.rows = rows
        frame.target_name = target_name
        frame.row_ids = row_ids
        frame.id_name = id_name
        return frame

    # -- basic accessors ------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.column_names)

    def column_index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise DataError(f"no column named {name!r}") from None

    def column(self, name: str) -> tuple:
        return tuple(map(itemgetter(self.column_index(name)), self.rows))

    def columns(self) -> list:
        """Every column as a tuple, in column order, from one pass over the rows."""
        if not self.rows:
            return [()] * self.n_cols
        return list(zip(*self.rows))

    def feature_names(self) -> tuple:
        """Column labels excluding the target."""
        return tuple(n for n in self.column_names if n != self.target_name)

    def feature_matrix(self, names: Optional[Sequence[str]] = None) -> list:
        """Rows restricted to the given feature columns (default: all non-target)."""
        if names is None:
            names = self.feature_names()
        return list(map(_picker([self.column_index(n) for n in names]), self.rows))

    def target_values(self) -> tuple:
        if self.target_name is None:
            raise DataError("frame has no target column")
        return self.column(self.target_name)

    def row_id(self, i: int) -> Optional[str]:
        return self.row_ids[i] if self.row_ids is not None else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return (
            self.column_names == other.column_names
            and self.rows == other.rows
            and self.target_name == other.target_name
            and self.row_ids == other.row_ids
        )

    def __repr__(self) -> str:
        return (
            f"Frame({self.n_rows} rows x {self.n_cols} cols, "
            f"target={self.target_name!r})"
        )


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


def _records(reader, path, names: Sequence[str], id_pos: Optional[int]) -> Iterator:
    """(row number, id or None, list of cells) for each record after the header.

    A blank line (a record of no fields) holds no subject and is skipped,
    but still counted, so the rows after it keep their numbers.
    """
    width = len(names) + (id_pos is not None)
    for lineno, record in enumerate(reader, start=1):
        if len(record) != width:
            if not record:
                continue
            raise DataError(f"{path}: row {lineno} has {len(record)} fields, header has {width}")
        rid = None if id_pos is None else record.pop(id_pos)
        try:
            cells = list(map(float, record))
        except ValueError:
            # an empty (missing) cell, or a cell float() refuses
            cells = [_parse_cell(text, lineno, name) for text, name in zip(record, names)]
        yield lineno, rid, cells


def load_csv(
    path,
    target_name: Optional[str],
    id_column: Optional[str] = None,
    consume: Optional[Callable[[list, Iterator], None]] = None,
) -> Frame:
    """Load a Frame from a CSV file.

    The id column (if named) is pulled out into ``row_ids`` and is the only
    column allowed to hold non-numeric text. Empty cells become missing
    markers. ``target_name`` may be None for prediction-only cohorts.
    A header that lacks the named target or id column is a ``ConfigError``:
    those names always come from the configuration.
    Every cell is checked here, as it is parsed, so the Frame is built
    without a second scan.

    With ``consume``, no row is kept: ``consume(names, records)`` is called
    once with the column labels and an iterator that parses each record as
    it is asked for one, as ``(row number, id or None, list of cells)``,
    and the Frame returned holds the header alone.
    """
    try:
        # utf-8-sig skips the byte-order mark that some spreadsheet
        # exports put before the header
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            names, id_pos = _read_header(reader, path, target_name, id_column)
            records = _records(reader, path, names, id_pos)
            rows, ids = [], []
            if consume is not None:
                consume(names, records)
            else:
                for _, rid, cells in records:
                    rows.append(tuple(cells))
                    ids.append(rid)
    except FileNotFoundError:
        raise DataError(f"{path}: no such file") from None
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None
    except IsADirectoryError:
        raise DataError(f"{path}: is a directory, not a CSV file") from None
    row_ids = None if id_column is None else tuple(ids)
    return Frame._derived(names, tuple(rows), target_name, row_ids, id_column)


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
