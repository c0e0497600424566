"""CSV reading and writing, and the one check of every parsed cell.

``load_csv`` reads a CSV's header and hands ``consume`` an iterator that
parses each record as it is asked for one; nothing else holds the table.
``prepare`` consumes the raw records itself (see ``pipeline``, which
plans its columns from the header). No configuration is defined or
checked here: the target and id column arrive as names, and a header
that lacks one is the only configuration fault raised here.
``stream_table`` reads a prepared table for ``loocv``, ``validate`` and
``predict``: it checks the header, then hands on, record by record, only
what a ranking step reads: the tuple of feature cells, in the training
table's feature order, the target and the id. ``read_table`` keeps
those of a training table whole; ``validate`` and ``predict`` rank a
cohort's records as they come and keep none, and refuse one whose id
is a training id. Which feature is the outlier feature is not known
here: ``pipeline`` takes its cells from the rows. ``write_csv`` writes
rows from any iterable, so neither
``prepare`` nor ``synth`` holds a table it writes. ``_open_out`` is the
one opener of an output; every path a step hands it is the temporary
name under which ``pipeline`` writes an output before putting it in
place.

Whether a parsed cell may enter arithmetic is decided here alone, as its
record is parsed: every cell but the id is empty (missing) or a number
within ±``BOUND`` (1e50). Other text, NaN, the infinities (spellings
that overflow such as ``1e999`` included) and finite numbers beyond the
bound are refused in every column of every record, whether a step reads
the cell or not. The bound is the package's one overflow rule: with
every |v| <= 1e50, a square stays below 4e100 and a product of two sums
of squares below 1.6e201 * n^2, so no distance, sum, running mean, sd or
correlation that a step forms from the cells can overflow for any table
that fits in memory, and no module checks for overflow. A missing cell
is the step's business: ``stream_table`` refuses one in any cell it keeps,
``prepare`` leaves its row out. Every refusal names the file line on
which its record ends (the header is line 1, and blank lines count), as
``<path>, line L, column 'c': `` followed by ``non-numeric cell 'x1'``,
``non-finite value inf``, ``value 2e+50 beyond ±1e+50`` or ``missing
cell``; a record's own faults read ``<path>, line L: ...``.

CSV conventions: UTF-8 (a leading byte-order mark is skipped), one
header row, ``.`` decimal separator, empty string means missing, and a
blank line holds no row. Column labels are taken verbatim from the
header and treated as opaque keys (no sanitization). Every table has the
id column the configuration names, and every id in it is non-empty and
appears once.

The CSV text is handled here, byte for byte as the ``csv`` module's
default dialect handles it, with ``str.split`` and ``str.join`` where no
cell needs quoting. On read, LF, CRLF and CR each end a line, and a
quoted field may span lines: from the first line that holds a quote
(or a NUL) on, ``csv.reader`` reads the rest of the file. A written line
ends with CRLF; a row with a cell that needs quoting is written by a
``csv.writer``, so the quoting rule is the ``csv`` module's alone.
"""

from __future__ import annotations

import csv
import math
import os
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import ConfigError, DataError

Cell = Optional[float]

# the largest magnitude of any number read from a file
BOUND = 1e50


def _picker(idx: Sequence[int]) -> Callable:
    """A function from a row to the tuple of its cells at ``idx``."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return lambda row: tuple(row[i] for i in idx)


# --------------------------------------------------------------------------
# CSV I/O
# --------------------------------------------------------------------------

def _cell(path, line: int, name: str, text: str) -> Cell:
    """One parsed cell: None if empty, else a float within ±``BOUND``, or
    refused."""
    if text == "":
        return None
    try:
        value = float(text)
    except ValueError:
        raise DataError(
            f"{path}, line {line}, column {name!r}: non-numeric cell {text!r}"
        ) from None
    if not math.isfinite(value):
        raise DataError(f"{path}, line {line}, column {name!r}: non-finite value {value!r}")
    if abs(value) > BOUND:
        raise DataError(f"{path}, line {line}, column {name!r}: value {value!r} beyond ±{BOUND!r}")
    return value


def _split_lines(fh, path) -> Iterator:
    """(line, record) for each record of a CSV file opened with
    ``newline=""``, as ``csv.reader`` reads them, with ``line`` the
    reader's ``line_num``: the physical line on which the record ends.

    Up to the first line that holds a quote or a NUL, each line is split
    at its commas, a blank one giving the empty record. From that line
    on, one ``csv.reader`` reads the rest of the file, so a quoted field
    may span lines, and a file whose header or ids are quoted costs what
    ``csv`` alone costs. ``csv``'s own refusals (a field over its field
    size limit, a NUL on Python 3.10) are a ``DataError`` naming the line,
    and so is text that is not UTF-8. Only faults of the reads are caught
    here, not one raised where a record is used.
    """
    lines = iter(fh)
    line = 0
    try:
        for text in lines:
            if '"' in text or "\0" in text:
                break
            line += 1
            text = text.rstrip("\r\n")
            yield line, text.split(",") if text else []
        else:
            return
        reader = csv.reader(chain((text,), lines))
        for record in reader:
            yield line + reader.line_num, record
    except csv.Error as exc:
        raise DataError(f"{path}, line {line + reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        raise DataError(f"{path}: not UTF-8 text") from None


def _read_header(records, path, target_name: Optional[str], id_column: str):
    """(column names without the id, id position) from ``_split_lines``."""
    try:
        _, header = next(records)
    except StopIteration:
        raise DataError(f"{path}: file is empty") from None
    if not header or all(h == "" for h in header):
        raise DataError(f"{path}: blank header row")
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    if target_name is not None and target_name not in header:
        raise ConfigError(f"{path}: target {target_name!r} not in header")
    if id_column not in header:
        raise ConfigError(f"{path}: id column {id_column!r} not in header")
    id_pos = header.index(id_column)
    return header[:id_pos] + header[id_pos + 1:], id_pos


def _records(records, path, names: Sequence[str], id_column: str, id_pos: int, seen: dict) -> Iterator:
    """(line, id, list of cells) for each record after the header, as
    ``records`` reads them, adding its id to ``seen``; line is the file
    line on which the record ends.

    A blank line (a record of no fields) holds no subject and is skipped.
    An empty id is refused, and so is an id that an earlier record holds.
    Only the ids seen are kept, as the keys of a dict, which is smaller
    than a set of them. A repeat names both lines: the earlier one is
    found by ``_line_of``, which reads the file again from its start. A
    file that is not a regular one, such as a pipe, cannot be read again,
    so its refusal names the later line alone. A record whose cells all
    parse and whose norm, ``math.hypot`` of the cells, is at most
    ``BOUND / 10`` costs one C-level ``float`` pass and that one call;
    the margin covers hypot's rounding, so no cell just past the bound
    gets through. Any other record (an empty cell, other text, a
    non-finite value, a cell beyond the bound, or cells within it whose
    norm is larger) is gone over cell by cell, so its first unusable cell
    is named.
    """
    width = len(names) + 1
    for line, record in records:
        if len(record) != width:
            if not record:
                continue
            raise DataError(f"{path}, line {line}: {len(record)} fields, header has {width}")
        rid = record.pop(id_pos)
        known = len(seen)
        seen[rid] = None
        if len(seen) == known:  # a repeat adds no key
            first = _line_of(path, id_column, rid)
            if first is None:
                raise DataError(f"{path}, line {line} has the same id {rid!r} as an earlier line")
            raise DataError(f"{path}, lines {first} and {line} have the same id {rid!r}")
        if not rid:
            raise DataError(f"{path}, line {line}: empty id")
        try:
            cells = list(map(float, record))
            usable = math.hypot(*cells) <= BOUND / 10
        except ValueError:
            usable = False
        if not usable:
            cells = [_cell(path, line, name, text) for name, text in zip(names, record)]
        yield line, rid, cells


def _line_of(path, id_column: str, rid: str) -> Optional[int]:
    """The file line of the first record whose id is ``rid`` in the CSV at
    ``path``, whose id column is ``id_column``, read again from its start
    as ``load_csv`` reads it; None for a file that cannot be read again,
    such as a pipe."""
    if not os.path.isfile(path):
        return None
    with open(path, newline="", encoding="utf-8-sig") as fh:
        records = _split_lines(fh, path)
        id_pos = next(records)[1].index(id_column)
        return next(line for line, record in records if record and record[id_pos] == rid)


class Shape(NamedTuple):
    """What ``load_csv`` read: its records, blank lines not counted, and
    its columns, the id column not counted."""

    n_rows: int
    n_cols: int


def load_csv(
    path,
    target_name: Optional[str],
    id_column: str,
    consume: Callable[[list, Iterator], None],
) -> Shape:
    """Read a CSV file, one record at a time, into ``consume``.

    ``consume(names, records)`` is called once with the column labels
    (the id column left out) and an iterator that parses each record as
    it is asked for one, as ``(line, id, list of cells)``; no row
    is kept here. Empty cells become ``None``, every other cell is a
    ``float()`` within ±``BOUND`` or is refused, and the id column is the
    only one that may hold other text. ``target_name`` may be None for an
    unscored cohort. A header that lacks the named target or id column is
    a ``ConfigError``: those names always come from the configuration.
    A file that cannot be opened or read is a ``DataError`` naming it;
    what ``consume`` raises passes through as it is.
    """
    seen = {}  # the ids read
    try:
        # utf-8-sig skips the byte-order mark that some spreadsheet
        # exports put before the header
        fh = open(path, newline="", encoding="utf-8-sig")
    except FileNotFoundError:
        raise DataError(f"{path}: no such file") from None
    except IsADirectoryError:
        raise DataError(f"{path}: is a directory, not a CSV file") from None
    with fh:
        records = _split_lines(fh, path)
        names, id_pos = _read_header(records, path, target_name, id_column)
        consume(names, _records(records, path, names, id_column, id_pos, seen))
    return Shape(len(seen), len(names))


class Table(NamedTuple):
    """What a ranking step reads from a training table, the features, the
    target and the ids; every cell is within ±``BOUND``."""

    features: tuple  # the label of each cell of a row, in order
    rows: list  # one tuple of feature cells per record
    target: list  # each record's target cell
    ids: list  # each record's id

    def column(self, name: str) -> list:
        """The cells of one feature column, in record order."""
        k = self.features.index(name)
        return [row[k] for row in self.rows]


def stream_table(
    path,
    target_name: str,
    id_column: str,
    consume: Callable[[tuple, Iterator], None],
    features: Optional[Sequence[str]] = None,
    scored: bool = True,
    training: Optional[tuple] = None,
) -> Shape:
    """Read a prepared CSV table for a ranking step in one pass of
    ``load_csv``, handing each record to ``consume`` as it is parsed.

    ``consume(features, rows)`` is called once, after the header has been
    checked and before the first record is read, with the labels of a
    row's cells and an iterator of ``(id, tuple of feature cells,
    target cell or None)``. Each row holds the cells of ``features``, in
    that order: by default every column but the target, in file order (a
    training table). Given ``features``, the table's columns other than
    the target must be exactly those, or it is refused (a cohort, whose
    columns must be the training table's). The target is read only when
    ``scored``: an unscored cohort may lack it or leave it blank. A
    missing cell among those kept is refused as its record is reached,
    so a refusal may come after ``consume`` has used earlier rows.
    Given ``training``, the path and the ids of the training table, a
    record whose id is a training id is refused as it is reached, at the
    cost of one dict lookup (a cohort must hold no training student);
    the training table is read again, to name the id's line there, only
    when a record is refused.
    """

    def check(names: list, records: Iterator) -> None:
        given = [n for n in names if n != target_name]
        picked = given if features is None else list(features)
        if set(given) != set(picked):
            raise DataError(
                f"{path}: feature columns differ from training: "
                f"extra {sorted(set(given) - set(picked))}, "
                f"missing {sorted(set(picked) - set(given))}"
            )
        pick = _picker([names.index(n) for n in picked])
        t = names.index(target_name) if scored else None
        unread = None if scored else target_name
        known = dict.fromkeys(training[1]) if training else {}

        def rows() -> Iterator:
            for line, rid, cells in records:
                if rid in known:
                    at = _line_of(training[0], id_column, rid)
                    where = training[0] if at is None else f"{training[0]}, line {at}"
                    raise DataError(f"{path}, line {line}: id {rid!r} is also a training student ({where})")
                if None in cells:
                    for name, cell in zip(names, cells):
                        if cell is None and name != unread:
                            raise DataError(f"{path}, line {line}, column {name!r}: missing cell")
                yield rid, pick(cells), None if t is None else cells[t]

        consume(tuple(picked), rows())

    return load_csv(path, target_name if scored else None, id_column, check)


def read_table(path, target_name: str, id_column: str) -> Table:
    """A training table, whole, from one pass of ``stream_table``: each
    row's feature cells, in file order, its target and its id, and
    nothing else."""
    table = []

    def keep(features: tuple, rows: Iterator) -> None:
        ids, cells, target = [], [], []
        for rid, row, t in rows:
            ids.append(rid)
            cells.append(row)
            target.append(t)
        table.append(Table(features, cells, target, ids))

    stream_table(path, target_name, id_column, keep)
    return table[0]


def _open_out(path, newline: Optional[str] = None):
    """Open an output file for writing UTF-8 text: a step's temporary name
    for it (see ``pipeline._outputs``). A path that cannot be written,
    such as a directory, is a ``DataError`` naming it."""
    try:
        return open(path, "w", newline=newline, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{path}: cannot be written ({exc.strerror})") from None


def write_csv(header: Sequence[str], path, rows: Iterable[Sequence]) -> None:
    """Write a header row, then each row of ``rows`` as it comes, byte for
    byte as ``csv.writer`` does.

    Each line ends with ``\\r\\n``. A cell is written as its ``str``, so a
    float as its ``repr()``, the shortest round-trip form, and load ->
    write -> load reproduces every cell bit for bit. A row is joined at
    commas as it is unless a cell needs more (a comma, a quote or a line
    break in a cell, or a row of one empty field, which ``csv`` writes as
    ``""``): such a row is handed to a ``csv.writer`` on the same file.
    No step writes a missing cell. Nothing but the current row is held, so
    ``rows`` may be drawn or computed as it is written.
    """
    with _open_out(path, newline="") as fh:
        write = fh.write
        writerow = csv.writer(fh).writerow
        for row in chain((header,), rows):
            line = ",".join(map(str, row))
            if (
                '"' in line or "\r" in line or "\n" in line
                or line.count(",") != len(row) - 1 or not line
            ):
                writerow(row)
                continue
            write(line + "\r\n")
