"""Joint standardization and correlation-threshold variable selection.

Standardization stats are always computed over training and validation
rows *together* — standardizing the two sets separately leaks a shifted
validation distribution straight into the feature space, which is the
one preprocessing mistake this module exists to prevent. The target
column passes through untouched so predictions stay in score units.

One pass, ``standardize_and_select``, works on lists of columns, a
column at a time: ``prepare`` holds each side's kept cells as compact
``array('d')`` columns, and the pass z-scores a column, correlates its
training z-scores with the target and keeps the z-scores only of a
column it keeps. Every sum is added left to right from 0.0: a mean by
``left_sum``, and the sums of squares and of products in plain ``for``
loops that form each deviation ``v - mean`` as they go, several sums to
a loop, so no list of deviations is built but the target's, which every
column's r reuses. A column's training z-scores, like its validation
ones, are ``(v - mean) / sd`` of its raw cells. Each z-score is boxed
once, in a list comprehension, which is faster than ``map`` over a
bound method, and its r runs over that list, which is faster than over
an ``array``; each ``array('d')`` is filled by one ``struct.pack``.

Every cell arrives within ±``frame.BOUND`` (1e50): ``frame.load_csv``
refuses any other as it parses it. So no sum, sum of squares or product
of two of them formed here can overflow, and nothing here checks for
it.
"""

from __future__ import annotations

import logging
import math
import struct
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import DataError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of the correlation filter.

    ``dropped_columns`` holds (label, correlation) pairs for the columns
    whose |r| with the target fell below the threshold. The target itself
    is always kept.
    """

    kept_columns: tuple
    dropped_columns: tuple
    threshold: float

    def to_json_dict(self) -> dict:
        return {
            "kept": list(self.kept_columns),
            "dropped": [[label, r] for label, r in self.dropped_columns],
            "threshold": self.threshold,
        }


def left_sum(values) -> float:
    """Plain left-to-right float sum, starting from 0.0.

    Built-in ``sum()`` of floats uses compensated summation since Python
    3.12, so its last bits would depend on the interpreter; written-out
    statistics must not. ``accumulate`` adds with the ``+`` operator in C,
    one value at a time, and the deque keeps only the last running total.
    A ``for`` loop that adds the same way gives the same float, but took
    1.4 to 1.6 times as long on Python 3.10 and as long on 3.11 (a list
    of 20 000 floats, 2-core Xeon), so a sum that stands alone, such as a
    mean, keeps this form; sums of squares and of products, several to a
    pass over the cells, are ``for`` loops.
    """
    return deque(accumulate(values, initial=0.0), maxlen=1)[0]


def _squares(values: Sequence[float], mean: float, squares: float) -> float:
    """``squares``, the summed squared deviations of a column of n >= 2
    ``values`` from their ``mean``, or 0.0 when every value is equal.

    The mean of n equal values v need not round back to v, and then every
    deviation is one tiny eps != 0. With u = 2^-53: the first addition,
    v + v, is exact, and the one that brings the running total to k values
    rounds by at most u k|v|, so the sum is off by at most u|v| n(n + 1)/2
    and the mean by u|v| (n + 1)/2, plus u|mean| for the division. So
    |eps| <= n u|v| (for n = 2 the mean is v), and the summed squares are
    at most n (n u mean)^2, to first order in n u; the bound used,
    n (n 2u mean)^2, leaves a factor of 4 for the rest. Only a column whose
    summed squares lie within it is scanned for equal values, so a column
    with more spread costs no scan.
    """
    n = len(values)
    equal = squares <= n * (n * 2.0 ** -52 * mean) ** 2 and min(values) == max(values)
    return 0.0 if equal else squares


def _spread(values: Sequence[float]):
    """(mean, deviations from the mean, their summed squares) of a column
    of n >= 2 values, the summed squares as ``_squares`` gives them: 0.0
    when every value is equal. The deviations are kept for a column whose
    deviations are used again, such as the target's in ``_correlations``.
    """
    # explicit left-to-right float arithmetic keeps transformed cells
    # byte-stable across interpreter versions (golden-file contract)
    mean = left_sum(values) / len(values)
    d = [v - mean for v in values]
    squares = 0.0
    for a in d:
        squares += a * a
    return mean, d, _squares(values, mean, squares)


def _correlations(columns: Iterable[Sequence[float]], target: tuple):
    """Yield the sample Pearson r of each of ``columns`` with y, given
    ``target``, the ``_spread`` of y.

    y's mean, deviations and sum of squares are worked out once, by the
    caller, and reused for every column. A column's mean is a
    ``left_sum``; then one loop over the column beside y's deviations
    forms each deviation ``a = v - mean`` and adds ``a * a`` and ``a * b``
    to two running totals, left to right from 0.0, so no deviation is
    held and each r is the same float that correlating the pair on its own
    would give. A column or a y with zero spread (see ``_squares``) yields
    None, as does a pair whose product of sums of squares underflows to
    0.0 (spreads below about 1e-160). Cells within ±``frame.BOUND`` keep
    that product finite. Columns are consumed lazily, one at a time. Every
    caller passes columns of one table, as long as y, with 2 or more rows.
    """
    _, dy, syy = target
    for x in columns:
        mean = left_sum(x) / len(x)
        sxx = sxy = 0.0
        for v, b in zip(x, dy):
            a = v - mean
            sxx += a * a
            sxy += a * b
        sxx = _squares(x, mean, sxx)
        yield None if sxx * syy == 0.0 else sxy / math.sqrt(sxx * syy)


def _flat(values: Sequence[float]) -> str:
    """Why a column whose squared deviations sum to 0.0 has no spread."""
    if min(values) == max(values):
        return "is constant"
    return "varies too little: its squared deviations underflow to 0.0"


def _doubles(values: list) -> array:
    """``values`` as an ``array('d')``, filled by one ``struct.pack``: about
    12 ns a cell, against 20 for ``array('d', values)`` (2-core Xeon,
    Python 3.11)."""
    column = array("d")
    column.frombytes(struct.pack(f"{len(values)}d", *values))
    return column


def standardize_and_select(
    names: Sequence[str], target_name: str, train: list, validation: list, threshold: float
) -> SelectionResult:
    """Z-score each column but the target of ``train`` and ``validation``
    with stats pooled over their rows, training rows first, and keep the
    target and each column whose training z-scores' |r| with the target
    is at least ``threshold``; a column at a time.

    ``train`` and ``validation`` are lists of columns, one per label in
    ``names``: any sequences of numbers within ±``frame.BOUND`` that
    ``+`` joins, such as two ``array('d')`` or two lists; a side without
    rows holds empty columns. The target column passes through unchanged.
    In place, a kept column becomes an ``array('d')`` of its z-scores on
    each side, and a dropped one None, so the raw cells are freed a
    column at a time. A column's two sides are pooled, and one loop over
    the pooled cells sums the squared deviations ``(v - mean) ** 2`` that
    give its sample (n-1) sd; the pooled cells are freed before the
    training z-scores ``(v - mean) / sd`` are formed from the raw cells.
    Each r is worked out over the list of training z-scores, which is
    faster than over an ``array('d')``; only a kept column's list is then
    packed into one, and only a kept column's validation cells are
    z-scored, the same way. The target's ``_spread`` is worked out once,
    and each r is bit-identical to correlating that column and the
    target on their own.

    Negatively correlated predictors carry signal, so the magnitude is
    what counts. Kept columns preserve their order, and one audit log
    line is emitted per column so selection runs are diffable. Refused,
    in this order: the first column of zero pooled variance; a target
    whose squared deviations sum to 0.0 (constant, or so close to it
    that they underflow), which leaves every r undefined; and the first
    column whose r is undefined, since a column z-scored over both sides
    can still be constant, or nearly so, in the training rows alone.
    """
    t = names.index(target_name)
    y = train[t]
    target = _spread(y)
    rs = {}  # a feature's position -> its r, or None
    dropped = []
    for j, name in enumerate(names):
        if j == t:
            continue
        pooled = train[j] + validation[j]
        mean = left_sum(pooled) / len(pooled)
        squares = 0.0
        for v in pooled:
            a = v - mean
            squares += a * a
        sd = math.sqrt(_squares(pooled, mean, squares) / (len(pooled) - 1))
        del pooled  # before the training z-scores are formed
        if sd == 0.0:
            raise DataError(f"column {name!r} has zero variance")
        z = [(v - mean) / sd for v in train[j]]
        (rs[j],) = _correlations((z,), target)
        if rs[j] is not None and abs(rs[j]) < threshold:
            dropped.append((name, rs[j]))
            train[j] = validation[j] = None
        else:
            train[j] = _doubles(z)
            validation[j] = _doubles([(v - mean) / sd for v in validation[j]])
        del z  # before the next column is pooled
    if target[2] == 0.0:
        raise DataError(f"target column {target_name!r} {_flat(y)}")
    for j, r in rs.items():
        if r is None:
            raise DataError(
                f"column {names[j]!r} has no r with the target: it is constant, or nearly so, "
                "in the training rows"
            )
        log.info("%d. Correlation between %s and target = %.7g.", j + 1, names[j], r)
    kept = tuple(name for name, column in zip(names, train) if column is not None)
    return SelectionResult(kept, tuple(dropped), threshold)
