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
column it keeps. A pooled column's deviations ``v - mean`` are formed
once, as a list, and give both its sd and the training z-scores
``d / sd``; a kept column's validation z-scores are ``(v - mean) / sd``
of its raw cells, the same floats. Each pass boxes each float once, in
a list comprehension, which is faster than ``map`` over a bound method,
and the sum of squares runs over that list, which is faster than over
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
from itertools import accumulate, islice
from operator import mul
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
    """
    return deque(accumulate(values, initial=0.0), maxlen=1)[0]


def _spread(values: Sequence[float]):
    """(mean, deviations from the mean, their summed squares) of a column
    of n >= 2 values; the summed squares are 0.0 when every value is equal.

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
    # explicit left-to-right float arithmetic keeps transformed cells
    # byte-stable across interpreter versions (golden-file contract)
    n = len(values)
    mean = left_sum(values) / n
    d = [v - mean for v in values]
    squares = left_sum(map(mul, d, d))
    if squares <= n * (n * 2.0 ** -52 * mean) ** 2 and min(values) == max(values):
        squares = 0.0
    return mean, d, squares


def _correlations(columns: Iterable[Sequence[float]], target: tuple):
    """Yield the sample Pearson r of each of ``columns`` with y, given
    ``target``, the ``_spread`` of y.

    y's mean, deviations and sum of squares are worked out once, by the
    caller, and reused for every column; each r is the same float that
    correlating the pair on its own would give. A column or a y with zero
    spread yields None, as does a pair whose product of sums of squares
    underflows to 0.0 (spreads below about 1e-160). Cells within
    ±``frame.BOUND`` keep that product finite. Columns are consumed
    lazily, so only one column's deviations are held at a time. Every
    caller passes columns of one table, as long as y, with 2 or more rows.
    """
    _, dy, syy = target
    for x in columns:
        _, dx, sxx = _spread(x)
        if sxx * syy == 0.0:
            yield None
        else:
            yield left_sum(map(mul, dx, dy)) / math.sqrt(sxx * syy)


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


def _z_scores(values: Sequence[float], mean: float, sd: float) -> array:
    """The z-scores ``(v - mean) / sd`` of the raw cells ``values``."""
    return _doubles([(v - mean) / sd for v in values])


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
    column at a time. A pooled column's deviations ``d = v - mean`` give
    its sample (n-1) sd and the training z-scores ``d / sd``; they are
    freed before the z-scores are correlated, and the validation cells
    are z-scored only if the column is kept, by ``_z_scores``: the same
    floats. Each r is worked out over the list of training z-scores,
    which is faster than over an ``array('d')``; only a kept column's
    list is then packed into one. The target's ``_spread`` is worked out
    once, and each r is bit-identical to correlating that column and the
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
        mean, d, squares = _spread(train[j] + validation[j])
        sd = math.sqrt(squares / (len(d) - 1))
        if sd == 0.0:
            raise DataError(f"column {name!r} has zero variance")
        z = [v / sd for v in islice(d, len(y))]
        del d  # before the z-scores' own deviations are formed
        (rs[j],) = _correlations((z,), target)
        if rs[j] is not None and abs(rs[j]) < threshold:
            dropped.append((name, rs[j]))
            train[j] = validation[j] = None
        else:
            train[j] = _doubles(z)
            validation[j] = _z_scores(validation[j], mean, sd)
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
