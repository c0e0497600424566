"""Joint standardization and correlation-threshold variable selection.

Standardization stats are always computed over training and validation
rows *together* — standardizing the two sets separately leaks a shifted
validation distribution straight into the feature space, which is the
one preprocessing mistake this module exists to prevent. The target
column passes through untouched so predictions stay in score units.

Both steps work on lists of columns: ``prepare`` holds
each side's kept cells as compact ``array('d')`` columns, and
standardization replaces one column at a time with its z-scores. A
pooled column's deviations ``v - mean`` are formed once, as a list, and
give both its sd and each side's z-scores ``d / sd``. Each pass boxes
each float once, in a list comprehension, which is faster than ``map``
over a bound method, and the sum of squares runs over that list, which
is faster than over an ``array``.

Every cell arrives within ±``frame.BOUND`` (1e50): ``frame.load_csv``
refuses any other as it parses it. So no sum, sum of squares or product
of two of them formed here can overflow, and nothing here checks for
it.
"""

from __future__ import annotations

import logging
import math
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from typing import Iterable, Sequence

from .errors import DataError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class StandardizationStats:
    """Per-column mean and sd used for the z-transform, by label; the
    target has none."""

    means: dict
    sds: dict


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


def _column_stats(label: str, values: Sequence[float]):
    """(mean, sd, deviations from the mean) of one pooled column, which
    holds at least 2 rows: ``run_prepare`` refuses fewer training rows
    first."""
    mean, d, squares = _spread(values)
    sd = math.sqrt(squares / (len(values) - 1))
    if sd == 0.0:
        raise DataError(f"column {label!r} has zero variance")
    return mean, sd, d


def standardize_joint(
    names: Sequence[str],
    target_name: str,
    train: list,
    validation: list,
) -> StandardizationStats:
    """Z-score, in place, every column but the target of ``train`` and
    ``validation`` with stats pooled over their rows, training rows first.

    ``train`` and ``validation`` are lists of columns, one per label in
    ``names``; each standardized column is replaced by an ``array('d')``
    of its z-scores, so the raw cells are freed a column at a time. The
    target column passes through unchanged. Sample (n-1) standard
    deviation is used.

    Every cell is a number within ±``frame.BOUND``: ``frame.load_csv``
    refuses any other as it parses it. Each pooled column's deviations
    from the mean, ``v - mean``, give both the sd and the z-scores
    ``d / sd``, the same float as ``(v - mean) / sd``. A column may be
    any sequence of numbers that ``+`` joins to the other side's, such as
    two ``array('d')`` or two lists; a side without rows holds empty
    columns.
    """
    n = len(train[0])
    means: dict = {}
    sds: dict = {}
    for j, name in enumerate(names):
        if name == target_name:
            continue
        mean, sd, deviations = _column_stats(name, train[j] + validation[j])
        means[name], sds[name] = mean, sd
        train[j] = array("d", [d / sd for d in deviations[:n]])
        validation[j] = array("d", [d / sd for d in deviations[n:]])
    return StandardizationStats(means, sds)


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


def select_by_correlation(
    names: Sequence[str], target_name: str, train: Sequence[Sequence[float]], threshold: float
) -> SelectionResult:
    """Keep the target and each column of ``train`` (one per label in
    ``names``) whose |r| with the target is at least ``threshold``.

    Negatively correlated predictors carry signal, so the magnitude is what
    counts. Kept columns preserve their original order; one audit log line
    is emitted per column so selection runs are diffable. All columns are
    correlated in one sweep, which works out the target's deviations once;
    every r is bit-identical to correlating that column and the target on
    their own. A target whose squared deviations sum to 0.0, constant or
    so close to it that they underflow, leaves every r undefined and is
    refused by name. So is a column whose r is undefined: ``prepare``
    z-scores it over the training and validation rows together, so it can
    still be constant, or nearly so, in the training rows alone.
    """
    t = names.index(target_name)
    y = train[t]
    target = _spread(y)
    if target[2] == 0.0:
        raise DataError(f"target column {target_name!r} {_flat(y)}")
    features = [j for j in range(len(names)) if j != t]
    rs = dict(zip(features, _correlations([train[j] for j in features], target)))
    kept = []
    dropped = []
    for j, name in enumerate(names):
        if j == t:
            kept.append(name)
            continue
        r = rs[j]
        if r is None:
            raise DataError(
                f"column {name!r} has no r with the target: it is constant, or nearly so, "
                "in the training rows"
            )
        log.info("%d. Correlation between %s and target = %.7g.", j + 1, name, r)
        if abs(r) >= threshold:
            kept.append(name)
        else:
            dropped.append((name, r))
    return SelectionResult(tuple(kept), tuple(dropped), threshold)
