"""Joint standardization and correlation-threshold variable selection.

Standardization stats are always computed over training and validation
rows *together* — standardizing the two sets separately leaks a shifted
validation distribution straight into the feature space, which is the
one preprocessing mistake this module exists to prevent. The target
column passes through untouched so predictions stay in score units.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import reduce
from operator import add, itemgetter, mul
from typing import Optional, Sequence

from .errors import (
    ColumnMismatch,
    ConstantInput,
    EmptyInput,
    LengthMismatch,
    MissingCell,
    NonFiniteCell,
    ZeroVarianceColumn,
)
from .frame import Frame

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class StandardizationStats:
    """Per-column mean/sd used for the z-transform, plus what was skipped."""

    means: dict
    sds: dict
    standardized_columns: tuple
    excluded_columns: tuple


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
    statistics must not.
    """
    return reduce(add, values, 0.0)


def _column_stats(label: str, values: Sequence[float]):
    # explicit left-to-right float arithmetic keeps transformed cells
    # byte-stable across interpreter versions (golden-file contract)
    if len(values) < 2:
        raise EmptyInput("standardization needs at least 2 rows")
    mean = left_sum(values) / len(values)
    d = [v - mean for v in values]
    sd = math.sqrt(left_sum(map(mul, d, d)) / (len(values) - 1))
    if sd == 0.0:
        raise ZeroVarianceColumn(label)
    return mean, sd


def _refuse_non_finite(label: str, values: Sequence[float], n_train: int) -> None:
    """Refuse a NaN or infinite pooled cell, naming its frame, row and column.

    One NaN would turn the column's mean and sd into NaN, and the
    correlation filter would then drop the column without a word. Missing
    cells (None) are left to the caller.
    """
    if None not in values and all(map(math.isfinite, values)):
        return
    for i, v in enumerate(values):
        if v is not None and not math.isfinite(v):
            where = f"training row {i}" if i < n_train else f"validation row {i - n_train}"
            raise NonFiniteCell(f"{where}, column {label!r}: non-finite value {v!r}")


def standardize_joint(
    train: Frame,
    extra: Optional[Frame] = None,
    exclude: Sequence[str] = (),
):
    """Z-score both frames with stats pooled over their concatenated rows.

    The target column and any ``exclude`` labels (cohort year, bookkeeping
    keys) pass through unchanged. Sample (n-1) standard deviation is used.
    Returns (train, extra, StandardizationStats); extra is None when absent.
    """
    if extra is not None:
        if extra.column_names != train.column_names:
            raise ColumnMismatch(
                f"column sets differ: {train.column_names} vs {extra.column_names}"
            )
        if extra.target_name != train.target_name:
            raise ColumnMismatch("target columns differ between frames")

    excluded = tuple(
        n for n in train.column_names if n == train.target_name or n in set(exclude)
    )
    to_standardize = tuple(n for n in train.column_names if n not in excluded)

    pooled_rows = list(train.rows) + (list(extra.rows) if extra is not None else [])
    means: dict = {}
    sds: dict = {}
    for name in to_standardize:
        i = train.column_index(name)
        values = list(map(itemgetter(i), pooled_rows))
        if None in values:
            raise MissingCell(f"column {name!r} has missing cells; drop incomplete rows first")
        _refuse_non_finite(name, values, train.n_rows)
        means[name], sds[name] = _column_stats(name, values)
    if train.target_name is not None:
        target = list(map(itemgetter(train.column_index(train.target_name)), pooled_rows))
        _refuse_non_finite(train.target_name, target, train.n_rows)

    def transform(frame: Frame) -> Frame:
        plan = [(frame.column_index(name), means[name], sds[name]) for name in to_standardize]
        rows = []
        for row in frame.rows:
            cells = list(row)
            for i, mean, sd in plan:
                cells[i] = (cells[i] - mean) / sd
            rows.append(cells)
        return frame.replace_rows(rows)

    stats = StandardizationStats(means, sds, to_standardize, excluded)
    return transform(train), (transform(extra) if extra is not None else None), stats


def pearson_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson r between two equal-length, non-constant vectors."""
    if len(x) != len(y):
        raise LengthMismatch(f"lengths differ: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise LengthMismatch("need at least 2 observations")
    n = len(x)
    mx = left_sum(x) / n
    my = left_sum(y) / n
    dx = [a - mx for a in x]
    dy = [b - my for b in y]
    sxy = left_sum(map(mul, dx, dy))
    sxx = left_sum(map(mul, dx, dx))
    syy = left_sum(map(mul, dy, dy))
    if sxx == 0.0 or syy == 0.0:
        raise ConstantInput("at least one input is constant")
    return sxy / math.sqrt(sxx * syy)


def select_by_correlation(frame: Frame, threshold: float):
    """Drop non-target columns whose |r| with the target is below threshold.

    Negatively correlated predictors carry signal, so the magnitude is what
    counts. Kept columns preserve their original order and values; one audit
    log line is emitted per column so selection runs are diffable.
    Returns (selected Frame, SelectionResult).
    """
    target = frame.target_values()
    kept = []
    dropped = []
    for n, name in enumerate(frame.column_names, start=1):
        if name == frame.target_name:
            kept.append(name)
            continue
        try:
            r = pearson_correlation(frame.column(name), target)
        except ConstantInput:
            raise ConstantInput(f"column {name!r} is constant") from None
        log.info("%d. Correlation between %s and target = %.7g.", n, name, r)
        if abs(r) >= threshold:
            kept.append(name)
        else:
            dropped.append((name, r))
    result = SelectionResult(tuple(kept), tuple(dropped), threshold)
    return frame.select_columns(kept), result
