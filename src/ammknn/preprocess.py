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
from collections import deque
from itertools import accumulate, islice
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import DataError
from .frame import Frame, refuse_unusable

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
    statistics must not. ``accumulate`` adds with the ``+`` operator in C,
    one value at a time, and the deque keeps only the last running total.
    """
    return deque(accumulate(values, initial=0.0), maxlen=1)[0]


def _column_stats(label: str, values: Sequence[float]):
    """(mean, sd, deviations from the mean) of one pooled column."""
    # explicit left-to-right float arithmetic keeps transformed cells
    # byte-stable across interpreter versions (golden-file contract)
    if len(values) < 2:
        raise DataError("standardization needs at least 2 rows")
    mean = left_sum(values) / len(values)
    d = [v - mean for v in values]
    sd = math.sqrt(left_sum(map(mul, d, d)) / (len(values) - 1))
    if sd == 0.0:
        raise DataError(f"column {label!r} has zero variance")
    return mean, sd, d


def standardize_joint(train: Frame, extra: Optional[Frame] = None):
    """Z-score both frames with stats pooled over their concatenated rows.

    The target column passes through unchanged. Sample (n-1) standard
    deviation is used.
    Returns (train, extra, StandardizationStats); extra is None when absent.

    The work is done a column at a time: each pooled column is pulled out
    once, its deviations from the mean give both the sd and the z-scores
    (``d / sd``, the same float as ``(v - mean) / sd``), and the result
    rows are zipped back from the columns and split at the train/extra
    boundary. The z-scores are floats computed from checked cells, so the
    returned Frames are not scanned again.
    """
    if extra is not None:
        if extra.column_names != train.column_names:
            raise DataError(
                f"column sets differ: {train.column_names} vs {extra.column_names}"
            )
        if extra.target_name != train.target_name:
            raise DataError("target columns differ between frames")

    excluded = tuple(n for n in train.column_names if n == train.target_name)
    to_standardize = tuple(n for n in train.column_names if n not in excluded)

    pooled_rows = train.rows + (extra.rows if extra is not None else ())
    columns = list(zip(*pooled_rows)) if pooled_rows else [()] * train.n_cols
    n = train.n_rows

    def row_name(i: int) -> str:
        return f"training row {i}" if i < n else f"validation row {i - n}"

    # a NaN would make a column's mean and sd NaN, and the correlation
    # filter would then drop the column without a word
    idx = [i for i, name in enumerate(train.column_names) if name not in excluded]
    refuse_unusable(row_name, to_standardize, [columns[i] for i in idx])
    if train.target_name is not None:
        target = columns[train.column_index(train.target_name)]
        refuse_unusable(row_name, [train.target_name], [target], missing_ok=True)
    means: dict = {}
    sds: dict = {}
    for name, i in zip(to_standardize, idx):
        mean, sd, deviations = _column_stats(name, columns[i])
        means[name], sds[name] = mean, sd
        columns[i] = [d / sd for d in deviations]

    rows = zip(*columns) if columns else iter(((),) * len(pooled_rows))
    train_std = Frame._derived(
        train.column_names, tuple(islice(rows, train.n_rows)),
        train.target_name, train.row_ids, train.id_name,
    )
    extra_std = None
    if extra is not None:
        extra_std = Frame._derived(
            extra.column_names, tuple(rows), extra.target_name, extra.row_ids, extra.id_name
        )
    stats = StandardizationStats(means, sds, to_standardize, excluded)
    return train_std, extra_std, stats


def _correlations(columns: Iterable[Sequence[float]], y: Sequence[float]):
    """Yield the sample Pearson r of each of ``columns`` with ``y``.

    One sweep computes y's mean, deviations and sum of squares once, on
    the first column, and reuses them for every column; each r is the
    same float that correlating the pair on its own would give. A column
    or a ``y`` with zero spread yields None. Columns are consumed lazily,
    so only one column's deviations are held at a time.
    """
    n = len(y)
    dy = syy = None
    for x in columns:
        if len(x) != n:
            raise DataError(f"lengths differ: {len(x)} vs {n}")
        if n < 2:
            raise DataError("need at least 2 observations")
        if dy is None:
            my = left_sum(y) / n
            dy = [b - my for b in y]
            syy = left_sum(map(mul, dy, dy))
        mx = left_sum(x) / n
        dx = [a - mx for a in x]
        sxx = left_sum(map(mul, dx, dx))
        if sxx == 0.0 or syy == 0.0:
            yield None
        else:
            yield left_sum(map(mul, dx, dy)) / math.sqrt(sxx * syy)


def pearson_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson r between two equal-length, non-constant vectors."""
    (r,) = _correlations([x], y)
    if r is None:
        raise DataError("at least one input is constant")
    return r


def select_by_correlation(frame: Frame, threshold: float):
    """Drop non-target columns whose |r| with the target is below threshold.

    Negatively correlated predictors carry signal, so the magnitude is what
    counts. Kept columns preserve their original order and values; one audit
    log line is emitted per column so selection runs are diffable. All
    columns are correlated in one sweep, which works out the target's
    deviations once; every r is bit-identical to ``pearson_correlation``
    of that column and the target.
    Returns (selected Frame, SelectionResult).
    """
    target = frame.target_values()
    features = frame.feature_names()
    by_name = dict(zip(frame.column_names, frame.columns()))
    rs = dict(zip(features, _correlations([by_name[n] for n in features], target)))
    kept = []
    dropped = []
    for n, name in enumerate(frame.column_names, start=1):
        if name == frame.target_name:
            kept.append(name)
            continue
        r = rs[name]
        if r is None:
            raise DataError(f"column {name!r} is constant")
        log.info("%d. Correlation between %s and target = %.7g.", n, name, r)
        if abs(r) >= threshold:
            kept.append(name)
        else:
            dropped.append((name, r))
    result = SelectionResult(tuple(kept), tuple(dropped), threshold)
    return frame.select_columns(kept), result
