"""Neighbor ranking and the adaptive minimum-match KNN predictor.

The adaptive predictor works per subject:

1. Rank all training rows by Euclidean distance to the subject, nearest
   first (ties broken by ascending training-row index).
2. Take the ``max_k`` nearest neighbors (all rows when fewer exist).
3. Compute the running means of the neighbors' target scores: the mean of
   the first 1, first 2, ... first ``max_k``. Each running mean is exactly
   what fixed-k KNN regression would predict for that k, so the smallest
   of them — the *minimum of means* — equals the most pessimistic
   prediction any fixed k in [1, max_k] would have produced.
4. The *minimum match* is the single lowest target score among the ranked
   neighbors.
5. If the subject's outlier value, its standardized cell of the outlier
   feature, sits strictly below the outlier cutoff (default -2, i.e. two
   standard deviations below the mean), the subject is treated as a low
   outlier and predicted at the minimum match; otherwise at the minimum
   of means.

Deliberately picking the lowest running mean biases predictions downward,
which is the point: the cost of missing a subject who goes on to fail far
exceeds the cost of flagging one who would have passed.

Every step scores through one loop, ``_scored``: for each subject, in
order, it ranks the training rows with ``_rank`` and yields the ranking,
its targets and their running means. Predict and validate
(``ammknn_predict_batch``) draw a ``PredictionRecord`` from each, one
subject at a time; leave-one-out (``loocv``) holds each training row out
of its own ranking and reads both the adaptive and the fixed-k model from
one pass of running means. The adaptive rule itself lives in
``_adaptive`` alone. Both take plain sequences: the training rows as one
tuple of feature cells each, the scores, the subjects and their outlier
values. The engine is handed those values and never learns which
feature they come from: ``pipeline`` resolves the outlier feature and
takes its column. A ``PredictionRecord`` holds the lists ``_scored``
yields, not copies of them.

For each subject the engine windows, filters, then refines. The window
spares most rows their approximate distance (see below); the filter gives
every row in it an approximate distance with ``math.dist``, one C call per
row, and keeps the rows whose approximate distance is within a margin of
the ``limit``-th smallest, tau: normally exactly ``limit`` rows. tau is
found by heapifying a copy of the approximate distances and popping
``limit - 1`` of them, which leaves the same float on top that a full
sort would put at index ``limit - 1``, in about half the time. The refine
step sums the squared differences ``d * d`` (``d = s - x``) of only those
rows left to right from 0.0, which is bit-identical to starting from the
first square since ``0.0 + a == a``, and sorts them by (squared distance,
row index), the tie rule "distance, then row index". Only one subject's n
approximate distances are held at a time, so memory stays O(n); a cache
of pairwise distances would cost about 20 MB at n = 724.

Why the filter loses no neighbor. Both distances are taken over the same
rounded differences ``d``. ``math.dist`` is within a few ulps of their
true norm, and the left-to-right sum of m squares is within about (m + 2)
ulps of its square. The relative margin, 1e-12 plus 1e-15 per feature, is
more than nine times their combined error for any m. So a row beyond the
margin has a larger summed square than each of the ``limit`` rows inside
it and cannot be among the nearest. The absolute margin of 1e-150 keeps
every row whose squares may underflow (below about 1e-300), where the sum
has no relative error bound. Once the bound itself reaches 1e150, squares
may overflow to inf, and equal infinities are ordered by row index alone,
so no row is cut at all: the same code path, with nothing filtered out.
``math.dist`` differs in its last bits between Python versions; the
margin absorbs that, and the order itself comes only from the sums.

The window. ``_scored`` sorts the training rows once per call by their
feature sums, ``math.fsum(row)``. For each subject, ``_rank`` finds the
subject's sum among them with ``bisect`` and gives the starting block, the
2 * ``limit`` rows around it, their approximate distances. tu, the
``limit``-th smallest of those, is at least tau, so
``reach = tu * margin + 1e-150`` is at least the filter's bound.
Only the rows whose sums lie within

    W = sqrt(m) * reach * (1 + 1e-9) + 1e-12 * (S + |subject sum|)

of the subject's, S being the largest sum of a training row's absolute
values, get an approximate distance; the block's are reused. The heap,
the filter, the refine and the sort then run on them unchanged.

Why the window loses no row the filter keeps. Cauchy-Schwarz gives
``|sum(x - q)| <= sqrt(m) * |x - q|`` for m features. A row the filter
keeps has an approximate distance of at most reach, and its true distance
exceeds that by a few ulps at most: the factor 1 + 1e-9 covers those and
the rounding of sqrt(m) and of W. ``math.fsum`` rounds each sum once, by
at most 2**-53 of its magnitude, and the 1e-12 term covers that and the
rounding of the window's edges. The window holds the ``limit`` nearest
rows, so tau over it is the same float as over every row, and the filter
keeps the same rows. No window cuts, and every row goes down the same
path, when 2 * ``limit`` is at least n, when a training row's sum
overflows ``math.fsum`` (no index is built) or the subject's does, and
when reach is 1e150 or more (the window is every row). Every subject
gets at most n ``math.dist`` calls. Leave-one-out ranks each row one
place deeper and then drops the row itself from its ranking, so neither
the window nor the filter needs to know the held-out row.

On the score-cohort benchmark inputs (seed 3, 717 training rows, 12
features that share a common factor), a subject gets about 0.63 * n
``math.dist`` calls. Ranking the 1 075 subjects took 0.196 s against
0.240 s without the window, and ``loocv``'s ranking 0.118 s against
0.147 s (best of 15 interleaved runs on a 2-core Xeon, Python 3.11.7).
Where the features share no factor, almost every row falls in the
window, which then only costs: on 717 x 12 i.i.d. normal rows, ranking
took 8-13% longer (best of 40 runs, four repeats).

Ordering needs keys that are totally ordered, and NaN is not, so every
training cell, every training target and every subject cell must be
finite. This module does not check them: ``frame.load_csv`` refuses a
non-finite cell, and ``frame.read_table`` a missing one, with a
``DataError`` naming its file line and column as it parses the record,
before any ranking.

Running means are plain left-to-right float sums divided by k. Together
these choices make predictions bit-identical to a naive re-implementation
that sorts all rows by (squared distance, row) and averages prefixes.

Measured and rejected, on the loocv and score-cohort benchmark inputs
(seed 1, 12 standardized features), so they need not be tried again:

- Pivot (triangle-inequality) pruning: 87%, 70%, 54% and 50% of the rows
  survive it with 1, 4, 8 and 16 pivots, against ``limit`` rows for the
  ``math.dist`` filter.
- A window along the first principal component instead of the feature
  sum: given the exact tau, about 54% of the rows lie in either, so it
  would cut no more, and it needs the component fitted and a projection
  of every row.
- numpy: importing it alone adds 12 MB to a step whose peak RSS is about
  26 MB.
- A big-integer lane kernel for the approximate distances (many rows
  per integer operation, in the way ``synth._Lanes`` computes many
  SplitMix64 outputs at once): 107 µs per subject, plus 70 µs to unpack
  the lanes, against 186 µs for the ``math.dist`` pass.

A ``math.dist`` call per row is the floor of a pure-Python kernel; the
window cuts the rows that get one.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import ConfigError, DataError

# Ordered (training_row_index, distance) pairs, nearest first.
NeighborRanking = List[Tuple[int, float]]


@dataclass(frozen=True)
class AmmknnConfig:
    """Tunables of the adaptive predictor.

    ``outlier_feature`` names, for ``pipeline``, the standardized column
    whose low values trigger the minimum-match fallback, or is None for
    its default; the engine reads only the outlier values it is handed
    and the cutoff.
    """

    max_k: int = 20
    outlier_feature: Optional[str] = None
    outlier_cutoff: float = -2.0

    def __post_init__(self):
        if self.max_k < 1:
            raise ConfigError(f"max_k must be >= 1, got {self.max_k}")


@dataclass(frozen=True)
class PredictionRecord:
    """Full audit trail of one adaptive prediction."""

    subject_id: Optional[str]
    neighbor_ranking: NeighborRanking
    cumulative_means: list
    min_of_means: float
    min_match: float
    outlier_value: float
    outlier_triggered: bool
    prediction: float

    def to_json_dict(self) -> dict:
        return {
            "subject_id": self.subject_id,
            "neighbors": [[i, d] for i, d in self.neighbor_ranking],
            "cumulative_means": self.cumulative_means,
            "min_of_means": self.min_of_means,
            "min_match": self.min_match,
            "outlier_value": self.outlier_value,
            "outlier_triggered": self.outlier_triggered,
            "prediction": self.prediction,
        }


def _sum_index(matrix: Sequence[tuple]) -> Optional[tuple]:
    """The window index of the checked training rows: the rows in
    ascending order of ``math.fsum``, their sums and the rows in that
    order, and the largest sum of a row's absolute values. None when a
    sum overflows."""
    try:
        sums = [math.fsum(row) for row in matrix]
        spread = max(math.fsum(map(abs, row)) for row in matrix)
    except OverflowError:
        return None
    order = sorted(range(len(matrix)), key=sums.__getitem__)
    return order, [sums[j] for j in order], [matrix[j] for j in order], spread


def _window(index: tuple, subject: tuple, limit: int, margin: float) -> Optional[tuple]:
    """``(rows, approximate distances)`` of the training rows whose sums
    lie within W of the subject's, and of the starting block of 2 * ``limit``
    rows around it: every row when the bound reaches 1e150, and None when
    the subject's sum overflows."""
    order, sums, rows, spread = index
    try:
        total = math.fsum(subject)
    except OverflowError:
        return None
    lo = min(max(bisect_left(sums, total) - limit, 0), len(order) - 2 * limit)
    hi = lo + 2 * limit
    block = list(map(math.dist, repeat(subject), rows[lo:hi]))
    # no smaller than the bound of _rank's filter: tau is at most this tu
    reach = sorted(block)[limit - 1] * margin + 1e-150
    half = math.inf
    if reach < 1e150:
        half = math.sqrt(len(subject)) * reach * (1 + 1e-9) + 1e-12 * (spread + abs(total))
    a = min(lo, bisect_left(sums, total - half))
    b = max(hi, bisect_right(sums, total + half))
    approx = list(map(math.dist, repeat(subject), rows[a:lo]))
    approx += block
    approx += map(math.dist, repeat(subject), rows[hi:b])
    return order[a:b], approx


def _rank(matrix: Sequence[tuple], subject: tuple, limit: int, index: Optional[tuple]) -> list:
    """The ``limit`` nearest ``(squared_distance, row)`` pairs among the
    checked training rows of ``matrix``, ordered by distance then row
    index.

    This is the package's only ranking: a window over the feature sums of
    ``index`` (from ``_sum_index``, or None for no window) and a
    ``math.dist`` filter pick the candidates, and the exact left-to-right
    sums of the survivors order them. The module docstring gives the
    error argument behind the window and the margins.
    """
    margin = 1.0 + 1e-12 + len(subject) * 1e-15
    window = None if index is None else _window(index, subject, limit, margin)
    if window is None:
        candidates = range(len(matrix))
        approx = list(map(math.dist, repeat(subject), matrix))
    else:
        candidates, approx = window
    rows = candidates
    if limit < len(approx):
        # tau, the limit-th smallest approximate distance: the same float
        # that a full sort would put at index limit - 1
        heap = approx.copy()
        heapq.heapify(heap)
        for _ in range(limit - 1):
            heapq.heappop(heap)
        bound = heap[0] * margin + 1e-150
        if bound < 1e150:
            rows = [candidates[k] for k, a in enumerate(approx) if a <= bound]
    ranked = []
    for j in rows:
        sq = 0.0
        for s, x in zip(subject, matrix[j]):
            d = s - x
            sq += d * d
        ranked.append((sq, j))
    ranked.sort()
    return ranked[:limit]


def cumulative_means(values: Sequence[float]) -> list:
    """Running means: output[k-1] is the mean of the first k values."""
    if not values:
        raise DataError("cumulative_means of an empty vector")
    out = []
    total = 0.0
    for k, v in enumerate(values, start=1):
        total += v
        out.append(total / k)
    return out


def _adaptive(
    neighbor_targets: Sequence[float],
    means: Sequence[float],
    outlier_value: float,
    config: AmmknnConfig,
) -> Tuple[float, bool]:
    """The adaptive rule: ``(prediction, outlier_triggered)`` from the
    targets of a ranking, nearest first, and their running means, of which
    only the first ``max_k`` count. Below the outlier cutoff the
    prediction is the minimum match, otherwise the minimum of means."""
    triggered = outlier_value < config.outlier_cutoff
    if triggered:
        return min(neighbor_targets[: config.max_k]), True
    return min(means[: config.max_k]), False


def _scored(
    matrix: Sequence[tuple],
    target: Sequence[float],
    subjects: Iterable[tuple],
    limit: int,
    held_out: bool = False,
) -> Iterator[Tuple[list, list, list]]:
    """For each subject row, in order: its ``limit`` nearest
    ``(squared_distance, row)`` pairs among the checked training rows of
    ``matrix``, their targets and the targets' running means. With
    ``held_out``, subject i is training row i and is left out of its own
    ranking: it is ranked one place deeper, then dropped."""
    depth = limit + 1 if held_out else limit
    # with 2 * depth rows or fewer, the starting block would be every row
    index = _sum_index(matrix) if 2 * depth < len(matrix) else None
    for i, subject in enumerate(subjects):
        ranked = _rank(matrix, subject, depth, index)
        if held_out:
            ranked = [pair for pair in ranked if pair[1] != i][:limit]
        targets = [target[j] for _, j in ranked]
        yield ranked, targets, cumulative_means(targets)


def ammknn_predict_batch(
    subjects: Iterable[Sequence[float]],
    outlier_values: Sequence[float],
    ids: Sequence[Optional[str]],
    training: Sequence[Sequence[float]],
    target: Sequence[float],
    config: AmmknnConfig,
) -> Iterator[PredictionRecord]:
    """An iterator of one PredictionRecord per subject, in order.

    Each subject is a sequence of feature cells in the order of the
    ``training`` rows' cells; its outlier value is the cell of the same
    index in ``outlier_values``, and its id that of ``ids``. Every cell,
    and every ``target`` score, must be finite: ``frame.load_csv`` checks
    them as it parses them. The arguments are checked when this is
    called, so a refusal comes before the first record; each record is
    then scored as it is drawn, and only one subject's ranking is held at
    a time. Prediction is pure per
    subject, so subjects could be fanned out across workers without
    changing the output.
    """
    if not training:
        raise DataError("no training rows")
    scored = _scored(training, target, subjects, config.max_k)

    def records() -> Iterator[PredictionRecord]:
        for (ranked, targets, means), value, rid in zip(scored, outlier_values, ids):
            prediction, triggered = _adaptive(targets, means, value, config)
            yield PredictionRecord(
                subject_id=rid,
                neighbor_ranking=[(j, math.sqrt(sq)) for sq, j in ranked],
                cumulative_means=means,
                min_of_means=min(means),
                min_match=min(targets),
                outlier_value=value,
                outlier_triggered=triggered,
                prediction=prediction,
            )

    return records()


def loocv(
    training: Sequence[Sequence[float]],
    target: Sequence[float],
    outlier_values: Sequence[float],
    config: AmmknnConfig,
    knn_k: int,
) -> Tuple[list, list, list]:
    """Leave-one-out predictions of the adaptive model and of fixed-k KNN.

    ``training`` holds one sequence of feature cells per row,
    ``target`` each row's score and ``outlier_values`` each row's outlier
    value; every cell must be finite.
    Returns ``(adaptive, outlier_triggered, fixed_k)``, one entry per row,
    each made with that row held out of training. Every row is ranked
    once against all the others, ``max(max_k, knn_k)`` deep, and the
    running means of its neighbors' targets are computed once: the
    adaptive rule reads the first ``max_k`` of them and the fixed-k
    prediction is the one at ``knn_k``. No ``PredictionRecord`` is built
    per fold. Holding a row out keeps the others' relative order, so the
    results equal a fold by fold re-fit bit for bit.
    """
    n = len(training)
    if n < 2:
        raise DataError("leave-one-out needs at least 2 rows")
    if knn_k < 1:
        raise ConfigError(f"knn_k must be >= 1, got {knn_k}")
    if knn_k > n - 1:
        raise DataError(f"k={knn_k} exceeds {n - 1} training rows per fold")
    adaptive, triggered, fixed_k = [], [], []
    scored = _scored(training, target, training, max(config.max_k, knn_k), held_out=True)
    for (_, targets, means), value in zip(scored, outlier_values):
        prediction, fired = _adaptive(targets, means, value, config)
        adaptive.append(prediction)
        triggered.append(fired)
        fixed_k.append(means[knn_k - 1])
    return adaptive, triggered, fixed_k
