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
5. If the subject's standardized value on the configured outlier feature
   sits strictly below the outlier cutoff (default -2, i.e. two standard
   deviations below the mean), the subject is treated as a low outlier
   and predicted at the minimum match; otherwise at the minimum of means.

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
``_adaptive`` alone. The training matrix is extracted and checked once
per call, not once per subject, one tuple per row.

For each subject the engine filters, then refines. The filter gives every
training row an approximate distance with ``math.dist``, one C call per
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

Ordering needs keys that are totally ordered, and NaN is not, so every
training cell, every training target and every subject cell must be
finite: ``frame.refuse_unusable`` refuses a missing or non-finite cell
with a ``DataError`` naming its row and column, once per call, before
any ranking.

Running means are plain left-to-right float sums divided by k. Together
these choices make predictions bit-identical to a naive re-implementation
that sorts all rows by (squared distance, row) and averages prefixes.

Measured and rejected, on the loocv and score-cohort benchmark inputs
(seed 1, 12 standardized features), so they need not be tried again:

- Pivot (triangle-inequality) pruning: 87%, 70%, 54% and 50% of the rows
  survive it with 1, 4, 8 and 16 pivots, against ``limit`` rows for the
  ``math.dist`` filter.
- A 1-D projection window (rows whose projection lies within tau of the
  subject's): about 54% of the rows survive it, both along the
  feature-sum direction and along the first principal component, even
  when given the exact tau.
- numpy: importing it alone adds 12 MB to a step whose peak RSS is about
  26 MB.
- A big-integer lane kernel for the approximate distances (many rows
  per integer operation, in the way ``synth._Lanes`` computes many
  SplitMix64 outputs at once): 107 µs per subject, plus 70 µs to unpack
  the lanes, against 186 µs for the ``math.dist`` pass.

The ``math.dist`` pass is about half of ``_rank`` and is the floor of a
pure-Python kernel.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from .errors import ConfigError, DataError
from .frame import Frame, _picker, refuse_unusable

# Ordered (training_row_index, distance) pairs, nearest first.
NeighborRanking = Tuple[Tuple[int, float], ...]


@dataclass(frozen=True)
class AmmknnConfig:
    """Tunables of the adaptive predictor.

    ``outlier_feature`` is the label of the standardized column whose low
    values trigger the minimum-match fallback; callers that leave it None
    must resolve a default (the feature most correlated with the target)
    before batch prediction.
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
    cumulative_means: tuple
    min_of_means: float
    min_match: float
    outlier_value: float
    outlier_triggered: bool
    prediction: float

    def to_json_dict(self) -> dict:
        return {
            "subject_id": self.subject_id,
            "neighbors": [[i, d] for i, d in self.neighbor_ranking],
            "cumulative_means": list(self.cumulative_means),
            "min_of_means": self.min_of_means,
            "min_match": self.min_match,
            "outlier_value": self.outlier_value,
            "outlier_triggered": self.outlier_triggered,
            "prediction": self.prediction,
        }


def _training_arrays(training: Frame) -> Tuple[list, tuple]:
    """The training features, one tuple per row, and the targets, extracted
    and checked once: every cell must be finite."""
    if training.n_rows == 0:
        raise DataError("no training rows")
    refuse_unusable("training row {}".format, training.column_names, training.columns())
    return training.feature_matrix(), training.target_values()


def _rank(matrix: Sequence[tuple], subject: tuple, limit: int, skip: Optional[int] = None) -> list:
    """The ``limit`` nearest ``(squared_distance, row)`` pairs among the
    checked training rows of ``matrix``, ordered by distance then row
    index, leaving out row ``skip``.

    This is the package's only ranking: ``math.dist`` filters, the exact
    left-to-right sums of the survivors order them. The module docstring
    gives the error argument behind the margins.
    """
    n = len(matrix)
    approx = list(map(math.dist, repeat(subject, n), matrix))
    rows = range(n)
    if skip is not None:
        rows = chain(range(skip), range(skip + 1, n))
        approx[skip] = math.inf  # so no finite bound keeps it
    if limit < n:
        # tau, the limit-th smallest approximate distance: the same float
        # that a full sort would put at index limit - 1
        heap = approx.copy()
        heapq.heapify(heap)
        for _ in range(limit - 1):
            heapq.heappop(heap)
        margin = 1.0 + 1e-12 + len(subject) * 1e-15
        bound = heap[0] * margin + 1e-150
        if bound < 1e150:
            rows = [j for j, a in enumerate(approx) if a <= bound]
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
    ranking."""
    for i, subject in enumerate(subjects):
        ranked = _rank(matrix, subject, limit, skip=i if held_out else None)
        targets = [target[j] for _, j in ranked]
        yield ranked, targets, cumulative_means(targets)


def ammknn_predict_batch(subjects: Frame, training: Frame, config: AmmknnConfig) -> Iterator[PredictionRecord]:
    """An iterator of one PredictionRecord per subject row, in row order.

    Subjects must carry every training feature column plus the configured
    outlier feature; each subject's outlier value is read from its own
    (standardized) cell. The training matrix is extracted, and it and the
    subjects' cells are checked, once per call, when it is called, so a
    refusal comes before the first record; each record is then scored as
    it is drawn, from the subject's cells picked out of its row, and only
    one subject's ranking is held at a time. Prediction is
    pure per row, so rows could be fanned out across workers without
    changing the output.
    """
    if config.outlier_feature is None:
        raise ConfigError("outlier_feature is not set; resolve a default first")
    features = training.feature_names()
    missing = [n for n in features if n not in subjects.column_names]
    if missing:
        raise DataError(f"subjects lack training feature columns: {missing}")
    if config.outlier_feature not in subjects.column_names:
        raise DataError(
            f"outlier feature {config.outlier_feature!r} not in subjects"
        )
    matrix, target = _training_arrays(training)
    columns = {n: subjects.column(n) for n in (*features, config.outlier_feature)}
    refuse_unusable("subject row {}".format, list(columns), list(columns.values()))
    outlier_values = columns[config.outlier_feature]
    # each subject's cells are picked as it is ranked: no second tuple per
    # cohort row is held
    pick = _picker([subjects.column_index(n) for n in features])
    scored = _scored(matrix, target, map(pick, subjects.rows), config.max_k)

    def records() -> Iterator[PredictionRecord]:
        for i, (ranked, targets, means) in enumerate(scored):
            prediction, triggered = _adaptive(targets, means, outlier_values[i], config)
            yield PredictionRecord(
                subject_id=subjects.row_id(i),
                neighbor_ranking=tuple((j, math.sqrt(sq)) for sq, j in ranked),
                cumulative_means=tuple(means),
                min_of_means=min(means),
                min_match=min(targets),
                outlier_value=outlier_values[i],
                outlier_triggered=triggered,
                prediction=prediction,
            )

    return records()


def loocv(frame: Frame, config: AmmknnConfig, knn_k: int) -> Tuple[list, list, list]:
    """Leave-one-out predictions of the adaptive model and of fixed-k KNN.

    Returns ``(adaptive, outlier_triggered, fixed_k)``, one entry per row,
    each made with that row held out of training. Every row is ranked
    once against all the others, ``max(max_k, knn_k)`` deep, and the
    running means of its neighbors' targets are computed once: the
    adaptive rule reads the first ``max_k`` of them and the fixed-k
    prediction is the one at ``knn_k``. No Frame is rebuilt and no
    ``PredictionRecord`` is built per fold. Holding a row out keeps the
    others' relative order, so the results equal a fold by fold re-fit
    bit for bit.
    """
    if frame.n_rows < 2:
        raise DataError("leave-one-out needs at least 2 rows")
    if config.outlier_feature is None:
        raise ConfigError("outlier_feature is not set; resolve a default first")
    if knn_k < 1:
        raise ConfigError(f"knn_k must be >= 1, got {knn_k}")
    if knn_k > frame.n_rows - 1:
        raise DataError(f"k={knn_k} exceeds {frame.n_rows - 1} training rows per fold")
    matrix, target = _training_arrays(frame)
    outlier_values = frame.column(config.outlier_feature)
    adaptive, triggered, fixed_k = [], [], []
    scored = _scored(matrix, target, matrix, max(config.max_k, knn_k), held_out=True)
    for i, (_, targets, means) in enumerate(scored):
        prediction, fired = _adaptive(targets, means, outlier_values[i], config)
        adaptive.append(prediction)
        triggered.append(fired)
        fixed_k.append(means[knn_k - 1])
    return adaptive, triggered, fixed_k
