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

Every step ranks through one engine, ``_rank``: predict and validate
(``ammknn_predict_batch``), the single-subject form, and leave-one-out
(``evaluation.loocv``, which ranks each row once against the others and
reads both the adaptive and the fixed-k model from that one ranking).
The training matrix is extracted and checked once per call, not once per
subject, one tuple per row.

For each subject the engine filters, then refines. The filter gives every
training row an approximate distance with ``math.dist``, one C call per
row, and keeps the rows whose approximate distance is within a margin of
the ``limit``-th smallest: normally exactly ``limit`` rows. The refine
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
finite: a missing or non-finite cell is refused with a ``DataError``
naming its row and column (``MissingCell``, ``NonFiniteCell``).

Running means are plain left-to-right float sums divided by k. Together
these choices make predictions bit-identical to a naive re-implementation
that sorts all rows by (squared distance, row) and averages prefixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from typing import List, Optional, Sequence, Tuple

from .errors import (
    AmmknnError,
    ColumnMismatch,
    DimensionMismatch,
    EmptyInput,
    EmptyTrainingSet,
    InvalidSpec,
    MissingCell,
    NonFiniteCell,
    UnknownColumn,
)
from .frame import Frame

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
            raise InvalidSpec(f"max_k must be >= 1, got {self.max_k}")


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


def _finite(values: Sequence[Optional[float]]) -> bool:
    return None not in values and all(map(math.isfinite, values))


def _refuse(where: str, names: Sequence[str], rows) -> None:
    """Raise for the first missing or non-finite cell of ``rows``, naming
    its row (when there are several) and column. Called only after a
    whole-column check has failed."""
    for i, row in enumerate(rows):
        for name, v in zip(names, row):
            if v is None or not math.isfinite(v):
                at = f"{where} row {i}, column {name!r}" if where else f"column {name!r}"
                if v is None:
                    raise MissingCell(f"{at}: missing cell")
                raise NonFiniteCell(f"{at}: non-finite value {v!r}")


def _checked_vector(vec: Sequence[float], names: Sequence[str]) -> tuple:
    """A subject's feature values, refused unless every one is finite."""
    if len(vec) != len(names):
        raise DimensionMismatch(f"subject has {len(vec)} features, training has {len(names)}")
    cells = tuple(vec)
    if not _finite(cells):
        _refuse("", names, [cells])
    return cells


def _training_arrays(training: Frame) -> Tuple[list, tuple]:
    """The training features, one tuple per row, and the targets, extracted
    and checked once: every cell must be finite."""
    if training.n_rows == 0:
        raise EmptyTrainingSet("no training rows")
    names = training.feature_names()
    matrix = training.feature_matrix(names)
    if not all(map(_finite, matrix)):
        _refuse("training", names, matrix)
    target = training.target_values()
    if not _finite(target):
        _refuse("training", [training.target_name], zip(target))
    return matrix, target


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
        margin = 1.0 + 1e-12 + len(subject) * 1e-15
        bound = sorted(approx)[limit - 1] * margin + 1e-150
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
        raise EmptyInput("cumulative_means of an empty vector")
    out = []
    total = 0.0
    for k, v in enumerate(values, start=1):
        total += v
        out.append(total / k)
    return out


def _record(
    ranked: list,
    target: Sequence[float],
    outlier_value: float,
    config: AmmknnConfig,
    subject_id: Optional[str] = None,
) -> PredictionRecord:
    """The adaptive prediction read from the first ``max_k`` pairs of a ranking."""
    nearest = ranked[: config.max_k]
    neighbor_targets = [target[j] for _, j in nearest]
    means = cumulative_means(neighbor_targets)
    min_of_means = min(means)
    min_match = min(neighbor_targets)
    triggered = outlier_value < config.outlier_cutoff
    return PredictionRecord(
        subject_id=subject_id,
        neighbor_ranking=tuple((j, math.sqrt(sq)) for sq, j in nearest),
        cumulative_means=tuple(means),
        min_of_means=min_of_means,
        min_match=min_match,
        outlier_value=outlier_value,
        outlier_triggered=triggered,
        prediction=min_match if triggered else min_of_means,
    )


def ammknn_predict_one(
    subject: Sequence[float],
    subject_outlier_value: float,
    training: Frame,
    config: AmmknnConfig,
    subject_id: Optional[str] = None,
) -> PredictionRecord:
    """Adaptive minimum-match prediction for a single subject.

    ``subject`` holds the feature values in training-column order and
    ``subject_outlier_value`` the subject's standardized score on the
    outlier feature (normally one of those same features).
    """
    matrix, target = _training_arrays(training)
    subject = _checked_vector(subject, training.feature_names())
    ranked = _rank(matrix, subject, config.max_k)
    return _record(ranked, target, subject_outlier_value, config, subject_id)


def ammknn_predict_batch(subjects: Frame, training: Frame, config: AmmknnConfig) -> List[PredictionRecord]:
    """One PredictionRecord per subject row, in row order.

    Subjects must carry every training feature column plus the configured
    outlier feature; each subject's outlier value is read from its own
    (standardized) cell. The training matrix is extracted and checked once
    per call. Prediction is pure per row, so rows could be fanned out
    across workers without changing the output.
    """
    if config.outlier_feature is None:
        raise InvalidSpec("outlier_feature is not set; resolve a default first")
    features = training.feature_names()
    missing = [n for n in features if n not in subjects.column_names]
    if missing:
        raise ColumnMismatch(f"subjects lack training feature columns: {missing}")
    if config.outlier_feature not in subjects.column_names:
        raise UnknownColumn(
            f"outlier feature {config.outlier_feature!r} not in subjects"
        )
    matrix, target = _training_arrays(training)
    outlier_values = subjects.column(config.outlier_feature)
    if not _finite(outlier_values):
        _refuse("subject", [config.outlier_feature], zip(outlier_values))
    records = []
    for i, row in enumerate(subjects.feature_matrix(features)):
        try:
            ranked = _rank(matrix, _checked_vector(row, features), config.max_k)
        except AmmknnError as exc:
            raise type(exc)(f"subject row {i}: {exc}") from exc
        records.append(_record(ranked, target, outlier_values[i], config, subjects.row_id(i)))
    return records
