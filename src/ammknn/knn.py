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
subject. There is no cache of pairwise distances: an n x n table of
Python floats costs about 20 MB at n = 724, so distances are computed
row by row and memory stays O(n).

Implementation notes for exact reproducibility: rankings are ordered by
the left-to-right accumulated *squared* distance (same ordering as the
Euclidean distance, no square root in the comparison key), and running
means are plain left-to-right float sums divided by k. Both choices make
predictions bit-identical to a naive re-implementation that sorts all
rows and averages prefixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import (
    AmmknnError,
    ColumnMismatch,
    DimensionMismatch,
    EmptyInput,
    EmptyTrainingSet,
    InvalidSpec,
    MissingCell,
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


def _squared_distance(a: Sequence[float], b: Sequence[float]) -> float:
    total = 0.0
    for x, y in zip(a, b):
        diff = x - y
        total += diff * diff
    return total


def _checked_vector(vec: Sequence[float], width: int) -> tuple:
    if len(vec) != width:
        raise DimensionMismatch(f"subject has {len(vec)} features, training has {width}")
    cells = tuple(vec)
    if any(v is None for v in cells):
        raise MissingCell("subject feature vector has missing components")
    return cells


def _training_arrays(training: Frame) -> Tuple[list, tuple]:
    """The training feature matrix and targets, extracted and checked once."""
    if training.n_rows == 0:
        raise EmptyTrainingSet("no training rows")
    matrix = training.feature_matrix()
    for i, row in enumerate(matrix):
        if any(v is None for v in row):
            raise MissingCell(f"training row {i} has missing feature cells")
    target = training.target_values()
    if any(t is None for t in target):
        raise MissingCell("training target has missing cells")
    return matrix, target


def _rank(matrix: Sequence[tuple], subject: tuple, limit: int, skip: Optional[int] = None) -> list:
    """The ``limit`` nearest ``(squared_distance, row)`` pairs of a checked
    matrix, ordered by distance then row index, leaving out row ``skip``.

    This is the package's only ranking. Distances are computed row by row
    and only one subject's are held at a time, so memory stays O(n).
    """
    keyed = [
        (_squared_distance(subject, row), j)
        for j, row in enumerate(matrix)
        if j != skip
    ]
    keyed.sort()
    return keyed[:limit]


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
    subject = _checked_vector(subject, len(matrix[0]))
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
    records = []
    for i, row in enumerate(subjects.feature_matrix(features)):
        try:
            if outlier_values[i] is None:
                raise MissingCell("missing outlier feature cell")
            ranked = _rank(matrix, _checked_vector(row, len(features)), config.max_k)
        except AmmknnError as exc:
            raise type(exc)(f"subject row {i}: {exc}") from exc
        records.append(_record(ranked, target, outlier_values[i], config, subjects.row_id(i)))
    return records
