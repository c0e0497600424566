"""Leave-one-out cross-validation, risk tiers, confusion matrices,
metrics, and the prediction-cutoff sweep.

Leave-one-out goes through the same ranking engine as every other step
(``knn._rank``): each row is ranked once against all the others, and the
adaptive and the fixed-k predictions are both read from one pass of
running means over that ranking. The held-out row is its own subject;
the engine's ``math.dist`` filter keeps the ``max(max_k, knn_k)``
nearest others, plus any within its error margin, and only those get
exact squared distances. No Frame is rebuilt per fold and no pairwise
distance table is kept, since an n x n table of floats would cost O(n^2)
memory.

Evaluation convention: a *positive* outcome is an actual failing score,
so sensitivity measures how well failing subjects are detected. Binary
classification passes a score at or above the pass mark. The three risk
tiers are fail (score < fail_below), at_risk (fail_below <= score <=
at_risk_upper) and pass (score > at_risk_upper); both boundary scores
land in the at_risk band, matching the prose reading of the bands rather
than a half-open interval cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import ConfigError, DataError
from .frame import Frame
from .knn import AmmknnConfig, _adaptive, _rank, _training_arrays, cumulative_means
from .preprocess import pearson_correlation

TIER_FAIL = "fail"
TIER_AT_RISK = "at_risk"
TIER_PASS = "pass"
TIERS = (TIER_FAIL, TIER_AT_RISK, TIER_PASS)

SCORE_MIN = 200.0
SCORE_MAX = 800.0


@dataclass(frozen=True)
class TierBoundaries:
    fail_below: float = 350.0
    at_risk_upper: float = 375.0

    def __post_init__(self):
        if not self.fail_below < self.at_risk_upper:
            raise ConfigError(
                f"fail_below {self.fail_below} must be below at_risk_upper {self.at_risk_upper}"
            )
        for v in (self.fail_below, self.at_risk_upper):
            if not SCORE_MIN <= v <= SCORE_MAX:
                raise ConfigError(f"tier boundary {v} outside score range")


@dataclass(frozen=True)
class ConfusionMatrix2:
    """Binary cross-tabulation; positive = actual fail."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class ConfusionMatrix3:
    """3x3 cross-tabulation, counts[actual_tier][predicted_tier] over TIERS."""

    counts: tuple

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    @property
    def diagonal(self) -> tuple:
        return tuple(self.counts[i][i] for i in range(3))


@dataclass(frozen=True)
class Metrics:
    """accuracy, sensitivity, specificity; None marks an undefined ratio."""

    accuracy: float
    sensitivity: Optional[float]
    specificity: Optional[float]


def classify_tier(score: float, bounds: TierBoundaries) -> str:
    if score < bounds.fail_below:
        return TIER_FAIL
    if score <= bounds.at_risk_upper:
        return TIER_AT_RISK
    return TIER_PASS


def _tally_2x2(outcomes) -> ConfusionMatrix2:
    """Count (actual_fail, predicted_fail) pairs into a 2x2 matrix."""
    tp = fp = tn = fn = 0
    for actual_fail, predicted_fail in outcomes:
        if actual_fail and predicted_fail:
            tp += 1
        elif actual_fail:
            fn += 1
        elif predicted_fail:
            fp += 1
        else:
            tn += 1
    return ConfusionMatrix2(tp, fp, tn, fn)


def confusion_2x2(actual: Sequence[float], predicted: Sequence[float], pass_at: float) -> ConfusionMatrix2:
    if len(actual) != len(predicted):
        raise DataError(f"lengths differ: {len(actual)} vs {len(predicted)}")
    return _tally_2x2((a < pass_at, p < pass_at) for a, p in zip(actual, predicted))


def confusion_3x3(
    actual: Sequence[float],
    predicted: Sequence[float],
    actual_bounds: TierBoundaries,
    predicted_bounds: TierBoundaries,
) -> ConfusionMatrix3:
    """Full tier cross-tabulation.

    The two axes take separate boundary sets because cohort-validation
    runs cut predicted scores at wider bands than actual scores.
    """
    if len(actual) != len(predicted):
        raise DataError(f"lengths differ: {len(actual)} vs {len(predicted)}")
    counts = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    for a, p in zip(actual, predicted):
        i = TIERS.index(classify_tier(a, actual_bounds))
        j = TIERS.index(classify_tier(p, predicted_bounds))
        counts[i][j] += 1
    return ConfusionMatrix3(tuple(tuple(row) for row in counts))


def metrics_from_cm(cm: ConfusionMatrix2) -> Metrics:
    if cm.total == 0:
        raise DataError("no evaluated subjects")
    accuracy = (cm.tp + cm.tn) / cm.total
    sensitivity = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn > 0 else None
    specificity = cm.tn / (cm.tn + cm.fp) if cm.tn + cm.fp > 0 else None
    return Metrics(accuracy, sensitivity, specificity)


def accuracy_3x3(cm: ConfusionMatrix3) -> float:
    if cm.total == 0:
        raise DataError("no evaluated subjects")
    return sum(cm.diagonal) / cm.total


@dataclass(frozen=True)
class SweepPoint:
    cutoff: float
    matrix: ConfusionMatrix2
    metrics: Metrics


def threshold_sweep(
    actual: Sequence[float],
    predicted: Sequence[float],
    cutoffs: Sequence[float],
    pass_at: float,
) -> List[SweepPoint]:
    """Re-binarize predictions at each cutoff while actuals stay at the pass mark.

    A prediction counts as a pass only when it is strictly above the
    cutoff, so raising the cutoff flags more subjects as failing. This
    reproduces the manual adjustment applied to over-optimistic baseline
    models: sweeping the cutoff from pass_at - 1 upward shows how many
    extra true failures each adjustment step catches and at what false
    positive cost.
    """
    if len(actual) != len(predicted):
        raise DataError(f"lengths differ: {len(actual)} vs {len(predicted)}")
    if not cutoffs:
        raise DataError("cutoffs list is empty")
    points = []
    for c in cutoffs:
        cm = _tally_2x2((a < pass_at, not (p > c)) for a, p in zip(actual, predicted))
        points.append(SweepPoint(c, cm, metrics_from_cm(cm)))
    return points


def loocv(frame: Frame, config: AmmknnConfig, knn_k: int) -> Tuple[list, list, list]:
    """Leave-one-out predictions of the adaptive model and of fixed-k KNN.

    Returns ``(adaptive, outlier_triggered, fixed_k)``, one entry per row,
    each made with that row held out of training. Every row is ranked
    once against all the others, ``max(max_k, knn_k)`` deep, and the
    running means of its neighbors' targets are computed once: the
    adaptive rule (``knn._adaptive``) reads the first ``max_k`` of them
    and the fixed-k prediction is the one at ``knn_k``. No
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
    limit = max(config.max_k, knn_k)
    n = frame.n_rows
    adaptive, triggered, fixed_k = [], [], []
    for i in range(n):
        neighbor_targets = [target[j] for _, j in _rank(matrix, matrix[i], limit, skip=i)]
        means = cumulative_means(neighbor_targets)
        prediction, fired = _adaptive(neighbor_targets, means, outlier_values[i], config)
        adaptive.append(prediction)
        triggered.append(fired)
        fixed_k.append(means[knn_k - 1])
    return adaptive, triggered, fixed_k


def prediction_actual_correlation(predicted: Sequence[float], actual: Sequence[float]) -> Optional[float]:
    """Pearson r between predictions and outcomes; None when undefined."""
    if len(predicted) != len(actual) or len(predicted) < 2:
        return None
    try:
        return pearson_correlation(predicted, actual)
    except DataError:
        return None
