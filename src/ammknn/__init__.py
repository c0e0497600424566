"""Adaptive minimum-match KNN score prediction for tabular cohorts.

End-to-end toolkit: cohort CSV ingestion, joint standardization,
correlation-threshold variable selection, adaptive nearest-neighbor score
prediction, leave-one-out cross-validation, tiered risk classification,
and confusion-matrix reporting.
"""

from .config import (
    AggregationSpec,
    AmmknnConfig,
    PipelineConfig,
    TierBoundaries,
    config_from_json_dict,
    load_config,
)
from .frame import load_csv, write_csv
from .knn import PredictionRecord, ammknn_predict_batch, cumulative_means, loocv
from .preprocess import (
    SelectionResult,
    StandardizationStats,
    select_by_correlation,
    standardize_joint,
)
from .report import classify_tier
from .synth import CohortSplit, SplitMix64, SynthSpec, generate_cohort

__version__ = "0.1.0"

__all__ = [
    "AggregationSpec",
    "AmmknnConfig",
    "CohortSplit",
    "PipelineConfig",
    "PredictionRecord",
    "SelectionResult",
    "SplitMix64",
    "StandardizationStats",
    "SynthSpec",
    "TierBoundaries",
    "ammknn_predict_batch",
    "classify_tier",
    "config_from_json_dict",
    "cumulative_means",
    "generate_cohort",
    "load_config",
    "load_csv",
    "loocv",
    "select_by_correlation",
    "standardize_joint",
    "write_csv",
]
