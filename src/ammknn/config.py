"""Pipeline configuration.

Every tunable lives in one JSON document so no constant hides in code:
the correlation threshold, the neighbor cap, the outlier rule, the pass
mark, the tier bands for each evaluation axis, and the sweep cutoffs.
Defaults follow the reference workflow this tool implements (pass at
350, tiers 350/375, validation prediction bands cut at 385, cutoff
sweep 349/390/400/410/420, neighbor cap 20, outlier rule < -2).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError, InvalidSpec
from .evaluation import TierBoundaries
from .frame import AggregationSpec
from .knn import AmmknnConfig

DEFAULT_SWEEP_CUTOFFS = (349.0, 390.0, 400.0, 410.0, 420.0)


@dataclass(frozen=True)
class PipelineConfig:
    target_name: str
    id_column: Optional[str] = None
    cohort_column: Optional[str] = None
    year_cutoff: Optional[float] = None
    aggregations: tuple = ()
    include_columns: Optional[tuple] = None
    exclude_columns: tuple = ()
    correlation_threshold: float = 0.1
    knn_k: int = 12
    ammknn: AmmknnConfig = field(default_factory=AmmknnConfig)
    pass_at: float = 350.0
    tiers_actual: TierBoundaries = field(default_factory=TierBoundaries)
    tiers_predicted: TierBoundaries = field(default_factory=TierBoundaries)
    tiers_predicted_validation: TierBoundaries = field(
        default_factory=lambda: TierBoundaries(350.0, 385.0)
    )
    sweep_cutoffs: tuple = DEFAULT_SWEEP_CUTOFFS
    seed: int = 0

    def __post_init__(self):
        if not self.target_name:
            raise ConfigError("target_name is required")
        if not 0.0 <= self.correlation_threshold <= 1.0:
            raise ConfigError("correlation_threshold must be in [0, 1]")
        if self.knn_k < 1:
            raise ConfigError("knn_k must be >= 1")
        if not self.sweep_cutoffs:
            raise ConfigError("sweep_cutoffs must be non-empty")

    def to_json_dict(self) -> dict:
        return {
            "target_name": self.target_name,
            "id_column": self.id_column,
            "cohort_column": self.cohort_column,
            "year_cutoff": self.year_cutoff,
            "aggregations": [
                {"group_name": a.group_name, "member_columns": list(a.member_columns)}
                for a in self.aggregations
            ],
            "include_columns": (
                None if self.include_columns is None else list(self.include_columns)
            ),
            "exclude_columns": list(self.exclude_columns),
            "correlation_threshold": self.correlation_threshold,
            "knn_k": self.knn_k,
            "ammknn": {
                "max_k": self.ammknn.max_k,
                "outlier_feature": self.ammknn.outlier_feature,
                "outlier_cutoff": self.ammknn.outlier_cutoff,
            },
            "pass_at": self.pass_at,
            "tiers_actual": self.tiers_actual.to_json_dict(),
            "tiers_predicted": self.tiers_predicted.to_json_dict(),
            "tiers_predicted_validation": self.tiers_predicted_validation.to_json_dict(),
            "sweep_cutoffs": list(self.sweep_cutoffs),
            "seed": self.seed,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()


def _bounds_from(data, default: TierBoundaries) -> TierBoundaries:
    if data is None:
        return default
    try:
        return TierBoundaries(float(data["fail_below"]), float(data["at_risk_upper"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad tier boundaries {data!r}: {exc}") from exc


_KNOWN_KEYS = {
    "target_name", "id_column", "cohort_column", "year_cutoff", "aggregations",
    "include_columns", "exclude_columns", "correlation_threshold", "knn_k",
    "ammknn", "pass_at", "tiers_actual", "tiers_predicted",
    "tiers_predicted_validation", "sweep_cutoffs", "seed",
}


def config_from_json_dict(data: dict) -> PipelineConfig:
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = sorted(set(data) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    if "target_name" not in data:
        raise ConfigError("config is missing target_name")
    try:
        aggregations = tuple(
            AggregationSpec(a["group_name"], tuple(a["member_columns"]))
            for a in data.get("aggregations", [])
        )
        ammknn_data = data.get("ammknn", {})
        ammknn = AmmknnConfig(
            max_k=int(ammknn_data.get("max_k", 20)),
            outlier_feature=ammknn_data.get("outlier_feature"),
            outlier_cutoff=float(ammknn_data.get("outlier_cutoff", -2.0)),
        )
        include = data.get("include_columns")
        return PipelineConfig(
            target_name=data["target_name"],
            id_column=data.get("id_column"),
            cohort_column=data.get("cohort_column"),
            year_cutoff=(
                None if data.get("year_cutoff") is None else float(data["year_cutoff"])
            ),
            aggregations=aggregations,
            include_columns=None if include is None else tuple(include),
            exclude_columns=tuple(data.get("exclude_columns", ())),
            correlation_threshold=float(data.get("correlation_threshold", 0.1)),
            knn_k=int(data.get("knn_k", 12)),
            ammknn=ammknn,
            pass_at=float(data.get("pass_at", 350.0)),
            tiers_actual=_bounds_from(data.get("tiers_actual"), TierBoundaries()),
            tiers_predicted=_bounds_from(data.get("tiers_predicted"), TierBoundaries()),
            tiers_predicted_validation=_bounds_from(
                data.get("tiers_predicted_validation"), TierBoundaries(350.0, 385.0)
            ),
            sweep_cutoffs=tuple(
                float(c) for c in data.get("sweep_cutoffs", DEFAULT_SWEEP_CUTOFFS)
            ),
            seed=int(data.get("seed", 0)),
        )
    except InvalidSpec as exc:
        raise ConfigError(str(exc)) from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config document: {exc}") from exc


def load_config(path) -> PipelineConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    except IsADirectoryError:
        raise ConfigError(f"{path}: is a directory, not a config file") from None
    return config_from_json_dict(data)
