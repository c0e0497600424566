"""Pipeline configuration.

Every tunable lives in one JSON document so no constant hides in code:
the correlation threshold, the neighbor cap, the outlier rule, the pass
mark, the tier bands for each evaluation axis, and the sweep cutoffs.
Each default lives once, on its dataclass field, and follows the
reference workflow this tool implements (pass at 350, tiers 350/375,
validation prediction bands cut at 385, cutoff sweep 349/390/400/410/420,
neighbor cap 20, outlier rule < -2).

Every stanza is read by ``_from_json`` and written by
``dataclasses.asdict``, so the fields are the one list of keys: a key
that is not a field, or a stanza that is not a JSON object, is refused.
Every stanza class is defined here, and each checks, as it is built,
every fault that needs no input file; ``PipelineConfig`` checks the
faults between stanzas (two roles naming one column, an aggregation
that takes the id column or the target, a group named like the id
column or an earlier group, the target as the outlier feature). So every
step refuses them as the config is loaded, before any file is read;
only ``prepare``'s checks against its input's header are left to
``pipeline``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from typing import Optional, Tuple, Union, get_args, get_origin, get_type_hints

from .errors import ConfigError

# the range every tier boundary must lie in
SCORE_MIN = 200.0
SCORE_MAX = 800.0


@dataclass(frozen=True)
class AggregationSpec:
    """Collapse several columns into one row-wise mean column."""

    group_name: str
    member_columns: tuple

    def __post_init__(self):
        object.__setattr__(self, "member_columns", tuple(self.member_columns))
        if not self.member_columns:
            raise ConfigError(f"aggregation {self.group_name!r} has no member columns")


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
class PipelineConfig:
    target_name: str
    id_column: Optional[str] = None
    cohort_column: Optional[str] = None
    year_cutoff: Optional[float] = None
    aggregations: Tuple[AggregationSpec, ...] = ()
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
    sweep_cutoffs: Tuple[float, ...] = (349.0, 390.0, 400.0, 410.0, 420.0)
    seed: int = 0

    def __post_init__(self):
        if not self.target_name:
            raise ConfigError("target_name is required")
        if self.cohort_column == self.target_name:
            raise ConfigError(f"cohort_column and target_name both name {self.target_name!r}")
        for key in ("target_name", "cohort_column"):
            if self.id_column is not None and self.id_column == getattr(self, key):
                raise ConfigError(f"id_column and {key} both name {self.id_column!r}")
        if not 0.0 <= self.correlation_threshold <= 1.0:
            raise ConfigError("correlation_threshold must be in [0, 1]")
        if self.knn_k < 1:
            raise ConfigError("knn_k must be >= 1")
        if not self.sweep_cutoffs:
            raise ConfigError("sweep_cutoffs must be non-empty")
        if self.ammknn.outlier_feature == self.target_name:
            # the rule would read each student's own score, which never
            # falls below the cutoff
            raise ConfigError(
                f"ammknn.outlier_feature {self.target_name!r} is the target; "
                "name a feature column"
            )
        groups = {self.id_column}
        for spec in self.aggregations:
            g = spec.group_name
            if self.id_column is not None and self.id_column in spec.member_columns:
                raise ConfigError(
                    f"aggregation {g!r}: the id column {self.id_column!r} cannot be a member"
                )
            if self.target_name in spec.member_columns:
                raise ConfigError(f"aggregation {g!r} would drop the target column")
            # the written header would name the id or the group twice
            if g in groups:
                raise ConfigError(f"column {g!r} already exists")
            groups.add(g)

    def sha256(self) -> str:
        canonical = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _from_json(cls, data, stanza: str, **fallback):
    """A ``cls`` built from the JSON object ``data``.

    Each given value is read as its field's type: ``int``, ``float`` and
    ``tuple`` convert it, a nested dataclass is a stanza read the same
    way, ``Optional`` lets null through and ``Tuple[X, ...]`` reads each
    item as X. An absent key takes its value from ``fallback``, else the
    field's own default. A value that is not an object, an unknown key, a
    missing required key or a value that does not convert is a
    ``ConfigError`` naming the stanza.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{stanza} must be a JSON object, got {json.dumps(data)}")
    declared = fields(cls)
    unknown = sorted(set(data) - {f.name for f in declared})
    if unknown:
        raise ConfigError(f"unknown {stanza} keys: {unknown}")
    data = {**fallback, **data}
    # A tier stanza must give both bounds: TierBoundaries' own 350/375
    # would silently stand in for tiers_predicted_validation's 385.
    missing = [
        f.name for f in declared
        if f.name not in data
        and (cls is TierBoundaries or f.default is MISSING and f.default_factory is MISSING)
    ]
    if missing:
        raise ConfigError(f"{stanza} is missing {missing}")
    hints = get_type_hints(cls)
    values = {}
    for name, value in data.items():
        try:
            values[name] = _read_value(hints[name], value, stanza, name)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad {stanza} value for {name!r}: {exc}") from exc
    return cls(**values)


def _read_value(hint, value, stanza: str, key: str):
    """``value``, given for ``key`` in ``stanza``, read as the type ``hint``;
    see ``_from_json``.

    A number must be given as a JSON number: a boolean, text (even
    ``"12"``, which ``int()`` would read), a non-finite float and a
    fraction for an ``int`` are refused.
    """
    if get_origin(hint) is Union:  # Optional[X]
        if value is None:
            return None
        hint = get_args(hint)[0]
    if is_dataclass(hint):
        return _from_json(hint, value, key)
    if get_origin(hint) is tuple:
        return tuple(_read_value(get_args(hint)[0], v, stanza, f"{key} entry") for v in value)
    if hint not in (int, float):
        return tuple(value) if hint is tuple else value
    where = f"bad {stanza} value for {key!r}"
    if type(value) not in (int, float):  # a bool is an int to isinstance
        raise ConfigError(f"{where}: {json.dumps(value, ensure_ascii=False)} is not a number")
    read = hint(value)
    if hint is float and not math.isfinite(read):
        raise ConfigError(f"{where}: {value!r} is not finite")
    if isinstance(value, float) and read != value:  # only int() changes a float
        raise ConfigError(f"{where}: {value!r} is not an integer")
    return read


def _read_json(path, error, kind: str):
    """The JSON document at ``path``, after any byte-order mark. A missing
    file, a directory, a file that is not UTF-8 and malformed JSON are
    each an ``error`` naming the path."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise error(f"{path}: no such {kind} file") from None
    except IsADirectoryError:
        raise error(f"{path}: is a directory, not a {kind} file") from None
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON: {exc}") from None


def config_from_json_dict(data: dict) -> PipelineConfig:
    return _from_json(PipelineConfig, data, "config")


def load_config(path) -> PipelineConfig:
    return config_from_json_dict(_read_json(path, ConfigError, "config"))
