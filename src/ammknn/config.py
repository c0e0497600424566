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
Every stanza class is defined here. The reader refuses a value of the
wrong JSON type and a required text field left null or empty; each
class checks, as it is built, every other fault that needs no input
file, and ``PipelineConfig`` checks the
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

# what a refusal says a value of each field type must be, then the types
# that may give it
NUMBER = ("a number", int, float)
JSON_KINDS = {int: NUMBER, float: NUMBER, str: ("text", str), tuple: ("a list", list, tuple)}


@dataclass(frozen=True)
class AggregationSpec:
    """Collapse several columns into one row-wise mean column."""

    group_name: str
    member_columns: tuple

    def __post_init__(self):
        object.__setattr__(self, "member_columns", tuple(self.member_columns))
        if not self.member_columns:
            raise ConfigError(f"aggregation {self.group_name!r} has no member columns")
        for i, member in enumerate(self.member_columns):
            if member in self.member_columns[:i]:  # it would weigh twice in the mean
                raise ConfigError(f"aggregation {self.group_name!r}: member {member!r} is listed twice")


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
    """A tier stanza: both bounds are always given, so no default of one
    axis stands in for another's."""

    fail_below: float
    at_risk_upper: float

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
    id_column: str
    cohort_column: Optional[str] = None
    year_cutoff: Optional[float] = None
    aggregations: Tuple[AggregationSpec, ...] = ()
    include_columns: Optional[tuple] = None
    exclude_columns: tuple = ()
    correlation_threshold: float = 0.1
    knn_k: int = 12
    ammknn: AmmknnConfig = field(default_factory=AmmknnConfig)
    pass_at: float = 350.0
    tiers_actual: TierBoundaries = field(default_factory=lambda: TierBoundaries(350.0, 375.0))
    tiers_predicted: TierBoundaries = field(default_factory=lambda: TierBoundaries(350.0, 375.0))
    tiers_predicted_validation: TierBoundaries = field(
        default_factory=lambda: TierBoundaries(350.0, 385.0)
    )
    sweep_cutoffs: Tuple[float, ...] = (349.0, 390.0, 400.0, 410.0, 420.0)
    seed: int = 0

    def __post_init__(self):
        if self.cohort_column == self.target_name:
            raise ConfigError(f"cohort_column and target_name both name {self.target_name!r}")
        for key in ("target_name", "cohort_column"):
            if self.id_column == getattr(self, key):
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
            if self.id_column in spec.member_columns:
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
    missing = [
        f.name for f in declared
        if f.name not in data and f.default is MISSING and f.default_factory is MISSING
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

    A value must be given as the JSON type of its field's (see
    ``JSON_KINDS``): a boolean or text for a number (even ``"12"``, which
    ``int()`` would read), anything but text for a ``str`` and text for a
    tuple (which ``tuple()`` would split into its characters) are
    refused, as are a non-finite float, a fraction for an ``int`` and a
    required ``str`` left null or empty.
    """
    if hint is str and value in (None, ""):  # an Optional[str] may be null
        raise ConfigError(f"{key} is required")
    if get_origin(hint) is Union:  # Optional[X]
        if value is None:
            return None
        hint = get_args(hint)[0]
    if is_dataclass(hint):
        return _from_json(hint, value, key)
    where = f"bad {stanza} value for {key!r}"
    wanted, *kinds = JSON_KINDS[get_origin(hint) or hint]
    if type(value) not in kinds:  # a bool is an int to isinstance
        raise ConfigError(f"{where}: {json.dumps(value, ensure_ascii=False)} is not {wanted}")
    if get_origin(hint) is tuple:
        return tuple(_read_value(get_args(hint)[0], v, stanza, f"{key} entry") for v in value)
    if hint not in (int, float):
        return tuple(value) if hint is tuple else value
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


def load_config(path) -> PipelineConfig:
    return _from_json(PipelineConfig, _read_json(path, ConfigError, "config"), "config")
