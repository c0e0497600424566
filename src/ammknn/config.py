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
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from typing import Optional, Tuple, Union, get_args, get_origin, get_type_hints

from .errors import ConfigError
from .frame import AggregationSpec
from .knn import AmmknnConfig
from .report import TierBoundaries


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
            raise ConfigError(
                f"cohort_column and target_name both name {self.target_name!r}"
            )
        if not 0.0 <= self.correlation_threshold <= 1.0:
            raise ConfigError("correlation_threshold must be in [0, 1]")
        if self.knn_k < 1:
            raise ConfigError("knn_k must be >= 1")
        if not self.sweep_cutoffs:
            raise ConfigError("sweep_cutoffs must be non-empty")

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

    A number must be one: a boolean, a non-finite float and a fraction for
    an ``int`` are refused, whether given as JSON numbers or as text such
    as ``"nan"``.
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
    if isinstance(value, bool):
        raise ConfigError(f"{where}: {json.dumps(value)} is not a number")
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
