"""Seeded synthetic cohort generator.

Real cohort data cannot be redistributed, so demos, golden files, and the
end-to-end tests run on generated stand-ins with the same shape: one row
per student, a block of numeric assessment features, and a score target
on the 200-800 scale with a pass mark at 350.

The generator model is latent-ability: each row draws an ability from a
standard normal; each *signal* feature is that ability plus independent
noise of sd ``noise_sd``; the remaining features are pure noise; the
target is an affine map of ability into ``target_range`` (clipped and
rounded to a whole score), with the intercept placed so that roughly
``fail_rate_hint`` of subjects fall below 350.

Pseudo-random bit-stream contract (part of the external interface, so
golden outputs survive toolchain upgrades):

* Generator: SplitMix64. State update ``s = (s + 0x9E3779B97F4A7C15) mod
  2^64``; output ``z = s; z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
  z ^= z >> 27; z *= 0x94D049BB133111EB; z ^= z >> 31`` (all mod 2^64).
* Uniform double in (0, 1]: ``((z >> 11) + 1) * 2^-53``.
* Standard normal: Box-Muller, ``sqrt(-2 ln u1) * cos(2 pi u2)`` from two
  consecutive uniforms (the sine companion is discarded).
* Draw order in generate_cohort: per row, one ability normal followed by
  one normal per feature, rows in order.
* assign_cohort_years: Fisher-Yates shuffle of row indices, ``j = next_u64()
  mod (i + 1)`` for i from n-1 down to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from .errors import InvalidFraction, InvalidSpec
from .frame import Frame

_MASK64 = (1 << 64) - 1
_PASS_MARK = 350.0


class SplitMix64:
    """The documented 64-bit generator; see the module docstring."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in (0, 1]."""
        return ((self.next_u64() >> 11) + 1) * 2.0 ** -53

    def normal(self) -> float:
        u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


@dataclass(frozen=True)
class SynthSpec:
    seed: int
    n_rows: int
    n_features: int
    signal_features: int
    noise_sd: float = 1.0
    target_range: tuple = (200.0, 800.0)
    fail_rate_hint: float = 0.07

    def __post_init__(self):
        object.__setattr__(self, "target_range", tuple(self.target_range))
        if self.n_rows < 1:
            raise InvalidSpec("n_rows must be positive")
        if self.n_features < 1:
            raise InvalidSpec("n_features must be positive")
        if not 1 <= self.signal_features <= self.n_features:
            raise InvalidSpec("signal_features must be in [1, n_features]")
        if self.noise_sd <= 0:
            raise InvalidSpec("noise_sd must be positive")
        low, high = self.target_range
        if not low < high:
            raise InvalidSpec("target_range low must be below high")
        if not 0.0 < self.fail_rate_hint < 1.0:
            raise InvalidSpec("fail_rate_hint must be in (0, 1)")

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n_rows": self.n_rows,
            "n_features": self.n_features,
            "signal_features": self.signal_features,
            "noise_sd": self.noise_sd,
            "target_range": list(self.target_range),
            "fail_rate_hint": self.fail_rate_hint,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SynthSpec":
        known = {
            "seed", "n_rows", "n_features", "signal_features",
            "noise_sd", "target_range", "fail_rate_hint",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise InvalidSpec(f"unknown generator spec keys: {unknown}")
        try:
            return cls(
                seed=int(data["seed"]),
                n_rows=int(data["n_rows"]),
                n_features=int(data["n_features"]),
                signal_features=int(data["signal_features"]),
                noise_sd=float(data.get("noise_sd", 1.0)),
                target_range=tuple(float(v) for v in data.get("target_range", (200.0, 800.0))),
                fail_rate_hint=float(data.get("fail_rate_hint", 0.07)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidSpec(f"bad generator spec: {exc}") from exc


def generate_cohort(spec: SynthSpec) -> Frame:
    """Deterministic Frame for the spec; identical seeds give identical frames.

    Columns are f01..fNN (signal features first) plus a 'score' target;
    row ids are S0001-style. Features are rounded to 6 decimals and the
    target to a whole score, keeping CSV fixtures compact.
    """
    low, high = spec.target_range
    slope = (high - low) / 8.0
    intercept = _PASS_MARK - slope * NormalDist().inv_cdf(spec.fail_rate_hint)

    rng = SplitMix64(spec.seed)
    width = len(str(spec.n_rows))
    names = [f"f{j + 1:02d}" for j in range(spec.n_features)] + ["score"]
    rows = []
    ids = []
    for i in range(spec.n_rows):
        ability = rng.normal()
        cells = []
        for j in range(spec.n_features):
            draw = rng.normal()
            if j < spec.signal_features:
                cells.append(round(ability + spec.noise_sd * draw, 6))
            else:
                cells.append(round(draw, 6))
        target = min(max(round(intercept + slope * ability), low), high)
        cells.append(float(target))
        rows.append(cells)
        ids.append(f"S{i + 1:0{width}d}")
    return Frame(names, rows, "score", ids, "student_id")


def _split_indices(n: int, train_fraction: float, seed: int):
    if not 0.0 < train_fraction < 1.0:
        raise InvalidFraction(f"train_fraction must be in (0, 1), got {train_fraction}")
    n_train = min(max(round(train_fraction * n), 1), n - 1)
    indices = list(range(n))
    rng = SplitMix64(seed)
    for i in range(n - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        indices[i], indices[j] = indices[j], indices[i]
    train_set = set(indices[:n_train])
    train_idx = [i for i in range(n) if i in train_set]
    validation_idx = [i for i in range(n) if i not in train_set]
    return train_idx, validation_idx


def assign_cohort_years(
    frame: Frame,
    train_fraction: float,
    seed: int,
    column: str = "cohort",
    train_year: float = 2018.0,
    validation_year: float = 2019.0,
) -> Frame:
    """Stamp a cohort-year column so a year cutoff reproduces a seeded split.

    The training side is round(train_fraction * n) rows, clamped so both
    sides stay non-empty, chosen by a seeded shuffle; those rows get
    ``train_year`` (below the cutoff) and the rest ``validation_year``,
    letting generated cohorts flow through the same year-filtered pipeline
    as real exports. Rows keep their original order.
    """
    train_idx, _ = _split_indices(frame.n_rows, train_fraction, seed)
    train_set = set(train_idx)
    names = [column, *frame.column_names]
    rows = [
        [train_year if i in train_set else validation_year, *frame.rows[i]]
        for i in range(frame.n_rows)
    ]
    return Frame(names, rows, frame.target_name, frame.row_ids, frame.id_name)
