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
``fail_rate_hint`` of subjects fall below 350. The rows carry each
feature as its CSV text, the text of the value rounded to 6 decimals;
the feature cells of a block of rows are formatted together, by one
``%`` over all their values.

Pseudo-random bit-stream contract (part of the external interface, so
golden outputs survive toolchain upgrades):

* Generator: SplitMix64. State update ``s = (s + 0x9E3779B97F4A7C15) mod
  2^64``; output ``z = s; z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
  z ^= z >> 27; z *= 0x94D049BB133111EB; z ^= z >> 31`` (all mod 2^64).
  So output k (k = 1, 2, ...) is a function of ``(seed + k *
  0x9E3779B97F4A7C15) mod 2^64`` alone. generate_cohort uses that to
  compute its outputs a block at a time, not one by one; the bit-stream
  is the same.
* Uniform double in (0, 1]: ``((z >> 11) + 1) * 2^-53``.
* Standard normal: Box-Muller, ``sqrt(-2 ln u1) * cos(2 pi u2)`` from two
  consecutive uniforms (the sine companion is discarded).
* Draw order in generate_cohort: per row, one ability normal followed by
  one normal per feature, rows in order.
* Cohort years (generate_cohort with a split): Fisher-Yates shuffle of row
  indices, ``j = next_u64() mod (i + 1)`` for i from n-1 down to 1, from
  its own generator seeded with the split's seed; the first
  round(train_fraction * n) shuffled indices, clamped to [1, n - 1], are
  the training rows.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import repeat
from math import cos, hypot, log, pi, sqrt
from statistics import NormalDist
from typing import Iterator, Optional, Tuple

from .errors import ConfigError
from .frame import BOUND

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # state increment
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_PASS_MARK = 350.0
# No Box-Muller normal here exceeds sqrt(2 * 53 * ln 2) ~ 8.57 in size,
# because u1 >= 2^-53; a spec is refused if a draw this large could write
# a cell beyond frame.BOUND, which prepare would refuse.
_MAX_NORMAL = 8.6


class SplitMix64:
    """The documented 64-bit generator; see the module docstring."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)


@dataclass(frozen=True)
class SynthSpec:
    seed: int
    n_rows: int
    n_features: int
    signal_features: int
    noise_sd: float = 1.0
    target_range: Tuple[float, ...] = (200.0, 800.0)
    fail_rate_hint: float = 0.07

    def __post_init__(self):
        object.__setattr__(self, "target_range", tuple(self.target_range))
        if self.n_rows < 1:
            raise ConfigError("n_rows must be positive")
        if self.n_features < 1:
            raise ConfigError("n_features must be positive")
        if not 1 <= self.signal_features <= self.n_features:
            raise ConfigError("signal_features must be in [1, n_features]")
        if not (_MAX_NORMAL * (1 + self.noise_sd) <= BOUND and self.noise_sd > 0):
            raise ConfigError(
                f"noise_sd must be positive, with {_MAX_NORMAL} * (1 + noise_sd) "
                f"within {BOUND!r}, got {self.noise_sd}"
            )
        if len(self.target_range) != 2:
            raise ConfigError(f"target_range must be [low, high], got {list(self.target_range)}")
        low, high = self.target_range
        if not (abs(low) <= BOUND and abs(high) <= BOUND):
            raise ConfigError(
                f"target_range bounds must lie within ±{BOUND!r}, got {list(self.target_range)}"
            )
        if not low < high:
            raise ConfigError("target_range low must be below high")
        if not 0.0 < self.fail_rate_hint < 1.0:
            raise ConfigError("fail_rate_hint must be in (0, 1)")
        slope, intercept = self._score_map()
        if not abs(intercept) + slope * _MAX_NORMAL <= BOUND:
            raise ConfigError(
                f"target_range {list(self.target_range)} with fail_rate_hint "
                f"{self.fail_rate_hint} puts scores beyond ±{BOUND!r}"
            )

    def _score_map(self):
        """(slope, intercept) of the affine map from ability to score."""
        low, high = self.target_range
        slope = (high - low) / 8.0
        return slope, _PASS_MARK - slope * NormalDist().inv_cdf(self.fail_rate_hint)


@dataclass(frozen=True)
class CohortSplit:
    """How generate_cohort stamps cohort years: the generator spec's
    ``split`` stanza, whose seed defaults to the spec's own.

    Training rows get ``train_year`` (below the cutoff) and the rest
    ``validation_year``, in a column named ``column`` placed after the
    row id, letting generated cohorts flow through the same
    year-filtered pipeline as real exports. Both years must lie within
    ``frame.BOUND``, as ``prepare`` refuses a cell beyond it, and
    generate_cohort refuses a ``column`` named like a generated one."""

    train_fraction: float
    seed: int
    column: str = "cohort"
    train_year: float = 2018.0
    validation_year: float = 2019.0

    def __post_init__(self):
        for key in ("train_year", "validation_year"):
            if not abs(getattr(self, key)) <= BOUND:
                raise ConfigError(f"split {key} {getattr(self, key)!r} lies beyond ±{BOUND!r}")


# Where an output's low 64-bit word sits among the native 64-bit words of
# a lane integer written in native byte order: first of each pair on a
# little-endian host; on a big-endian host the words run from the top lane
# down, so the low words are the odd ones, read backwards.
_LOW_WORDS = slice(None, None, 2) if sys.byteorder == "little" else slice(None, None, -2)


class _Lanes:
    """SplitMix64 outputs ``count`` at a time, computed as one big integer.

    Output k after state s is a function of ``(s + k * gamma) mod 2^64``
    alone, so a block of outputs needs no sequential state: each sits in
    its own 128-bit lane of one integer, where a 64 x 64-bit product
    cannot carry into the next lane and each shift is masked back to the
    lane's low 64 bits. The lane constants are built once for ``count``
    and masked down for a shorter block.
    """

    def __init__(self, count: int):
        self.count = count
        self.ones = int.from_bytes((b"\x01" + bytes(15)) * count, "little")
        self.ramp = int.from_bytes(
            b"".join(((_GAMMA * (k + 1)) & _MASK64).to_bytes(16, "little") for k in range(count)),
            "little",
        )
        self.m64 = self.ones * _MASK64

    def words(self, state: int, count: int):
        """``(z >> 11) + 1`` for the ``count`` outputs after ``state``."""
        ones, ramp, m64 = self.ones, self.ramp, self.m64
        if count != self.count:
            cut = (1 << (128 * count)) - 1
            ones, ramp, m64 = ones & cut, ramp & cut, m64 & cut
        z = (state * ones + ramp) & m64
        z = ((z ^ ((z >> 30) & m64)) * _MIX1) & m64
        z = ((z ^ ((z >> 27) & m64)) * _MIX2) & m64
        z ^= (z >> 31) & m64
        z = ((z >> 11) & m64) + ones
        return memoryview(z.to_bytes(16 * count, sys.byteorder)).cast("Q")[_LOW_WORDS]


# Box-Muller factors: u = word * 2^-53, so 2 pi u2 = (2 pi 2^-53) * word2
# exactly (both scale 2 pi by a power of two and round once).
_UNIT = 2.0 ** -53
_TWO_PI_UNIT = 2.0 * pi * 2.0 ** -53


def _normals(words) -> list:
    """Box-Muller normals from consecutive (u1, u2) word pairs: for the
    words of two consecutive outputs, ``sqrt(-2 ln u1) * cos(2 pi u2)``
    with ``u = word * 2^-53``, as the module docstring defines it."""
    return [
        sqrt(-2.0 * log(w1 * _UNIT)) * cos(_TWO_PI_UNIT * w2)
        for w1, w2 in zip(words[0::2], words[1::2])
    ]


def generate_cohort(spec: SynthSpec, split: Optional[CohortSplit] = None):
    """(CSV header, rows) of the spec's cohort; identical seeds give
    identical rows.

    Columns are the row id (S0001-style, under ``student_id``), the
    cohort year when ``split`` is given, f01..fNN (signal features first)
    and a 'score' target. Each feature is CSV text, that of the value
    rounded to 6 decimals (``repr(round(v, 6))``), and the target a float
    rounded to a whole score, keeping CSV fixtures compact.

    ``rows`` is an iterator: the normals are drawn a block of rows at a
    time (about 1024 normals, at least one row), in the documented order,
    and each row is made only when it is asked for, so memory stays
    bounded whatever the spec's size. The split is worked out here, before
    the first row, so a bad split stanza is refused before anything is
    written.
    """
    header = ["student_id", *(f"f{j + 1:02d}" for j in range(spec.n_features)), "score"]
    if split is None:
        return header, _rows(spec, repeat(()))
    if split.column in header:
        raise ConfigError(f"split column {split.column!r} is already a generated column")
    train = _train_mask(spec.n_rows, split.train_fraction, split.seed)
    years = (float(split.validation_year),), (float(split.train_year),)
    return [header[0], split.column, *header[1:]], _rows(spec, map(years.__getitem__, train))


def _rows(spec: SynthSpec, leads) -> Iterator[tuple]:
    """Each row of the cohort as ``(id, *lead, *features, score)``, with
    ``lead`` the next item of ``leads``."""
    low, high = spec.target_range
    slope, intercept = spec._score_map()
    n, per_row = spec.n_features, spec.n_features + 1
    signal_end = 1 + spec.signal_features
    times_sd = float(spec.noise_sd).__mul__
    ids = map(f"S{{:0{len(str(spec.n_rows))}d}}".format, range(1, spec.n_rows + 1))

    block_rows = max(1, 1024 // per_row)
    lanes = _Lanes(2 * min(block_rows, spec.n_rows) * per_row)
    state = spec.seed & _MASK64
    for first in range(0, spec.n_rows, block_rows):
        count = 2 * min(block_rows, spec.n_rows - first) * per_row
        normals = _normals(lanes.words(state, count))
        state = (state + count * _GAMMA) & _MASK64
        values = []  # the block's feature values, row by row
        for base in range(0, len(normals), per_row):
            values += map(normals[base].__add__, map(times_sd, normals[base + 1:base + signal_end]))
            values += normals[base + signal_end:base + per_row]
        cells = _feature_text(values)
        for at, ability in zip(range(0, len(cells), n), normals[0::per_row]):
            score = float(min(max(round(intercept + slope * ability), low), high))
            yield (next(ids), *next(leads), *cells[at:at + n], score)


def _feature_text(values: list) -> list:
    """The CSV text of each value rounded to 6 decimals: ``repr(round(v, 6))``.

    Where ``1e-4 <= |v| < 1e9`` that is the ``.6f`` text with its trailing
    zeros stripped down to one digit after the point: ``round`` and the
    format both take their digits from the correctly rounded 6-decimal
    conversion, and a decimal of at most 15 significant digits is its
    double's shortest repr. Outside the range repr may write an exponent
    (``5e-05``) or fewer digits than the format, so those values go
    through ``repr(round(v, 6))`` itself.

    All the values are formatted by one ``%``, and each of five passes of
    ``replace`` strips one trailing zero from every cell, which leaves at
    least one of the six decimals. The values are gone over one by one
    only when one of them may lie outside the range: the ``.6f`` text of
    every ``|v| < 1e-4`` holds ``0.0000`` (bar those that round to
    ``0.000100``, whose two texts agree), and a ``|v| >= 1e9`` puts the
    values' ``math.hypot`` at 1e9 or more.
    """
    text = cells = ("%.6f," * len(values)) % tuple(values)
    for _ in range(5):
        cells = cells.replace("0,", ",")
    cells = cells.split(",")[:-1]
    if "0.0000" in text or not hypot(*values) < 1e9:
        return [s if 1e-4 <= abs(v) < 1e9 else repr(round(v, 6)) for s, v in zip(cells, values)]
    return cells


def _train_mask(n: int, train_fraction: float, seed: int) -> bytearray:
    """1 for each of the n rows on the training side of a seeded split, else 0.

    The training side is round(train_fraction * n) rows, clamped so both
    sides stay non-empty, chosen by the documented Fisher-Yates shuffle.
    """
    if n < 2:
        raise ConfigError(f"a split needs n_rows >= 2, got {n}")
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n_train = min(max(round(train_fraction * n), 1), n - 1)
    indices = array("q", range(n))
    rng = SplitMix64(seed)
    for i in range(n - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        indices[i], indices[j] = indices[j], indices[i]
    train = bytearray(n)
    for i in indices[:n_train]:
        train[i] = 1
    return train
