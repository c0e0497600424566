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
5. If the subject's outlier value, its standardized cell of the outlier
   feature, sits strictly below the outlier cutoff (default -2, i.e. two
   standard deviations below the mean), the subject is treated as a low
   outlier and predicted at the minimum match; otherwise at the minimum
   of means.

Deliberately picking the lowest running mean biases predictions downward,
which is the point: the cost of missing a subject who goes on to fail far
exceeds the cost of flagging one who would have passed.

Every step scores through one loop, ``score``: for each subject, in
order, it ranks the training rows with ``_rank`` and yields the ranking,
its targets, their running means and the adaptive rule's prediction and
outlier flag. validate and predict read each subject's tuple as it is
drawn, one subject at a time; leave-one-out holds each training row out
of its own ranking and reads both the adaptive and the fixed-k model
from one pass of running means. ``score`` takes plain sequences: the
training rows as one tuple of feature cells each, the scores, the
subjects and their outlier values. The engine is handed those values and
never learns which feature they come from: ``pipeline`` resolves the
outlier feature and takes its column. Of ``AmmknnConfig``, defined and
checked in ``config``, the engine reads ``max_k`` and ``outlier_cutoff``;
every other rule of the configuration or the input (``knn_k``, the
number of training rows) is checked before it is called.

For each subject the engine windows, filters, then refines. The window
spares most rows their approximate distance (see below); the filter gives
every row in it an approximate distance with ``math.dist``, one C call per
row, and keeps the rows whose approximate distance is within a margin of
the ``limit``-th smallest, tau: normally exactly ``limit`` rows. tau is
found by heapifying a copy of the approximate distances and popping
``limit - 1`` of them, which leaves the same float on top that a full
sort would put at index ``limit - 1``, in about half the time. The refine
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
has no relative error bound. No square overflows: every cell lies within
±``frame.BOUND`` (1e50), so a difference is at most 2e50 and a square
4e100. ``math.dist`` differs in its last bits between Python versions; the
margin absorbs that, and the order itself comes only from the sums.

The window. ``score`` sorts the training rows once per call by their
feature sums, ``math.fsum(row)``. For each subject, ``_rank`` finds the
subject's sum among them with ``bisect`` and gives the starting block, the
2 * ``limit`` rows around it (every row, when there are no more), their
approximate distances. tu, the ``limit``-th smallest of those (the
largest, when the block holds fewer), is at least tau, so
``reach = tu * margin + 1e-150`` is at least the filter's bound.
Only the rows whose sums lie within

    W = sqrt(m) * reach * (1 + 1e-9) + 1e-12 * (S + |subject sum|)

of the subject's, S being the largest sum of a training row's absolute
values, get an approximate distance; the block's are reused. The heap,
the filter, the refine and the sort then run on them unchanged.

Why the window loses no row the filter keeps. Cauchy-Schwarz gives
``|sum(x - q)| <= sqrt(m) * |x - q|`` for m features. A row the filter
keeps has an approximate distance of at most reach, and its true distance
exceeds that by a few ulps at most: the factor 1 + 1e-9 covers those and
the rounding of sqrt(m) and of W. ``math.fsum`` rounds each sum once, by
at most 2**-53 of its magnitude, and the 1e-12 term covers that and the
rounding of the window's edges. The window holds the ``limit`` nearest
rows, so tau over it is the same float as over every row, and the filter
keeps the same rows. Every subject goes window, filter, refine, and the
window cuts nothing when 2 * ``limit`` is at least n. Every subject
gets at most n ``math.dist`` calls. Leave-one-out ranks each row one
place deeper and then drops the row itself from its ranking, so neither
the window nor the filter needs to know the held-out row.

On the score-cohort benchmark inputs (seed 3, 717 training rows, 12
features that share a common factor), a subject gets about 0.63 * n
``math.dist`` calls. Ranking the 1 075 subjects took 0.196 s against
0.240 s without the window, and leave-one-out's ranking 0.118 s against
0.147 s (best of 15 interleaved runs on a 2-core Xeon, Python 3.11.7).
Where the features share no factor, almost every row falls in the
window, which then only costs: on 717 x 12 i.i.d. normal rows, ranking
took 8-13% longer (best of 40 runs, four repeats).

Ordering needs keys that are totally ordered, and NaN is not, so every
training cell, every training target and every subject cell must be
finite, and within ±``frame.BOUND`` so that no sum overflows. This
module does not check them: ``frame.load_csv`` refuses a cell beyond the
bound, and ``frame.read_table`` a missing one, with a ``DataError``
naming its file line and column as it parses the record, before any
ranking.

Running means are plain left-to-right float sums divided by k. Together
these choices make predictions bit-identical to a naive re-implementation
that sorts all rows by (squared distance, row) and averages prefixes.

Measured and rejected, on the loocv and score-cohort benchmark inputs
(seed 1, 12 standardized features), so they need not be tried again:

- Pivot (triangle-inequality) pruning: 87%, 70%, 54% and 50% of the rows
  survive it with 1, 4, 8 and 16 pivots, against ``limit`` rows for the
  ``math.dist`` filter.
- A window along the first principal component instead of the feature
  sum: given the exact tau, about 54% of the rows lie in either, so it
  would cut no more, and it needs the component fitted and a projection
  of every row.
- numpy: importing it alone adds 12 MB to a step whose peak RSS is about
  26 MB.
- A big-integer lane kernel for the approximate distances (many rows
  per integer operation, in the way ``synth._Lanes`` computes many
  SplitMix64 outputs at once): 107 µs per subject, plus 70 µs to unpack
  the lanes, against 186 µs for the ``math.dist`` pass.

A ``math.dist`` call per row is the floor of a pure-Python kernel; the
window cuts the rows that get one.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from itertools import repeat
from typing import Iterable, Iterator, Sequence, Tuple

from .config import AmmknnConfig
from .errors import DataError


def _sum_index(matrix: Sequence[tuple]) -> tuple:
    """The window index of the checked training rows: the rows in
    ascending order of ``math.fsum``, their sums and the rows in that
    order, and the largest sum of a row's absolute values."""
    sums = [math.fsum(row) for row in matrix]
    spread = max(math.fsum(map(abs, row)) for row in matrix)
    order = sorted(range(len(matrix)), key=sums.__getitem__)
    return order, [sums[j] for j in order], [matrix[j] for j in order], spread


def _window(index: tuple, subject: tuple, limit: int, margin: float) -> tuple:
    """``(rows, approximate distances)`` of the training rows whose sums
    lie within W of the subject's, and of the starting block of 2 * ``limit``
    rows around it (every row, when there are no more)."""
    order, sums, rows, spread = index
    total = math.fsum(subject)
    lo = max(min(bisect_left(sums, total) - limit, len(order) - 2 * limit), 0)
    hi = lo + 2 * limit
    block = list(map(math.dist, repeat(subject), rows[lo:hi]))
    # no smaller than the bound of _rank's filter: tau is at most this tu
    reach = sorted(block)[min(limit, len(block)) - 1] * margin + 1e-150
    half = math.sqrt(len(subject)) * reach * (1 + 1e-9) + 1e-12 * (spread + abs(total))
    a = min(lo, bisect_left(sums, total - half))
    b = max(hi, bisect_right(sums, total + half))
    approx = list(map(math.dist, repeat(subject), rows[a:lo]))
    approx += block
    approx += map(math.dist, repeat(subject), rows[hi:b])
    return order[a:b], approx


def _rank(matrix: Sequence[tuple], subject: tuple, limit: int, index: tuple) -> list:
    """The ``limit`` nearest ``(squared_distance, row)`` pairs among the
    checked training rows of ``matrix``, ordered by distance then row
    index.

    This is the package's only ranking: a window over the feature sums of
    ``index`` (from ``_sum_index``) and a ``math.dist`` filter pick the
    candidates, and the exact left-to-right sums of the survivors order
    them. The module docstring gives the error argument behind the window
    and the margins.
    """
    margin = 1.0 + 1e-12 + len(subject) * 1e-15
    rows, approx = _window(index, subject, limit, margin)
    if limit < len(approx):
        # tau, the limit-th smallest approximate distance: the same float
        # that a full sort would put at index limit - 1
        heap = approx.copy()
        heapq.heapify(heap)
        for _ in range(limit - 1):
            heapq.heappop(heap)
        bound = heap[0] * margin + 1e-150
        rows = [rows[k] for k, a in enumerate(approx) if a <= bound]
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
        raise DataError("cumulative_means of an empty vector")
    out = []
    total = 0.0
    for k, v in enumerate(values, start=1):
        total += v
        out.append(total / k)
    return out


def score(
    training: Sequence[tuple],
    target: Sequence[float],
    subjects: Iterable[tuple],
    outlier_values: Iterable[float],
    config: AmmknnConfig,
    limit: int,
    held_out: bool = False,
) -> Iterator[Tuple[list, list, list, float, bool]]:
    """For each subject row and its outlier value, in order:
    ``(ranked, targets, means, prediction, outlier_triggered)``.

    ``ranked`` holds the subject's ``limit`` nearest ``(squared_distance,
    row)`` pairs among the checked training rows, ``targets`` their
    scores and ``means`` the scores' running means. The adaptive rule
    reads the first ``max_k`` of them: below the outlier cutoff the
    prediction is the minimum match, otherwise the minimum of means. With
    ``held_out``, subject i is training row i and is left out of its own
    ranking: it is ranked one place deeper, then dropped. Holding a row
    out keeps the others' relative order, so this equals a fold by fold
    re-fit bit for bit. Each subject is scored as it is drawn, and the
    generator holds one subject's ranking at a time. Nothing is checked
    here: the caller hands over at least one training row (two with
    ``held_out``), as ``pipeline`` does once ``_read_training`` has
    refused fewer than two.
    """
    depth = limit + 1 if held_out else limit
    index = _sum_index(training)
    for i, (subject, value) in enumerate(zip(subjects, outlier_values)):
        ranked = _rank(training, subject, depth, index)
        if held_out:
            ranked = [pair for pair in ranked if pair[1] != i][:limit]
        targets = [target[j] for _, j in ranked]
        means = cumulative_means(targets)
        triggered = value < config.outlier_cutoff
        prediction = min((targets if triggered else means)[: config.max_k])
        yield ranked, targets, means, prediction, triggered
