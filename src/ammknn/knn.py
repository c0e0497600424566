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
its targets, their running means, the adaptive rule's prediction and
outlier flag, and the ranked rows' squared distances, which are summed
only when they are read. validate and predict read each subject's tuple
as it is drawn, one subject at a time; leave-one-out holds each training
row out of its own ranking and reads both the adaptive and the fixed-k
model from one pass of running means. ``score`` takes plain sequences:
the training rows as one tuple of feature cells each, the scores, the
subjects and their outlier values. The engine is handed those values and
never learns which feature they come from: ``pipeline`` resolves the
outlier feature and takes its column. Of ``AmmknnConfig``, defined and
checked in ``config``, the engine reads ``max_k`` and
``outlier_cutoff``; every other rule of the configuration or the input
(``knn_k``, the number of training rows) is checked before it is called.

For each subject the engine windows, filters, then orders. The window
spares most rows their approximate distance (see below); the filter gives
every row in it an approximate distance with ``math.dist``, one C call per
row, and keeps the ``(approximate distance, row)`` pairs within the
window's reach (see below), sorted. tau, the ``limit``-th smallest
approximate distance, is the ``limit``-th of them: they hold at index
``limit - 1`` the same float that a sort of all the distances would put
there. Two distances a <= b are a near-tie when ``a * margin + 1e-150 >=
b``. When no two adjacent ones of the first ``limit + 1`` pairs are, the
first ``limit`` rows are the nearest, in order, and no square is summed.
On a near-tie, the rows whose approximate distance is within the margin
of tau (normally exactly ``limit`` rows) get their squared distance, the
squares ``d * d`` of the differences ``d = s - x`` summed left to right
from 0.0 by ``_squared``, which is bit-identical to starting from the
first square since ``0.0 + a == a``, and are sorted by (squared
distance, row index), the tie rule "distance, then row index".
``_squared`` also gives predict its distances, each summed only as it
is read, so leave-one-out and validate sum no square where no near-tie
falls. Only one subject's n approximate distances are held at a time, so
memory stays O(n); a cache of pairwise distances would cost about 20 MB
at n = 724.

Why the order is the naive one. Both distances are taken over the same
rounded differences ``d``. ``math.dist`` is within a few ulps of their
true norm, and the left-to-right sum of m squares is within about (m + 2)
ulps of its square. The relative margin, 1e-12 plus 1e-15 per feature, is
more than nine times their combined error for any m. So of any two rows
whose approximate distances a < b are no near-tie, the first has the
strictly smaller summed square: their approximate order is their exact
order, and no row index is needed to break a tie between them. The
absolute margin of 1e-150 covers the rows whose squares may underflow
(below about 1e-300), where the sum has no relative error bound. No
square overflows: every cell lies within ±``frame.BOUND`` (1e50), so a
difference is at most 2e50 and a square 4e100. Three things follow from
that one pairwise argument. A row beyond tau's bound, ``tau * margin +
1e-150``, has a larger summed square than each of the ``limit`` rows at
or under tau, so the filter loses no neighbor. When no two adjacent pairs
of the first ``limit + 1`` are a near-tie, no two of them are (the gap
only grows down the sorted list), so the first ``limit`` rows are in the
order of their sums, and the next row, and every row past it, lies
beyond tau's bound. On a near-tie, every row up to tau's bound is sorted
by its sum, as the naive method sorts it.

Why the order does not depend on the interpreter. ``math.dist`` differs
in its last bits between Python versions, but the argument reads only
its error bound of a few ulps, which each of them meets. On any version
a pair of rows is either a near-tie, and ordered by its sums, or far
enough apart that its approximate order is the order of its sums. The
sums are the same float operations in the same order everywhere, so
every version ranks the same rows in the same order, even where two
versions' ``math.dist`` would order a near-tie differently.

The window. ``score`` sorts the training rows once per call by their
feature sums, ``math.fsum(row)``. For each subject, ``_window`` finds
the subject's sum among them with ``bisect`` and gives the starting
block, the 4 * ``limit`` rows around it (every row, when there are no
more), their approximate distances. tu, the ``limit``-th smallest of
those (the largest, when the block holds fewer), is at least tau, so
``reach = tu * margin + 1e-150`` is at least tau's bound.
Only the rows whose sums lie within

    W = sqrt(m) * reach * (1 + 1e-9) + 1e-12 * (S + |subject sum|)

of the subject's, S being the largest sum of a training row's absolute
values, get an approximate distance; the block's are reused. The filter
and the order then run on them.

Why the window loses no row the filter keeps. Cauchy-Schwarz gives
``|sum(x - q)| <= sqrt(m) * |x - q|`` for m features. A row the filter
keeps has an approximate distance of at most reach, and its true distance
exceeds that by a few ulps at most: the factor 1 + 1e-9 covers those and
the rounding of sqrt(m) and of W. ``math.fsum`` rounds each sum once, by
at most 2**-53 of its magnitude, and the 1e-12 term covers that and the
rounding of the window's edges. The window holds the ``limit`` nearest
rows, so tau over it is the same float as over every row, and the filter
keeps the same rows. The block lies in the window, so tau is at most tu
and every approximate distance up to tau is at most reach; the block
alone holds ``limit`` distances at most reach. So the ``limit``-th
smallest of the distances at most reach is tau itself. Every subject goes
window, filter, order, and the window cuts nothing when 4 * ``limit`` is
at least n. Every subject gets at most n ``math.dist`` calls.
Leave-one-out ranks each row one place deeper and then drops the row
itself from its ranking, so neither the window nor the filter needs to
know the held-out row.

On the score-cohort benchmark inputs (seed 3, 717 training rows, 12
features that share a common factor), a subject gets about 0.57 * n
``math.dist`` calls, about 50 of the window's 410 distances lie within
reach, and no subject meets a near-tie. Ranking the 1 075 subjects took
0.098 s against 0.191 s without the window, and leave-one-out's ranking
0.066 s against 0.127 s (medians of 30 interleaved runs on a 2-core
Xeon, Python 3.11.7; without the window, every row gets its
``math.dist`` call and tau comes from a sort of all n distances). Where
the features share no factor, almost every row falls in the window
(0.99 * n calls), and the window saves only that sort: on 717 x 12
i.i.d. normal rows, ranking took 0.85 of the time it took without the
window (median ratio of 30 interleaved runs, faster in 28 of them).

Ordering needs keys that are totally ordered, and NaN is not, so every
training cell, every training target and every subject cell must be
finite, and within ±``frame.BOUND`` so that no sum overflows. This
module does not check them: ``frame.load_csv`` refuses a cell beyond the
bound, and ``frame.stream_table`` a missing one, with a ``DataError``
naming its file line and column as it parses the record, before the
record is ranked.

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

import math
from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import sub
from typing import Iterable, Iterator, Sequence, Tuple

from .config import AmmknnConfig


def _sum_index(matrix: Sequence[tuple]) -> tuple:
    """The window index of the checked training rows: the rows in
    ascending order of ``math.fsum``, their sums and the rows in that
    order, and the largest sum of a row's absolute values."""
    sums = [math.fsum(row) for row in matrix]
    spread = max(math.fsum(map(abs, row)) for row in matrix)
    order = sorted(range(len(matrix)), key=sums.__getitem__)
    return order, [sums[j] for j in order], [matrix[j] for j in order], spread


def _window(index: tuple, subject: tuple, limit: int, margin: float) -> list:
    """The ``(approximate distance, row)`` pairs, in ascending order, of
    the training rows within reach whose sums lie within W of the
    subject's or that lie in the starting block of 4 * ``limit`` rows
    around it (every row, when there are no more)."""
    order, sums, rows, spread = index
    total = math.fsum(subject)
    lo = max(min(bisect_left(sums, total) - 2 * limit, len(order) - 4 * limit), 0)
    hi = lo + 4 * limit
    block = list(map(math.dist, repeat(subject), rows[lo:hi]))
    # no smaller than the bound of _rank's filter: tau is at most this tu
    reach = sorted(block)[min(limit, len(block)) - 1] * margin + 1e-150
    half = math.sqrt(len(subject)) * reach * (1 + 1e-9) + 1e-12 * (spread + abs(total))
    a = min(lo, bisect_left(sums, total - half))
    b = max(hi, bisect_right(sums, total + half))
    approx = [*map(math.dist, repeat(subject), rows[a:lo]), *block,
              *map(math.dist, repeat(subject), rows[hi:b])]
    return sorted([(x, j) for x, j in zip(approx, order[a:b]) if x <= reach])


def _squared(subject: tuple, row: tuple) -> float:
    """The squared distance of ``row`` to ``subject``: the squares of the
    differences ``s - x`` summed left to right from 0.0."""
    sq = 0.0
    for d in map(sub, subject, row):
        sq += d * d
    return sq


def _rank(matrix: Sequence[tuple], subject: tuple, limit: int, index: tuple) -> list:
    """The rows of the ``limit`` nearest checked training rows of
    ``matrix``, ordered by squared distance then row index.

    This is the package's only ranking: a window over the feature sums of
    ``index`` (from ``_sum_index``) and a ``math.dist`` filter pick the
    candidates, and their approximate distances order them unless two of
    them lie within the margin, when their exact left-to-right sums do.
    The module docstring gives the error argument behind the window, the
    margins and the order.
    """
    margin = 1.0 + 1e-12 + len(subject) * 1e-15
    # every distance up to tau, the limit-th smallest, is within reach,
    # and at least limit of them are (all of them, when there are fewer)
    near = _window(index, subject, limit, margin)
    if any(b <= a * margin + 1e-150 for (a, _), (b, _) in zip(near, near[1 : limit + 1])):
        # a near-tie: the exact sums order every row up to tau's bound
        bound = near[min(limit, len(near)) - 1][0] * margin + 1e-150
        near = sorted((_squared(subject, matrix[j]), j) for a, j in near if a <= bound)
    return [j for _, j in near[:limit]]


def cumulative_means(values: Sequence[float]) -> list:
    """Running means: output[k-1] is the mean of the first k values.
    ``values`` is never empty: ``score`` always ranks at least one row."""
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
) -> Iterator[Tuple[list, list, list, float, bool, Iterator[float]]]:
    """For each subject row and its outlier value, in order:
    ``(ranked, targets, means, prediction, outlier_triggered, squares)``.

    ``ranked`` holds the rows of the subject's ``limit`` nearest checked
    training rows, nearest first, ``targets`` their scores and ``means``
    the scores' running means. ``squares`` is an iterator over their
    squared distances, each summed left to right as it is drawn and
    drawn once, so a caller that reads only the order sums none. The adaptive rule reads the
    first ``max_k`` of them: below the outlier cutoff the prediction is
    the minimum match, otherwise the minimum of means. With ``held_out``,
    subject i is training row i and is left out of its own ranking: it is
    ranked one place deeper, then dropped. Holding a row out keeps the
    others' relative order, so this equals a fold by fold re-fit bit for
    bit. Each subject is scored as it is drawn, and the generator holds
    one subject's ranking at a time. Nothing is checked here: the caller
    hands over at least one training row (two with ``held_out``), as
    ``pipeline`` does once ``_read_training`` has refused fewer than two.
    """
    depth = limit + 1 if held_out else limit
    index = _sum_index(training)
    for i, (subject, value) in enumerate(zip(subjects, outlier_values)):
        ranked = _rank(training, subject, depth, index)
        if held_out:
            ranked = [j for j in ranked if j != i][:limit]
        targets = [target[j] for j in ranked]
        means = cumulative_means(targets)
        triggered = value < config.outlier_cutoff
        prediction = min((targets if triggered else means)[: config.max_k])
        squares = map(_squared, repeat(subject), map(training.__getitem__, ranked))
        yield ranked, targets, means, prediction, triggered, squares
