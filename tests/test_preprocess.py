import math
import random
import statistics
from array import array

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ammknn.errors import DataError
from ammknn.frame import BOUND
from ammknn.preprocess import _correlations, _spread, left_sum, standardize_and_select
from ammknn.report import prediction_actual_correlation


def columns(rows):
    """The columns of ``rows`` as lists, as ``standardize_and_select`` takes them."""
    return [list(c) for c in zip(*rows)]


def no_rows(cols):
    """A side of no rows beside ``cols``: an empty column of each one's type."""
    return [c[:0] for c in cols]


def standardize(names, train, validation):
    """``standardize_and_select`` with the target ``t`` and a threshold that
    keeps every column."""
    return standardize_and_select(names, "t", train, validation, 0.0)


class TestStandardization:
    def test_symmetric_column(self):
        cols = [[1, 2, 3], [310, 500, 400]]
        standardize(["x", "t"], cols, no_rows(cols))
        # mean 2.0 and sd 1.0
        assert list(cols[0]) == [(v - 2.0) / 1.0 for v in (1, 2, 3)]
        assert list(cols[0]) == pytest.approx([-1.0, 0.0, 1.0])

    def test_target_untouched(self):
        cols = [[1.0, 2.0], [310.0, 500.0]]
        target = cols[1]
        standardize(["x", "t"], cols, no_rows(cols))
        assert cols[1] is target and cols[1] == [310.0, 500.0]

    def test_zero_variance(self):
        with pytest.raises(DataError, match="column 'x' has zero variance"):
            standardize(["x", "t"], [[5, 5, 5], [1, 2, 3]], [[], []])

    def test_stats_pooled_over_both_frames(self):
        train = [[0.0, 1.0], [1.0, 2.0]]
        extra = [[10.0, 11.0], [3.0, 4.0]]
        standardize(["x", "t"], train, extra)
        pooled = [0.0, 1.0, 10.0, 11.0]
        mean, sd = statistics.mean(pooled), statistics.stdev(pooled)
        merged = list(train[0]) + list(extra[0])
        assert merged == pytest.approx([(v - mean) / sd for v in pooled])
        assert statistics.mean(merged) == pytest.approx(0.0, abs=1e-9)
        assert statistics.stdev(merged) == pytest.approx(1.0, abs=1e-9)

    def test_idempotent_on_standardized_data(self):
        rng = random.Random(5)
        rows = [[rng.gauss(3, 2), rng.gauss(-1, 4), rng.uniform(300, 500)] for _ in range(40)]
        once = columns(rows)
        standardize(["a", "b", "t"], once, no_rows(once))
        twice = list(once)
        standardize(["a", "b", "t"], twice, no_rows(twice))
        for j in (0, 1):
            for u, v in zip(once[j], twice[j]):
                assert abs(u - v) < 1e-9

    def test_means_sum_left_to_right(self):
        # compensated summation (built-in sum() from Python 3.12 on) would
        # give a mean of 1/3; the files this package writes must not depend
        # on it. With the mean 0.0, the sd is exactly 1e16
        cols = [[1e16, 1.0, -1e16], [1, 2, 3]]
        standardize(["x", "t"], cols, [[], []])
        assert list(cols[0]) == [(v - 0.0 / 3) / 1e16 for v in (1e16, 1.0, -1e16)]

    def test_joint_differs_from_separate_on_shifted_validation(self):
        # the target varies: the pass refuses a constant one
        rng = random.Random(11)
        train = [[rng.gauss(0, 1) for _ in range(30)], [rng.uniform(300, 500) for _ in range(30)]]
        extra = [[rng.gauss(5, 1) for _ in range(10)], [rng.uniform(300, 500) for _ in range(10)]]
        alone = list(extra)
        standardize(["x", "t"], alone, no_rows(alone))
        standardize(["x", "t"], train, extra)
        deltas = [abs(a - b) for a, b in zip(extra[0], alone[0])]
        assert max(deltas) > 0.5

    def test_validation_z_scores_from_raw_cells(self):
        # a kept column's validation z-scores are (v - mean) / sd of its raw
        # cells, bit for bit, with the mean and sd of both sides pooled
        rng = random.Random(3)
        train = [[rng.gauss(2, 3) for _ in range(25)], [rng.uniform(300, 500) for _ in range(25)]]
        extra = [[rng.gauss(4, 1) for _ in range(9)], [rng.uniform(300, 500) for _ in range(9)]]
        pooled, raw = train[0] + extra[0], list(extra[0])
        mean, _, squares = _spread(pooled)
        sd = math.sqrt(squares / (len(pooled) - 1))
        standardize(["x", "t"], train, extra)
        assert type(extra[0]) is array and extra[0].tolist() == [(v - mean) / sd for v in raw]
        assert train[0].tolist() == [(v - mean) / sd for v in pooled[:25]]


def pearson(x, y):
    """The sample Pearson r of ``x`` and ``y`` from ``_correlations``."""
    (r,) = _correlations([x], _spread(y))
    return r


class TestPearson:
    def test_perfect_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_inverse(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_oracle(self):
        # direct evaluation of the sample-correlation formula:
        # cov = 4, sx = sy = sqrt(5) -> r = 4/5
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_two_pairs_have_an_r(self):
        # the fewest pairs that define one
        assert prediction_actual_correlation([1.0, 2.0], [3.0, 5.0]) == 1.0
        assert prediction_actual_correlation([1.0], [3.0]) is None

    def test_constant_input(self):
        assert prediction_actual_correlation([1, 1, 1], [1, 2, 3]) is None
        # the mean of these is not 444.3: each side's deviations were one
        # eps != 0, which gave r = 1.0
        assert prediction_actual_correlation([444.3] * 8, [444.3] * 8) is None

    def test_spread_whose_product_underflows_is_undefined(self):
        # the sums of squares multiplied to 0.0, and r divided by zero
        assert pearson([0.0, 1e-160], [0.0, 1e-160]) is None
        assert prediction_actual_correlation([0.0, 1e-160], [0.0, 1e-160]) is None

    def test_cells_at_the_bound_give_a_finite_r(self):
        # the largest spreads cells within ±1e50 can have, on both sides
        x = [1e50, -1e50] * 50
        r = pearson(x, [-v for v in x])
        assert math.isfinite(r) and abs(r + 1.0) < 1e-12


class TestEqualValues:
    """A column is constant when its values are equal, whatever the mean
    of them rounds to."""

    @given(st.floats(-BOUND, BOUND, allow_nan=False), st.integers(2, 3000))
    @example(444.3, 8)  # mean 444.30000000000007
    @example(0.1, 1075)
    @example(-1e50, 3000)
    def test_equal_values_have_no_spread(self, value, n):
        mean, d, squares = _spread([value] * n)
        assert squares == 0.0
        # the deviations' own summed squares lie within the bound that
        # makes _squares look for equal values
        assert left_sum(x * x for x in d) <= n * (n * 2.0 ** -52 * mean) ** 2

    def test_a_spread_within_the_bound_is_kept(self):
        values = [1.0, 1.0, 1.0 + 2.0 ** -52]
        squares = _spread(values)[2]
        assert 0.0 < squares <= 3 * (3 * 2.0 ** -52 * 1.0) ** 2
        assert pearson(values, [1.0, 2.0, 3.0]) is not None


def designed_frame():
    """Features with exact sample correlations 0.05 / 0.15 / 0.25 to the target.

    Built as x = r * y_hat + sqrt(1 - r^2) * z_hat from centered orthonormal
    y_hat, z_hat, which pins corr(x, y) = r up to float rounding.
    """
    n = 8
    y = [float(i) for i in range(n)]
    ybar = statistics.mean(y)
    yc = [v - ybar for v in y]
    ynorm = math.sqrt(sum(v * v for v in yc))
    yhat = [v / ynorm for v in yc]
    # palindromic and zero-sum, hence centered and orthogonal to the
    # antisymmetric centered target
    z = [1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0]
    assert abs(sum(a * b for a, b in zip(z, yc))) < 1e-12
    znorm = math.sqrt(sum(v * v for v in z))
    zhat = [v / znorm for v in z]

    columns = {}
    for r in (0.05, 0.15, 0.25):
        columns[f"r{int(r * 100):02d}"] = [
            r * a + math.sqrt(1 - r * r) * b for a, b in zip(yhat, zhat)
        ]
    return {**columns, "t": y}


def select(columns, threshold, validation=None):
    """``standardize_and_select`` of columns by label, the target ``t`` last,
    with no validation rows unless given; the training side is a copy."""
    train = [list(c) for c in columns.values()]
    validation = no_rows(train) if validation is None else validation
    return standardize_and_select(list(columns), "t", train, validation, threshold)


class TestSelection:
    def test_designed_correlations(self):
        frame = designed_frame()
        for name, r in (("r05", 0.05), ("r15", 0.15), ("r25", 0.25)):
            assert pearson(frame[name], frame["t"]) == pytest.approx(r)

    def test_threshold_keeps_only_strong_column(self):
        result = select(designed_frame(), 0.19)
        assert result.kept_columns == ("r25", "t")
        assert [d[0] for d in result.dropped_columns] == ["r05", "r15"]

    def test_threshold_zero_keeps_all(self):
        result = select(designed_frame(), 0.0)
        assert result.kept_columns == ("r05", "r15", "r25", "t")
        assert result.dropped_columns == ()

    def test_r_equal_to_the_threshold_is_kept(self):
        # r is exactly 0.0, of the raw column and of its z-scores: "at least
        # the threshold" keeps the column
        x, t = [1.0, -1.0, -1.0, 1.0], [1.0, 1.0, 2.0, 2.0]
        z = [x[:], t[:]]
        standardize(["x", "t"], z, no_rows(z))
        assert pearson(x, t) == 0.0 and pearson(z[0], t) == 0.0
        result = select({"x": x, "t": t}, 0.0)
        assert result.kept_columns == ("x", "t")
        assert result.dropped_columns == ()

    def test_monotone_shrinkage(self):
        frame = designed_frame()
        kept = []
        for threshold in (0.0, 0.1, 0.19, 0.5):
            result = select(frame, threshold)
            kept.append(set(result.kept_columns))
        for larger, smaller in zip(kept, kept[1:]):
            assert smaller <= larger

    def test_negative_correlation_kept_by_magnitude(self):
        frame = designed_frame()
        flipped = {**frame, "r05": [-v for v in frame["r05"]]}
        result = select(flipped, 0.04)
        assert "r05" in result.kept_columns
        dropped = dict(result.dropped_columns)
        assert dropped == {}

    def test_rs_match_pearson_bit_for_bit(self):
        # each r is that of the column's training z-scores with the target
        frame = designed_frame()
        z = [list(c) for c in frame.values()]
        standardize(list(frame), z, no_rows(z))
        result = select(frame, 1.0)
        assert len(result.dropped_columns) == 3
        for (name, r), column in zip(result.dropped_columns, z):
            assert r == pearson(column, frame["t"])

    def test_audit_log_lines(self, caplog):
        with caplog.at_level("INFO", logger="ammknn.preprocess"):
            select(designed_frame(), 0.19)
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 3
        assert lines[0].startswith("1. Correlation between r05 and target = ")

    def test_selection_result_json(self):
        result = select(designed_frame(), 0.19)
        doc = result.to_json_dict()
        assert doc["kept"] == ["r25", "t"]
        assert doc["threshold"] == 0.19
        assert [d[0] for d in doc["dropped"]] == ["r05", "r15"]

    def test_a_dropped_column_keeps_no_z_scores(self):
        frame = designed_frame()
        train = [list(c) for c in frame.values()]
        validation = [[0.5, -1.0] for _ in frame]
        result = standardize_and_select(list(frame), "t", train, validation, 0.19)
        assert result.kept_columns == ("r25", "t")
        assert train[:2] == [None, None] and validation[:2] == [None, None]
        assert all(type(side[2]) is array and len(side[2]) == n for side, n in ((train, 8), (validation, 2)))
        assert train[3] == frame["t"] and validation[3] == [0.5, -1.0]


# a: constant in the training rows but not over both sides, so it has no r
NO_R = [1.0, 1.0, 1.0, 1.0]
ORDER_CASES = [
    # a later column of zero pooled variance first, then the target
    ({"a": NO_R, "b": [2.0] * 4, "t": [1.0, 2.0, 3.0, 4.0]}, "column 'b' has zero variance"),
    ({"a": [1.0, 2.0, 3.0, 4.0], "b": [2.0] * 4, "t": [5.0] * 4}, "column 'b' has zero variance"),
    # a constant target before a column with no r
    ({"a": NO_R, "b": [1.0, 2.0, 3.0, 4.0], "t": [5.0] * 4}, "target column 't' is constant"),
    ({"a": NO_R, "b": [1.0, 2.0, 3.0, 4.0], "t": [1.0, 2.0, 3.0, 4.0]},
     "column 'a' has no r with the target: it is constant, or nearly so, in the training rows"),
]


@pytest.mark.parametrize("frame, message", ORDER_CASES)
def test_refusals_in_the_order_of_separate_passes(frame, message):
    validation = [[3.0], [2.0], [4.0]]
    with pytest.raises(DataError) as exc:
        select(frame, 0.1, validation)
    assert str(exc.value) == message
