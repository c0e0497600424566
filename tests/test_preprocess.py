import math
import random
import statistics

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ammknn.errors import DataError
from ammknn.frame import BOUND
from ammknn.preprocess import (
    _correlations,
    _spread,
    left_sum,
    select_by_correlation,
    standardize_joint,
)
from ammknn.report import prediction_actual_correlation


def columns(rows):
    """The columns of ``rows`` as lists, as ``standardize_joint`` takes them."""
    return [list(c) for c in zip(*rows)]


def no_rows(cols):
    """A side of no rows beside ``cols``: an empty column of each one's type."""
    return [c[:0] for c in cols]


class TestStandardizeJoint:
    def test_symmetric_column(self):
        cols = [[1, 2, 3], [310, 500, 400]]
        stats = standardize_joint(["x", "t"], "t", cols, no_rows(cols))
        assert list(cols[0]) == pytest.approx([-1.0, 0.0, 1.0])
        assert stats.means["x"] == 2.0
        assert stats.sds["x"] == 1.0

    def test_target_untouched(self):
        cols = [[1.0, 2.0], [310.0, 500.0]]
        stats = standardize_joint(["x", "t"], "t", cols, no_rows(cols))
        assert cols[1] == [310.0, 500.0]
        assert "t" not in stats.means

    def test_zero_variance(self):
        with pytest.raises(DataError, match="column 'x' has zero variance"):
            standardize_joint(["x", "t"], "t", [[5, 5, 5], [1, 2, 3]], [[], []])

    def test_stats_pooled_over_both_frames(self):
        train = [[0.0, 1.0], [1.0, 2.0]]
        extra = [[10.0, 11.0], [3.0, 4.0]]
        stats = standardize_joint(["x", "t"], "t", train, extra)
        pooled = [0.0, 1.0, 10.0, 11.0]
        assert stats.means["x"] == pytest.approx(statistics.mean(pooled))
        assert stats.sds["x"] == pytest.approx(statistics.stdev(pooled))
        merged = list(train[0]) + list(extra[0])
        assert statistics.mean(merged) == pytest.approx(0.0, abs=1e-9)
        assert statistics.stdev(merged) == pytest.approx(1.0, abs=1e-9)

    def test_idempotent_on_standardized_data(self):
        rng = random.Random(5)
        rows = [[rng.gauss(3, 2), rng.gauss(-1, 4), rng.uniform(300, 500)] for _ in range(40)]
        once = columns(rows)
        standardize_joint(["a", "b", "t"], "t", once, no_rows(once))
        twice = list(once)
        standardize_joint(["a", "b", "t"], "t", twice, no_rows(twice))
        for j in (0, 1):
            for u, v in zip(once[j], twice[j]):
                assert abs(u - v) < 1e-9

    def test_means_sum_left_to_right(self):
        # compensated summation (built-in sum() from Python 3.12 on) would
        # give 1/3; the files this package writes must not depend on it
        stats = standardize_joint(["x", "t"], "t", [[1e16, 1.0, -1e16], [1, 2, 3]], [[], []])
        assert stats.means["x"] == 0.0 / 3

    def test_joint_differs_from_separate_on_shifted_validation(self):
        rng = random.Random(11)
        train = [[rng.gauss(0, 1) for _ in range(30)], [400.0] * 30]
        extra = [[rng.gauss(5, 1) for _ in range(10)], [400.0] * 10]
        alone = list(extra)
        standardize_joint(["x", "t"], "t", alone, no_rows(alone))
        standardize_joint(["x", "t"], "t", train, extra)
        deltas = [abs(a - b) for a, b in zip(extra[0], alone[0])]
        assert max(deltas) > 0.5


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
        # makes _spread look for equal values
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


def select(columns, threshold):
    """``select_by_correlation`` of columns by label, the target ``t`` last."""
    return select_by_correlation(list(columns), "t", list(columns.values()), threshold)


class TestSelectByCorrelation:
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
        # r is exactly 0.0: "at least the threshold" keeps the column
        x = [1.0, -1.0, -1.0, 1.0]
        assert pearson(x, [1.0, 1.0, 2.0, 2.0]) == 0.0
        result = select({"x": x, "t": [1.0, 1.0, 2.0, 2.0]}, 0.0)
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
        frame = designed_frame()
        result = select(frame, 1.0)
        for name, r in result.dropped_columns:
            assert r == pearson(frame[name], frame["t"])

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
