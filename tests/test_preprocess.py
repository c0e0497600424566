import math
import random
import statistics

import pytest

from ammknn import (
    AggregationSpec,
    Frame,
    aggregate_means,
    pearson_correlation,
    select_by_correlation,
    standardize_joint,
)
from ammknn.errors import DataError


class TestStandardizeJoint:
    def test_symmetric_column(self):
        frame = Frame(["x", "t"], [[1, 310], [2, 500], [3, 400]], "t")
        out, _, stats = standardize_joint(frame)
        assert out.column("x") == pytest.approx((-1.0, 0.0, 1.0))
        assert stats.means["x"] == 2.0
        assert stats.sds["x"] == 1.0

    def test_target_untouched(self):
        frame = Frame(["x", "t"], [[1, 310], [2, 500]], "t")
        out, _, stats = standardize_joint(frame)
        assert out.column("t") == (310.0, 500.0)
        assert "t" in stats.excluded_columns

    def test_zero_variance(self):
        frame = Frame(["x", "t"], [[5, 1], [5, 2], [5, 3]], "t")
        with pytest.raises(DataError, match="column 'x' has zero variance"):
            standardize_joint(frame)

    def test_stats_pooled_over_both_frames(self):
        train = Frame(["x", "t"], [[0, 1], [1, 2]], "t")
        extra = Frame(["x", "t"], [[10, 3], [11, 4]], "t")
        train_std, extra_std, stats = standardize_joint(train, extra)
        pooled = [0.0, 1.0, 10.0, 11.0]
        assert stats.means["x"] == pytest.approx(statistics.mean(pooled))
        assert stats.sds["x"] == pytest.approx(statistics.stdev(pooled))
        merged = list(train_std.column("x")) + list(extra_std.column("x"))
        assert statistics.mean(merged) == pytest.approx(0.0, abs=1e-9)
        assert statistics.stdev(merged) == pytest.approx(1.0, abs=1e-9)

    def test_column_mismatch(self):
        train = Frame(["x", "t"], [[0, 1]], "t")
        extra = Frame(["y", "t"], [[0, 1]], "t")
        with pytest.raises(DataError, match="column sets differ"):
            standardize_joint(train, extra)

    def test_idempotent_on_standardized_data(self):
        rng = random.Random(5)
        rows = [[rng.gauss(3, 2), rng.gauss(-1, 4), rng.uniform(300, 500)] for _ in range(40)]
        frame = Frame(["a", "b", "t"], rows, "t")
        once, _, _ = standardize_joint(frame)
        twice, _, _ = standardize_joint(once)
        for name in ("a", "b"):
            for u, v in zip(once.column(name), twice.column(name)):
                assert abs(u - v) < 1e-9

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_non_finite_cell(self, bad):
        train = Frame(["x", "t"], [[0, 1], [1, 2]], "t")
        extra = Frame(["x", "t"], [[2, 3], [bad, 4]], "t")
        with pytest.raises(DataError, match="validation row 1, column 'x': non-finite value"):
            standardize_joint(train, extra)

    def test_refuses_non_finite_target(self):
        train = Frame(["x", "t"], [[0, 1], [1, math.inf], [2, 3]], "t")
        with pytest.raises(DataError, match="training row 1, column 't': non-finite value"):
            standardize_joint(train)

    def test_means_sum_left_to_right(self):
        # compensated summation (built-in sum() from Python 3.12 on) would
        # give 1/3; the files this package writes must not depend on it
        frame = Frame(["x", "t"], [[1e16, 1], [1.0, 2], [-1e16, 3]], "t")
        _, _, stats = standardize_joint(frame)
        assert stats.means["x"] == 0.0 / 3
        aggregated = aggregate_means(
            Frame(["a", "b", "c"], [[1e16, 1.0, -1e16]], None),
            [AggregationSpec("m", ("a", "b", "c"))],
        )
        assert aggregated.column("m") == (0.0 / 3,)

    def test_joint_differs_from_separate_on_shifted_validation(self):
        rng = random.Random(11)
        train = Frame(["x", "t"], [[rng.gauss(0, 1), 400] for _ in range(30)], "t")
        extra = Frame(["x", "t"], [[rng.gauss(5, 1), 400] for _ in range(10)], "t")
        _, extra_joint, _ = standardize_joint(train, extra)
        extra_alone, _, _ = standardize_joint(extra)
        deltas = [
            abs(a - b)
            for a, b in zip(extra_joint.column("x"), extra_alone.column("x"))
        ]
        assert max(deltas) > 0.5


class TestPearson:
    def test_perfect_linear(self):
        assert pearson_correlation([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_inverse(self):
        assert pearson_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_oracle(self):
        # direct evaluation of the sample-correlation formula:
        # cov = 4, sx = sy = sqrt(5) -> r = 4/5
        assert pearson_correlation([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="lengths differ: 2 vs 3"):
            pearson_correlation([1, 2], [1, 2, 3])
        with pytest.raises(DataError, match="need at least 2 observations"):
            pearson_correlation([1], [2])

    def test_constant_input(self):
        with pytest.raises(DataError, match="at least one input is constant"):
            pearson_correlation([1, 1, 1], [1, 2, 3])


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
    names = list(columns) + ["t"]
    rows = [[columns[c][i] for c in columns] + [y[i]] for i in range(n)]
    return Frame(names, rows, "t")


class TestSelectByCorrelation:
    def test_designed_correlations(self):
        frame = designed_frame()
        for name, r in (("r05", 0.05), ("r15", 0.15), ("r25", 0.25)):
            assert pearson_correlation(frame.column(name), frame.column("t")) == pytest.approx(r)

    def test_threshold_keeps_only_strong_column(self):
        selected, result = select_by_correlation(designed_frame(), 0.19)
        assert result.kept_columns == ("r25", "t")
        assert [d[0] for d in result.dropped_columns] == ["r05", "r15"]
        assert selected.column_names == ("r25", "t")

    def test_threshold_zero_keeps_all(self):
        selected, result = select_by_correlation(designed_frame(), 0.0)
        assert result.kept_columns == ("r05", "r15", "r25", "t")
        assert result.dropped_columns == ()

    def test_monotone_shrinkage(self):
        frame = designed_frame()
        kept = []
        for threshold in (0.0, 0.1, 0.19, 0.5):
            _, result = select_by_correlation(frame, threshold)
            kept.append(set(result.kept_columns))
        for larger, smaller in zip(kept, kept[1:]):
            assert smaller <= larger

    def test_negative_correlation_kept_by_magnitude(self):
        frame = designed_frame()
        flipped_rows = [
            [-row[0], *row[1:]] for row in frame.rows
        ]
        flipped = Frame(frame.column_names, flipped_rows, "t")
        _, result = select_by_correlation(flipped, 0.04)
        assert "r05" in result.kept_columns
        dropped = dict(result.dropped_columns)
        assert dropped == {}

    def test_retained_values_unchanged(self):
        frame = designed_frame()
        selected, _ = select_by_correlation(frame, 0.19)
        assert selected.column("r25") == frame.column("r25")
        assert selected.column("t") == frame.column("t")

    def test_constant_column_reports_label(self):
        frame = Frame(["c", "t"], [[1, 1], [1, 2], [1, 3]], "t")
        with pytest.raises(DataError, match="column 'c' is constant"):
            select_by_correlation(frame, 0.1)

    def test_audit_log_lines(self, caplog):
        with caplog.at_level("INFO", logger="ammknn.preprocess"):
            select_by_correlation(designed_frame(), 0.19)
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 3
        assert lines[0].startswith("1. Correlation between r05 and target = ")

    def test_selection_result_json(self):
        _, result = select_by_correlation(designed_frame(), 0.19)
        doc = result.to_json_dict()
        assert doc["kept"] == ["r25", "t"]
        assert doc["threshold"] == 0.19
        assert [d[0] for d in doc["dropped"]] == ["r05", "r15"]
