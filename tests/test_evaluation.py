import random

import pytest

from ammknn import (
    AmmknnConfig,
    ConfusionMatrix2,
    ConfusionMatrix3,
    Frame,
    TierBoundaries,
    accuracy_3x3,
    classify_tier,
    confusion_2x2,
    confusion_3x3,
    loocv,
    metrics_from_cm,
    threshold_sweep,
)
from ammknn.errors import ConfigError, DataError


def fixed_k_loocv(frame, k):
    config = AmmknnConfig(max_k=1, outlier_feature=frame.column_names[0])
    return loocv(frame, config, k)[2]


class TestLoocv:
    def test_constant_targets(self):
        rows = [[float(i), 2.0 * i, 444.0] for i in range(10)]
        frame = Frame(["a", "b", "t"], rows, "t")
        adaptive, _, fixed = loocv(frame, AmmknnConfig(max_k=5, outlier_feature="a"), 3)
        assert adaptive == [444.0] * 10
        assert fixed == [444.0] * 10

    def test_three_row_fold_oracle(self):
        frame = Frame(["x", "t"], [[0.0, 300], [1.0, 400], [10.0, 500]], "t")
        assert fixed_k_loocv(frame, 1) == [400.0, 300.0, 400.0]

    def test_heldout_row_excluded_from_training(self):
        # the held-out row is a zero-distance duplicate of itself; with
        # leakage, k=1 would echo its own extreme target
        rows = [[float(i), 400.0] for i in range(6)] + [[2.0, 800.0]]
        frame = Frame(["x", "t"], rows, "t")
        predictions = fixed_k_loocv(frame, 1)
        assert predictions[6] == 400.0

    def test_fold_errors_tagged(self):
        frame = Frame(["x", "t"], [[0.0, 1], [None, 2], [2.0, 3]], "t")
        with pytest.raises(DataError, match="row 1, column 'x': missing cell"):
            fixed_k_loocv(frame, 1)

    def test_needs_two_rows(self):
        frame = Frame(["x", "t"], [[0.0, 1]], "t")
        with pytest.raises(DataError, match="leave-one-out needs at least 2 rows"):
            fixed_k_loocv(frame, 1)


class TestClassify:
    def test_binary_boundary(self):
        # a score exactly at the pass mark passes
        scores = [350.0, 349.0, 800.0]
        cm = confusion_2x2(scores, scores, 350)
        assert (cm.tp, cm.tn) == (1, 2)

    def test_tier_bands(self):
        bounds = TierBoundaries()
        assert classify_tier(340, bounds) == "fail"
        assert classify_tier(360, bounds) == "at_risk"
        assert classify_tier(350, bounds) == "at_risk"
        assert classify_tier(375, bounds) == "at_risk"
        assert classify_tier(375.1, bounds) == "pass"

    def test_bounds_validation(self):
        with pytest.raises(ConfigError, match="fail_below 380 must be below at_risk_upper 375"):
            TierBoundaries(380, 375)
        with pytest.raises(ConfigError, match="tier boundary 100 outside score range"):
            TierBoundaries(100, 375)


class TestConfusion2x2:
    def test_all_correct_passes(self):
        actual = [400.0] * 5
        cm = confusion_2x2(actual, actual, 350)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (0, 0, 0, 5)

    def test_diagonal_when_predictions_equal_actual(self):
        rng = random.Random(3)
        actual = [float(rng.randint(200, 800)) for _ in range(50)]
        cm = confusion_2x2(actual, actual, 350)
        assert cm.fp == 0 and cm.fn == 0

    def test_marginals(self):
        rng = random.Random(4)
        actual = [float(rng.randint(200, 800)) for _ in range(100)]
        predicted = [float(rng.randint(200, 800)) for _ in range(100)]
        cm = confusion_2x2(actual, predicted, 350)
        assert cm.tp + cm.fn == sum(1 for a in actual if a < 350)
        assert cm.fp + cm.tn == sum(1 for a in actual if a >= 350)
        assert cm.total == 100

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="lengths differ: 1 vs 2"):
            confusion_2x2([1.0], [1.0, 2.0], 350)


class TestConfusion3x3:
    def test_perfect_predictions_diagonal(self):
        bounds = TierBoundaries()
        actual = [300.0, 360.0, 500.0, 290.0, 375.0, 400.0]
        cm = confusion_3x3(actual, actual, bounds, bounds)
        assert cm.counts == ((2, 0, 0), (0, 2, 0), (0, 0, 2))

    def test_dual_boundary_sets(self):
        actual = [360.0]
        predicted = [380.0]
        narrow = TierBoundaries(350, 375)
        wide = TierBoundaries(350, 385)
        cm_narrow = confusion_3x3(actual, predicted, narrow, narrow)
        cm_wide = confusion_3x3(actual, predicted, narrow, wide)
        assert cm_narrow.counts[1][2] == 1  # 380 > 375: predicted pass
        assert cm_wide.counts[1][1] == 1  # 380 <= 385: predicted at_risk

    def test_collapsing_reproduces_binary_matrix(self):
        rng = random.Random(8)
        actual = [float(rng.randint(200, 800)) for _ in range(200)]
        predicted = [rng.uniform(200, 800) for _ in range(200)]
        bounds = TierBoundaries(350, 375)
        cm3 = confusion_3x3(actual, predicted, bounds, bounds)
        cm2 = confusion_2x2(actual, predicted, 350)
        c = cm3.counts
        assert cm2.tp == c[0][0]
        assert cm2.fn == c[0][1] + c[0][2]
        assert cm2.fp == c[1][0] + c[2][0]
        assert cm2.tn == c[1][1] + c[1][2] + c[2][1] + c[2][2]


class TestMetrics:
    def test_reference_arithmetic_first(self):
        m = metrics_from_cm(ConfusionMatrix2(tp=9, fp=9, tn=159, fn=4))
        assert m.accuracy == pytest.approx(0.9281768, abs=1e-6)
        assert m.sensitivity == pytest.approx(0.6923077, abs=1e-6)
        assert m.specificity == pytest.approx(0.9464286, abs=1e-6)

    def test_reference_arithmetic_second(self):
        m = metrics_from_cm(ConfusionMatrix2(tp=8, fp=11, tn=157, fn=5))
        assert m.accuracy == pytest.approx(0.9116022, abs=1e-6)
        assert m.sensitivity == pytest.approx(0.6153846, abs=1e-6)
        assert m.specificity == pytest.approx(0.9345238, abs=1e-6)

    def test_no_positives_sensitivity_undefined(self):
        m = metrics_from_cm(ConfusionMatrix2(tp=0, fp=0, tn=20, fn=0))
        assert m.accuracy == 1.0
        assert m.specificity == 1.0
        assert m.sensitivity is None

    def test_identities_vs_integer_arithmetic(self):
        rng = random.Random(12)
        for _ in range(50):
            tp, fp, tn, fn = (rng.randint(0, 50) for _ in range(4))
            if tp + fp + tn + fn == 0:
                continue
            m = metrics_from_cm(ConfusionMatrix2(tp, fp, tn, fn))
            assert abs(m.accuracy - (tp + tn) / (tp + fp + tn + fn)) < 1e-12
            if tp + fn:
                assert abs(m.sensitivity - tp / (tp + fn)) < 1e-12
            if tn + fp:
                assert abs(m.specificity - tn / (tn + fp)) < 1e-12

    def test_empty_matrix(self):
        with pytest.raises(DataError, match="no evaluated subjects"):
            metrics_from_cm(ConfusionMatrix2(0, 0, 0, 0))


class TestAccuracy3x3:
    def test_reference_matrix(self):
        cm = ConfusionMatrix3(((9, 2, 2), (1, 3, 11), (8, 21, 124)))
        assert cm.total == 181
        assert accuracy_3x3(cm) == pytest.approx(136 / 181)
        assert round(accuracy_3x3(cm), 2) == 0.75

    def test_diagonal_only(self):
        cm = ConfusionMatrix3(((3, 0, 0), (0, 4, 0), (0, 0, 5)))
        assert accuracy_3x3(cm) == 1.0

    def test_uniform_ones(self):
        cm = ConfusionMatrix3(((1, 1, 1), (1, 1, 1), (1, 1, 1)))
        assert accuracy_3x3(cm) == pytest.approx(1 / 3)

    def test_empty(self):
        with pytest.raises(DataError, match="no evaluated subjects"):
            accuracy_3x3(ConfusionMatrix3(((0, 0, 0), (0, 0, 0), (0, 0, 0))))


DEFAULT_CUTOFFS = [349.0, 390.0, 400.0, 410.0, 420.0]


class TestThresholdSweep:
    def test_cutoff_349_equals_unadjusted(self):
        rng = random.Random(21)
        actual = [float(rng.randint(200, 800)) for _ in range(100)]
        predicted = [float(rng.randint(200, 800)) for _ in range(100)]
        [point] = threshold_sweep(actual, predicted, [349.0], pass_at=350.0)
        assert point.matrix == confusion_2x2(actual, predicted, 350.0)

    def test_tp_up_tn_down_across_cutoffs(self):
        rng = random.Random(22)
        for _ in range(20):
            actual = [float(rng.randint(200, 800)) for _ in range(60)]
            predicted = [rng.uniform(200, 800) for _ in range(60)]
            points = threshold_sweep(actual, predicted, DEFAULT_CUTOFFS, pass_at=350.0)
            tps = [p.matrix.tp for p in points]
            tns = [p.matrix.tn for p in points]
            assert tps == sorted(tps)
            assert tns == sorted(tns, reverse=True)

    def test_cutoff_below_everything(self):
        actual = [300.0, 400.0, 320.0]
        predicted = [500.0, 500.0, 500.0]
        [point] = threshold_sweep(actual, predicted, [210.0], pass_at=350.0)
        assert point.matrix.tp == 0
        assert point.matrix.fn == 2

    def test_empty_cutoffs(self):
        with pytest.raises(DataError, match="cutoffs list is empty"):
            threshold_sweep([1.0], [1.0], [], pass_at=350.0)
