import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ammknn import (
    AmmknnConfig,
    Frame,
    ammknn_predict_batch,
    ammknn_predict_one,
    cumulative_means,
    loocv,
)
from ammknn.errors import (
    ColumnMismatch,
    DimensionMismatch,
    EmptyInput,
    EmptyTrainingSet,
    InvalidSpec,
    KTooLarge,
    MissingCell,
    NonFiniteCell,
)

# ---------------------------------------------------------------------------
# independent brute-force helpers (deliberately not using the package's
# internals: naive squared sums, full sorts, prefix means via sum()/k)
# ---------------------------------------------------------------------------


def brute_sqdist(a, b):
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) * (x - y)
    return total


def brute_rank(subject, matrix):
    keyed = sorted((brute_sqdist(subject, row), i) for i, row in enumerate(matrix))
    return [i for _, i in keyed]


def brute_min_over_k(subject, matrix, targets, max_k):
    order = brute_rank(subject, matrix)[: min(max_k, len(matrix))]
    best = None
    for k in range(1, len(order) + 1):
        mean = sum(targets[i] for i in order[:k]) / k
        if best is None or mean < best:
            best = mean
    return best


def random_training(rng, n, dims):
    rows = [
        [rng.uniform(-3, 3) for _ in range(dims)] + [float(rng.randint(200, 800))]
        for _ in range(n)
    ]
    names = [f"x{j}" for j in range(dims)] + ["t"]
    return Frame(names, rows, "t")


def ranking(subject, feature_rows, limit):
    """(row, distance) pairs the predictor reports for a subject."""
    dims = len(feature_rows[0]) if feature_rows else len(subject)
    names = [f"x{j}" for j in range(dims)] + ["t"]
    training = Frame(names, [list(r) + [400.0] for r in feature_rows], "t")
    record = ammknn_predict_one(subject, 0.0, training, AmmknnConfig(max_k=limit))
    return record.neighbor_ranking


def fixed_k(subject, training_rows, k):
    """Fixed-k KNN prediction for a subject held out as the last LOOCV row."""
    names = [f"x{j}" for j in range(len(subject))] + ["t"]
    frame = Frame(names, [*training_rows, [*subject, 0.0]], "t")
    return loocv(frame, AmmknnConfig(max_k=1, outlier_feature="x0"), k)[2][-1]


class TestEuclidean:
    def test_identity(self):
        assert ranking((1.5, -2.0), [(1.5, -2.0)], 1) == ((0, 0.0),)

    def test_3_4_5(self):
        assert ranking((0.0, 0.0), [(3.0, 4.0)], 1) == ((0, 5.0),)

    def test_matches_componentwise_oracle(self):
        rng = random.Random(42)
        for _ in range(200):
            a = [rng.uniform(-10, 10) for _ in range(10)]
            b = [rng.uniform(-10, 10) for _ in range(10)]
            assert ranking(a, [b], 1)[0][1] == pytest.approx(
                math.sqrt(brute_sqdist(a, b)), abs=1e-12
            )

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ranking((1.0, 2.0), [(1.0, 2.0, 3.0)], 1)


class TestRankNeighbors:
    def test_one_dim_ordering(self):
        assert ranking([1.0], [[0.0], [10.0]], 2) == ((0, 1.0), (1, 9.0))

    def test_tie_breaks_by_row_index(self):
        assert [i for i, _ in ranking([1.0], [[2.0], [0.0]], 2)] == [0, 1]

    def test_matches_full_sort_oracle(self):
        rng = random.Random(7)
        for _ in range(20):
            training = random_training(rng, 50, 4)
            subject = [rng.uniform(-3, 3) for _ in range(4)]
            record = ammknn_predict_one(subject, 0.0, training, AmmknnConfig(max_k=20))
            matrix = training.feature_matrix()
            assert [i for i, _ in record.neighbor_ranking] == brute_rank(subject, matrix)[:20]

    def test_limit_beyond_rows_returns_all(self):
        assert len(ranking([0.5], [[0.0], [1.0], [2.0]], 99)) == 3

    def test_empty_training(self):
        with pytest.raises(EmptyTrainingSet):
            ranking([0.0], [], 1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ranking([0.0], [[0.0, 1.0]], 1)


class TestCumulativeMeans:
    def test_single_value(self):
        assert cumulative_means([400.0]) == [400.0]

    def test_hand_arithmetic(self):
        assert cumulative_means([400, 350, 420]) == [400.0, 375.0, 390.0]

    def test_constant_vector_invariant(self):
        assert cumulative_means([7.0] * 5) == [7.0] * 5

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            cumulative_means([])


class TestKnnRegress:
    """Fixed-k KNN regression, the LOOCV baseline."""

    ROWS = [[0.0, 300.0], [1.0, 400.0], [2.0, 500.0], [3.0, 440.0], [9.0, 350.0]]

    def test_k1_is_nearest_target(self):
        assert fixed_k([0.1], self.ROWS, 1) == 300.0

    def test_k_equals_n_is_global_mean(self):
        assert fixed_k([5.0], self.ROWS, 5) == pytest.approx(
            sum(t for _, t in self.ROWS) / 5
        )

    def test_equals_prefix_mean(self):
        training = Frame(["x", "t"], self.ROWS, "t")
        record = ammknn_predict_one([1.7], 0.0, training, AmmknnConfig(max_k=5))
        assert fixed_k([1.7], self.ROWS, 3) == record.cumulative_means[2]

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            fixed_k([0.0], self.ROWS, 6)


class TestAmmknnPredictOne:
    def test_constant_neighborhood(self):
        rows = [[float(i), 500.0] for i in range(20)]
        training = Frame(["x", "t"], rows, "t")
        record = ammknn_predict_one([0.0], 0.0, training, AmmknnConfig(max_k=20))
        assert record.min_of_means == 500.0
        assert record.min_match == 500.0
        assert record.prediction == 500.0
        assert not record.outlier_triggered

    def test_outlier_takes_min_match(self):
        # ranked neighbor targets [480, 310]: prefix means [480, 395]
        training = Frame(["x", "t"], [[0.0, 480.0], [1.0, 310.0]], "t")
        record = ammknn_predict_one([0.0], -2.5, training, AmmknnConfig(max_k=2))
        assert record.min_of_means == 395.0
        assert record.min_match == 310.0
        assert record.outlier_triggered
        assert record.prediction == 310.0

    def test_outlier_cutoff_is_strict(self):
        training = Frame(["x", "t"], [[0.0, 480.0], [1.0, 310.0]], "t")
        record = ammknn_predict_one([0.0], -2.0, training, AmmknnConfig(max_k=2))
        assert not record.outlier_triggered
        assert record.prediction == 395.0

    def test_non_outlier_equals_min_over_k_oracle(self):
        rng = random.Random(123)
        for _ in range(50):
            n = rng.randint(3, 30)
            dims = rng.randint(1, 5)
            training = random_training(rng, n, dims)
            subject = [rng.uniform(-3, 3) for _ in range(dims)]
            max_k = rng.randint(1, 20)
            record = ammknn_predict_one(subject, 0.0, training, AmmknnConfig(max_k=max_k))
            oracle = brute_min_over_k(
                subject, training.feature_matrix(), training.target_values(), max_k
            )
            assert record.prediction == oracle  # bit-exact

    def test_min_match_never_exceeds_min_of_means(self):
        rng = random.Random(5)
        for _ in range(50):
            training = random_training(rng, rng.randint(2, 25), 3)
            subject = [rng.uniform(-3, 3) for _ in range(3)]
            record = ammknn_predict_one(subject, 0.0, training, AmmknnConfig(max_k=20))
            assert record.min_match <= record.min_of_means
            for mean in record.cumulative_means:
                assert record.min_of_means <= mean

    def test_prediction_never_exceeds_max_k_regression(self):
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(5, 25)
            training = random_training(rng, n, 2)
            subject = [rng.uniform(-3, 3) for _ in range(2)]
            max_k = min(20, n)
            record = ammknn_predict_one(subject, 0.0, training, AmmknnConfig(max_k=max_k))
            assert record.prediction <= fixed_k(subject, list(training.rows), max_k)

    def test_permutation_stability(self):
        rng = random.Random(9)
        training = random_training(rng, 20, 3)
        subject = [rng.uniform(-3, 3) for _ in range(3)]
        baseline = ammknn_predict_one(subject, 0.0, training, AmmknnConfig(max_k=10))
        order = list(range(20))
        for _ in range(10):
            rng.shuffle(order)
            permuted = training.subset_rows(order)
            record = ammknn_predict_one(subject, 0.0, permuted, AmmknnConfig(max_k=10))
            assert record.prediction == baseline.prediction

    def test_max_k_saturation_non_increasing(self):
        rng = random.Random(10)
        training = random_training(rng, 30, 2)
        subject = [rng.uniform(-3, 3) for _ in range(2)]
        previous = math.inf
        for max_k in range(1, 31):
            record = ammknn_predict_one(subject, 0.0, training, AmmknnConfig(max_k=max_k))
            assert record.min_of_means <= previous
            previous = record.min_of_means

    def test_fewer_rows_than_max_k(self):
        training = Frame(["x", "t"], [[0.0, 400.0], [1.0, 300.0]], "t")
        record = ammknn_predict_one([0.0], 0.0, training, AmmknnConfig(max_k=20))
        assert len(record.neighbor_ranking) == 2
        assert len(record.cumulative_means) == 2

    def test_invalid_max_k(self):
        with pytest.raises(InvalidSpec):
            AmmknnConfig(max_k=0)


class TestAmmknnPredictBatch:
    def config(self):
        return AmmknnConfig(max_k=5, outlier_feature="x0")

    def test_empty_subjects(self):
        rng = random.Random(1)
        training = random_training(rng, 10, 2)
        subjects = Frame(["x0", "x1"], [], None)
        assert ammknn_predict_batch(subjects, training, self.config()) == []

    def test_batch_of_one_matches_predict_one(self):
        rng = random.Random(2)
        training = random_training(rng, 10, 2)
        subjects = Frame(["x0", "x1", "t"], [[0.5, -0.5, 999.0]], "t")
        [record] = ammknn_predict_batch(subjects, training, self.config())
        direct = ammknn_predict_one([0.5, -0.5], 0.5, training, self.config())
        assert record.prediction == direct.prediction
        assert record.neighbor_ranking == direct.neighbor_ranking

    def test_outlier_value_read_per_row(self):
        training = Frame(["x0", "t"], [[0.0, 480.0], [1.0, 310.0]], "t")
        subjects = Frame(["x0"], [[-2.5], [0.0]], None)
        config = AmmknnConfig(max_k=2, outlier_feature="x0")
        records = ammknn_predict_batch(subjects, training, config)
        assert records[0].outlier_triggered and records[0].prediction == 310.0
        assert not records[1].outlier_triggered and records[1].prediction == 395.0

    def test_order_preserved_and_ids_attached(self):
        rng = random.Random(3)
        training = random_training(rng, 8, 2)
        subjects = Frame(
            ["x0", "x1"], [[0.0, 0.0], [1.0, 1.0]], None, row_ids=["a", "b"]
        )
        records = ammknn_predict_batch(subjects, training, self.config())
        assert [r.subject_id for r in records] == ["a", "b"]

    def test_missing_feature_column(self):
        rng = random.Random(4)
        training = random_training(rng, 8, 2)
        subjects = Frame(["x0"], [[0.0]], None)
        with pytest.raises(ColumnMismatch):
            ammknn_predict_batch(subjects, training, self.config())

    def test_unset_outlier_feature_rejected(self):
        rng = random.Random(4)
        training = random_training(rng, 8, 2)
        subjects = Frame(["x0", "x1"], [[0.0, 0.0]], None)
        with pytest.raises(InvalidSpec):
            ammknn_predict_batch(subjects, training, AmmknnConfig())

    def test_row_errors_tagged_with_index(self):
        training = Frame(["x0", "t"], [[0.0, 400.0]], "t")
        subjects = Frame(["x0"], [[0.0], [None]], None)
        config = AmmknnConfig(max_k=1, outlier_feature="x0")
        with pytest.raises(Exception, match="subject row 1"):
            ammknn_predict_batch(subjects, training, config)


class TestUnscorableCellsRefused:
    """NaN has no place in a distance order, so no step scores around it."""

    CONFIG = AmmknnConfig(max_k=2, outlier_feature="x0")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, float("1e999")])
    def test_training_feature(self, bad):
        training = Frame(["x0", "x1", "t"], [[0.0, 0.0, 400.0], [1.0, bad, 300.0]], "t")
        subjects = Frame(["x0", "x1"], [[0.0, 0.0]], None)
        with pytest.raises(NonFiniteCell, match="training row 1, column 'x1'"):
            ammknn_predict_batch(subjects, training, self.CONFIG)
        with pytest.raises(NonFiniteCell, match="training row 1, column 'x1'"):
            loocv(training, self.CONFIG, 1)

    def test_training_target(self):
        training = Frame(["x0", "t"], [[0.0, 400.0], [1.0, math.nan], [2.0, 300.0]], "t")
        with pytest.raises(NonFiniteCell, match="training row 1, column 't'"):
            loocv(training, self.CONFIG, 1)

    def test_first_bad_training_cell_in_row_order(self):
        training = Frame(
            ["x0", "x1", "t"], [[0.0, 0.0, 1.0], [0.0, None, 2.0], [math.inf, 0.0, 3.0]], "t"
        )
        with pytest.raises(MissingCell, match="training row 1, column 'x1'"):
            loocv(training, self.CONFIG, 1)

    @pytest.mark.parametrize("cells", [[0.0, math.inf], [math.nan, 0.0]])
    def test_subject_cell(self, cells):
        training = Frame(["x0", "x1", "t"], [[0.0, 0.0, 400.0], [1.0, 1.0, 300.0]], "t")
        subjects = Frame(["x0", "x1"], [[0.0, 0.0], cells], None)
        with pytest.raises(NonFiniteCell, match=r"subject row 1\b.* column 'x"):
            ammknn_predict_batch(subjects, training, self.CONFIG)
        with pytest.raises(NonFiniteCell):
            ammknn_predict_one(cells, 0.0, training, self.CONFIG)

    def test_subject_outlier_cell(self):
        training = Frame(["x0", "t"], [[0.0, 400.0], [1.0, 300.0]], "t")
        subjects = Frame(["x0", "o"], [[0.0, math.nan]], None)
        config = AmmknnConfig(max_k=2, outlier_feature="o")
        with pytest.raises(NonFiniteCell, match="subject row 0, column 'o'"):
            ammknn_predict_batch(subjects, training, config)


# ---------------------------------------------------------------------------
# differential test: the ranking engine against a naive reference
# ---------------------------------------------------------------------------


def naive_ranking(matrix, targets, subject, skip=None):
    """Sort every row by squared distance, then average each prefix."""
    order = sorted(
        (brute_sqdist(subject, row), i) for i, row in enumerate(matrix) if i != skip
    )
    means = [sum(targets[i] for _, i in order[:k]) / k for k in range(1, len(order) + 1)]
    return order, means


def naive_adaptive(order, means, targets, outlier_value, config):
    """(neighbors, prediction) of the adaptive rule from a naive ranking."""
    nearest = order[: config.max_k]
    if outlier_value < config.outlier_cutoff:
        prediction = min(targets[i] for _, i in nearest)
    else:
        prediction = min(means[: config.max_k])
    return tuple((i, math.sqrt(sq)) for sq, i in nearest), prediction


# a tiny coordinate set forces exact distance ties; everyday decimals make
# sums that round, so near-ties differ between distance formulas; the
# extremes square to subnormals (1e-160) or overflow to inf (7e153 summed,
# 1e200); whole scores keep prefix sums exact
TIED = [-1.0, 0.0, 0.5, 2.0]
EVERYDAY = [-0.1, 0.0, 0.1, 0.2, 0.3, 0.6, 1 / 3, 2 / 3, 5.0]
EXTREMES = [1e-160, -3e-160, 7e153, 1e200, -2e200]
COORD_SETS = st.sampled_from([TIED, EVERYDAY, EVERYDAY + EXTREMES])
SCORES = st.integers(200, 800).map(float)


TWINS_FIRST_LAST = [
    [0.0, 0.0, 450.0], [2.0, 0.5, 300.0], [0.5, 2.0, 650.0], [-1.0, 0.5, 200.0],
    [0.0, 0.0, 700.0],
]
ON_A_LINE = [[0.0, 400.0], [1.0, 300.0], [3.0, 700.0], [6.0, 200.0], [10.0, 500.0]]


@st.composite
def engine_cases(draw):
    coords = st.sampled_from(draw(COORD_SETS))
    # zero features: correlation selection may keep only the target
    dims = draw(st.integers(0, 3))
    rows = [
        [draw(coords) for _ in range(dims)] + [draw(SCORES)]
        for _ in range(draw(st.integers(1, 9)))
    ]
    for _ in range(draw(st.integers(0, 2))):  # duplicate features, fresh target
        rows.append(rows[draw(st.integers(0, len(rows) - 1))][:dims] + [draw(SCORES)])
    subjects = [
        [draw(coords) for _ in range(dims)] for _ in range(draw(st.integers(0, 3)))
    ]
    max_k = draw(st.integers(1, 14))
    knn_k = draw(st.integers(1, len(rows)))
    cutoff = draw(st.sampled_from([-2.0, 0.25, 1.0]))
    return rows, subjects, max_k, knn_k, cutoff


@settings(max_examples=300, deadline=None)
@given(engine_cases())
# three-row fold oracle: fixed k=1 gives [400, 300, 400]
@example(([[0.0, 300.0], [1.0, 400.0], [10.0, 500.0]], [], 1, 1, -2.0))
# held-out zero-distance duplicate cannot echo its own target
@example(([[float(i), 400.0] for i in range(6)] + [[2.0, 800.0]], [[2.0]], 20, 1, -2.0))
# fewer than two rows, and k larger than a fold's training rows
@example(([[0.0, 1.0]], [], 1, 1, -2.0))
@example(([[0.0, 300.0], [1.0, 400.0], [2.0, 500.0]], [], 1, 3, -2.0))
# all rows tied: the held-out row is the first, then the last, index
@example(([[0.5, 800.0], [0.5, 300.0], [0.5, 500.0], [0.5, 200.0]], [[0.5]], 2, 3, 1.0))
# no feature columns at all: every distance is 0 and the row order decides
@example(([[300.0], [800.0], [500.0]], [[], []], 2, 2, -2.0))
# math.dist ties the two rows, the summed squares do not: 0.1 for row 1
# against 0.10000000000000002 for row 0
@example(([[0.2, 0.2, 500.0], [0.0, 0.6, 300.0]], [[-0.1, 0.3]], 1, 1, -2.0))
# math.dist puts row 0 first, the summed squares put row 1 first:
# 0.18000000000000002 against 0.18000000000000005
@example(([[0.0, 0.3, 0.2, 500.0], [0.2, -0.1, 0.6, 300.0]], [[-0.1, -0.1, 0.3]], 1, 1, -2.0))
# both squares overflow to inf, so the row index decides: row 0
@example(([[2e200, 500.0], [1e200, 300.0]], [[0.0]], 1, 1, -2.0))
# both squares underflow to 0.0, so the row index decides: row 0
@example(([[2e-170, 500.0], [1e-170, 300.0]], [[0.0]], 1, 1, -2.0))
# the threshold falls inside a run of duplicate rows: four copies of
# (1, 1) fill places 3 to 6 of the subject's ranking and max_k is 4, so the
# row index picks which two of them are kept; fixed k = 5 goes one deeper
@example((
    [[0.5, 0.5, 700.0], [1.0, 1.0, 500.0], [1.0, 1.0, 200.0], [0.0, 0.0, 650.0],
     [1.0, 1.0, 300.0], [1.0, 1.0, 800.0], [2.0, 2.0, 400.0]],
    [[0.0, 0.0], [2.0, 2.0]], 4, 5, -2.0,
))
# the ranking depth is n - 1, n and n + 1 for five rows whose first and last
# are duplicates, so holding either out leaves its twin at distance 0;
# n - 1 also makes knn_k == n - 1 and the last kept row the farthest one
@example((TWINS_FIRST_LAST, [[0.0, 0.0], [-1.0, 0.5]], 4, 4, 0.25))
@example((TWINS_FIRST_LAST, [[0.0, 0.0], [-1.0, 0.5]], 5, 2, 0.25))
@example((TWINS_FIRST_LAST, [[0.0, 0.0], [-1.0, 0.5]], 6, 1, 0.25))
# fixed k deeper than the adaptive window: knn_k > max_k, then knn_k == n - 1
@example((ON_A_LINE, [], 1, 3, -2.0))
@example((ON_A_LINE, [], 2, 4, -2.0))
def test_engine_matches_naive_reference(case):
    rows, subjects, max_k, knn_k, cutoff = case
    dims = len(rows[0]) - 1
    names = [f"x{j}" for j in range(dims)] + ["t"]
    frame = Frame(names, rows, "t")
    matrix = [row[:dims] for row in rows]
    targets = [row[dims] for row in rows]
    # without features the outlier rule reads the target (loocv) or a
    # subject column of zeros standing in for it (batch)
    outlier = "x0" if dims else "t"
    config = AmmknnConfig(max_k=max_k, outlier_feature=outlier, outlier_cutoff=cutoff)

    subject_rows = [subject or [0.0] for subject in subjects]
    subject_frame = Frame(names[:-1] or [outlier], subject_rows, None)
    records = ammknn_predict_batch(subject_frame, frame, config)
    for subject, cells, record in zip(subjects, subject_rows, records):
        order, means = naive_ranking(matrix, targets, subject)
        neighbors, prediction = naive_adaptive(order, means, targets, cells[0], config)
        assert record.neighbor_ranking == neighbors
        assert record.prediction == prediction
    assert len(records) == len(subjects)

    n = len(rows)
    if n < 2:
        with pytest.raises(EmptyTrainingSet):
            loocv(frame, config, knn_k)
        return
    if knn_k > n - 1:
        with pytest.raises(KTooLarge):
            loocv(frame, config, knn_k)
        return
    adaptive, triggered, fixed = loocv(frame, config, knn_k)
    expected_adaptive, expected_fixed = [], []
    outlier_values = frame.column(outlier)
    for i in range(n):
        order, means = naive_ranking(matrix, targets, matrix[i], skip=i)
        expected_adaptive.append(naive_adaptive(order, means, targets, outlier_values[i], config)[1])
        expected_fixed.append(means[knn_k - 1])
    assert adaptive == expected_adaptive
    assert fixed == expected_fixed
    assert triggered == [v < cutoff for v in outlier_values]
