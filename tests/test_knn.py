import gc
import math
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ammknn import knn
from ammknn.config import AmmknnConfig
from ammknn.errors import ConfigError
from ammknn.knn import cumulative_means, score
from perfbench_module import load_perfbench

# the naive method every ranking is checked against: sort all rows, then
# average prefixes left to right
ref = load_perfbench("reference")


def split_rows(rows):
    """``(matrix, target)`` of rows whose last cell is the target: one
    tuple of feature cells per row, and the scores, every cell a float."""
    return [tuple(map(float, row[:-1])) for row in rows], [float(row[-1]) for row in rows]


def predict_one(subject, outlier_value, training, config):
    """``score``'s ``(ranked, targets, means, prediction, triggered,
    squares)`` for one subject against ``training``, a ``(matrix,
    target)`` pair, ranked ``max_k`` deep as validate and predict rank."""
    [scored] = score(*training, [tuple(subject)], [outlier_value], config, config.max_k)
    return scored


def loocv(matrix, target, outlier_values, config, knn_k):
    """``(adaptive, outlier_triggered, fixed_k)`` predictions of every
    row held out of its own ranking, read from ``score`` as ``run_loocv``
    reads them."""
    adaptive, triggered, fixed_k = [], [], []
    depth = max(config.max_k, knn_k)
    for _, _, means, prediction, fired, _ in score(
        matrix, target, matrix, outlier_values, config, depth, held_out=True
    ):
        adaptive.append(prediction)
        triggered.append(fired)
        fixed_k.append(means[knn_k - 1])
    return adaptive, triggered, fixed_k


def drawn(scored):
    """``score``'s tuple for one subject with its squared distances
    drawn, so that two tuples compare by value."""
    *head, squares = scored
    return (*head, list(squares))


def random_training(rng, n, dims):
    rows = [
        [rng.uniform(-3, 3) for _ in range(dims)] + [float(rng.randint(200, 800))]
        for _ in range(n)
    ]
    return split_rows(rows)


def ranking(subject, feature_rows, limit):
    """(row, distance) pairs the predictor reports for a subject."""
    training = split_rows([list(r) + [400.0] for r in feature_rows])
    ranked, *_, squares = predict_one(subject, 0.0, training, AmmknnConfig(max_k=limit))
    return tuple(zip(ranked, map(math.sqrt, squares)))


def first_column_loocv(rows, config, k):
    """``loocv`` of rows whose last cell is the target, with the first
    column as the outlier feature."""
    matrix, target = split_rows(rows)
    return loocv(matrix, target, [float(row[0]) for row in rows], config, k)


def fixed_k(subject, training_rows, k):
    """Fixed-k KNN prediction for a subject held out as the last LOOCV row."""
    rows = [*training_rows, [*subject, 0.0]]
    return first_column_loocv(rows, AmmknnConfig(max_k=1, outlier_feature="x0"), k)[2][-1]


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
            [(squared, _)] = ref.ranked([b], a)
            assert ranking(a, [b], 1)[0][1] == pytest.approx(math.sqrt(squared), abs=1e-12)


class TestRankNeighbors:
    def test_one_dim_ordering(self):
        assert ranking([1.0], [[0.0], [10.0]], 2) == ((0, 1.0), (1, 9.0))

    def test_tie_breaks_by_row_index(self):
        assert [i for i, _ in ranking([1.0], [[2.0], [0.0]], 2)] == [0, 1]

    def test_limit_beyond_rows_returns_all(self):
        assert len(ranking([0.5], [[0.0], [1.0], [2.0]], 99)) == 3


class TestCumulativeMeans:
    def test_single_value(self):
        assert cumulative_means([400.0]) == [400.0]

    def test_hand_arithmetic(self):
        assert cumulative_means([400, 350, 420]) == [400.0, 375.0, 390.0]

    def test_constant_vector_invariant(self):
        assert cumulative_means([7.0] * 5) == [7.0] * 5


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
        training = split_rows(self.ROWS)
        means = predict_one([1.7], 0.0, training, AmmknnConfig(max_k=5))[2]
        assert fixed_k([1.7], self.ROWS, 3) == means[2]


class TestAmmknnPredictOne:
    def test_constant_neighborhood(self):
        rows = [[float(i), 500.0] for i in range(20)]
        training = split_rows(rows)
        _, targets, means, prediction, triggered, _ = predict_one(
            [0.0], 0.0, training, AmmknnConfig(max_k=20)
        )
        assert min(means) == 500.0
        assert min(targets) == 500.0
        assert prediction == 500.0
        assert not triggered

    def test_outlier_takes_min_match(self):
        # ranked neighbor targets [480, 310]: prefix means [480, 395]
        training = split_rows([[0.0, 480.0], [1.0, 310.0]])
        _, targets, means, prediction, triggered, _ = predict_one(
            [0.0], -2.5, training, AmmknnConfig(max_k=2)
        )
        assert min(means) == 395.0
        assert min(targets) == 310.0
        assert triggered
        assert prediction == 310.0

    def test_outlier_cutoff_is_strict(self):
        training = split_rows([[0.0, 480.0], [1.0, 310.0]])
        *_, prediction, triggered, _ = predict_one([0.0], -2.0, training, AmmknnConfig(max_k=2))
        assert not triggered
        assert prediction == 395.0

    def test_min_match_never_exceeds_min_of_means(self):
        rng = random.Random(5)
        for _ in range(50):
            training = random_training(rng, rng.randint(2, 25), 3)
            subject = [rng.uniform(-3, 3) for _ in range(3)]
            _, targets, means, *_ = predict_one(subject, 0.0, training, AmmknnConfig(max_k=20))
            assert min(targets) <= min(means)

    def test_prediction_never_exceeds_max_k_regression(self):
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(5, 25)
            training = random_training(rng, n, 2)
            subject = [rng.uniform(-3, 3) for _ in range(2)]
            max_k = min(20, n)
            prediction = predict_one(subject, 0.0, training, AmmknnConfig(max_k=max_k))[3]
            rows = [[*row, t] for row, t in zip(*training)]
            assert prediction <= fixed_k(subject, rows, max_k)

    def test_permutation_stability(self):
        rng = random.Random(9)
        training = random_training(rng, 20, 3)
        subject = [rng.uniform(-3, 3) for _ in range(3)]
        baseline = predict_one(subject, 0.0, training, AmmknnConfig(max_k=10))[3]
        order = list(range(20))
        for _ in range(10):
            rng.shuffle(order)
            matrix, target = training
            permuted = [matrix[i] for i in order], [target[i] for i in order]
            assert predict_one(subject, 0.0, permuted, AmmknnConfig(max_k=10))[3] == baseline

    def test_max_k_saturation_non_increasing(self):
        rng = random.Random(10)
        training = random_training(rng, 30, 2)
        subject = [rng.uniform(-3, 3) for _ in range(2)]
        previous = math.inf
        for max_k in range(1, 31):
            means = predict_one(subject, 0.0, training, AmmknnConfig(max_k=max_k))[2]
            assert min(means) <= previous
            previous = min(means)

    def test_fewer_rows_than_max_k(self):
        training = split_rows([[0.0, 400.0], [1.0, 300.0]])
        ranked, _, means, *_ = predict_one([0.0], 0.0, training, AmmknnConfig(max_k=20))
        assert len(ranked) == 2
        assert len(means) == 2

    def test_invalid_max_k(self):
        with pytest.raises(ConfigError, match="max_k must be >= 1, got 0"):
            AmmknnConfig(max_k=0)


class TestAmmknnPredictBatch:
    """``score`` over a cohort of subjects, as validate and predict draw it."""

    def config(self):
        return AmmknnConfig(max_k=5, outlier_feature="x0")

    def test_empty_subjects(self):
        rng = random.Random(1)
        training = random_training(rng, 10, 2)
        assert list(score(*training, [], [], self.config(), 5)) == []

    def test_rows_are_scored_independently(self):
        rng = random.Random(2)
        training = random_training(rng, 10, 2)
        rows = [[0.5, -0.5, 999.0], [-2.5, 1.0, 300.0], [0.5, -0.5, 200.0], [3.0, 3.0, 400.0]]
        subjects = [tuple(row[:2]) for row in rows]
        outlier = [row[0] for row in rows]
        scored = list(score(*training, subjects, outlier, self.config(), 5))
        assert len(scored) == len(rows)
        for i, one in enumerate(scored):
            [alone] = score(*training, subjects[i:i + 1], outlier[i:i + 1], self.config(), 5)
            assert drawn(one) == drawn(alone)

    def test_outlier_value_read_per_row(self):
        training = split_rows([[0.0, 480.0], [1.0, 310.0]])
        config = AmmknnConfig(max_k=2, outlier_feature="x0")
        subjects = [(-2.5,), (0.0,)]
        first, second = score(*training, subjects, [-2.5, 0.0], config, 2)
        assert first[4] and first[3] == 310.0
        assert not second[4] and second[3] == 395.0

    def test_outlier_feature_name_is_not_read(self):
        # the engine is handed outlier values; the feature's name is
        # resolved, and read, in the pipeline alone
        rng = random.Random(4)
        matrix, target = random_training(rng, 8, 2)
        subjects = [(0.0, 0.0), (-2.5, 1.0)]
        outliers = [0.0, -2.5]
        named, unnamed = AmmknnConfig(max_k=3, outlier_feature="x0"), AmmknnConfig(max_k=3)
        assert list(map(drawn, score(matrix, target, subjects, outliers, unnamed, 3))) == (
            list(map(drawn, score(matrix, target, subjects, outliers, named, 3)))
        )
        outliers = [row[0] for row in matrix]
        assert loocv(matrix, target, outliers, unnamed, 2) == loocv(matrix, target, outliers, named, 2)

    def test_scored_records_hold_no_interpreter_blocks(self):
        # a subject's tuple holds the lists the scoring loop builds;
        # copying them into fresh 20-item tuples left each dropped tuple on
        # the interpreter's free list, about 2.5 blocks a subject on Python
        # 3.11 (up to its cap of 2 000 tuples). What gc.collect() empties
        # and a scoring refills comes to about 260 blocks, however many
        # subjects are scored.
        rng = random.Random(5)
        training = random_training(rng, 200, 4)
        n = 1000
        subjects = [tuple(rng.uniform(-3, 3) for _ in range(4)) for _ in range(n)]
        config = AmmknnConfig(max_k=20, outlier_feature="x0")

        def score_all():
            for _ in score(*training, subjects, [0.0] * n, config, 20):
                pass

        score_all()  # one-time costs
        gc.collect()
        before = sys.getallocatedblocks()
        score_all()
        assert sys.getallocatedblocks() - before < n // 2


# ---------------------------------------------------------------------------
# differential test: the ranking engine against the naive reference
# ---------------------------------------------------------------------------

# a tiny coordinate set forces exact distance ties; everyday decimals make
# sums that round, so near-ties differ between distance formulas; the
# extremes square to subnormals (1e-160) or lie at the bound of every cell
# read (7e49 and ±1e50, whose differences square to up to 4e100); scores
# of one decimal make prefix sums that round, where any summation but
# left to right would differ in the last bits
TIED = [-1.0, 0.0, 0.5, 2.0]
EVERYDAY = [-0.1, 0.0, 0.1, 0.2, 0.3, 0.6, 1 / 3, 2 / 3, 5.0]
EXTREMES = [1e-160, -3e-160, 7e49, 1e50, -1e50]
COORD_SETS = st.sampled_from([TIED, EVERYDAY, EVERYDAY + EXTREMES])
SCORES = st.integers(2000, 8000).map(lambda tenths: tenths / 10)


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
# both rows lie at the bound, 1e50 away, so the row index decides: row 0
@example(([[1e50, 500.0], [-1e50, 300.0]], [[0.0]], 1, 1, -2.0))
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
    check_against_naive(*case)


def predict_record(scored, outlier_value):
    """``score``'s tuple for one subject as the fields of its predict
    record."""
    ranked, targets, means, prediction, triggered, squares = scored
    return {
        "neighbors": [[j, math.sqrt(sq)] for j, sq in zip(ranked, squares)],
        "cumulative_means": means,
        "min_of_means": min(means),
        "min_match": min(targets),
        "outlier_value": outlier_value,
        "outlier_triggered": triggered,
        "prediction": prediction,
    }


def check_against_naive(rows, subjects, max_k, knn_k, cutoff):
    """Score ``subjects`` with ``score`` and every row of ``rows``
    (features, then the target) held out of its own ranking, and compare
    each subject's predict record, and each held-out row's running means,
    fixed-k mean and prediction, with the naive reference. With fewer
    than 2 rows, which every step refuses, only the subjects are
    scored."""
    depth = max(max_k, knn_k)
    dims = len(rows[0]) - 1
    matrix = [tuple(row[:dims]) for row in rows]
    targets = [row[dims] for row in rows]
    # without features the outlier rule reads the target (loocv) or a
    # subject column of zeros standing in for it (batch)
    outlier = "x0" if dims else "t"
    config = AmmknnConfig(max_k=max_k, outlier_feature=outlier, outlier_cutoff=cutoff)

    subject_rows = [subject or [0.0] for subject in subjects]
    scored = list(score(
        matrix, targets, [tuple(subject) for subject in subjects],
        [cells[0] for cells in subject_rows], config, max_k,
    ))
    for subject, cells, one in zip(subjects, subject_rows, scored):
        expected = ref.naive_record(ref.ranked(matrix, subject), targets, max_k, cells[0], cutoff)
        assert predict_record(one, cells[0]) == expected
    assert len(scored) == len(subjects)

    n = len(rows)
    if n < 2:
        return
    outlier_values = [row[0] for row in rows]  # x0, or the target without features
    held_out = list(score(matrix, targets, matrix, outlier_values, config, depth, held_out=True))
    for i, (_, _, means, prediction, triggered, _) in enumerate(held_out):
        order = ref.ranked(matrix, matrix[i], skip=i)
        # every fixed-k prediction up to the depth, knn_k's among them
        assert means == ref.prefix_means([targets[j] for _, j in order[:depth]])
        if knn_k < n:
            assert means[knn_k - 1] == ref.knn_mean(order, targets, knn_k)
        expected = ref.naive_record(order, targets, max_k, outlier_values[i], cutoff)
        assert (prediction, triggered) == (expected["prediction"], expected["outlier_triggered"])
    assert len(held_out) == n


# ---------------------------------------------------------------------------
# differential test of the feature-sum window: tables deep enough that the
# window can cut (n > 2 * ranking depth), against the same naive reference
# ---------------------------------------------------------------------------

# factor: a common factor in every feature, as synth draws its signal
# features, so the window cuts most; collinear: rows on a line along
# (1, ..., 1), where Cauchy-Schwarz holds with equality, or along
# (1, 2, ..., m); tied: four coordinates, so many rows share a sum;
# extreme: cells at the bound (7e49 and ±1e50), whose sums and distances
# dwarf the small cells beside them; subnormal: squares that underflow;
# permuted: a center plus a permutation of one offset, so every row lies
# at the same true distance from the center, the first subject, and
# rounding alone orders them, often unlike ``math.dist``
WINDOW_FAMILIES = ("factor", "collinear", "tied", "extreme", "subnormal", "permuted")


def window_case(family, seed, n, dims, max_k, knn_k, cutoff):
    """An ``engine_cases`` case of ``n`` rows, duplicates among them, and
    five subjects, two of them copies of training rows."""
    rng = random.Random(seed)
    direction = rng.choice([[1.0] * dims, [float(k) for k in range(1, dims + 1)]])
    if family == "permuted":
        center = [round(rng.uniform(-3, 3), 6) for _ in range(dims)]
        offset = [round(rng.uniform(-1, 1), 6) for _ in range(dims)]

    def features():
        if family == "permuted":
            return [c + o for c, o in zip(center, rng.sample(offset, dims))]
        if family == "factor":
            ability = rng.gauss(0, 1)
            return [round(ability + rng.gauss(0, 1), 6) for _ in range(dims)]
        if family == "collinear":
            t = round(rng.uniform(-3, 3), 2)
            return [t * c for c in direction]
        cells = {
            "tied": TIED,
            "extreme": [1e50, -1e50, 7e49, 0.5, 0.0],
            "subnormal": [5e-324, -1e-310, 2.5e-320, 0.0, 1e-300],
        }[family]
        return [rng.choice(cells) for _ in range(dims)]

    copies = rng.randint(1, 8)
    rows = [features() + [rng.randint(2000, 8000) / 10] for _ in range(n - copies)]
    for _ in range(copies):  # a duplicate with a fresh score, anywhere
        twin = rows[rng.randrange(len(rows))][:dims] + [rng.randint(2000, 8000) / 10]
        rows.insert(rng.randrange(len(rows) + 1), twin)
    subjects = [features() for _ in range(3)]
    subjects += [rows[rng.randrange(n)][:dims] for _ in range(2)]
    if family == "permuted":
        subjects[0] = center
    return rows, subjects, max_k, knn_k, cutoff


def beyond_every_sum(case):
    """``case`` with two more subjects, one whose feature sum lies below
    every row's and one whose sum lies above every row's."""
    rows, subjects, *rest = case
    dims = len(subjects[0])
    low = min(min(row[:dims]) for row in rows) - 1.0
    high = max(max(row[:dims]) for row in rows) + 1.0
    return (rows, subjects + [[low] * dims, [high] * dims], *rest)


@st.composite
def window_cases(draw):
    return window_case(
        draw(st.sampled_from(WINDOW_FAMILIES)),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(30, 150)),
        draw(st.integers(1, 6)),
        draw(st.integers(1, 20)),
        draw(st.integers(1, 20)),
        draw(st.sampled_from([-2.0, 0.25])),
    )


@settings(max_examples=60, deadline=None)
@given(window_cases())
@example(window_case("factor", 1, 150, 6, 20, 12, -2.0))
@example(window_case("collinear", 2, 120, 4, 5, 20, 0.25))
@example(window_case("tied", 3, 100, 3, 20, 20, -2.0))
@example(window_case("extreme", 4, 60, 2, 3, 1, 0.25))
@example(window_case("subnormal", 5, 60, 3, 4, 7, -2.0))
@example(window_case("permuted", 14, 90, 5, 20, 12, 0.25))
# 4 * depth == n: the starting block is every row, so the window cuts none
@example(window_case("factor", 6, 80, 3, 20, 12, -2.0))
# 4 * depth + 1 == n: the block leaves out one row
@example(window_case("factor", 8, 81, 3, 20, 12, -2.0))
# subjects whose sums lie below and above every row's: the block is the
# first or the last 4 * depth rows in order of sum
@example(beyond_every_sum(window_case("factor", 9, 150, 6, 20, 12, -2.0)))
@example(beyond_every_sum(window_case("collinear", 10, 120, 4, 5, 20, 0.25)))
def test_window_matches_naive_reference(case):
    check_against_naive(*case)


def window_edge_case(seed):
    """An ``engine_cases`` case whose one subject's nearest row lies along
    (1, ..., 1) from it, where Cauchy-Schwarz holds with equality, at the
    edge of the window W: eight rows at the subject's feature sum, a hair
    farther away, fill the starting block, so only W reaches that row.
    With t0 = 0 the eight lie 1e-13 farther, within W's factor 1 + 1e-9;
    otherwise every cell lies on t0's ulp grid, so the sums of the
    subject and of the row may round against each other, which W's
    1e-12 * (S + |subject sum|) covers."""
    rng = random.Random(seed)
    t0 = rng.choice([0.0, 3e5, 1e6, 7e7])
    dims = rng.randint(2, 7)
    grid = math.ulp(t0) if t0 else 1e-9
    subject = [t0 + rng.randrange(-1000, 1000) * grid if t0 else 0.0 for _ in range(dims)]
    step = rng.randrange(10**5, 10**7) * grid
    nearest = [v + step for v in subject]
    reach = math.dist(nearest, subject) / math.sqrt(2) * (1 + 1e-13)
    if t0:
        reach = math.ceil(reach / grid) * grid
    block = [subject[0] + reach, subject[1] - reach, *subject[2:]]
    rows = [block + [300.0 + i] for i in range(8)] + [nearest + [700.0]]
    return rows, [subject], 1, 1, -2.0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(2)  # t0 = 0: the factor 1 + 1e-9
@example(41)  # t0 = 3e5: both sums round, against each other
def test_window_edge_matches_naive_reference(seed):
    check_against_naive(*window_edge_case(seed))


def test_permuted_rows_misorder_under_math_dist():
    """Sorted by ``math.dist`` alone, the permuted family's nearest rows
    come out of the naive order for some subject, so the family reaches
    the near-ties that only the exact sums order."""
    misordered = 0
    for seed in range(10):
        rows, subjects, max_k, *_ = window_case("permuted", seed, 60, 5, 20, 1, -2.0)
        matrix = [tuple(row[:-1]) for row in rows]
        for subject in subjects:
            by_dist = sorted(range(len(matrix)), key=lambda j: (math.dist(subject, matrix[j]), j))
            misordered += by_dist[:max_k] != [j for _, j in ref.ranked(matrix, subject)[:max_k]]
    assert misordered


def count_dist_calls(monkeypatch, rows, subjects, max_k=20):
    """The ``math.dist`` calls that ``score`` makes for each subject, and
    those that leave-one-out makes in all."""
    calls = [0]
    real = math.dist

    def counting(p, q):
        calls[0] += 1
        return real(p, q)

    monkeypatch.setattr(math, "dist", counting)
    matrix, target = split_rows(rows)
    config = AmmknnConfig(max_k=max_k, outlier_feature="x0")
    per_subject = []
    subjects = [tuple(subject) for subject in subjects]
    for _ in score(matrix, target, subjects, [s[0] for s in subjects], config, max_k):
        per_subject.append(calls[0])
        calls[0] = 0
    loocv(matrix, target, [row[0] for row in matrix], config, 1)
    return per_subject, calls[0]


class TestWindowDistanceCalls:
    """The window spares the rows outside it their ``math.dist`` call, and
    no subject ever costs more calls than there are training rows."""

    @pytest.mark.parametrize("family", WINDOW_FAMILIES)
    def test_never_more_than_n_calls(self, monkeypatch, family):
        rows, subjects, *_ = window_case(family, 11, 150, 4, 20, 1, -2.0)
        per_subject, in_loocv = count_dist_calls(monkeypatch, rows, subjects)
        assert max(per_subject) <= 150
        assert in_loocv <= 150 * 150

    def test_common_factor_rows_mostly_skipped(self, monkeypatch):
        rows = window_case("factor", 12, 300, 12, 20, 1, -2.0)[0]
        subjects = [row[:12] for row in window_case("factor", 13, 100, 12, 20, 1, -2.0)[0]]
        per_subject, in_loocv = count_dist_calls(monkeypatch, rows, subjects)
        assert max(per_subject) <= 300
        assert sum(per_subject) < 0.64 * 300 * len(per_subject)
        assert in_loocv < 0.64 * 300 * 300


class TestExactSums:
    """The ``math.dist`` order stands unless two of a subject's nearest
    approximate distances lie within the margin: a ranking without such a
    near-tie sums no squares, and predict sums each neighbor's once, as it
    reads the distance."""

    def counted(self, monkeypatch):
        calls = [0]
        real = knn._squared

        def counting(subject, row):
            calls[0] += 1
            return real(subject, row)

        monkeypatch.setattr(knn, "_squared", counting)
        return calls

    def factor_rows(self, seed, n):
        """``n`` rows of 12 features that share a common factor, unrounded,
        so no two of a subject's distances come near a tie."""
        rng = random.Random(seed)
        rows = []
        for _ in range(n):
            ability = rng.gauss(0, 1)
            rows.append([ability + rng.gauss(0, 1) for _ in range(12)] + [rng.randint(2000, 8000) / 10])
        return split_rows(rows)

    def test_ranking_alone_sums_nothing(self, monkeypatch):
        calls = self.counted(monkeypatch)
        matrix, target = self.factor_rows(15, 300)
        subjects = self.factor_rows(16, 100)[0]
        config = AmmknnConfig(max_k=20, outlier_feature="x0")
        for _ in score(matrix, target, subjects, [s[0] for s in subjects], config, 20):
            pass
        loocv(matrix, target, [row[0] for row in matrix], config, 12)
        assert calls[0] == 0

    @pytest.mark.parametrize("n", [300, 7])
    def test_predict_sums_each_neighbor_once(self, monkeypatch, n):
        calls = self.counted(monkeypatch)
        matrix, target = self.factor_rows(17, n)
        subjects = self.factor_rows(18, 50)[0]
        config = AmmknnConfig(max_k=20, outlier_feature="x0")
        per_subject = []
        for scored in score(matrix, target, subjects, [0.0] * 50, config, 20):
            predict_record(scored, 0.0)
            per_subject.append(calls[0])
            calls[0] = 0
        assert per_subject == [min(20, n)] * 50


def fixed_k_loocv(rows, k):
    return first_column_loocv(rows, AmmknnConfig(max_k=1, outlier_feature="x"), k)[2]


class TestLoocv:
    def test_constant_targets(self):
        rows = [[float(i), 2.0 * i, 444.0] for i in range(10)]
        config = AmmknnConfig(max_k=5, outlier_feature="a")
        adaptive, _, fixed = first_column_loocv(rows, config, 3)
        assert adaptive == [444.0] * 10
        assert fixed == [444.0] * 10

    def test_three_row_fold_oracle(self):
        rows = [[0.0, 300], [1.0, 400], [10.0, 500]]
        assert fixed_k_loocv(rows, 1) == [400.0, 300.0, 400.0]

    def test_heldout_row_excluded_from_training(self):
        # the held-out row is a zero-distance duplicate of itself; with
        # leakage, k=1 would echo its own extreme target
        rows = [[float(i), 400.0] for i in range(6)] + [[2.0, 800.0]]
        predictions = fixed_k_loocv(rows, 1)
        assert predictions[6] == 400.0
