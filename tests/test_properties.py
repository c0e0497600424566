"""Property-based checks of the core numeric invariants."""

import csv
import json
import os
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ammknn.config import AmmknnConfig, PipelineConfig, TierBoundaries
from ammknn.errors import ConfigError, DataError
from ammknn.frame import write_csv
from ammknn.knn import cumulative_means
from ammknn.pipeline import run_loocv, run_predict, run_validate
from ammknn.preprocess import standardize_and_select
from ammknn.report import classify_tier

scores = st.floats(min_value=200.0, max_value=800.0, allow_nan=False)
score_vectors = st.lists(scores, min_size=1, max_size=40)


@given(score_vectors)
def test_cumulative_means_bounded_by_extremes(values):
    means = cumulative_means(values)
    lo, hi = min(values), max(values)
    for m in means:
        assert lo - 1e-9 <= m <= hi + 1e-9
    assert means[0] == values[0]


@given(score_vectors)
def test_min_element_below_every_prefix_mean(values):
    means = cumulative_means(values)
    assert min(values) <= min(means) + 1e-9


@given(scores)
def test_tier_and_binary_agree_on_fail(score):
    bounds = TierBoundaries(350.0, 375.0)
    assert (classify_tier(score, bounds) == "fail") == (score < 350.0)


@st.composite
def small_frames(draw):
    n_rows = draw(st.integers(min_value=3, max_value=12))
    n_cols = draw(st.integers(min_value=1, max_value=4))
    rows = []
    for i in range(n_rows):
        # spread guarantees non-constant columns
        rows.append(
            [draw(st.floats(-100, 100, allow_nan=False)) + i * (j + 1)
             for j in range(n_cols)]
            + [draw(scores)]
        )
    names = [f"c{j}" for j in range(n_cols)] + ["t"]
    return names, rows


def columns(rows):
    return list(zip(*rows))


def no_rows(cols):
    return [c[:0] for c in cols]


@settings(max_examples=40)
@given(small_frames(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_selection_monotone_in_threshold(frame, t1, t2):
    names, rows = frame
    lo, hi = sorted((t1, t2))
    try:
        low_result = standardize_and_select(names, "t", columns(rows), no_rows(columns(rows)), lo)
        high_result = standardize_and_select(names, "t", columns(rows), no_rows(columns(rows)), hi)
    except Exception:
        # constant columns are outside the operation's precondition
        return
    assert set(high_result.kept_columns) <= set(low_result.kept_columns)


@settings(max_examples=40)
@given(small_frames())
def test_standardization_idempotent(frame):
    names, rows = frame
    once = columns(rows)
    try:
        standardize_and_select(names, "t", once, no_rows(once), 0.0)
    except Exception:
        return
    twice = list(once)
    standardize_and_select(names, "t", twice, no_rows(twice), 0.0)
    for u_column, v_column in zip(once[:-1], twice[:-1]):
        for u, v in zip(u_column, v_column):
            assert abs(u - v) < 1e-6


# every finite number, drawing often the bound on every cell read and
# magnitudes beyond it whose squares or running sums would overflow
any_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e50, -1e50, 1e200, -1e200, 1.5e308, -1.5e308]),
)
any_scores = any_finite | scores


@st.composite
def scored_tables(draw):
    """(config, training rows, cohort rows): rows are an id, features
    f0.. and a score ``t``; the outlier feature is configured or left to
    the default."""
    n_features = draw(st.integers(1, 3))
    features = st.floats(-3.0, 3.0, allow_nan=False) | any_finite

    def table(prefix, n):
        return [
            [f"{prefix}{i}", *(draw(features) for _ in range(n_features)), draw(any_scores)]
            for i in range(n)
        ]

    outlier = draw(st.none() | st.integers(0, n_features - 1).map(lambda j: f"f{j}"))
    config = PipelineConfig(
        target_name="t", id_column="id", knn_k=draw(st.integers(1, 3)),
        ammknn=AmmknnConfig(max_k=draw(st.integers(1, 5)), outlier_feature=outlier),
    )
    train = table("r", draw(st.integers(2, 30)))
    return config, [f"f{j}" for j in range(n_features)], train, table("c", draw(st.integers(1, 10)))


def _seed7_with_huge_cell():
    """The seed-7 training table and cohort, in ``scored_tables``' form,
    with the first cohort row's f02 set to 1e200: predict once ranked
    every training row at distance Infinity and wrote that token."""
    golden = Path(__file__).parent / "golden" / "seed7"
    tables = []
    for name in ("train.csv", "validation.csv"):
        with open(golden / name, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        tables.append([[row[0], *map(float, row[1:])] for row in rows])
    names = header[1:-1]
    tables[1][0][1 + names.index("f02")] = 1e200
    config = PipelineConfig(target_name="t", id_column="id", knn_k=12, ammknn=AmmknnConfig(max_k=20))
    return config, names, *tables


def _refuse_constant(token):
    raise ValueError(f"non-finite JSON number {token}")


@settings(max_examples=50, deadline=None)
@given(scored_tables())
@example(_seed7_with_huge_cell())
def test_no_step_writes_a_non_finite_number(case):
    """Each ranking step refuses its input or writes only finite numbers."""
    config, names, train, cohort = case
    with tempfile.TemporaryDirectory() as d:
        header = ["id", *names, "t"]
        train_path, cohort_path = os.path.join(d, "train.csv"), os.path.join(d, "cohort.csv")
        write_csv(header, train_path, train)
        write_csv(header, cohort_path, cohort)
        out = os.path.join(d, "out")
        for step, args in (
            (run_loocv, (train_path,)),
            (run_validate, (train_path, cohort_path)),
            (run_predict, (train_path, cohort_path)),
        ):
            try:
                step(config, *args, out)
            except (ConfigError, DataError):
                continue
        for name in os.listdir(out) if os.path.isdir(out) else ():
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                text = fh.read()
            docs = text.splitlines() if name.endswith(".jsonl") else [text]
            for doc in docs:
                json.loads(doc, parse_constant=_refuse_constant)
