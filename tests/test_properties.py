"""Property-based checks of the core numeric invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from ammknn import (
    TierBoundaries,
    classify_tier,
    cumulative_means,
    select_by_correlation,
    standardize_joint,
)

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


@settings(max_examples=40)
@given(small_frames(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_selection_monotone_in_threshold(frame, t1, t2):
    names, rows = frame
    lo, hi = sorted((t1, t2))
    try:
        low_result = select_by_correlation(names, "t", columns(rows), lo)
        high_result = select_by_correlation(names, "t", columns(rows), hi)
    except Exception:
        # constant columns are outside the operation's precondition
        return
    assert set(high_result.kept_columns) <= set(low_result.kept_columns)


@settings(max_examples=40)
@given(small_frames())
def test_standardize_joint_idempotent(frame):
    names, rows = frame
    once = columns(rows)
    try:
        standardize_joint(names, "t", once)
    except Exception:
        return
    twice = list(once)
    standardize_joint(names, "t", twice)
    for u_column, v_column in zip(once[:-1], twice[:-1]):
        for u, v in zip(u_column, v_column):
            assert abs(u - v) < 1e-6
