import io
import json
import math
import random
import tracemalloc
from dataclasses import asdict
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ammknn.config import AggregationSpec, PipelineConfig, TierBoundaries
from ammknn.errors import ConfigError
from ammknn.report import _BLOCK, build_report, classify_tier, dump_json, write_json


def report_of(actual, predicted, predicted_bounds=None, **config):
    """The loocv-style report of paired actual and predicted scores."""
    config = PipelineConfig(target_name="t", id_column="id", **config)
    return build_report(
        "loocv", "m", config, [str(i) for i in range(len(actual))], actual, predicted,
        predicted_bounds or config.tiers_predicted, [0.0] * len(actual),
    )


class TestClassify:
    def test_binary_boundary(self):
        # a score exactly at the pass mark passes
        scores = [350.0, 349.0, 800.0]
        cm = report_of(scores, scores, pass_at=350.0)["confusion_2x2"]
        assert (cm["tp"], cm["tn"]) == (1, 2)

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


def binary_pairs(tp, fp, tn, fn):
    """Score pairs whose 2x2 matrix at the pass mark of 350 is the given one."""
    fail, ok = 300.0, 400.0
    return [(fail, fail)] * tp + [(ok, fail)] * fp + [(ok, ok)] * tn + [(fail, ok)] * fn


def tier_pairs(counts):
    """Score pairs whose 3x3 matrix at the 350/375 tiers, rows actual and
    columns predicted fail/at_risk/pass, is ``counts``."""
    scores = (300.0, 360.0, 400.0)
    return [
        (scores[i], scores[j])
        for i, row in enumerate(counts) for j, n in enumerate(row) for _ in range(n)
    ]


def report_of_pairs(pairs, **config):
    return report_of([a for a, _ in pairs], [p for _, p in pairs], **config)


class TestConfusion2x2:
    def test_all_correct_passes(self):
        actual = [400.0] * 5
        cm = report_of(actual, actual)["confusion_2x2"]
        assert (cm["tp"], cm["fp"], cm["fn"], cm["tn"]) == (0, 0, 0, 5)

    def test_diagonal_when_predictions_equal_actual(self):
        rng = random.Random(3)
        actual = [float(rng.randint(200, 800)) for _ in range(50)]
        cm = report_of(actual, actual)["confusion_2x2"]
        assert cm["fp"] == 0 and cm["fn"] == 0

    def test_marginals(self):
        rng = random.Random(4)
        actual = [float(rng.randint(200, 800)) for _ in range(100)]
        predicted = [float(rng.randint(200, 800)) for _ in range(100)]
        cm = report_of(actual, predicted)["confusion_2x2"]
        assert cm["tp"] + cm["fn"] == sum(1 for a in actual if a < 350)
        assert cm["fp"] + cm["tn"] == sum(1 for a in actual if a >= 350)
        assert sum(cm.values()) == 100


class TestConfusion3x3:
    def test_perfect_predictions_diagonal(self):
        actual = [300.0, 360.0, 500.0, 290.0, 375.0, 400.0]
        matrix = report_of(actual, actual, TierBoundaries())["confusion_3x3"]
        assert matrix["counts"] == [[2, 0, 0], [0, 2, 0], [0, 0, 2]]

    def test_dual_boundary_sets(self):
        actual = [360.0]
        predicted = [380.0]
        narrow = TierBoundaries(350, 375)
        wide = TierBoundaries(350, 385)
        cm_narrow = report_of(actual, predicted, narrow, tiers_actual=narrow)["confusion_3x3"]
        cm_wide = report_of(actual, predicted, wide, tiers_actual=narrow)["confusion_3x3"]
        assert cm_narrow["counts"][1][2] == 1  # 380 > 375: predicted pass
        assert cm_wide["counts"][1][1] == 1  # 380 <= 385: predicted at_risk

    def test_collapsing_reproduces_binary_matrix(self):
        rng = random.Random(8)
        actual = [float(rng.randint(200, 800)) for _ in range(200)]
        predicted = [rng.uniform(200, 800) for _ in range(200)]
        bounds = TierBoundaries(350, 375)
        report = report_of(actual, predicted, bounds, tiers_actual=bounds, pass_at=350.0)
        c = report["confusion_3x3"]["counts"]
        cm2 = report["confusion_2x2"]
        assert cm2["tp"] == c[0][0]
        assert cm2["fn"] == c[0][1] + c[0][2]
        assert cm2["fp"] == c[1][0] + c[2][0]
        assert cm2["tn"] == c[1][1] + c[1][2] + c[2][1] + c[2][2]


class TestMetrics:
    def test_no_positives_sensitivity_undefined(self):
        m = report_of_pairs(binary_pairs(tp=0, fp=0, tn=20, fn=0))["metrics"]
        assert m["accuracy"] == 1.0
        assert m["specificity"] == 1.0
        assert m["sensitivity"] is None

    def test_identities_vs_integer_arithmetic(self):
        rng = random.Random(12)
        for _ in range(50):
            tp, fp, tn, fn = (rng.randint(0, 50) for _ in range(4))
            if tp + fp + tn + fn == 0:
                continue
            m = report_of_pairs(binary_pairs(tp, fp, tn, fn))["metrics"]
            assert abs(m["accuracy"] - (tp + tn) / (tp + fp + tn + fn)) < 1e-12
            if tp + fn:
                assert abs(m["sensitivity"] - tp / (tp + fn)) < 1e-12
            if tn + fp:
                assert abs(m["specificity"] - tn / (tn + fp)) < 1e-12

    def test_empty_matrix(self):
        # an empty cohort has no metrics; they serialize as JSON null
        report = report_of([], [])
        assert report["confusion_2x2"] == {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
        assert report["metrics"] is None


class TestAccuracy3x3:
    def test_diagonal_only(self):
        matrix = report_of_pairs(tier_pairs(((3, 0, 0), (0, 4, 0), (0, 0, 5))))["confusion_3x3"]
        assert matrix["accuracy"] == 1.0

    def test_uniform_ones(self):
        matrix = report_of_pairs(tier_pairs(((1, 1, 1), (1, 1, 1), (1, 1, 1))))["confusion_3x3"]
        assert matrix["accuracy"] == pytest.approx(1 / 3)

    def test_empty(self):
        matrix = report_of([], [])["confusion_3x3"]
        assert matrix["counts"] == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
        assert matrix["accuracy"] is None


DEFAULT_CUTOFFS = (349.0, 390.0, 400.0, 410.0, 420.0)


class TestThresholdSweep:
    def test_cutoff_349_equals_unadjusted(self):
        rng = random.Random(21)
        actual = [float(rng.randint(200, 800)) for _ in range(100)]
        predicted = [float(rng.randint(200, 800)) for _ in range(100)]
        report = report_of(actual, predicted, pass_at=350.0, sweep_cutoffs=(349.0,))
        [point] = report["sweep"]
        assert {k: point[k] for k in ("tp", "fp", "tn", "fn")} == report["confusion_2x2"]

    def test_tp_up_tn_down_across_cutoffs(self):
        rng = random.Random(22)
        for _ in range(20):
            actual = [float(rng.randint(200, 800)) for _ in range(60)]
            predicted = [rng.uniform(200, 800) for _ in range(60)]
            points = report_of(actual, predicted, pass_at=350.0, sweep_cutoffs=DEFAULT_CUTOFFS)["sweep"]
            tps = [p["tp"] for p in points]
            tns = [p["tn"] for p in points]
            assert tps == sorted(tps)
            assert tns == sorted(tns, reverse=True)

    def test_cutoff_below_everything(self):
        actual = [300.0, 400.0, 320.0]
        predicted = [500.0, 500.0, 500.0]
        [point] = report_of(actual, predicted, pass_at=350.0, sweep_cutoffs=(210.0,))["sweep"]
        assert point["tp"] == 0
        assert point["fn"] == 2


# ---------------------------------------------------------------------------
# the report's tallies against a naive per-subject recount
# ---------------------------------------------------------------------------

PASS_MARKS = [350.0, 360.0]
ACTUAL_BOUNDS = [(350.0, 375.0), (340.0, 390.0)]
# the validation bands cut predictions wider than actuals
PREDICTED_BOUNDS = [(350.0, 375.0), (350.0, 385.0)]
CUTOFFS = [349.0, 350.0, 390.0, 400.0, 410.0, 420.0]
EDGES = sorted({
    *PASS_MARKS, *CUTOFFS,
    *(b for pair in ACTUAL_BOUNDS + PREDICTED_BOUNDS for b in pair),
})
# a score on each edge, one ulp to either side of it, or anywhere
SCORES = st.one_of(
    st.sampled_from(EDGES),
    st.sampled_from(EDGES).map(lambda e: math.nextafter(e, -math.inf)),
    st.sampled_from(EDGES).map(lambda e: math.nextafter(e, math.inf)),
    st.floats(200.0, 800.0),
)


def naive_tier(score, fail_below, at_risk_upper):
    return 0 if score < fail_below else (1 if score <= at_risk_upper else 2)


def naive_counts(flags):
    """{tp, fp, tn, fn} of (actually failed, flagged as failing) pairs."""
    return {
        "tp": sum(1 for failed, flagged in flags if failed and flagged),
        "fp": sum(1 for failed, flagged in flags if not failed and flagged),
        "tn": sum(1 for failed, flagged in flags if not failed and not flagged),
        "fn": sum(1 for failed, flagged in flags if failed and not flagged),
    }


def naive_metrics(c):
    def ratio(num, den):
        return float(Fraction(num, den)) if den else None

    total = c["tp"] + c["fp"] + c["tn"] + c["fn"]
    if not total:
        return None
    return {
        "accuracy": ratio(c["tp"] + c["tn"], total),
        "sensitivity": ratio(c["tp"], c["tp"] + c["fn"]),
        "specificity": ratio(c["tn"], c["tn"] + c["fp"]),
    }


@given(
    st.lists(st.tuples(SCORES, SCORES), max_size=30),
    st.sampled_from(PASS_MARKS),
    st.sampled_from(ACTUAL_BOUNDS),
    st.sampled_from(PREDICTED_BOUNDS),
    st.lists(st.sampled_from(CUTOFFS), min_size=1, max_size=6),
)
@example([], 350.0, ACTUAL_BOUNDS[0], PREDICTED_BOUNDS[1], CUTOFFS)
@example([(e, e) for e in EDGES], 350.0, ACTUAL_BOUNDS[0], PREDICTED_BOUNDS[1], CUTOFFS)
def test_tallies_match_a_naive_recount(pairs, pass_at, actual_bounds, predicted_bounds, cutoffs):
    actual = [a for a, _ in pairs]
    predicted = [p for _, p in pairs]
    report = report_of(
        actual, predicted, TierBoundaries(*predicted_bounds), pass_at=pass_at,
        tiers_actual=TierBoundaries(*actual_bounds), sweep_cutoffs=tuple(cutoffs),
    )

    tiers = [
        (naive_tier(a, *actual_bounds), naive_tier(p, *predicted_bounds)) for a, p in pairs
    ]
    labels = ["fail", "at_risk", "pass"]
    assert [(labels.index(s["tier_actual"]), labels.index(s["tier_predicted"]))
            for s in report["subjects"]] == tiers
    counts = [[tiers.count((i, j)) for j in range(3)] for i in range(3)]
    assert report["confusion_3x3"] == {
        "labels": labels,
        "counts": counts,
        "accuracy": float(Fraction(sum(counts[i][i] for i in range(3)), len(pairs))) if pairs else None,
    }

    binary = naive_counts([(a < pass_at, p < pass_at) for a, p in pairs])
    assert report["confusion_2x2"] == binary
    assert report["metrics"] == naive_metrics(binary)

    expected_sweep = []
    for cutoff in cutoffs if pairs else []:
        point = naive_counts([(a < pass_at, p <= cutoff) for a, p in pairs])
        expected_sweep.append({"cutoff": cutoff, **point, **naive_metrics(point)})
    assert report["sweep"] == expected_sweep


# ---------------------------------------------------------------------------
# the JSON writer against json.dumps(indent=2)
# ---------------------------------------------------------------------------

# text the encoder escapes, and text like the joint between two dicts of a run
TEXT = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\n", "\r\n", "},", "},\n      {", "},\\n    {", "é", "☃", "𝄞"]),
)
SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([-0.0, 1e300, 5e-324]), TEXT,
)
FLAT_DICT = st.dictionaries(TEXT, SCALAR, min_size=1, max_size=4)
# runs of flat dicts around the block length, as lists and as tuples
RUN = st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]).flatmap(
    lambda n: st.lists(FLAT_DICT, min_size=n, max_size=n)
)
DOCUMENTS = st.recursive(
    st.one_of(SCALAR, RUN, RUN.map(tuple)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    ),
    max_leaves=12,
)
LIVE_REPORT = build_report(
    "loocv", "m", PipelineConfig(target_name="t", id_column="id"),
    [f"S{i}" for i in range(40)], [300.0 + 7.5 * i for i in range(40)],
    [310.0 + 7.25 * i for i in range(40)], TierBoundaries(350.0, 385.0),
    [-2.5 + 0.125 * i for i in range(40)], outlier_triggered=[i % 3 == 0 for i in range(40)],
)
# asdict keeps the config's tuples, which must come out as arrays at their depth
CONFIG = asdict(PipelineConfig(
    target_name="t", id_column="id", include_columns=("a", "b", "c"),
    aggregations=(AggregationSpec("g", ("a", "b")), AggregationSpec("h", ("c",))),
))


@given(DOCUMENTS)
@example(LIVE_REPORT)
@example(CONFIG)
@example({"config": CONFIG, "subjects": LIVE_REPORT["subjects"], "sweep": []})
def test_writer_matches_json_dumps(document):
    fh = io.StringIO()
    write_json(document, fh)
    assert fh.getvalue() == json.dumps(document, indent=2) + "\n"


def test_writer_streams(tmp_path):
    # a run of dicts is written one block at a time, so a report of 10x the
    # subjects leaves the peak where it was, and no higher than json.dump's;
    # joining the whole report into one string raised it about 8x
    def report(n):
        return report_of([300.0 + i % 500 for i in range(n)], [310.0 + i % 490 for i in range(n)])

    def peak(dump, document):
        tracemalloc.start()
        try:
            dump(document, tmp_path / "report.json")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def indented(document, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2)

    small, large = report(200), report(2000)
    for dump in (dump_json, indented):  # one-time costs
        dump(small, tmp_path / "warm-up.json")
    assert peak(dump_json, large) <= 1.1 * peak(dump_json, small)
    assert peak(dump_json, large) <= peak(indented, large)
