"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines alongside the pytest verdicts.
"""

import functools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from ammknn.cli import main
from ammknn.config import AmmknnConfig, PipelineConfig, load_config
from ammknn.knn import score
from ammknn.pipeline import (
    LOOCV_AMMKNN_JSON,
    LOOCV_KNN_JSON,
    ROSTER_JSON,
    SELECTION_JSON,
    SYNTH_CSV,
    TRAIN_CSV,
    VALIDATE_JSON,
    VALIDATION_CSV,
    run_loocv,
    run_prepare,
    run_synth,
    run_validate,
)
from ammknn.preprocess import standardize_and_select
from ammknn.report import build_report
from make_golden import workflow
from perfbench_module import load_perfbench

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {name}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {name}")

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# 1. metric arithmetic against reference confusion matrices
# ---------------------------------------------------------------------------

CONFIG = PipelineConfig(target_name="t", id_column="id")  # pass at 350, tiers 350/375, validation 350/385


def _report(pairs, kind="loocv"):
    """The report on (actual, predicted) score pairs, as run_loocv builds
    it, or of ``kind`` "validation" as run_validate does."""
    rows = [(str(i), a, p, 0.0, None) for i, (a, p) in enumerate(pairs)]
    return build_report(kind, "m", CONFIG, rows)


def _binary_pairs(tp, fp, tn, fn):
    """Score pairs whose 2x2 matrix at the pass mark of 350 is the given one."""
    fail, ok = 300.0, 400.0
    return [(fail, fail)] * tp + [(ok, fail)] * fp + [(ok, ok)] * tn + [(fail, ok)] * fn


@criterion(1, "metric arithmetic matches reference values")
def test_criterion_1_metric_arithmetic():
    report = _report(_binary_pairs(tp=9, fp=9, tn=159, fn=4))
    assert report["confusion_2x2"] == {"tp": 9, "fp": 9, "tn": 159, "fn": 4}
    m = report["metrics"]
    assert abs(m["accuracy"] - 0.9281768) < 1e-6
    assert abs(m["sensitivity"] - 0.6923077) < 1e-6
    assert abs(m["specificity"] - 0.9464286) < 1e-6

    m = _report(_binary_pairs(tp=8, fp=11, tn=157, fn=5))["metrics"]
    assert abs(m["accuracy"] - 0.9116022) < 1e-6
    assert abs(m["sensitivity"] - 0.6153846) < 1e-6
    assert abs(m["specificity"] - 0.9345238) < 1e-6

    m = _report(_binary_pairs(tp=10, fp=25, tn=143, fn=3))["metrics"]
    assert round(m["accuracy"], 2) == 0.85
    assert round(m["sensitivity"], 2) == 0.77
    assert round(m["specificity"], 2) == 0.85


# ---------------------------------------------------------------------------
# 2. three-tier accuracy arithmetic against reference matrices
# ---------------------------------------------------------------------------


def _tier_pairs(counts, at_risk_predicted=360.0):
    """Score pairs whose 3x3 matrix, rows actual and columns predicted
    fail/at_risk/pass, is ``counts``."""
    actual = (300.0, 360.0, 400.0)
    predicted = (300.0, at_risk_predicted, 400.0)
    return [
        (actual[i], predicted[j])
        for i, row in enumerate(counts) for j, n in enumerate(row) for _ in range(n)
    ]


@criterion(2, "3x3 accuracy matches reference values")
def test_criterion_2_three_tier_accuracy():
    counts = ((9, 2, 2), (1, 3, 11), (8, 21, 124))
    matrix = _report(_tier_pairs(counts))["confusion_3x3"]
    assert matrix["counts"] == [list(row) for row in counts]
    assert sum(map(sum, matrix["counts"])) == 181
    assert matrix["accuracy"] == 136 / 181
    assert round(matrix["accuracy"], 2) == 0.75

    # reference cohort-validation matrix: 42 scored subjects (one dropped
    # for incomplete data), diagonal (2, 2, 26), row sums (6, 5, 31); its
    # predictions are cut at the wider 350/385 bands, so 380 is at risk
    counts = ((2, 2, 2), (0, 2, 3), (3, 2, 26))
    pairs = _tier_pairs(counts, at_risk_predicted=380.0)
    matrix = _report(pairs, kind="validation")["confusion_3x3"]
    assert matrix["counts"] == [list(row) for row in counts]
    assert sum(map(sum, matrix["counts"])) == 42
    assert [matrix["counts"][i][i] for i in range(3)] == [2, 2, 26]
    assert list(map(sum, matrix["counts"])) == [6, 5, 31]
    assert matrix["accuracy"] == 30 / 42


# ---------------------------------------------------------------------------
# 3. min-over-k oracle equivalence, bit-exact, 1000 instances
# ---------------------------------------------------------------------------

# the naive method the benchmark checks against too: sort all rows, then
# average prefixes left to right
ref = load_perfbench("reference")


@criterion(3, "adaptive prediction equals brute-force min over k, bit-exact")
def test_criterion_3_min_over_k_equivalence():
    start = time.monotonic()
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(5, 60)
        dims = rng.randint(1, 8)
        max_k = rng.randint(1, 20)
        rows = [
            # one-decimal scores: prefix sums round, so only left-to-right
            # sums agree bit for bit
            [rng.uniform(-4, 4) for _ in range(dims)] + [rng.randint(2000, 8000) / 10]
            for _ in range(n)
        ]
        matrix, targets = _split(rows)
        subject = [rng.uniform(-4, 4) for _ in range(dims)]
        config = AmmknnConfig(max_k=max_k, outlier_feature="outlier")
        [(*_, prediction, triggered, _)] = score(matrix, targets, [subject], [0.0], config, max_k)
        assert not triggered
        order = ref.ranked(matrix, subject)
        assert prediction == min(ref.prefix_means([targets[j] for _, j in order[:max_k]]))
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# 4. LOOCV leakage suite on 100 random frames
# ---------------------------------------------------------------------------


def _split(rows):
    """``(matrix, targets)`` of rows whose last cell is the target."""
    return [tuple(row[:-1]) for row in rows], [row[-1] for row in rows]


def _loocv(rows, config, depth):
    """Each row of ``rows`` (features, then the target) scored held out
    of its own ranking, ``depth`` deep, x0 (the first column) being the
    outlier feature, as run_loocv scores them."""
    matrix, targets = _split(rows)
    outliers = [row[0] for row in rows]
    return list(score(matrix, targets, matrix, outliers, config, depth, held_out=True))


def _knn_model(rows, k):
    """Fixed-k LOOCV predictions, as run_loocv reads them."""
    return [means[k - 1] for _, _, means, *_ in _loocv(rows, AmmknnConfig(max_k=1), k)]


def _ammknn_model(rows, max_k):
    """Adaptive LOOCV predictions, as run_loocv reads them."""
    return [scored[3] for scored in _loocv(rows, AmmknnConfig(max_k=max_k), max_k)]


@criterion(4, "LOOCV holds out the subject row (no self-match leakage)")
def test_criterion_4_loocv_leakage():
    start = time.monotonic()
    rng = random.Random(515)
    for trial in range(100):
        n = rng.randint(4, 12)
        dims = rng.randint(1, 3)

        # constant-target property: every fold must predict the constant
        constant = float(rng.randint(200, 800))
        rows = [[rng.uniform(-3, 3) for _ in range(dims)] + [constant] for _ in range(n)]
        k = rng.randint(1, n - 1)
        assert _knn_model(rows, k) == [constant] * n
        assert _ammknn_model(rows, rng.randint(1, 20)) == [constant] * n

        # unique-extreme-row property: the held-out row duplicates cannot
        # self-match, so its k=1 prediction is its nearest other neighbor
        base = [[rng.uniform(-1, 1) for _ in range(dims)] + [400.0] for _ in range(n)]
        extreme = [100.0 * (j + 1) for j in range(dims)] + [800.0]
        predictions = _knn_model(base + [extreme], 1)
        assert predictions[-1] == 400.0
        assert predictions[-1] != 800.0
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# 5. standardization gate
# ---------------------------------------------------------------------------


@criterion(5, "joint standardization normalizes pooled rows and differs from separate")
def test_criterion_5_standardization():
    rng = random.Random(77)
    names = ["a", "b", "t"]
    # the target varies: the one pass refuses a constant one
    train = [[rng.gauss(10, 3), rng.gauss(-4, 0.5), rng.uniform(300, 500)] for _ in range(60)]
    extra = [[rng.gauss(16, 3), rng.gauss(-2, 0.5), rng.uniform(300, 500)] for _ in range(20)]
    train_cols, extra_cols = list(zip(*train)), list(zip(*extra))
    standardize_and_select(names, "t", train_cols, extra_cols, 0.0)
    for j in (0, 1):
        pooled = list(train_cols[j]) + list(extra_cols[j])
        n = len(pooled)
        mean = sum(pooled) / n
        sd = (sum((v - mean) ** 2 for v in pooled) / (n - 1)) ** 0.5
        assert abs(mean) < 1e-9
        assert abs(sd - 1.0) < 1e-9

    # the shifted validation distribution must land differently when
    # standardized jointly vs on its own
    extra_alone = list(zip(*extra))
    standardize_and_select(names, "t", extra_alone, [() for _ in names], 0.0)
    deltas = [abs(u - v) for u, v in zip(extra_cols[0], extra_alone[0])]
    assert max(deltas) > 0.5


# ---------------------------------------------------------------------------
# 6. selection monotonicity and designed-correlation audit
# ---------------------------------------------------------------------------


def _designed_columns():
    import math
    import statistics

    n = 8
    y = [float(i) for i in range(n)]
    yc = [v - statistics.mean(y) for v in y]
    ynorm = math.sqrt(sum(v * v for v in yc))
    yhat = [v / ynorm for v in yc]
    z = [1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0]
    zhat = [v / math.sqrt(8.0) for v in z]
    columns = {
        f"r{int(r * 100):02d}": [r * a + math.sqrt(1 - r * r) * b for a, b in zip(yhat, zhat)]
        for r in (0.05, 0.15, 0.25)
    }
    return {**columns, "t": y}


@criterion(6, "selection shrinks monotonically and keeps exactly the strong column")
def test_criterion_6_selection():
    columns = _designed_columns()
    kept_sets = []
    for threshold in (0.0, 0.1, 0.19, 0.5):
        result = standardize_and_select(
            list(columns), "t", list(columns.values()), [[] for _ in columns], threshold
        )
        kept_sets.append(set(result.kept_columns))
    for lower, higher in zip(kept_sets, kept_sets[1:]):
        assert higher <= lower

    result = standardize_and_select(list(columns), "t", list(columns.values()), [[] for _ in columns], 0.19)
    assert result.kept_columns == ("r25", "t")
    assert sorted(label for label, _ in result.dropped_columns) == ["r05", "r15"]


# ---------------------------------------------------------------------------
# 7. sweep semantics on 100 random prediction vectors
# ---------------------------------------------------------------------------


@criterion(7, "sweep reproduces the unadjusted matrix at 349 and moves monotonically")
def test_criterion_7_sweep_semantics():
    rng = random.Random(31)
    assert CONFIG.sweep_cutoffs == (349.0, 390.0, 400.0, 410.0, 420.0)
    for _ in range(100):
        n = rng.randint(5, 80)
        actual = [float(rng.randint(200, 800)) for _ in range(n)]
        predicted = [float(rng.randint(200, 800)) for _ in range(n)]
        report = _report(list(zip(actual, predicted)))
        points = report["sweep"]
        assert [p["cutoff"] for p in points] == list(CONFIG.sweep_cutoffs)
        assert {k: points[0][k] for k in ("tp", "fp", "tn", "fn")} == report["confusion_2x2"]
        tps = [p["tp"] for p in points]
        tns = [p["tn"] for p in points]
        assert tps == sorted(tps)
        assert tns == sorted(tns, reverse=True)


# ---------------------------------------------------------------------------
# 8. end-to-end synthetic pipeline
# ---------------------------------------------------------------------------


def _standard_cohort_run(seed, out_dir):
    spec_doc = {
        "seed": seed,
        "n_rows": 224,
        "n_features": 20,
        "signal_features": 12,
        "noise_sd": 1.0,
        "fail_rate_hint": 0.07,
        "split": {"train_fraction": 0.808, "seed": seed},
    }
    synth = run_synth(spec_doc, out_dir)
    config = load_config(os.path.join(GOLDEN_DIR, "config.json"))
    prepare = run_prepare(config, synth["path"], out_dir)
    assert (prepare["train_rows"], prepare["validation_rows"]) == (181, 43)
    reports = run_loocv(config, os.path.join(out_dir, TRAIN_CSV), out_dir)
    return config, reports


@criterion(8, "end-to-end synthetic pipeline: runtime, sensitivity margin, determinism")
def test_criterion_8_end_to_end(tmp_path):
    start = time.monotonic()
    config, reports = _standard_cohort_run(7, str(tmp_path / "seed7"))
    run_validate(
        config,
        str(tmp_path / "seed7" / TRAIN_CSV),
        str(tmp_path / "seed7" / VALIDATION_CSV),
        str(tmp_path / "seed7"),
    )
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"full run took {elapsed:.1f}s"

    wins = 0
    for seed in range(1, 11):
        if seed == 7:
            seed_reports = reports
        else:
            _, seed_reports = _standard_cohort_run(seed, str(tmp_path / f"seed{seed}"))
        adaptive = seed_reports["ammknn"]["metrics"]["sensitivity"]
        fixed = seed_reports["knn"]["metrics"]["sensitivity"]
        if adaptive is not None and (fixed is None or adaptive >= fixed):
            wins += 1
    assert wins >= 8, f"adaptive sensitivity won only {wins}/10 seeds"

    # byte-identical reports across repeated runs
    _, again = _standard_cohort_run(7, str(tmp_path / "seed7_again"))
    first = (tmp_path / "seed7" / LOOCV_AMMKNN_JSON).read_bytes()
    second = (tmp_path / "seed7_again" / LOOCV_AMMKNN_JSON).read_bytes()
    assert first == second


# ---------------------------------------------------------------------------
# 9. golden files
# ---------------------------------------------------------------------------

GOLDEN_FILES = (
    SYNTH_CSV,
    TRAIN_CSV,
    VALIDATION_CSV,
    SELECTION_JSON,
    LOOCV_AMMKNN_JSON,
    LOOCV_KNN_JSON,
    VALIDATE_JSON,
    ROSTER_JSON,
    "scatter.svg",
    "packrat_scatter.svg",
)


@criterion(9, "seed-7 outputs match committed fixtures byte-for-byte")
def test_criterion_9_golden_files(tmp_path):
    out = str(tmp_path / "regen")
    spec_path = os.path.join(GOLDEN_DIR, "spec.json")
    config_path = os.path.join(GOLDEN_DIR, "config.json")
    for argv in workflow(spec_path, config_path, out):
        assert main(argv) == 0, f"step {argv[0]} failed"

    seed7 = Path(GOLDEN_DIR) / "seed7"
    for name in GOLDEN_FILES:
        fresh = Path(out, name).read_bytes()
        committed = (seed7 / name).read_bytes()
        assert fresh == committed, f"fixture drift in {name}"

    report = json.loads((seed7 / VALIDATE_JSON).read_text())
    scatter = (seed7 / "scatter.svg").read_text()
    packrat = (seed7 / "packrat_scatter.svg").read_text()
    assert scatter.count('class="pt"') == report["n_subjects"] == 43
    assert scatter.count('class="ref"') == 4
    assert packrat.count('class="pt"') == 43
    assert packrat.count('class="ref"') == 1


def test_make_golden_writes_the_committed_spec_and_config():
    # the script puts src/ on sys.path itself, so it runs as its docstring
    # says, from the repository root with no PYTHONPATH
    script = os.path.join(os.path.dirname(__file__), "make_golden.py")
    probe = (
        "import json, runpy, sys; found = runpy.run_path(sys.argv[1]); "
        "print(json.dumps([found['SPEC'], found['CONFIG']]))"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "-c", probe, script],
        capture_output=True, text=True, env=env, timeout=60,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert result.returncode == 0, result.stderr
    spec, config = json.loads(result.stdout)
    with open(os.path.join(GOLDEN_DIR, "spec.json"), encoding="utf-8") as fh:
        assert spec == json.load(fh)
    with open(os.path.join(GOLDEN_DIR, "config.json"), encoding="utf-8") as fh:
        assert config == json.load(fh)
