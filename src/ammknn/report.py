"""Risk tiers and the evaluation report: its confusion counts, metrics,
prediction-cutoff sweep, assembly and serialization.

Evaluation convention: a *positive* outcome is an actual failing score,
so sensitivity measures how well failing subjects are detected. Binary
classification passes a score at or above the pass mark. The three risk
tiers are fail (score < fail_below), at_risk (fail_below <= score <=
at_risk_upper) and pass (score > at_risk_upper); both boundary scores
land in the at_risk band, matching the prose reading of the bands rather
than a half-open interval cut.

Each tally is counted once, from the subjects' own entries: the 3x3
matrix from the ``tier_actual`` and ``tier_predicted`` each entry holds,
the 2x2 matrix and every sweep point from the actual and predicted
scores. Reports are plain dicts with a fixed key order so serialized
output is byte-stable across runs and suitable for golden-file
comparison; the config and bounds are written by ``asdict``, in field
order. An undefined metric serializes as JSON null. ``TierBoundaries``
is defined and checked in ``config``, with every stanza.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import List, Optional, Sequence

from .config import PipelineConfig, TierBoundaries
from .frame import _open_out
from .preprocess import _correlations, _spread

TIERS = ("fail", "at_risk", "pass")


def classify_tier(score: float, bounds: TierBoundaries) -> str:
    if score < bounds.fail_below:
        return "fail"
    if score <= bounds.at_risk_upper:
        return "at_risk"
    return "pass"


def prediction_actual_correlation(predicted: Sequence[float], actual: Sequence[float]) -> Optional[float]:
    """Pearson r between predictions and outcomes, two lists of one
    length; None when undefined: fewer than 2 pairs, or a side with zero
    spread (or spreads whose product underflows). Every number lies
    within ±``frame.BOUND``."""
    if len(predicted) < 2:
        return None
    (r,) = _correlations([predicted], _spread(actual))
    return r


def _confusion(outcomes) -> dict:
    """``{tp, fp, tn, fn}`` of paired ``(actual_fail, predicted_fail)`` booleans."""
    tp = fp = tn = fn = 0
    for actual_fail, predicted_fail in outcomes:
        if actual_fail and predicted_fail:
            tp += 1
        elif actual_fail:
            fn += 1
        elif predicted_fail:
            fp += 1
        else:
            tn += 1
    return {"tp": tp, "fp": fp, "tn": tn, "fn": fn}


def _metrics(cm: dict) -> Optional[dict]:
    """``{accuracy, sensitivity, specificity}`` of a 2x2 count, None for an
    undefined ratio; None when the count is empty."""
    tp, fp, tn, fn = cm["tp"], cm["fp"], cm["tn"], cm["fn"]
    total = tp + fp + tn + fn
    if not total:
        return None
    return {
        "accuracy": (tp + tn) / total,
        "sensitivity": tp / (tp + fn) if tp + fn else None,
        "specificity": tn / (tn + fp) if tn + fp else None,
    }


def build_report(
    kind: str,
    model: str,
    config: PipelineConfig,
    subject_ids: Sequence[str],
    actual: Sequence[float],
    predicted: Sequence[float],
    predicted_bounds: TierBoundaries,
    outlier_values: Sequence[float],
    outlier_triggered: Optional[Sequence[bool]] = None,
) -> dict:
    """Assemble the full evaluation bundle for one model run.

    The two tier axes take separate boundary sets because
    cohort-validation runs cut predicted scores at wider bands than
    actual scores. A prediction passes a sweep cutoff only when it is
    strictly above it, so raising the cutoff flags more subjects as
    failing while actuals stay at the pass mark: the sweep shows how many
    extra true failures each step of that adjustment catches, and at what
    false positive cost.
    """
    actual_bounds = config.tiers_actual
    subjects: List[dict] = []
    counts3 = {(a, p): 0 for a in TIERS for p in TIERS}
    for i in range(len(actual)):
        entry = {
            "id": subject_ids[i],
            "actual": actual[i],
            "predicted": predicted[i],
            "tier_actual": classify_tier(actual[i], actual_bounds),
            "tier_predicted": classify_tier(predicted[i], predicted_bounds),
            "outlier_value": outlier_values[i],
        }
        counts3[entry["tier_actual"], entry["tier_predicted"]] += 1
        if outlier_triggered is not None:
            entry["outlier_triggered"] = outlier_triggered[i]
        subjects.append(entry)

    pass_at = config.pass_at
    cm2 = _confusion((a < pass_at, p < pass_at) for a, p in zip(actual, predicted))
    sweep = []
    for c in (config.sweep_cutoffs if actual else ()):  # an empty cohort has no sweep
        cm = _confusion((a < pass_at, not (p > c)) for a, p in zip(actual, predicted))
        sweep.append({"cutoff": c, **cm, **_metrics(cm)})
    diagonal = sum(counts3[t, t] for t in TIERS)
    return {
        "kind": kind,
        "model": model,
        "provenance": {"seed": config.seed, "config_sha256": config.sha256()},
        "config": asdict(config),
        "bounds": {"actual": asdict(actual_bounds), "predicted": asdict(predicted_bounds)},
        "n_subjects": len(subjects),
        "subjects": subjects,
        "confusion_2x2": cm2,
        "metrics": _metrics(cm2),
        "confusion_3x3": {
            "labels": list(TIERS),
            "counts": [[counts3[a, p] for p in TIERS] for a in TIERS],
            "accuracy": diagonal / len(subjects) if subjects else None,
        },
        "prediction_actual_correlation": prediction_actual_correlation(predicted, actual),
        "sweep": sweep,
    }


def dump_json(obj, path) -> None:
    with _open_out(path) as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def format_metrics_table(report: dict) -> str:
    """Small fixed-width summary for terminal output."""
    cm = report["confusion_2x2"]
    m = report["metrics"] or {}

    def fmt(v):
        return "undefined" if v is None else f"{v:.4f}"

    lines = [
        f"model: {report['model']}  ({report['kind']}, n={report['n_subjects']})",
        f"  2x2: tp={cm['tp']} fp={cm['fp']} tn={cm['tn']} fn={cm['fn']}",
        "  accuracy={} sensitivity={} specificity={}".format(
            fmt(m.get("accuracy")), fmt(m.get("sensitivity")), fmt(m.get("specificity"))
        ),
        "  3x3 (rows=actual fail/at_risk/pass, cols=predicted):",
    ]
    for row in report["confusion_3x3"]["counts"]:
        lines.append("    " + " ".join(f"{c:5d}" for c in row))
    acc3 = report["confusion_3x3"]["accuracy"]
    lines.append(f"  3x3 accuracy={fmt(acc3)}")
    lines.append("  sweep (cutoff: tp fp tn fn):")
    for p in report["sweep"]:
        lines.append(
            f"    {p['cutoff']:g}: {p['tp']} {p['fp']} {p['tn']} {p['fn']}"
        )
    return "\n".join(lines)
