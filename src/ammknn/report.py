"""Evaluation report assembly and serialization.

Reports are plain dicts with a fixed key order so serialized output is
byte-stable across runs and suitable for golden-file comparison; the
config, bounds, matrices and metrics are written by ``asdict``, in field
order. The undefined metric value serializes as JSON null.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import List, Optional, Sequence

from .config import PipelineConfig
from .evaluation import (
    ConfusionMatrix3,
    TierBoundaries,
    accuracy_3x3,
    classify_tier,
    confusion_2x2,
    confusion_3x3,
    metrics_from_cm,
    prediction_actual_correlation,
    threshold_sweep,
)


def _cm3_dict(cm: ConfusionMatrix3) -> dict:
    return {
        "labels": ["fail", "at_risk", "pass"],
        "counts": [list(row) for row in cm.counts],
        "accuracy": accuracy_3x3(cm) if cm.total else None,
    }


def build_report(
    kind: str,
    model: str,
    config: PipelineConfig,
    subject_ids: Sequence[Optional[str]],
    actual: Sequence[float],
    predicted: Sequence[float],
    predicted_bounds: TierBoundaries,
    outlier_values: Optional[Sequence[Optional[float]]] = None,
    outlier_triggered: Optional[Sequence[bool]] = None,
) -> dict:
    """Assemble the full evaluation bundle for one model run."""
    actual_bounds = config.tiers_actual
    subjects: List[dict] = []
    for i in range(len(actual)):
        entry = {
            "id": subject_ids[i],
            "actual": actual[i],
            "predicted": predicted[i],
            "tier_actual": classify_tier(actual[i], actual_bounds),
            "tier_predicted": classify_tier(predicted[i], predicted_bounds),
        }
        if outlier_values is not None:
            entry["outlier_value"] = outlier_values[i]
        if outlier_triggered is not None:
            entry["outlier_triggered"] = outlier_triggered[i]
        subjects.append(entry)

    cm2 = confusion_2x2(actual, predicted, config.pass_at)
    cm3 = confusion_3x3(actual, predicted, actual_bounds, predicted_bounds)
    sweep = (
        threshold_sweep(actual, predicted, config.sweep_cutoffs, config.pass_at)
        if actual
        else []
    )
    return {
        "kind": kind,
        "model": model,
        "provenance": {"seed": config.seed, "config_sha256": config.sha256()},
        "config": asdict(config),
        "bounds": {"actual": asdict(actual_bounds), "predicted": asdict(predicted_bounds)},
        "n_subjects": len(subjects),
        "subjects": subjects,
        "confusion_2x2": asdict(cm2),
        "metrics": asdict(metrics_from_cm(cm2)) if cm2.total else None,
        "confusion_3x3": _cm3_dict(cm3),
        "prediction_actual_correlation": prediction_actual_correlation(predicted, actual),
        "sweep": [
            {"cutoff": p.cutoff, **asdict(p.matrix), **asdict(p.metrics)}
            for p in sweep
        ],
    }


def dump_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2))
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
