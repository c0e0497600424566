"""Self-contained SVG scatter plots for evaluation reports.

Two kinds: 'scatter' puts predicted score on x and actual score on y with
reference lines at the fail and at-risk bounds on both axes (4 lines);
'packrat_scatter' puts the subject's outlier-feature value on x against
the actual score, with a single horizontal fail line. Output is plain
deterministic SVG text, so plots can be golden-file tested.
"""

from __future__ import annotations

from typing import List, Tuple

from .errors import DataError
from .frame import BOUND
from .report import prediction_actual_correlation

WIDTH = 640.0
HEIGHT = 480.0
MARGIN = 54.0

PLOT_KINDS = ("scatter", "packrat_scatter")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Axis:
    def __init__(self, lo: float, hi: float, out_lo: float, out_hi: float):
        if hi <= lo:
            lo, hi = lo - 1.0, hi + 1.0
        pad = 0.05 * (hi - lo)
        self.lo = lo - pad
        self.hi = hi + pad
        self.out_lo = out_lo
        self.out_hi = out_hi

    def __call__(self, v: float) -> float:
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.out_lo + frac * (self.out_hi - self.out_lo)


def _finite(value, where: str) -> float:
    """A JSON number within ±``frame.BOUND`` as a float; a DataError
    naming ``where`` for anything else, NaN and the infinities included."""
    if type(value) in (int, float) and abs(value) <= BOUND:
        return float(value)
    raise DataError(f"{where} is not a number within ±{BOUND!r}: {value!r}")


def _marks(report: dict, side: str) -> List[float]:
    """The fail and at-risk bounds of one side, 'actual' or 'predicted'."""
    marks = []
    for key in ("fail_below", "at_risk_upper"):
        where = f"bounds.{side}.{key}"
        try:
            value = report["bounds"][side][key]
        except (KeyError, TypeError):
            raise DataError(f"report lacks {where}") from None
        marks.append(_finite(value, where))
    return marks


def _extract_points(report: dict, kind: str) -> List[Tuple[float, float]]:
    if not (isinstance(report, dict) and isinstance(report.get("subjects"), list) and "bounds" in report):
        raise DataError("report lacks 'subjects'/'bounds' sections")
    x_key = "outlier_value" if kind == "packrat_scatter" else "predicted"
    points = []
    for i, s in enumerate(report["subjects"]):
        try:
            x, y = s[x_key], s["actual"]
        except (KeyError, TypeError) as exc:
            raise DataError(f"subject {i} lacks plottable fields: {exc}") from None
        points.append((_finite(x, f"subject {i} {x_key}"), _finite(y, f"subject {i} actual")))
    return points


def render_plot(report: dict, kind: str) -> str:
    """The SVG text of a report's plot of ``kind``, one of ``PLOT_KINDS``
    (the CLI's ``--kind`` choices)."""
    points = _extract_points(report, kind)
    y_marks = _marks(report, "actual")

    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if kind == "scatter":
        x_marks = _marks(report, "predicted")
        x_label = "predicted score"
        ref_specs = [("v", x_marks[0]), ("v", x_marks[1]), ("h", y_marks[0]), ("h", y_marks[1])]
        xs_span = xs + x_marks
    else:
        x_label = "outlier feature (standardized)"
        ref_specs = [("h", y_marks[0])]
        xs_span = xs if xs else [-3.0, 3.0]
    ys_span = ys + y_marks

    x_axis = _Axis(min(xs_span), max(xs_span), MARGIN, WIDTH - MARGIN)
    # SVG y grows downward
    y_axis = _Axis(min(ys_span), max(ys_span), HEIGHT - MARGIN, MARGIN)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(WIDTH)}" '
        f'height="{_fmt(HEIGHT)}" viewBox="0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}">',
        f'<rect x="0" y="0" width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" fill="#ffffff"/>',
        f'<rect class="frame" x="{_fmt(MARGIN)}" y="{_fmt(MARGIN)}" '
        f'width="{_fmt(WIDTH - 2 * MARGIN)}" height="{_fmt(HEIGHT - 2 * MARGIN)}" '
        'fill="none" stroke="#444444"/>',
    ]
    for orient, value in ref_specs:
        if orient == "v":
            x = _fmt(x_axis(value))
            parts.append(
                f'<line class="ref" x1="{x}" y1="{_fmt(MARGIN)}" '
                f'x2="{x}" y2="{_fmt(HEIGHT - MARGIN)}" stroke="#cc2222" '
                'stroke-dasharray="4 3"/>'
            )
        else:
            y = _fmt(y_axis(value))
            parts.append(
                f'<line class="ref" x1="{_fmt(MARGIN)}" y1="{y}" '
                f'x2="{_fmt(WIDTH - MARGIN)}" y2="{y}" stroke="#cc2222" '
                'stroke-dasharray="4 3"/>'
            )
    for x, y in points:
        parts.append(
            f'<circle class="pt" cx="{_fmt(x_axis(x))}" cy="{_fmt(y_axis(y))}" '
            'r="3.00" fill="#1f6fb2" fill-opacity="0.75"/>'
        )

    r = prediction_actual_correlation(xs, ys)
    caption = f"n = {len(points)}" + ("" if r is None else f", r = {r:.7g}")
    parts.append(
        f'<text class="caption" x="{_fmt(MARGIN)}" y="{_fmt(HEIGHT - 18.0)}" '
        f'font-family="sans-serif" font-size="13">{caption}</text>'
    )
    parts.append(
        f'<text class="xlabel" x="{_fmt(WIDTH / 2)}" y="{_fmt(HEIGHT - 36.0)}" '
        f'font-family="sans-serif" font-size="13" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text class="ylabel" x="16.00" y="{_fmt(HEIGHT / 2)}" '
        'font-family="sans-serif" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16.00 {_fmt(HEIGHT / 2)})">actual score</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
