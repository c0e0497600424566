import math

import pytest

from ammknn.errors import DataError
from ammknn.svgplot import render_plot


def report(subjects):
    return {
        "subjects": subjects,
        "bounds": {
            "actual": {"fail_below": 350.0, "at_risk_upper": 375.0},
            "predicted": {"fail_below": 350.0, "at_risk_upper": 385.0},
        },
    }


def subject(actual, predicted, outlier=0.0):
    return {"actual": actual, "predicted": predicted, "outlier_value": outlier}


class TestRenderPlot:
    def test_point_and_line_counts(self):
        svg = render_plot(report([subject(400, 390), subject(300, 310)]), "scatter")
        assert svg.count('class="pt"') == 2
        assert svg.count('class="ref"') == 4

    def test_packrat_variant_single_line(self):
        svg = render_plot(report([subject(400, 390, -1.2)]), "packrat_scatter")
        assert svg.count('class="pt"') == 1
        assert svg.count('class="ref"') == 1

    def test_empty_report_axes_and_lines_only(self):
        svg = render_plot(report([]), "scatter")
        assert svg.count('class="pt"') == 0
        assert svg.count('class="ref"') == 4
        assert "n = 0" in svg

    def test_caption_correlation_format(self):
        subjects = [subject(300, 300), subject(400, 400), subject(500, 500)]
        svg = render_plot(report(subjects), "scatter")
        assert "r = 1" in svg

    def test_missing_sections(self):
        with pytest.raises(DataError, match="report lacks 'subjects'/'bounds' sections"):
            render_plot({"subjects": []}, "scatter")

    def test_packrat_needs_outlier_values(self):
        doc = report([{"actual": 400.0, "predicted": 390.0}])
        with pytest.raises(DataError, match="subject 0 lacks plottable fields"):
            render_plot(doc, "packrat_scatter")

    def test_numbers_at_the_bound_are_drawn(self):
        svg = render_plot(report([subject(400, 1e50), subject(300, -1e50)]), "scatter")
        assert svg.count('class="pt"') == 2
        assert "nan" not in svg

    def test_number_past_the_bound_is_refused(self):
        past = math.nextafter(1e50, math.inf)
        with pytest.raises(DataError) as exc:
            render_plot(report([subject(400, 390), subject(300, 310, -past)]), "packrat_scatter")
        assert str(exc.value) == f"subject 1 outlier_value is not a number within ±1e+50: {-past!r}"

    def test_deterministic_output(self):
        doc = report([subject(412, 395, 0.4), subject(333, 341, -2.3)])
        assert render_plot(doc, "scatter") == render_plot(doc, "scatter")
