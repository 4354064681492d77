"""Static SVG chart writer."""

import pytest

from gancomm.svg import line_chart


class TestLineChart:
    def test_writes_a_standalone_svg(self, tmp_path):
        path = tmp_path / "chart.svg"
        line_chart(
            str(path),
            [("curve", [0.0, 1.0, 2.0], [0.5, 0.25, 0.125])],
            title="t", xlabel="x", ylabel="y",
        )
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert "curve" in text
        assert "polyline" in text

    def test_log_scale_drops_nonpositive_points(self, tmp_path):
        path = tmp_path / "chart.svg"
        line_chart(
            str(path),
            [("bler", [0.0, 1.0, 2.0], [1e-2, 0.0, 1e-4])],
            title="t", xlabel="x", ylabel="y", log_y=True,
        )
        text = path.read_text()
        assert "1e-2" in text or "1e-02" in text or "0.01" in text

    def test_two_series_get_distinct_colors(self, tmp_path):
        path = tmp_path / "chart.svg"
        line_chart(
            str(path),
            [("a", [0.0, 1.0], [1.0, 2.0]), ("b", [0.0, 1.0], [2.0, 1.0])],
            title="t", xlabel="x", ylabel="y",
        )
        text = path.read_text()
        strokes = {
            part.split('"')[1]
            for part in text.split("stroke=")[1:]
            if part.startswith('"#')
        }
        assert len(strokes) >= 2

    def test_empty_series_list_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            line_chart(str(tmp_path / "c.svg"), [], title="t",
                       xlabel="x", ylabel="y")

    def test_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            line_chart(
                str(tmp_path / "c.svg"), [("a", [0.0, 1.0], [1.0])],
                title="t", xlabel="x", ylabel="y",
            )

    def test_all_points_dropped_draws_the_frame_alone(self, tmp_path):
        path = tmp_path / "c.svg"
        line_chart(str(path), [("a", [0.0], [0.0])], title="t", xlabel="x",
                   ylabel="y", log_y=True)
        text = path.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
        assert "<polyline" not in text and "<circle" not in text
        # the legend, and the documented 0.1 to 1 log axis
        assert ">a</text>" in text
        assert ">1e-1</text>" in text and ">1e0</text>" in text
