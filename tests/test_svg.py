"""Static SVG chart of a BLER sweep."""

from gancomm.svg import bler_chart


class TestLineChart:
    def test_writes_a_standalone_svg(self):
        text = bler_chart("curve", [0.0, 1.0, 2.0], [0.5, 0.25, 0.125])
        assert text.startswith("<svg")
        assert text.endswith("</svg>\n")
        assert ">curve</text>" in text and ">Block error rate</text>" in text
        assert "polyline" in text
        assert 'width="720" height="480"' in text

    def test_log_scale_drops_nonpositive_points(self):
        text = bler_chart("bler", [0.0, 1.0, 2.0], [1e-2, 0.0, 1e-4])
        assert ">1e-4</text>" in text and ">1e-2</text>" in text
        assert text.count("<circle") == 2

    def test_label_is_escaped(self):
        text = bler_chart("a<b & c", [0.0], [0.5])
        assert ">a&lt;b &amp; c</text>" in text

    def test_all_points_dropped_draws_the_frame_alone(self):
        text = bler_chart("a", [0.0], [0.0])
        assert text.startswith("<svg") and text.endswith("</svg>\n")
        assert "<polyline" not in text and "<circle" not in text
        # the legend, and the documented 0.1 to 1 log axis
        assert ">a</text>" in text
        assert ">1e-1</text>" in text and ">1e0</text>" in text

    def test_empty_sweep_draws_the_frame_alone(self):
        text = bler_chart("a", [], [])
        assert "<polyline" not in text and ">a</text>" in text
        # x spans 0 to 1
        assert ">0</text>" in text and ">1</text>" in text
