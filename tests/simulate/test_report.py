"""Unit tests for the report formatting helpers."""

from repro.simulate.report import format_table


class TestFormatTable:
    def test_alignment_and_title(self):
        out = format_table(
            ["cache", "ratio"], [(4, 1.25), (512, 1.0)], title="Fig 3(d)"
        )
        lines = out.splitlines()
        assert lines[0] == "Fig 3(d)"
        assert "cache" in lines[1] and "ratio" in lines[1]
        assert len(lines) == 5

    def test_float_formatting(self):
        out = format_table(["x"], [(0.000123,), (12345.6,), (1.5,), (0.0,)])
        assert "0.000123" in out
        assert "1.23e+04" in out or "12345" in out.replace(",", "")
        assert "1.5" in out

    def test_no_title(self):
        out = format_table(["a"], [(1,)])
        assert out.splitlines()[0].strip() == "a"
