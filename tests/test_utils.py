"""Tests for repro.utils."""

from repro.utils import GB, KB, MB, format_bytes, get_logger


class TestUnits:
    def test_constants(self):
        assert KB == 1024
        assert MB == 1024**2
        assert GB == 1024**3

    def test_format_bytes_gib(self):
        assert format_bytes(3 * GB) == "3.00 GiB"

    def test_format_bytes_mib(self):
        assert format_bytes(int(2.5 * MB)) == "2.50 MiB"

    def test_format_bytes_small(self):
        assert format_bytes(17) == "17 B"

    def test_format_bytes_negative(self):
        assert "GiB" in format_bytes(-2 * GB)


class TestLogger:
    def test_namespacing(self):
        assert get_logger("comm").name == "repro.comm"
        assert get_logger("repro.zero").name == "repro.zero"
        assert get_logger().name == "repro"
