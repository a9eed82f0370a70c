"""Shared utilities: logging, retry backoff, byte units, sim-time breakdown."""

from repro.utils.backoff import RetryPolicy
from repro.utils.logging import get_logger
from repro.utils.units import GB, MB, KB, format_bytes

__all__ = [
    "RetryPolicy",
    "get_logger",
    "GB",
    "MB",
    "KB",
    "format_bytes",
]
