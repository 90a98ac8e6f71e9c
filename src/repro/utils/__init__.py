"""Small shared utilities: deterministic RNG helpers, unit formatting."""

from repro.utils.rng import make_rng
from repro.utils.units import format_bytes, format_seconds

__all__ = [
    "make_rng",
    "format_bytes",
    "format_seconds",
]
