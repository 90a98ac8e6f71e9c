"""Small shared utilities: sampled timing, deterministic RNG helpers, unit formatting."""

from repro.utils.timing import SampledTimer
from repro.utils.rng import make_rng
from repro.utils.units import format_bytes, format_seconds

__all__ = [
    "SampledTimer",
    "make_rng",
    "format_bytes",
    "format_seconds",
]
