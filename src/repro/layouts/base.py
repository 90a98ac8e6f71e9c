"""Common interface for in-memory cache layouts."""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.engine.types import RecordType


def estimate_value_bytes(value: object) -> int:
    """Rough in-memory size of one cached value, used for cache accounting.

    The absolute numbers do not matter for the policies — only relative item
    sizes do — so a simple model (8 bytes per number, one byte per string
    character, 1 byte for missing values) is sufficient and deterministic.
    """
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return max(1, len(value))
    if isinstance(value, (list, tuple)):
        return sum(estimate_value_bytes(v) for v in value)
    if isinstance(value, dict):
        return sum(estimate_value_bytes(v) for v in value.values())
    return 16


#: columns at or below this length are sized exactly; longer ones are sampled
EXACT_SIZE_THRESHOLD = 1024
#: approximate number of values sampled from a long column
SIZE_SAMPLE_TARGET = 256


def estimate_sequence_bytes(values: Sequence) -> int:
    """Estimated total size of one column (or tuple list) of cached values.

    Small sequences (up to :data:`EXACT_SIZE_THRESHOLD` values) are summed
    exactly; longer ones extrapolate from a deterministic stride sample of
    ~:data:`SIZE_SAMPLE_TARGET` values.  This removes the O(rows x fields)
    per-value summation from layout constructors while keeping the eviction
    accounting within a few percent of the exact figure (only *relative* item
    sizes matter to the policies).
    """
    count = len(values)
    if count <= EXACT_SIZE_THRESHOLD:
        return sum(estimate_value_bytes(value) for value in values)
    # Evenly spaced fractional positions instead of a fixed stride: the step
    # alternates between floor and ceil of count/target, which avoids locking
    # onto periodic value patterns (a fixed stride divisible by the pattern
    # period would sample only one phase of it).
    total = sum(
        estimate_value_bytes(values[(i * count) // SIZE_SAMPLE_TARGET])
        for i in range(SIZE_SAMPLE_TARGET)
    )
    return int(round(total / SIZE_SAMPLE_TARGET * count))


class CacheLayout:
    """Abstract base class of all cache layouts.

    A layout owns the cached data for one cache entry.  It reports its size and
    cardinalities, and every layout yields its rows two ways: ``scan_batches``
    (:class:`~repro.engine.batch.RecordBatch` chunks, what the executor scans
    and measures to obtain the data-access cost ``D`` and compute cost ``C``
    used by the layout selector) and :meth:`scan` (row dictionaries, for
    layout conversion and the layout figures).
    """

    #: canonical layout name ("row", "columnar", "parquet")
    layout_name = "abstract"

    def __init__(self, schema: RecordType, fields: Sequence[str]) -> None:
        self.schema = schema
        self.fields = list(fields)

    # -- size & cardinality -------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Approximate size of the cached data in bytes."""
        raise NotImplementedError

    @property
    def flattened_row_count(self) -> int:
        """Number of rows the data occupies when flattened (the paper's ``R``)."""
        raise NotImplementedError

    @property
    def record_count(self) -> int:
        """Number of top-level (parent) records cached."""
        raise NotImplementedError

    # -- access ---------------------------------------------------------------
    def scan(self, fields: Sequence[str] | None = None) -> Iterator[dict]:
        """Yield flattened rows restricted to ``fields``."""
        raise NotImplementedError

    def supports_fields(self, fields: Sequence[str]) -> bool:
        """True when every requested field is present in the cached data."""
        available = set(self.fields)
        return all(field in available for field in fields)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"{type(self).__name__}(fields={len(self.fields)}, "
            f"rows={self.flattened_row_count}, bytes={self.nbytes})"
        )
