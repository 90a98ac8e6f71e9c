"""In-memory cache layouts.

ReCache caches operator results in one of two layouts and switches between
them reactively (Section 4 of the paper):

* :class:`~repro.layouts.columnar.ColumnarLayout` — relational column-oriented
  storage of flattened tuples,
* :class:`~repro.layouts.parquet.ParquetLayout` — a Dremel/Parquet-style
  striped layout of the original nested records (values plus repetition and
  definition levels, and each record's list counts, by which its scans gather
  the flattened rows).

All layouts implement the :class:`~repro.layouts.base.CacheLayout` interface so
the cache manager, layout selector and eviction policies can treat them
uniformly.
"""

from repro.layouts.base import CacheLayout, estimate_value_bytes
from repro.layouts.columnar import ColumnarLayout
from repro.layouts.parquet import ParquetLayout
from repro.layouts.striping import StripedColumn, stripe_records
from repro.layouts.assembly import assemble_rows, assemble_records
from repro.layouts.convert import build_layout, convert_layout, LAYOUT_NAMES

__all__ = [
    "CacheLayout",
    "ColumnarLayout",
    "ParquetLayout",
    "StripedColumn",
    "stripe_records",
    "assemble_rows",
    "assemble_records",
    "build_layout",
    "convert_layout",
    "LAYOUT_NAMES",
    "estimate_value_bytes",
]
