"""Automatic cache layout selection (Section 4 of the paper).

Two selectors live here:

* :class:`LayoutSelector` — decides, per cached item of nested data, whether to
  keep the Parquet-style striped layout or switch to the flattened relational
  columnar layout (and back), using the cost model of Section 4.2.
* :class:`RowColumnSelector` — the H2O-style chooser between relational row and
  column layouts for flat data (Section 4.3), driven by an estimate of the
  number of data-cache misses each layout would incur for the observed
  workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.cache_entry import CacheEntry, LayoutObservation
from repro.core.cost_model import LayoutCostModel, SwitchEstimate, closest_compute_cost


@dataclass
class LayoutDecision:
    """The outcome of a layout-selection check for one cached item."""

    target_layout: str | None
    estimate: SwitchEstimate | None

    @property
    def should_switch(self) -> bool:
        return self.target_layout is not None


class LayoutSelector:
    """Chooses between Parquet and relational columnar layouts per cached item."""

    def __init__(
        self,
        cost_model: LayoutCostModel | None = None,
        fallback_compute_factor: float = 1.0,
        window_size: int = 60,
    ) -> None:
        self.cost_model = cost_model or LayoutCostModel()
        #: when no Parquet history exists, estimate Parquet's compute cost as
        #: this multiple of the query's data-access cost (a conservative guess
        #: standing in for the paper's ComputeCost history lookup).
        self.fallback_compute_factor = fallback_compute_factor
        #: the observation window is reset whenever a switch happens (as in the
        #: paper) and additionally bounded to the most recent ``window_size``
        #: queries, so that a sustained change in the workload can overturn an
        #: arbitrarily long history while short bursts still cannot cause
        #: oscillation.  See DESIGN.md for the rationale of this refinement.
        self.window_size = window_size

    def observe(self, entry: CacheEntry, observation: LayoutObservation) -> None:
        """Record one query's measured scan costs against a cached item."""
        entry.add_observation(observation)
        if self.window_size and len(entry.observations) > self.window_size:
            del entry.observations[: len(entry.observations) - self.window_size]

    def decide(self, entry: CacheEntry) -> LayoutDecision:
        """Evaluate the switch condition for ``entry`` given its window."""
        if entry.is_lazy or entry.layout is None:
            return LayoutDecision(None, None)
        # Flat relational data never benefits from the Parquet layout, and a
        # flat entry never switches at all: RowColumnSelector is constructed
        # only by tests, so nothing chooses between row and column for it.
        if not entry.layout.schema.nested_paths():
            return LayoutDecision(None, None)

        flattened_rows = entry.layout.flattened_row_count
        if entry.layout.layout_name == "parquet":
            estimate = self.cost_model.evaluate_parquet_to_relational(
                entry.observations, flattened_rows
            )
            target = "columnar" if estimate.should_switch else None
            return LayoutDecision(target, estimate)

        if entry.layout.layout_name in ("columnar", "row"):
            record_count = entry.layout.record_count
            estimate = self.cost_model.evaluate_relational_to_parquet(
                entry.observations,
                flattened_rows,
                parquet_rows_for=lambda obs: (
                    flattened_rows if obs.accessed_nested else record_count
                ),
                compute_cost_estimator=lambda rows, cols: self._estimate_compute(
                    entry, rows, cols
                ),
            )
            target = "parquet" if estimate.should_switch else None
            return LayoutDecision(target, estimate)

        return LayoutDecision(None, None)

    def after_switch(self, entry: CacheEntry) -> None:
        """Move the observation window forward once a switch has happened."""
        entry.reset_observation_window()

    # ------------------------------------------------------------------
    def _estimate_compute(self, entry: CacheEntry, rows: int, columns: int) -> float:
        historical = closest_compute_cost(entry.parquet_history, rows, columns)
        if historical is not None:
            return historical
        # No Parquet history: approximate the compute cost from the average
        # per-row data cost of the current window, scaled to ``rows``.
        window = entry.observations
        if not window:
            return 0.0
        per_row = [
            obs.data_cost / max(1, obs.rows_accessed) for obs in window if obs.data_cost > 0
        ]
        if not per_row:
            return 0.0
        return self.fallback_compute_factor * (sum(per_row) / len(per_row)) * rows


@dataclass
class ColumnAccessProfile:
    """Workload statistics for one flat relation (input to RowColumnSelector)."""

    #: per-column width in bytes
    column_widths: dict[str, int]
    #: total number of rows in the cached relation
    row_count: int
    #: one entry per observed query: the set of columns it accessed
    query_column_sets: list[frozenset[str]]


class RowColumnSelector:
    """H2O-style row-vs-column chooser for flat relational caches (Section 4.3).

    Both layouts' costs are estimated as the number of CPU data-cache misses
    the observed queries would incur: a row layout pulls whole tuples through
    the cache regardless of how many attributes a query touches, while a
    columnar layout touches only the accessed columns.
    """

    def __init__(self, cache_line_bytes: int = 64, reconstruction_attrs_per_line: int = 8) -> None:
        if cache_line_bytes <= 0:
            raise ValueError("cache_line_bytes must be positive")
        self.cache_line_bytes = cache_line_bytes
        #: how many attributes' worth of tuple reconstruction amortize into one
        #: extra cache line per row when a column store materializes wide tuples
        self.reconstruction_attrs_per_line = reconstruction_attrs_per_line

    def estimated_row_misses(self, profile: ColumnAccessProfile) -> float:
        row_width = sum(profile.column_widths.values())
        lines_per_tuple = math.ceil(row_width / self.cache_line_bytes) if row_width else 0
        return len(profile.query_column_sets) * profile.row_count * lines_per_tuple

    def estimated_column_misses(self, profile: ColumnAccessProfile) -> float:
        total = 0.0
        for columns in profile.query_column_sets:
            for column in columns:
                width = profile.column_widths.get(column, 8)
                total += math.ceil(profile.row_count * width / self.cache_line_bytes)
            # Tuple reconstruction: a query touching many columns gathers each
            # output tuple from that many separate memory regions, which costs
            # additional misses a row store does not pay.
            total += (
                profile.row_count * max(0, len(columns) - 1)
            ) // self.reconstruction_attrs_per_line
        return total

    def choose(self, profile: ColumnAccessProfile) -> str:
        """Return ``"row"`` or ``"columnar"``, whichever minimizes cache misses."""
        if not profile.query_column_sets:
            return "columnar"
        row_misses = self.estimated_row_misses(profile)
        column_misses = self.estimated_column_misses(profile)
        return "row" if row_misses < column_misses else "columnar"
