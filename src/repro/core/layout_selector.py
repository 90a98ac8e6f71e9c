"""Automatic cache layout selection (Section 4.2 of the paper).

:class:`LayoutSelector` decides, per cached item of nested data, whether to
keep the Parquet-style striped layout or switch to the flattened relational
columnar layout (and back), using the cost model of Section 4.2.  Flat data is
always cached in the relational columnar layout and never switches, and a
columnar item over more than one list stays columnar.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cache_entry import CacheEntry, LayoutObservation
from repro.core.cost_model import LayoutCostModel, SwitchEstimate, closest_compute_cost
from repro.layouts.convert import regroupable


@dataclass
class LayoutDecision:
    """The outcome of a layout-selection check for one cached item."""

    target_layout: str | None
    estimate: SwitchEstimate | None

    @property
    def should_switch(self) -> bool:
        return self.target_layout is not None


#: the observation window is reset whenever a switch happens (as in the paper)
#: and additionally bounded to the most recent ``WINDOW_SIZE`` queries, so that
#: a sustained change in the workload can overturn an arbitrarily long history
#: while short bursts still cannot cause oscillation.
WINDOW_SIZE = 60


class LayoutSelector:
    """Chooses between Parquet and relational columnar layouts per cached item."""

    def __init__(self) -> None:
        self.cost_model = LayoutCostModel()

    def observe(self, entry: CacheEntry, observation: LayoutObservation) -> None:
        """Record one query's measured scan costs against a cached item."""
        entry.add_observation(observation)
        if len(entry.observations) > WINDOW_SIZE:
            del entry.observations[: len(entry.observations) - WINDOW_SIZE]

    def decide(self, entry: CacheEntry) -> LayoutDecision:
        """Evaluate the switch condition for ``entry`` given its window."""
        if entry.is_lazy or entry.layout is None:
            return LayoutDecision(None, None)
        # Flat relational data never benefits from the Parquet layout.
        if not entry.layout.schema.nested_paths():
            return LayoutDecision(None, None)

        flattened_rows = entry.layout.flattened_row_count
        if entry.layout.layout_name == "parquet":
            estimate = self.cost_model.evaluate_parquet_to_relational(
                entry.observations, flattened_rows
            )
            target = "columnar" if estimate.should_switch else None
            return LayoutDecision(target, estimate)

        if entry.layout.layout_name == "columnar":
            if not regroupable(entry.layout.schema):
                return LayoutDecision(None, None)
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
        historical = closest_compute_cost(entry.parquet_history.values(), rows, columns)
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
        return sum(per_row) / len(per_row) * rows
