"""Cost model for layout selection (equations (1)-(5) of Section 4.2).

Given the window of :class:`~repro.core.cache_entry.LayoutObservation` records
collected since the last layout switch, the model compares the observed cost of
answering those queries in the current layout against the *estimated* cost of
answering them in the alternative layout, plus the estimated one-off
transformation cost ``T``.

The same machinery doubles as the predictor whose accuracy Figure 7 reports:
:func:`percentage_error` compares a predicted scan cost against the cost
actually measured once the cache is stored in the other layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.cache_entry import LayoutObservation


@dataclass
class SwitchEstimate:
    """Outcome of evaluating the switch condition for one cached item."""

    current_layout: str
    candidate_layout: str
    current_cost: float
    candidate_cost: float
    transformation_cost: float
    should_switch: bool


#: a switch decision is only attempted once at least this many queries have
#: touched the cached item since the previous switch, so a single noisy
#: measurement cannot flip the layout back and forth.
MINIMUM_OBSERVATIONS = 2


class LayoutCostModel:
    """Implements the Parquet <-> relational-columnar switch conditions."""

    # ------------------------------------------------------------------
    # Parquet -> relational columnar (equations 1-3)
    # ------------------------------------------------------------------
    def evaluate_parquet_to_relational(
        self,
        observations: Sequence[LayoutObservation],
        flattened_rows: int,
    ) -> SwitchEstimate:
        """Compare Parquet's observed cost with the relational estimate.

        ``flattened_rows`` is the paper's ``R``: the number of rows the cached
        item occupies once flattened into a relational columnar layout.
        """
        window = [o for o in observations if o.layout_name == "parquet"]
        cost_parquet = sum(o.data_cost + o.compute_cost for o in window)
        cost_relational = 0.0
        transformation = 0.0
        for obs in window:
            rows = max(1, obs.rows_accessed)
            scale = flattened_rows / rows
            cost_relational += obs.data_cost * scale
            transformation = max(transformation, (obs.data_cost + obs.compute_cost) * scale)
        should_switch = (
            len(window) >= MINIMUM_OBSERVATIONS
            and cost_parquet > cost_relational + transformation
        )
        return SwitchEstimate(
            current_layout="parquet",
            candidate_layout="columnar",
            current_cost=cost_parquet,
            candidate_cost=cost_relational,
            transformation_cost=transformation,
            should_switch=should_switch,
        )

    # ------------------------------------------------------------------
    # Relational columnar -> Parquet (equations 4-5)
    # ------------------------------------------------------------------
    def evaluate_relational_to_parquet(
        self,
        observations: Sequence[LayoutObservation],
        flattened_rows: int,
        parquet_rows_for: Callable[[LayoutObservation], int],
        compute_cost_estimator: Callable[[int, int], float],
    ) -> SwitchEstimate:
        """Compare the relational layout's observed cost with the Parquet estimate.

        The relational layout has negligible computational cost, so Parquet's
        compute cost cannot be extrapolated from the current measurements;
        instead ``compute_cost_estimator(rows, cols)`` supplies the paper's
        ``ComputeCost`` — the compute cost of the historical Parquet query
        closest to the given rows/columns footprint.

        ``parquet_rows_for(observation)`` returns the number of rows the query
        *would* touch under Parquet (the short parent columns when the query
        only accesses non-nested attributes, all flattened rows otherwise).
        """
        window = [o for o in observations if o.layout_name == "columnar"]
        cost_relational = sum(o.data_cost for o in window)
        cost_parquet = 0.0
        transformation = 0.0
        for obs in window:
            parquet_rows = max(1, parquet_rows_for(obs))
            compute = compute_cost_estimator(parquet_rows, obs.columns_accessed)
            scale = parquet_rows / max(1, flattened_rows)
            cost_parquet += (obs.data_cost + compute) * scale
            relational_rows = max(1, obs.rows_accessed)
            transformation = max(
                transformation,
                (obs.data_cost + obs.compute_cost) * flattened_rows / relational_rows,
            )
        should_switch = (
            len(window) >= MINIMUM_OBSERVATIONS
            and cost_relational > cost_parquet + transformation
        )
        return SwitchEstimate(
            current_layout="columnar",
            candidate_layout="parquet",
            current_cost=cost_relational,
            candidate_cost=cost_parquet,
            transformation_cost=transformation,
            should_switch=should_switch,
        )

    # ------------------------------------------------------------------
    # Per-query cost prediction (Figure 7)
    # ------------------------------------------------------------------
    def predict_relational_scan_cost(
        self, observation: LayoutObservation, flattened_rows: int
    ) -> float:
        """Predicted cost of answering one query if the cache were relational."""
        rows = max(1, observation.rows_accessed)
        return observation.data_cost * flattened_rows / rows

    def predict_parquet_scan_cost(
        self,
        observation: LayoutObservation,
        parquet_rows: int,
        compute_cost: float,
    ) -> float:
        """Predicted cost of answering one query if the cache were Parquet."""
        rows = max(1, observation.rows_accessed)
        return (observation.data_cost * parquet_rows / rows) + compute_cost


def percentage_error(predicted: float, actual: float) -> float:
    """Absolute percentage error of a cost prediction (Figure 7's x-axis)."""
    if actual <= 0.0:
        return 0.0 if predicted <= 0.0 else 100.0
    return abs(predicted - actual) / actual * 100.0


def closest_compute_cost(
    history: Sequence[LayoutObservation], rows: int, columns: int
) -> float | None:
    """The paper's ``ComputeCost(rows, cols)``: compute cost of the historical
    Parquet-layout query closest to the given rows/columns footprint.

    When the closest historical query has a different footprint — which is the
    common case right after a layout switch, because the history only contains
    queries of the other access pattern — its measured compute cost is scaled
    linearly to the requested number of values (rows x columns), so the
    estimate remains meaningful.

    Returns ``None`` when no Parquet history exists yet (the selector then
    falls back to a conservative estimate).
    """
    best: LayoutObservation | None = None
    best_distance = float("inf")
    for obs in history:
        if obs.layout_name != "parquet":
            continue
        distance = abs(obs.rows_accessed - rows) + abs(obs.columns_accessed - columns) * 1000.0
        if distance < best_distance:
            best_distance = distance
            best = obs
    if best is None:
        return None
    observed_values = max(1, best.rows_accessed * best.columns_accessed)
    requested_values = max(1, rows * columns)
    return best.compute_cost * requested_values / observed_values
