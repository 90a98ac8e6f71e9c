"""Query workload generators.

These reproduce the query mixes of the paper's evaluation:

* select-project-aggregate (SPA) sequences over nested data whose accessed
  attributes follow a *schedule* — e.g. the first 300 queries draw from all
  attributes and the last 300 only from non-nested attributes (Figures 1/9a),
  switching every 100 queries (Figure 9b), or a random 50/50 mix (Figure 9c),
* select-project-join (SPJ) sequences over the TPC-H tables where each table
  participates with 50% probability, joined on the standard keys, with a range
  predicate of random selectivity per table (Sections 6.2/6.3),
* mixed SPA/SPJ workloads over the Symantec-style CSV+JSON data with a
  configurable fraction of queries touching nested attributes or JSON data
  (Figures 10/11/15a),
* SPA workloads over the Yelp-style JSON files (Figures 11b/15b).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.engine.expressions import AggregateSpec, FieldRef, RangePredicate
from repro.engine.query import JoinSpec, Query, TableRef
from repro.engine.types import RecordType
from repro.utils.rng import make_rng
from repro.workloads.symantec import SYMANTEC_CSV_SCHEMA, SYMANTEC_FIELD_RANGES, SYMANTEC_JSON_SCHEMA
from repro.workloads.tpch import TPCH_FIELD_RANGES, TPCH_SCHEMAS
from repro.workloads.yelp import YELP_FIELD_RANGES, YELP_SCHEMAS


@dataclass
class AttributeSchedule:
    """Chooses, per query index, which attribute pool a query draws from.

    ``chooser(index)`` returns ``"all"`` (any attribute) or ``"non_nested"``
    (only parent-level attributes).  The three factory methods build the three
    schedules evaluated in Figure 9.
    """

    chooser: Callable[[int], str]

    def pool_for(self, index: int) -> str:
        pool = self.chooser(index)
        if pool not in ("all", "non_nested"):
            raise ValueError(f"schedule returned unknown pool {pool!r}")
        return pool

    @classmethod
    def halves(cls, num_queries: int) -> "AttributeSchedule":
        """First half draws from all attributes, second half from non-nested only."""
        midpoint = num_queries // 2
        return cls(lambda index: "all" if index < midpoint else "non_nested")

    @classmethod
    def alternating(cls, period: int = 100) -> "AttributeSchedule":
        """Switch pools every ``period`` queries (all, non-nested, all, ...)."""
        return cls(lambda index: "all" if (index // period) % 2 == 0 else "non_nested")

    @classmethod
    def random_mix(cls, non_nested_fraction: float = 0.5, seed: int = 97) -> "AttributeSchedule":
        """Each query independently draws from non-nested attributes with the
        given probability (Figure 9c uses 0.5)."""
        rng = make_rng(seed)
        choices = {}

        def chooser(index: int) -> str:
            if index not in choices:
                choices[index] = "non_nested" if rng.random() < non_nested_fraction else "all"
            return choices[index]

        return cls(chooser)

    @classmethod
    def always(cls, pool: str) -> "AttributeSchedule":
        return cls(lambda index: pool)


def _numeric_fields(schema: RecordType, ranges: dict[str, tuple[float, float]]) -> list[str]:
    """Attribute paths that exist in both the schema and the range table."""
    known = set(schema.leaf_paths())
    return [path for path in ranges if path in known]


def _random_range(
    rng: random.Random,
    bounds: tuple[float, float],
    selectivity: tuple[float, float],
) -> tuple[float, float]:
    """A random sub-range of ``bounds`` covering a random fraction of it."""
    low, high = bounds
    width = high - low
    fraction = rng.uniform(*selectivity)
    window = width * fraction
    start = rng.uniform(low, high - window) if width > window else low
    return start, start + window


def spa_workload(
    source: str,
    schema: RecordType,
    field_ranges: dict[str, tuple[float, float]],
    num_queries: int,
    schedule: AttributeSchedule | None = None,
    seed: int = 5,
    aggregates_per_query: tuple[int, int] = (1, 3),
    selectivity: tuple[float, float] = (0.1, 0.9),
) -> list[Query]:
    """Select-project-aggregate queries with random range predicates."""
    rng = make_rng(seed)
    schedule = schedule or AttributeSchedule.always("all")
    numeric = _numeric_fields(schema, field_ranges)
    if not numeric:
        raise ValueError(f"no numeric fields with known ranges for source {source!r}")
    non_nested = [path for path in numeric if not schema.is_nested_path(path)]

    queries = []
    for index in range(num_queries):
        pool = numeric if schedule.pool_for(index) == "all" else (non_nested or numeric)
        predicate_field = rng.choice(pool)
        low, high = _random_range(rng, field_ranges[predicate_field], selectivity)
        predicate = RangePredicate(predicate_field, low, high)
        agg_count = rng.randint(*aggregates_per_query)
        agg_fields = [rng.choice(pool) for _ in range(agg_count)]
        aggregates = [
            AggregateSpec(rng.choice(["sum", "avg", "min", "max"]), FieldRef(field))
            for field in agg_fields
        ]
        queries.append(
            Query.select_aggregate(source, predicate, aggregates, label=f"{source}-spa-{index}")
        )
    return queries


# ---------------------------------------------------------------------------
# TPC-H select-project-join workload (Sections 6.2 / 6.3)
# ---------------------------------------------------------------------------
#: the TPC-H join graph restricted to the five tables the paper uses
_TPCH_JOIN_EDGES = [
    ("customer", "c_custkey", "orders", "o_custkey"),
    ("orders", "o_orderkey", "lineitem", "l_orderkey"),
    ("lineitem", "l_partkey", "part", "p_partkey"),
    ("lineitem", "l_partkey", "partsupp", "ps_partkey"),
    ("part", "p_partkey", "partsupp", "ps_partkey"),
]


def spj_tpch_workload(
    num_queries: int = 100,
    seed: int = 13,
    table_probability: float = 0.5,
    selectivity: tuple[float, float] = (0.1, 0.9),
    source_names: dict[str, str] | None = None,
) -> list[Query]:
    """Select-project-join queries over the TPC-H tables.

    Each table participates with probability ``table_probability``; the chosen
    tables are restricted to a connected component of the TPC-H join graph, one
    aggregate attribute is drawn per table, and each table receives a range
    predicate of random selectivity on one of its numeric columns.

    ``source_names`` remaps logical table names to registered source names
    (e.g. ``{"lineitem": "lineitem_json"}`` for the heterogeneous eviction
    workload of Section 6.3).
    """
    rng = make_rng(seed)
    source_names = source_names or {}
    tables = list(TPCH_SCHEMAS)

    queries = []
    for index in range(num_queries):
        chosen = [t for t in tables if rng.random() < table_probability]
        if not chosen:
            chosen = [rng.choice(tables)]
        chosen = _largest_connected_subset(chosen)

        table_refs = []
        aggregates = []
        for table in chosen:
            ranges = TPCH_FIELD_RANGES[table]
            fields = list(ranges)
            predicate_field = rng.choice(fields)
            low, high = _random_range(rng, ranges[predicate_field], selectivity)
            table_refs.append(
                TableRef(source_names.get(table, table), RangePredicate(predicate_field, low, high))
            )
            agg_field = rng.choice(fields)
            aggregates.append(
                AggregateSpec(rng.choice(["sum", "avg", "min", "max"]), FieldRef(agg_field))
            )

        joins = []
        joined = {chosen[0]}
        while len(joined) < len(chosen):
            for left, left_key, right, right_key in _TPCH_JOIN_EDGES:
                if left in joined and right in set(chosen) - joined:
                    joins.append(
                        JoinSpec(
                            source_names.get(left, left),
                            left_key,
                            source_names.get(right, right),
                            right_key,
                        )
                    )
                    joined.add(right)
                elif right in joined and left in set(chosen) - joined:
                    joins.append(
                        JoinSpec(
                            source_names.get(right, right),
                            right_key,
                            source_names.get(left, left),
                            left_key,
                        )
                    )
                    joined.add(left)

        queries.append(
            Query(tables=table_refs, aggregates=aggregates, joins=joins, label=f"tpch-spj-{index}")
        )
    return queries


def _largest_connected_subset(chosen: Sequence[str]) -> list[str]:
    """Restrict the chosen tables to one connected component of the join graph."""
    chosen_set = set(chosen)
    adjacency: dict[str, set[str]] = {table: set() for table in chosen_set}
    for left, _, right, _ in _TPCH_JOIN_EDGES:
        if left in chosen_set and right in chosen_set:
            adjacency[left].add(right)
            adjacency[right].add(left)
    best: list[str] = []
    seen: set[str] = set()
    for start in chosen:
        if start in seen:
            continue
        component = []
        stack = [start]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            component.append(node)
            stack.extend(adjacency[node] - seen)
        if len(component) > len(best):
            best = component
    # Preserve the original (deterministic) order of the chosen tables.
    return [table for table in chosen if table in set(best)]


# ---------------------------------------------------------------------------
# Symantec-style mixed workload (Figures 10, 11a, 11c, 15a)
# ---------------------------------------------------------------------------
def symantec_mixed_workload(
    num_queries: int,
    nested_fraction: float = 0.1,
    json_fraction: float = 0.9,
    join_fraction: float = 0.1,
    seed: int = 17,
    json_source: str = "spam_json",
    csv_source: str = "spam_csv",
) -> list[Query]:
    """SPA/SPJ queries over the Symantec-style JSON and CSV files.

    ``nested_fraction`` of the JSON queries access nested attributes;
    ``json_fraction`` of all queries touch the JSON file (the rest query the
    CSV); ``join_fraction`` of all queries join the two files on ``email_id``.
    """
    rng = make_rng(seed)
    json_ranges = SYMANTEC_FIELD_RANGES["spam_json"]
    csv_ranges = SYMANTEC_FIELD_RANGES["spam_csv"]
    json_numeric = _numeric_fields(SYMANTEC_JSON_SCHEMA, json_ranges)
    json_non_nested = [p for p in json_numeric if not SYMANTEC_JSON_SCHEMA.is_nested_path(p)]
    json_nested = [p for p in json_numeric if SYMANTEC_JSON_SCHEMA.is_nested_path(p)]
    csv_numeric = _numeric_fields(SYMANTEC_CSV_SCHEMA, csv_ranges)

    def json_pool(use_nested: bool) -> list[str]:
        if use_nested and json_nested:
            return json_nested + json_non_nested
        return json_non_nested

    queries = []
    for index in range(num_queries):
        is_join = rng.random() < join_fraction
        use_json = rng.random() < json_fraction
        use_nested = rng.random() < nested_fraction

        if is_join:
            json_pred_field = rng.choice(json_pool(use_nested))
            json_low, json_high = _random_range(rng, json_ranges[json_pred_field], (0.2, 0.9))
            csv_pred_field = rng.choice([f for f in csv_numeric if f != "email_id"])
            csv_low, csv_high = _random_range(rng, csv_ranges[csv_pred_field], (0.2, 0.9))
            agg_field = rng.choice(json_pool(use_nested))
            queries.append(
                Query(
                    tables=[
                        TableRef(json_source, RangePredicate(json_pred_field, json_low, json_high)),
                        TableRef(csv_source, RangePredicate(csv_pred_field, csv_low, csv_high)),
                    ],
                    joins=[JoinSpec(json_source, "email_id", csv_source, "email_id")],
                    aggregates=[
                        AggregateSpec("avg", FieldRef(agg_field)),
                        AggregateSpec("count", FieldRef("email_id")),
                    ],
                    label=f"symantec-join-{index}",
                )
            )
            continue

        if use_json:
            pool = json_pool(use_nested)
            ranges = json_ranges
            source = json_source
        else:
            pool = csv_numeric
            ranges = csv_ranges
            source = csv_source
        predicate_field = rng.choice(pool)
        low, high = _random_range(rng, ranges[predicate_field], (0.1, 0.9))
        agg_fields = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        aggregates = [
            AggregateSpec(rng.choice(["sum", "avg", "min", "max"]), FieldRef(f)) for f in agg_fields
        ]
        queries.append(
            Query.select_aggregate(
                source,
                RangePredicate(predicate_field, low, high),
                aggregates,
                label=f"symantec-spa-{index}",
            )
        )
    return queries


# ---------------------------------------------------------------------------
# Yelp-style workload (Figures 11b, 15b)
# ---------------------------------------------------------------------------
def yelp_spa_workload(
    num_queries: int,
    nested_fraction: float = 0.5,
    seed: int = 19,
    source_names: dict[str, str] | None = None,
) -> list[Query]:
    """SPA queries over the Yelp-style business / user / review JSON files."""
    rng = make_rng(seed)
    source_names = source_names or {}
    pools: dict[str, dict[str, list[str]]] = {}
    for name, schema in YELP_SCHEMAS.items():
        numeric = _numeric_fields(schema, YELP_FIELD_RANGES[name])
        pools[name] = {
            "nested": [p for p in numeric if schema.is_nested_path(p)],
            "non_nested": [p for p in numeric if not schema.is_nested_path(p)],
        }

    queries = []
    for index in range(num_queries):
        dataset = rng.choice(list(YELP_SCHEMAS))
        use_nested = rng.random() < nested_fraction and pools[dataset]["nested"]
        pool = (
            pools[dataset]["nested"] + pools[dataset]["non_nested"]
            if use_nested
            else pools[dataset]["non_nested"]
        )
        ranges = YELP_FIELD_RANGES[dataset]
        predicate_field = rng.choice(pool)
        low, high = _random_range(rng, ranges[predicate_field], (0.1, 0.9))
        agg_fields = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
        aggregates = [
            AggregateSpec(rng.choice(["sum", "avg", "min", "max"]), FieldRef(f)) for f in agg_fields
        ]
        queries.append(
            Query.select_aggregate(
                source_names.get(dataset, dataset),
                RangePredicate(predicate_field, low, high),
                aggregates,
                label=f"yelp-{dataset}-{index}",
            )
        )
    return queries
