"""Property tests for Dremel-style column striping.

Seeded random schemas and records (hypothesis-style generators, no external
dependency) check two invariants the Parquet layout's fast paths lean on:

* ``stripe_records`` -> ``assemble_records`` round-trips arbitrary records of
  the nesting shapes the repository supports (atoms, records of atoms, lists
  of atoms, lists of records, with nulls at every level),
* ``ParquetLayout.scan_batches`` yields the rows the reference oracle
  flattens the records into, for any subset of the leaves.

Plus the structural invariant behind
:meth:`~repro.layouts.striping.StripedColumn.flat_values`: a flat column
stripes exactly one entry per record, with ``None`` at exactly the positions
whose definition level is below the maximum.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.types import (
    FLOAT,
    INT,
    STRING,
    Field,
    ListType,
    RecordType,
)
from repro.layouts import build_layout
from repro.layouts.assembly import assemble_records, assemble_rows
from repro.layouts.striping import stripe_records
from tests.oracle import flatten, leaf_paths

ATOMS = (INT, FLOAT, STRING)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------
def random_schema(rng: random.Random) -> RecordType:
    """A random top-level schema over the supported nesting shapes."""
    fields = []
    for index in range(rng.randint(1, 6)):
        name = f"f{index}"
        roll = rng.random()
        if roll < 0.4:
            fields.append(Field(name, rng.choice(ATOMS)))
        elif roll < 0.55:  # record of atoms
            inner = [Field(f"a{j}", rng.choice(ATOMS)) for j in range(rng.randint(1, 3))]
            fields.append(Field(name, RecordType(inner)))
        elif roll < 0.75:  # list of atoms
            fields.append(Field(name, ListType(rng.choice(ATOMS))))
        else:  # list of records
            inner = [Field(f"a{j}", rng.choice(ATOMS)) for j in range(rng.randint(1, 3))]
            fields.append(Field(name, ListType(RecordType(inner))))
    return RecordType(fields)


def _random_atom(rng: random.Random, dtype) -> object:
    if rng.random() < 0.25:
        return None
    if dtype is INT:
        return rng.randint(-1000, 1000)
    if dtype is FLOAT:
        return round(rng.uniform(-100.0, 100.0), 3)
    return rng.choice(["red", "green", "blue", "", "x" * rng.randint(1, 5)])


def random_record(rng: random.Random, schema: RecordType) -> dict:
    """A random record in *canonical* form (what assembly reconstructs).

    Striping cannot distinguish a missing field from an explicit ``None``,
    nor a missing list from an empty one, so the generator always emits every
    field, with ``None`` for missing atoms/records' leaves and ``[]`` for
    empty collections — the canonical shape ``assemble_records`` produces.
    """
    record: dict = {}
    for field in schema.fields:
        dtype = field.dtype
        if isinstance(dtype, ListType):
            count = rng.choice([0, 0, 1, 2, 3, 5])
            if isinstance(dtype.element, RecordType):
                record[field.name] = [
                    {
                        inner.name: _random_atom(rng, inner.dtype)
                        for inner in dtype.element.fields
                    }
                    for _ in range(count)
                ]
            else:
                record[field.name] = [_random_atom(rng, dtype.element) for _ in range(count)]
        elif isinstance(dtype, RecordType):
            record[field.name] = {
                inner.name: _random_atom(rng, inner.dtype) for inner in dtype.fields
            }
        else:
            record[field.name] = _random_atom(rng, dtype)
    return record


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(25))
def test_stripe_assemble_roundtrip(seed):
    rng = random.Random(1000 + seed)
    schema = random_schema(rng)
    records = [random_record(rng, schema) for _ in range(rng.randint(1, 30))]
    columns = stripe_records(records, schema)
    assert list(assemble_records(columns, schema)) == records


def scanned_rows(layout, fields) -> list[dict]:
    return [row for batch in layout.scan_batches(fields) for row in batch.iter_rows()]


def oracle_rows(records, schema, fields) -> tuple[list[dict], list[int]]:
    """The oracle's rows of ``fields`` and each record's row count.

    A field list that crosses no collection reads one row per record.
    """
    per_record = [flatten(record, schema) for record in records]
    crosses = any(in_list for path, in_list in leaf_paths(schema) if path in fields)
    rows = [
        {field: row[field] for field in fields}
        for record_rows in per_record
        for row in (record_rows if crosses else record_rows[:1])
    ]
    return rows, [len(record_rows) for record_rows in per_record]


@pytest.mark.parametrize("seed", range(15))
def test_parquet_scan_batches_match_the_oracle(seed):
    """The Parquet scan gathers the oracle's rows, whichever lists are read."""
    rng = random.Random(3000 + seed)
    schema = random_schema(rng)
    records = [random_record(rng, schema) for _ in range(rng.randint(1, 20))]
    leaves = schema.leaf_paths()
    wanted = rng.sample(leaves, rng.randint(1, len(leaves)))
    layout = build_layout("parquet", schema, leaves, records=records)
    expected, row_counts = oracle_rows(records, schema, wanted)
    assert scanned_rows(layout, wanted) == expected
    assert layout.record_row_counts == row_counts


@pytest.mark.parametrize("seed", range(15))
def test_flat_columns_stripe_one_aligned_entry_per_record(seed):
    rng = random.Random(4000 + seed)
    schema = random_schema(rng)
    records = [random_record(rng, schema) for _ in range(rng.randint(1, 20))]
    columns = stripe_records(records, schema)
    for path, column in columns.items():
        if column.is_nested:
            assert column.flat_values(len(records)) is None
            continue
        values = column.flat_values(len(records))
        assert values is not None and len(values) == len(records)
        for index, (value, definition) in enumerate(
            zip(column.values, column.definition_levels)
        ):
            if definition == column.max_definition:
                assert value is not None, (path, index)
            else:
                assert value is None, (path, index)


# ---------------------------------------------------------------------------
# Regression: empty/missing collections behind optional struct wrappers
# ---------------------------------------------------------------------------
# An optional record wrapping a repeated field puts the list node at
# definition depth > 1, which is exactly where an off-by-one in
# ``list_definition_threshold`` (the ``threshold - 2`` empty-collection test in
# ``_assemble_group_elements``) would collapse the distinctions between a
# missing wrapper, a present wrapper with an empty list, and a one-element
# list holding NULL.  These cases pin each shape end to end: stripe ->
# assemble_records structure, and stripe -> assemble_rows and the Parquet
# scan against the oracle's flattening.

WRAPPED_SCHEMA = RecordType(
    [
        Field("key", INT),
        Field(
            "meta",
            RecordType([Field("tags", ListType(STRING)), Field("n", INT)]),
        ),
    ]
)

DEEP_SCHEMA = RecordType(
    [
        Field("key", INT),
        Field(
            "a",
            RecordType(
                [
                    Field(
                        "b",
                        RecordType(
                            [Field("c", ListType(RecordType([Field("x", INT)])))]
                        ),
                    )
                ]
            ),
        ),
    ]
)


@pytest.mark.parametrize(
    "record, expected_tags",
    [
        ({"key": 1}, []),  # wrapper missing entirely
        ({"key": 2, "meta": None}, []),  # wrapper explicitly null
        ({"key": 3, "meta": {"n": 7}}, []),  # wrapper present, list missing
        ({"key": 4, "meta": {"tags": [], "n": 7}}, []),  # list present but empty
        ({"key": 5, "meta": {"tags": [None], "n": 7}}, [None]),  # one NULL element
        ({"key": 6, "meta": {"tags": ["a", None, "b"]}}, ["a", None, "b"]),
    ],
)
def test_wrapped_empty_list_reconstructs_distinctly(record, expected_tags):
    columns = stripe_records([record], WRAPPED_SCHEMA)
    (rebuilt,) = assemble_records(columns, WRAPPED_SCHEMA)
    assert rebuilt["meta"]["tags"] == expected_tags


@pytest.mark.parametrize(
    "record, expected_elements",
    [
        ({"key": 1}, []),  # whole chain missing
        ({"key": 2, "a": {}}, []),  # empty at depth 1
        ({"key": 3, "a": {"b": {}}}, []),  # empty at depth 2
        ({"key": 4, "a": {"b": {"c": []}}}, []),  # empty list at depth 3
        ({"key": 5, "a": {"b": {"c": [None]}}}, [{"x": None}]),
        ({"key": 6, "a": {"b": {"c": [{"x": 9}, {}]}}}, [{"x": 9}, {"x": None}]),
    ],
)
def test_deep_empty_list_reconstructs_distinctly(record, expected_elements):
    columns = stripe_records([record], DEEP_SCHEMA)
    (rebuilt,) = assemble_records(columns, DEEP_SCHEMA)
    assert rebuilt["a"]["b"]["c"] == expected_elements


@pytest.mark.parametrize("schema", [WRAPPED_SCHEMA, DEEP_SCHEMA], ids=["wrapped", "deep"])
def test_wrapped_empty_lists_flatten_parity(schema):
    if schema is WRAPPED_SCHEMA:
        records = [
            {"key": 1},
            {"key": 2, "meta": None},
            {"key": 3, "meta": {"n": 7}},
            {"key": 4, "meta": {"tags": [], "n": 7}},
            {"key": 5, "meta": {"tags": [None], "n": 8}},
            {"key": 6, "meta": {"tags": ["a", None, "b"], "n": 9}},
        ]
    else:
        records = [
            {"key": 1},
            {"key": 2, "a": {}},
            {"key": 3, "a": {"b": {}}},
            {"key": 4, "a": {"b": {"c": []}}},
            {"key": 5, "a": {"b": {"c": [None]}}},
            {"key": 6, "a": {"b": {"c": [{"x": 9}, {}]}}},
        ]
    leaves = schema.leaf_paths()
    expected, _ = oracle_rows(records, schema, leaves)
    columns = stripe_records(records, schema)
    assert list(assemble_rows(columns, schema, leaves)) == expected
    assert scanned_rows(build_layout("parquet", schema, leaves, records=records), leaves) == expected
