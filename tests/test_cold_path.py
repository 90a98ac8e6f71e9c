"""The columnar cold path: chunked raw scans, columns into layouts, batched lazy re-read.

Three properties of the miss path, checked from outside against
``tests/oracle.py``'s own parser:

* the chunked CSV / flat-JSON scans, their positional map and the lazy
  re-read agree with a per-line reference over adversarial files;
* an eager admission never assembles a row dictionary;
* the admission extrapolation counts raw *bytes*, not decoded characters.
"""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import AggregateSpec, FieldRef, Query, QueryEngine, RangePredicate, ReCacheConfig
from repro.engine import executor
from repro.engine.batch import RecordBatch
from repro.engine.expressions import Comparison, Literal
from repro.engine.query import TableRef
from repro.engine.types import BOOL, FLOAT, INT, STRING, Field, RecordType
from repro.faults import activate
from repro.formats import CSVPlugin, DataSource, JSONPlugin, write_csv, write_json_lines
from repro.layouts import ColumnarLayout
from tests.oracle import Oracle, flatten, parse_source, same_rows

SCHEMA = RecordType(
    [Field("id", INT), Field("value", FLOAT), Field("flag", BOOL), Field("name", STRING)]
)
FIELDS = SCHEMA.field_names()
BATCH_SIZES = (1, 7, 1024)

# ---------------------------------------------------------------------------
# Adversarial files
# ---------------------------------------------------------------------------
_names = st.one_of(
    st.just(""),
    st.sampled_from(["plain", "naïve café", "日本語テキスト", "emoji 🎉", "tab\there", " padded "]),
    st.text(alphabet=st.characters(blacklist_characters="|\r\n", blacklist_categories=("Cs",)), max_size=6),
)
_cells = st.tuples(
    st.integers(-50, 50),
    st.one_of(st.none(), st.floats(-100, 100, allow_nan=False).map(lambda x: round(x, 3))),
    st.one_of(st.none(), st.booleans()),
    _names,
    st.integers(1, 4),  # how many leading cells the (possibly ragged) CSV line keeps
    st.integers(0, 9),  # 0 => a blank line follows this record
)


@st.composite
def _files(draw):
    count = draw(st.sampled_from([199, 200, 201]))
    shapes = draw(st.lists(_cells, min_size=8, max_size=8))
    rows = [shapes[(i * 7 + i // 8) % len(shapes)] for i in range(count)]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    trailing = draw(st.booleans())
    return rows, newline, trailing


def _csv_text(rows, newline, trailing) -> str:
    lines = []
    for index, (ident, value, flag, name, width, blank) in enumerate(rows):
        cells = [
            str(ident + index),
            "" if value is None else repr(value),
            "" if flag is None else ("true" if flag else "0"),
            name,
        ]
        lines.append("|".join(cells[:width]))
        if blank == 0:
            lines.append("")
    return newline.join(lines) + (newline if trailing else "")


def _json_text(rows, newline, trailing) -> str:
    lines = []
    for index, (ident, value, flag, name, width, blank) in enumerate(rows):
        record = {"id": ident + index, "value": value, "flag": flag, "name": name or None}
        for key in FIELDS[width:]:
            del record[key]  # a missing key reads as None, like a ragged CSV line
        lines.append(json.dumps(record, ensure_ascii=False))
        if blank == 0:
            lines.append("")
    return newline.join(lines) + (newline if trailing else "")


def _reference_map(data: bytes) -> tuple[list[int], list[int]]:
    """(offset, length) of every non-blank line, found one line at a time."""
    offsets, lengths, position = [], [], 0
    for raw in io.BytesIO(data):
        line = raw.rstrip(b"\r\n")
        if line:
            offsets.append(position)
            lengths.append(len(line))
        position += len(raw)
    return offsets, lengths


def _scan_rows(plugin, batch_size, fields=None) -> list[dict]:
    return [
        row
        for batch in plugin.scan_batches(fields, batch_size=batch_size, with_payload=True)
        for row in batch.to_rows()
    ]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(spec=_files())
def test_chunked_scan_matches_the_oracle_parser(tmp_path_factory, fmt, spec):
    rows, newline, trailing = spec
    path = tmp_path_factory.mktemp("adv") / f"data.{fmt}"
    text = (_csv_text if fmt == "csv" else _json_text)(rows, newline, trailing)
    path.write_bytes(text.encode("utf-8"))
    source = DataSource("adv", path, fmt, SCHEMA)
    expected = [row for record in parse_source(source) for row in flatten(record, SCHEMA)]
    assert len(expected) == len(rows)
    offsets, lengths = _reference_map(path.read_bytes())

    for batch_size in BATCH_SIZES:
        plugin = CSVPlugin(path, SCHEMA) if fmt == "csv" else JSONPlugin(path, SCHEMA)
        assert _scan_rows(plugin, batch_size) == expected
        assert _scan_rows(plugin, batch_size, ["value", "id"]) == [
            {"value": row["value"], "id": row["id"]} for row in expected
        ]
        assert plugin.positional_map.complete
        assert plugin.positional_map.record_offsets == offsets
        assert plugin.positional_map.record_lengths == lengths
        # Any ordinals, any order, through the map: the oracle's rows.
        picked = list(range(len(rows) - 1, -1, -3))
        reread = [
            row
            for batch in plugin.read_record_batches(picked, batch_size=batch_size)
            for row in batch.to_rows()
        ]
        assert reread == [expected[i] for i in picked]

    # The payload a scan attaches converts to the full-width columns.
    batch = next(plugin.scan_batches(["id"], batch_size=1024, with_payload=True))
    columns, _ = plugin.columns_from_payload(batch.records, FIELDS)
    assert RecordBatch(columns).to_rows() == expected

    # A lazy entry's reuse re-reads through read_record_batches; an entry
    # admitted under the 200-record admission sample serves the same rows.
    query = Query(tables=[TableRef("adv", Comparison(">=", FieldRef("id"), Literal(60)))])
    bare = Query(tables=[TableRef("adv")])
    for config in (
        ReCacheConfig(admission="lazy"),
        ReCacheConfig(),
    ):
        engine = QueryEngine(config)
        engine.register(DataSource("adv", path, fmt, SCHEMA))
        oracle = Oracle(engine.catalog)
        for asked in (query, bare, query, bare, query):
            assert same_rows(engine.execute(asked).results, oracle.evaluate(asked))


# ---------------------------------------------------------------------------
# The eager path builds no row dictionary
# ---------------------------------------------------------------------------
def _boom(*args, **kwargs):
    raise AssertionError("the eager cold path assembled a row dictionary")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("adaptive", [False, True])
def test_eager_admission_builds_no_row_dict(tmp_path, monkeypatch, fmt, adaptive):
    records = [
        {"id": i, "value": i * 0.5, "flag": i % 3 == 0, "name": f"n{i}"} for i in range(1500)
    ]
    path = tmp_path / f"data.{fmt}"
    if fmt == "csv":
        write_csv(path, SCHEMA, records)
    else:
        write_json_lines(path, records)
    engine = QueryEngine(ReCacheConfig(admission="reactive" if adaptive else "eager"))
    engine.register(DataSource("data", path, fmt, SCHEMA))
    query = Query.select_aggregate(
        "data", RangePredicate("id", 100, 1200), [AggregateSpec("sum", FieldRef("value"))]
    )
    expected = Oracle(engine.catalog).evaluate(query)

    monkeypatch.setattr(RecordBatch, "from_rows", classmethod(_boom))
    assert not hasattr(ColumnarLayout, "from_rows")  # the rows constructor is gone

    with activate("scan.raw:latency:rate=0.0") as plan:
        report = engine.execute(query)
    assert same_rows(report.results, expected)
    assert report.misses == 1
    if not adaptive:
        assert report.admissions == {"eager": 1, "lazy": 0}
        (entry,) = engine.recache.entries()
        assert entry.layout.flattened_row_count == 1101 and entry.fields == FIELDS
    assert report.caching_time > 0
    assert report.operator_time + report.caching_time <= report.total_time
    # Chaos accounting is unchanged: one scan.raw opportunity per record.
    assert plan.snapshot()[0]["opportunities"] == len(records)

    again = engine.execute(query)  # a hit (or a lazy re-read): same answer, no rows either
    assert same_rows(again.results, expected) and again.cache_hits == 1


# ---------------------------------------------------------------------------
# Bugfix: the admission extrapolation counts bytes, not characters
# ---------------------------------------------------------------------------
def test_record_estimate_on_a_multibyte_file(tmp_path):
    schema = RecordType([Field("id", INT), Field("text", STRING)])
    path = tmp_path / "wide.csv"
    total = 3000
    write_csv(path, schema, [{"id": i, "text": "データ分析のための文字列" * 3} for i in range(total)])
    source = DataSource("wide", path, "csv", schema)
    sample = next(source.scan_batches(["id"], batch_size=200, with_payload=True))
    assert sample.record_count == 200
    estimate = executor._estimate_total_records(source, 200, sample.total_record_bytes)
    assert abs(estimate - total) <= 0.05 * total
