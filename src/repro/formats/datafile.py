"""Data-source registry: named raw files with their schemas and plugins.

The :class:`DataSourceCatalog` is what the query engine and ReCache share: a
mapping from logical source names (``"lineitem"``, ``"orderLineitems"``) to the
raw file backing them, its format plugin and its schema.  Cache keys and
subsumption indexes are scoped by source name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from repro.engine.types import RecordType
from repro.formats.csv_plugin import CSVPlugin
from repro.formats.json_plugin import JSONPlugin


@dataclass
class DataSource:
    """One raw dataset: a file, its format and its (possibly nested) schema."""

    name: str
    path: Path
    format: str
    schema: RecordType
    delimiter: str = "|"
    _plugin: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.path = Path(self.path)
        if self.format not in ("csv", "json"):
            raise ValueError(f"unsupported format: {self.format!r}")

    @property
    def plugin(self):
        """The lazily constructed format plugin for this source."""
        if self._plugin is None:
            if self.format == "csv":
                self._plugin = CSVPlugin(self.path, self.schema, delimiter=self.delimiter)
            else:
                self._plugin = JSONPlugin(self.path, self.schema)
        return self._plugin

    @property
    def flattened_schema(self) -> RecordType:
        return self.schema.flattened()

    def scan(self, fields: Sequence[str] | None = None) -> Iterator[dict]:
        """Scan the raw file, yielding flattened rows."""
        return self.plugin.scan(fields)

    def scan_records(self, fields: Sequence[str] | None = None) -> Iterator[dict]:
        """Scan yielding nested records (JSON) or flat rows (CSV)."""
        if self.format == "json":
            return self.plugin.scan_records(fields)
        return self.plugin.scan(fields)

    def scan_batches(
        self,
        fields: Sequence[str] | None = None,
        batch_size: int = 1024,
        with_payload: bool = False,
    ):
        """Scan the raw file as :class:`~repro.engine.batch.RecordBatch` chunks."""
        return self.plugin.scan_batches(fields, batch_size=batch_size, with_payload=with_payload)

    def read_record_batches(
        self, indexes: Sequence[int], fields: Sequence[str] | None = None, batch_size: int = 1024
    ):
        """The records at positional-map ordinals ``indexes`` as record batches.

        What reusing a lazy cache entry costs: only the recorded lines are
        fetched, and they go through the same columnar parse as a scan.
        """
        return self.plugin.read_record_batches(indexes, fields, batch_size=batch_size)

    def read_record_rows(
        self, indexes: Sequence[int], fields: Sequence[str] | None = None
    ) -> Iterator[list[dict]]:
        """Rows of each requested record, grouped per record.

        A per-record adapter over :meth:`read_record_batches`.
        """
        for batch in self.read_record_batches(indexes, fields):
            rows = batch.to_rows()
            bounds = batch.record_offsets()
            for start, stop in zip(bounds[:-1], bounds[1:]):
                yield rows[start:stop]

    def file_size(self) -> int:
        return self.plugin.file_size()

    def record_count(self) -> int:
        return self.plugin.record_count()

    def is_nested(self) -> bool:
        """True when the schema contains any list field (nested data)."""
        return bool(self.schema.nested_paths())


class DataSourceCatalog:
    """Registry of the data sources known to a query engine instance."""

    def __init__(self) -> None:
        self._sources: dict[str, DataSource] = {}

    def register(self, source: DataSource) -> DataSource:
        if source.name in self._sources:
            raise ValueError(f"data source {source.name!r} already registered")
        self._sources[source.name] = source
        return source

    def register_csv(
        self, name: str, path: str | Path, schema: RecordType, delimiter: str = "|"
    ) -> DataSource:
        return self.register(DataSource(name, Path(path), "csv", schema, delimiter))

    def register_json(self, name: str, path: str | Path, schema: RecordType) -> DataSource:
        return self.register(DataSource(name, Path(path), "json", schema))

    def get(self, name: str) -> DataSource:
        try:
            return self._sources[name]
        except KeyError as exc:
            raise KeyError(f"unknown data source: {name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._sources

    def __iter__(self) -> Iterator[DataSource]:
        return iter(self._sources.values())

    def names(self) -> list[str]:
        return list(self._sources)

    def __len__(self) -> int:
        return len(self._sources)
