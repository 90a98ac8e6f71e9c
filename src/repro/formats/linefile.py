"""Chunked access to line-delimited raw files, shared by the format plugins.

Both raw formats (CSV and line-delimited JSON) hold one record per line, so
they share everything around the parse: reading a chunk of lines with one
decode, keeping blank lines out of the record ordinals, building the
record-level :class:`~repro.formats.positional_map.PositionalMap` on the
first full pass, fetching chosen records through that map, and handing each
chunk of lines to the format's columnar parse.
"""

from __future__ import annotations

import mmap
from itertools import accumulate, compress, islice
from pathlib import Path
from typing import Iterator, Sequence

from repro.core.errors import TransientScanError
from repro.engine.batch import RecordBatch
from repro.faults import runtime as faults
from repro.formats.positional_map import PositionalMap


class LineFile:
    """A raw file of one record per line, with its positional map.

    A format plugin supplies the parse: ``_resolve_fields(fields)`` (the
    column names a ``fields`` argument stands for, ``None`` meaning all),
    ``_batch(lines, wanted, sizes)`` (one :class:`RecordBatch` of the
    ``wanted`` columns from a chunk of lines, with the caching payload and
    the raw ``sizes`` attached when ``sizes`` is given) and
    ``columns_from_payload(payload, fields)`` (more columns from that payload).
    """

    format_name = "raw"

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.positional_map = PositionalMap()

    def scan(self, fields: Sequence[str] | None = None) -> Iterator[dict]:
        """Yield flattened rows, restricted to ``fields`` when given."""
        for batch in self.scan_batches(fields):
            yield from batch.iter_rows()

    def scan_batches(
        self,
        fields: Sequence[str] | None = None,
        batch_size: int = 1024,
        with_payload: bool = False,
    ) -> Iterator[RecordBatch]:
        """Yield the file as :class:`RecordBatch` chunks of up to ``batch_size`` records.

        Only ``fields`` are converted (an empty list reads as all fields, for
        bare-scan queries).  ``with_payload`` attaches what the caching
        materializer needs to convert the *other* fields of the satisfying
        records later without reading the line again — the format's parsed
        form of each record (``batch.records``, see ``columns_from_payload``)
        and its raw byte size (``batch.record_bytes``).
        """
        wanted = self._resolve_fields(fields or None)
        for lines, sizes in self._line_chunks(batch_size):
            yield self._batch(lines, wanted, sizes if with_payload else None)

    def read_record_batches(
        self, indexes: Sequence[int], fields: Sequence[str] | None = None, batch_size: int = 1024
    ) -> Iterator[RecordBatch]:
        """Yield the records at map ordinals ``indexes`` as batches, in that order.

        The access path of a *lazy* cache entry (ordinals of satisfying
        records): only the recorded lines are fetched, and they go through
        the same columnar parse as a scan.
        """
        wanted = self._resolve_fields(fields)
        for lines in self._record_line_chunks(indexes, batch_size):
            yield self._batch(lines, wanted, None)

    def file_size(self) -> int:
        return self.path.stat().st_size

    def record_count(self) -> int:
        if not self.positional_map.complete:
            # A structural pass: lines are located, nothing is parsed.
            for _ in self._line_chunks(4096):
                pass
        return self.positional_map.record_count

    def _line_chunks(self, chunk_records: int) -> Iterator[tuple[list[str], list[int]]]:
        """Yield the file as ``(lines, raw_sizes)`` chunks of up to ``chunk_records``.

        ``lines`` are decoded and stripped of their terminator (``\\n`` or
        ``\\r\\n``); ``raw_sizes`` are their byte lengths in the file,
        terminator included.  Blank lines yield no record, so they take no map
        ordinal either: lazy caches store *yielded* record ordinals and
        resolve them through the map.

        The first pass builds the positional map into a fresh instance and
        installs it only when the pass reaches the end of the file, so an
        abandoned scan never publishes a partial map and concurrent first
        scans never interleave their offsets.
        """
        new_map = None if self.positional_map.complete else PositionalMap()
        injector = faults.injector_for("scan.raw", self.path.name)
        offset = 0
        try:
            with self.path.open("rb") as handle:
                while raw := list(islice(handle, chunk_records)):
                    sizes = list(map(len, raw))
                    text = b"".join(raw).decode("utf-8")
                    lines = text.split("\n")
                    if not lines[-1]:
                        lines.pop()  # the chunk ended on its newline
                    if "\r" in text:
                        lines = [line.rstrip("\r") for line in lines]
                    keep = list(map(bool, lines)) if "" in lines else None
                    if new_map is not None:
                        starts = list(accumulate(sizes, initial=offset))
                        offset = starts.pop()
                        lengths = [len(line.rstrip(b"\r\n")) for line in raw]
                        if keep is not None:
                            starts, lengths = compress(starts, keep), compress(lengths, keep)
                        new_map.record_offsets.extend(starts)
                        new_map.record_lengths.extend(lengths)
                    if keep is not None:
                        lines = list(compress(lines, keep))
                        sizes = list(compress(sizes, keep))
                    if injector is not None:
                        for _ in lines:  # one fault opportunity per record
                            injector()
                    if lines:
                        yield lines, sizes
        except OSError as exc:
            raise TransientScanError(
                f"{self.format_name} scan of {self.path.name} failed: {exc}"
            ) from exc
        if new_map is not None:
            new_map.mark_complete()
            self.positional_map = new_map

    def _record_line_chunks(
        self, indexes: Sequence[int], chunk_records: int
    ) -> Iterator[list[str]]:
        """Yield the decoded lines of the records at map ordinals ``indexes``.

        Instead of re-scanning and re-filtering the whole file, only the
        recorded spans are fetched — through a read-only memory map, so a
        sparse selection touches only the pages it needs.  Lines come back in
        the order requested, ``chunk_records`` at a time.
        """
        self.record_count()  # completes the map when no scan has yet
        offsets = self.positional_map.record_offsets
        lengths = self.positional_map.record_lengths
        indexes = list(indexes)
        if not indexes:
            return
        injector = faults.injector_for("scan.raw", self.path.name)
        try:
            with self.path.open("rb") as handle, mmap.mmap(
                handle.fileno(), 0, access=mmap.ACCESS_READ
            ) as data:
                for start in range(0, len(indexes), chunk_records):
                    chunk = indexes[start : start + chunk_records]
                    if injector is not None:
                        for _ in chunk:
                            injector()
                    spans = zip(map(offsets.__getitem__, chunk), map(lengths.__getitem__, chunk))
                    pieces = [data[begin : begin + size] for begin, size in spans]
                    yield b"\n".join(pieces).decode("utf-8").split("\n")
        except OSError as exc:
            raise TransientScanError(
                f"{self.format_name} record read of {self.path.name} failed: {exc}"
            ) from exc
