"""Positional maps: byte-offset skeletons of raw text files.

NoDB and Proteus build a *positional map* while scanning a raw file for the
first time: for each record they remember its byte offset.  Later queries use
the map to navigate the file without re-discovering its structure, which
reduces the cost of repeatedly parsing already accessed raw data.

The map also gives ReCache its *lazy* caching mode: a lazy cache stores only
the record offsets of the tuples that satisfied a selection, so reusing the
cache means re-reading (and re-parsing) just those records via the map.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PositionalMap:
    """Record-level byte offsets for one raw file.

    Scans fill the two lists a chunk at a time (see
    :meth:`repro.formats.linefile.LineFile._line_chunks`).
    """

    #: byte offset of the start of each record (line), in file order.
    record_offsets: list[int] = field(default_factory=list)
    #: byte length of each record, excluding the newline.
    record_lengths: list[int] = field(default_factory=list)
    #: set by :meth:`mark_complete` once a scan has walked the whole file; an
    #: abandoned scan (a consumer that stops pulling the generator) leaves the
    #: map partial, and a partial map must not masquerade as the file total.
    _complete: bool = False

    @property
    def record_count(self) -> int:
        return len(self.record_offsets)

    @property
    def complete(self) -> bool:
        """True once record-level offsets for the whole file are present."""
        return self._complete

    def mark_complete(self) -> None:
        """Declare that the map now covers every record of the file."""
        self._complete = True

    def nbytes(self) -> int:
        """Approximate memory footprint of the map, for accounting."""
        return (len(self.record_offsets) + len(self.record_lengths)) * 8
