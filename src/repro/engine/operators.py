"""Physical operator building blocks: filtering, hash join, aggregation.

The operators work on :class:`~repro.engine.batch.RecordBatch` chunks:
predicates arrive as compiled NumPy mask evaluators, projections and joins
move whole columns, and aggregation folds each column in row order so results
are bitwise those of a plain left-to-right fold over the rows (the rule the
reference oracle in ``tests/oracle.py`` spells out).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.engine.batch import RecordBatch, concat_batches, object_validity_mask
from repro.engine.compiler import CompiledAggregate


def _check_join_columns(
    left_fields: Iterable[str],
    right_fields: Iterable[str],
    left_key: str,
    right_key: str,
) -> None:
    """Reject joins whose sides share column names the merge would overwrite.

    The merged output carries every column of both sides, so the only shared
    name with well-defined semantics is a join key spelled identically on
    both sides (its values agree on every matched row).  Any other overlap
    used to be silently resolved "probe side wins" — wrong data with no
    warning — and now raises instead.  The check applies only when both sides
    are non-empty: an empty side yields an empty (trivially correct) output.
    """
    allowed = {left_key} if left_key == right_key else set()
    overlap = sorted((set(left_fields) & set(right_fields)) - allowed)
    if overlap:
        raise ValueError(
            f"join would silently overwrite overlapping non-key columns {overlap}; "
            "project or rename them on one side before joining"
        )


def filter_batches(
    batches,
    batch_predicate: Callable[[RecordBatch], np.ndarray],
    dedupe_records: bool = False,
) -> list[RecordBatch]:
    """Apply a compiled batch predicate, keeping only non-empty batches.

    ``dedupe_records`` keeps the first satisfying row of each original record
    (the nested algebra's record-level semantics).  A batch whose rows all
    survive is passed through untouched instead of being copied.
    """
    output: list[RecordBatch] = []
    for batch in batches:
        mask = batch_predicate(batch)
        if dedupe_records:
            indexes = batch.first_true_per_record(mask)
        else:
            indexes = np.nonzero(mask)[0]
        if len(indexes) == batch.row_count:
            output.append(batch)
        elif len(indexes):
            output.append(batch.take(indexes))
    return output


def project_batches(batches: Sequence[RecordBatch], fields: Sequence[str]) -> list[RecordBatch]:
    """Restrict each batch to ``fields`` (missing fields become ``None``)."""
    wanted = list(fields)
    return [batch.project(wanted) for batch in batches]


def hash_join_batches(
    left_batches: Sequence[RecordBatch],
    right_batches: Sequence[RecordBatch],
    left_key: str,
    right_key: str,
) -> list[RecordBatch]:
    """Columnar equi-join over two batch streams with a factorized probe.

    Semantics: the smaller side (left on ties) is the build side, null keys
    are dropped, output is ordered by probe position with matches in build
    order, merged rows carry build-side fields first with a shared join-key
    name carrying the probe value, and overlapping non-key columns are
    rejected.  Mechanically the join is factorized: the
    build keys are grouped once into dense codes with contiguous row-index
    slices, the probe resolves whole key columns to those codes — via NumPy
    ``searchsorted`` over the float64 views when both key columns are
    numeric, one dict pass otherwise — and the matched (probe, build) row
    indexes are expanded as arrays, never through per-row list appends.  The
    output gathers whole columns by those index arrays and re-uses any
    already-built float64 views of the inputs.
    """
    left = concat_batches(list(left_batches)) if left_batches else RecordBatch({}, 0)
    right = concat_batches(list(right_batches)) if right_batches else RecordBatch({}, 0)
    if left.row_count and right.row_count:
        _check_join_columns(left.field_names(), right.field_names(), left_key, right_key)
    if left.row_count <= right.row_count:
        build, build_key = left, left_key
        probe, probe_key = right, right_key
    else:
        build, build_key = right, right_key
        probe, probe_key = left, left_key

    probe_indexes, build_indexes = _factorized_probe(build, build_key, probe, probe_key)
    if len(probe_indexes) == 0:
        return []
    probe_list = probe_indexes.tolist()  # rowwise-fallback: join output gathers object columns through Python; numeric columns regather from the float64 views
    build_list = build_indexes.tolist()  # rowwise-fallback: join output gathers object columns through Python (see above)
    # Merged field order: build fields first, probe-only fields appended,
    # shared names carrying probe values.
    build_fields = build.field_names()
    probe_fields = set(probe.field_names())
    columns: dict[str, list] = {}
    gathered_from: dict[str, tuple[RecordBatch, np.ndarray]] = {}
    for name in build_fields:
        if name in probe_fields:
            source_batch, indexes, index_list = probe, probe_indexes, probe_list
        else:
            source_batch, indexes, index_list = build, build_indexes, build_list
        source = source_batch.column(name)
        columns[name] = [source[i] for i in index_list]  # rowwise-fallback: object-column gather of the join output (numeric views reseeded below)
        gathered_from[name] = (source_batch, indexes)
    for name in probe.field_names():
        if name not in columns:
            source = probe.column(name)
            columns[name] = [source[i] for i in probe_list]  # rowwise-fallback: object-column gather of the join output (numeric views reseeded below)
            gathered_from[name] = (probe, probe_indexes)
    joined = RecordBatch(columns, row_count=len(probe_list))
    # Numeric views already built on the inputs (layouts pre-seed them, the
    # probe builds the key views) gather straight into the output, so a
    # downstream aggregate/filter never re-scans the joined columns.
    for name, (source_batch, indexes) in gathered_from.items():
        view = source_batch._numeric.get(name)
        if view is not None:
            joined.set_numeric_view(name, view[indexes])
    return [joined]


_NO_MATCHES = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def _factorized_probe(
    build: RecordBatch, build_key: str, probe: RecordBatch, probe_key: str
) -> tuple[np.ndarray, np.ndarray]:
    """Matched ``(probe_rows, build_rows)`` index arrays in probe order.

    Every probe row that finds its key in the build side contributes one
    output slot per matching build row, matches ordered by build position
    (the semantics of a ``key -> [build rows]`` hash table).
    """
    if build.row_count == 0 or probe.row_count == 0:
        return _NO_MATCHES
    vectorized = _vectorized_key_probe(build, build_key, probe, probe_key)
    if vectorized is not None:
        return vectorized
    return _dict_key_probe(build.column(build_key), probe.column(probe_key))


def _key_view(batch: RecordBatch, key: str) -> np.ndarray | None:
    """A float64 key view usable for vectorized matching, else ``None``.

    Usable means: the column is purely numeric, every NaN slot is a genuine
    ``None`` (a real ``float('nan')`` data value carries dict-identity
    semantics, which float equality cannot reproduce), and no
    magnitude reaches 2**53, beyond which float64 would merge distinct
    integer keys — the same guards :func:`_factorize_keys` applies for
    group-by.
    """
    view = batch.numeric_view(key)
    if view is None:
        return None
    nan_mask = np.isnan(view)
    if nan_mask.any():
        values = batch.column(key)
        if not all(values[i] is None for i in np.nonzero(nan_mask)[0].tolist()):  # rowwise-fallback: NaN-provenance audit (None vs real NaN) touches only the NaN positions
            return None
        valid = view[~nan_mask]
        if len(valid) and np.abs(valid).max() >= 2**53:
            return None
    elif len(view) and np.abs(view).max() >= 2**53:
        return None
    return view


def _vectorized_key_probe(
    build: RecordBatch, build_key: str, probe: RecordBatch, probe_key: str
) -> tuple[np.ndarray, np.ndarray] | None:
    """The NumPy probe over numeric key columns, or ``None`` to take the
    dict pass (mixed/string/huge/NaN-valued keys).

    Float64 equality merges ``1``/``1.0``/``True`` exactly like dict hashing
    does, so matching ``searchsorted`` positions on the sorted unique build
    keys reproduces hash-table lookups; a stable argsort keeps each key
    group's build rows in build order.
    """
    build_view = _key_view(build, build_key)
    probe_view = _key_view(probe, probe_key)
    if build_view is None or probe_view is None:
        return None
    build_valid = ~np.isnan(build_view)
    probe_valid = ~np.isnan(probe_view)
    build_values = build_view[build_valid]
    probe_values = probe_view[probe_valid]
    if len(build_values) == 0 or len(probe_values) == 0:
        return _NO_MATCHES
    build_rows = np.nonzero(build_valid)[0]
    order = np.argsort(build_values, kind="stable")
    sorted_values = build_values[order]
    sorted_rows = build_rows[order]
    unique_values, group_starts = np.unique(sorted_values, return_index=True)
    group_counts = np.diff(np.append(group_starts, len(sorted_values)))

    probe_rows = np.nonzero(probe_valid)[0]
    positions = np.searchsorted(unique_values, probe_values)
    positions = np.minimum(positions, len(unique_values) - 1)
    matched = unique_values[positions] == probe_values
    groups = positions[matched]
    return _expand_matches(
        probe_rows[matched], group_starts[groups], group_counts[groups], sorted_rows
    )


def _dict_key_probe(build_keys: list, probe_keys: list) -> tuple[np.ndarray, np.ndarray]:
    """One dict pass per side — plain hash-table key semantics (object
    hashing, identity-sensitive NaN) — with the match expansion still done
    as arrays instead of per-row list appends."""
    codes_by_key: dict = {}
    slot_rows: list[list[int]] = []
    for index, key in enumerate(build_keys):
        if key is None:
            continue
        code = codes_by_key.get(key)
        if code is None:
            codes_by_key[key] = code = len(slot_rows)
            slot_rows.append([])
        slot_rows[code].append(index)

    lookup = codes_by_key.get
    probe_rows: list[int] = []
    probe_codes: list[int] = []
    for index, key in enumerate(probe_keys):
        if key is None:
            continue
        code = lookup(key)
        if code is not None:
            probe_rows.append(index)
            probe_codes.append(code)
    if not probe_rows:
        return _NO_MATCHES

    counts = np.fromiter(map(len, slot_rows), dtype=np.int64, count=len(slot_rows))  # rowwise-fallback: object-key probe is a Python dict walk; fromiter packs its matches back into arrays
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    flat_rows = np.fromiter(  # rowwise-fallback: packs the dict-probe matches back into arrays (see above)
        (row for rows in slot_rows for row in rows), dtype=np.int64, count=int(counts.sum())
    )
    codes = np.asarray(probe_codes, dtype=np.int64)
    return _expand_matches(
        np.asarray(probe_rows, dtype=np.int64), starts[codes], counts[codes], flat_rows
    )


def _expand_matches(
    probe_rows: np.ndarray,
    match_starts: np.ndarray,
    match_counts: np.ndarray,
    grouped_build_rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-probe-row group slices into aligned output index arrays.

    ``grouped_build_rows`` holds the build rows grouped by key (each group a
    contiguous ``starts``/``counts`` slice in build order); the expansion
    repeats each probe row by its group size and enumerates the group slice
    with one ``arange`` — the vectorized equivalent of a
    "for match in matches: append" inner loop.
    """
    total = int(match_counts.sum())
    if total == 0:
        return _NO_MATCHES
    probe_indexes = np.repeat(probe_rows, match_counts)
    ends = np.cumsum(match_counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - match_counts, match_counts)
    build_indexes = grouped_build_rows[np.repeat(match_starts, match_counts) + offsets]
    return probe_indexes, build_indexes


def aggregate_batches(
    batches: Sequence[RecordBatch],
    aggregates: Sequence[CompiledAggregate],
    group_by: Sequence[str] = (),
) -> RecordBatch:
    """Compute aggregates over a batch stream, optionally grouped.

    The output is one batch with a row per group: the key columns, then one
    column per aggregate.  Grouped aggregation is NumPy-backed: the key
    columns are factorized into dense group codes (vectorized through float64
    views where the keys are null-free numerics, a single dict pass
    otherwise), rows are gathered per group with one stable argsort, and each
    aggregate reduces contiguous per-group slices.  Group rows appear in
    first-occurrence order and every reduction folds its values left-to-right
    in row order, so results — including floating-point sums and value types
    of min/max — are those of a plain per-row fold.
    """
    if not group_by:
        for batch in batches:
            for aggregate in aggregates:
                aggregate.update_batch(batch)
        return RecordBatch(
            {agg.spec.output_name: [agg.result()] for agg in aggregates}, row_count=1
        )

    merged = concat_batches(list(batches)) if batches else RecordBatch({}, 0)
    if merged.row_count == 0:
        return RecordBatch({}, 0)
    keys = list(group_by)
    codes, group_keys = _factorize_keys(merged, keys)
    columns: dict[str, list] = dict(zip(keys, map(list, zip(*group_keys))))
    for aggregate in aggregates:
        values = aggregate.batch_values(merged)
        columns[aggregate.spec.output_name] = _grouped_reduce(
            aggregate.spec.func, values, codes, len(group_keys)
        )
    return RecordBatch(columns, row_count=len(group_keys))


def _factorize_keys(batch: RecordBatch, keys: Sequence[str]) -> tuple[np.ndarray, list[tuple]]:
    """Dense group codes plus the group key tuples in first-occurrence order.

    Null-free numeric key columns factorize fully vectorized via their float64
    views (float equality merges ``1``/``1.0``/``True`` exactly like dict
    hashing does, and the representative key value is the first-occurrence
    original, type preserved).  Any other key column — or a packed multi-key
    code too wide for int64 — falls back to one dict pass over the rows.
    """
    columns = [batch.column(key) for key in keys]
    arrays: list[np.ndarray] | None = []
    for key in keys:
        array = batch.numeric_view(key)
        # NaN (a null somewhere in the column) needs the dict pass for its
        # key identity; so do magnitudes at or beyond 2**53, where float64
        # can no longer represent every integer and distinct keys would
        # silently merge.
        if array is None or np.isnan(array).any() or np.abs(array).max() >= 2**53:
            arrays = None
            break
        arrays.append(array)

    if arrays is not None:
        combined = arrays[0]
        if len(arrays) > 1:
            packed = None
            for array in arrays:
                _, inverse = np.unique(array, return_inverse=True)
                width = int(inverse.max()) + 1
                if packed is None:
                    packed = inverse.astype(np.int64)
                elif packed.max() > (2**62) // width:
                    packed = None  # would overflow int64: take the dict path
                    break
                else:
                    packed = packed * width + inverse
            combined = packed
        if combined is not None:
            codes, first_rows = _first_occurrence_codes(combined)
            group_keys = [
                tuple(column[row] for column in columns) for row in first_rows.tolist()  # rowwise-fallback: materializes one key tuple per group — group-count work, not row-count
            ]
            return codes, group_keys

    ids: dict = {}
    if len(columns) == 1:
        codes_list = [ids.setdefault(value, len(ids)) for value in columns[0]]
        group_keys = [(value,) for value in ids]
    else:
        codes_list = [ids.setdefault(row_key, len(ids)) for row_key in zip(*columns)]
        group_keys = list(ids)
    return np.asarray(codes_list, dtype=np.int64), group_keys


def _first_occurrence_codes(array: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factorize ``array`` into dense codes numbered by first occurrence.

    Returns ``(codes, first_rows)`` where ``codes[i]`` is the group ordinal of
    row ``i`` and ``first_rows[g]`` is the row index where group ``g`` first
    appears (both in first-occurrence order, matching dict-insertion order).
    """
    _, first_index, inverse = np.unique(array, return_index=True, return_inverse=True)
    order = np.argsort(first_index, kind="stable")
    rank = np.empty(len(first_index), dtype=np.int64)
    rank[order] = np.arange(len(first_index), dtype=np.int64)
    return rank[inverse], first_index[order]


def _grouped_reduce(func: str, values: list, codes: np.ndarray, n_groups: int) -> list:
    """Reduce one aggregate's per-row values into one output value per group.

    Null rows are dropped by the rule ``value is not None``; the surviving
    rows are gathered per group with a stable argsort so each group's slice
    preserves row order, then reduced with the C-implemented builtins —
    ``sum`` seeded with ``0.0`` is a left-to-right float accumulation, and
    ``min``/``max`` keep the original value objects (and their types) rather
    than float64 coercions.  Non-numeric values take the same path: the
    builtins are the per-value fallback, applied per group instead of per row.
    """
    valid = object_validity_mask(values)
    vcodes = codes[valid]
    if func == "count":
        return np.bincount(vcodes, minlength=n_groups).tolist()  # rowwise-fallback: one count per group — group-count work, not row-count
    vrows = np.nonzero(valid)[0]
    order = np.argsort(vcodes, kind="stable")
    boundaries = np.searchsorted(vcodes[order], np.arange(n_groups + 1))
    gathered = [values[i] for i in vrows[order].tolist()]  # rowwise-fallback: object aggregation gathers the surviving values so builtins fold them in row order
    starts = boundaries[:-1].tolist()  # rowwise-fallback: group boundaries — group-count work, not row-count
    ends = boundaries[1:].tolist()  # rowwise-fallback: group boundaries — group-count work, not row-count
    if func == "sum":
        return [sum(gathered[s:e], 0.0) for s, e in zip(starts, ends)]
    if func == "avg":
        return [
            sum(gathered[s:e], 0.0) / (e - s) if e > s else None
            for s, e in zip(starts, ends)
        ]
    if func == "min":
        return [min(gathered[s:e]) if e > s else None for s, e in zip(starts, ends)]
    return [max(gathered[s:e]) if e > s else None for s, e in zip(starts, ends)]
