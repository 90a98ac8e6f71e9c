"""Property tests: the factorized batch hash join matches the oracle's dict join.

Random key distributions — null-free numerics, strings, null-heavy columns,
all-duplicate keys, empty sides — must produce bit-identical output (row
order, multiplicity, merged field order, value types) from
:func:`hash_join_batches` and :func:`tests.oracle.join_rows`, across
varying batch boundaries.  The overlap-column guard and the float64 fallback
edges (2**53 integers, genuine NaN key values) are locked down here too.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.engine.batch import RecordBatch, rows_from_batches
from repro.engine.operators import hash_join_batches
from tests.oracle import join_rows


def _chunks(rows: list[dict], size: int) -> list[RecordBatch]:
    """Batches mirroring the rows' own field order (as engine scans do)."""
    if not rows:
        return []
    fields = list(rows[0])
    return [RecordBatch.from_rows(rows[i : i + size], fields) for i in range(0, len(rows), size)]


def assert_join_parity(
    left_rows: list[dict],
    right_rows: list[dict],
    left_key: str = "k",
    right_key: str = "k",
    batch_sizes: tuple[int, int] = (7, 5),
) -> list[dict]:
    """Assert the batch join reproduces the oracle's join bit for bit."""
    expected = join_rows(left_rows, right_rows, left_key, right_key)
    joined = hash_join_batches(
        _chunks(left_rows, batch_sizes[0]),
        _chunks(right_rows, batch_sizes[1]),
        left_key,
        right_key,
    )
    got = rows_from_batches(joined)
    assert got == expected
    # Same merged-field order and the same value objects' types, not just
    # equality: min/max-style consumers downstream are type-sensitive.
    assert [list(row) for row in got] == [list(row) for row in expected]
    assert [[type(v) for v in row.values()] for row in got] == [
        [type(v) for v in row.values()] for row in expected
    ]
    return expected


# ---------------------------------------------------------------------------
# Random key distributions
# ---------------------------------------------------------------------------
class TestFactorizedProbeDistributions:
    def test_null_free_numeric_keys(self):
        rng = random.Random(11)
        left = [{"k": rng.randint(0, 25), "a": i} for i in range(300)]
        right = [{"k": rng.randint(0, 25), "b": i * 0.5} for i in range(200)]
        rows = assert_join_parity(left, right)
        assert rows, "distribution must actually produce matches"

    def test_float_keys_with_duplicates(self):
        rng = random.Random(12)
        pool = [round(rng.uniform(0, 5), 1) for _ in range(8)]
        left = [{"k": rng.choice(pool), "a": i} for i in range(120)]
        right = [{"k": rng.choice(pool), "b": i} for i in range(140)]
        assert assert_join_parity(left, right)

    def test_string_keys_take_the_dict_probe(self):
        rng = random.Random(13)
        left = [{"k": rng.choice("abcdef"), "a": i} for i in range(90)]
        right = [{"k": rng.choice("abcdefgh"), "b": i} for i in range(110)]
        assert assert_join_parity(left, right)

    def test_null_heavy_keys_are_dropped_on_both_sides(self):
        rng = random.Random(14)
        left = [
            {"k": None if rng.random() < 0.5 else rng.randint(0, 6), "a": i} for i in range(150)
        ]
        right = [
            {"k": None if rng.random() < 0.5 else rng.randint(0, 6), "b": i} for i in range(150)
        ]
        rows = assert_join_parity(left, right)
        assert all(row["k"] is not None for row in rows)

    def test_all_duplicate_single_key_cross_product(self):
        left = [{"k": 1, "a": i} for i in range(25)]
        right = [{"k": 1, "b": i} for i in range(30)]
        rows = assert_join_parity(left, right)
        assert len(rows) == 25 * 30

    def test_empty_build_probe_and_both_sides(self):
        some = [{"k": 1, "a": 0}, {"k": 2, "a": 1}]
        assert assert_join_parity([], [{"k": 1, "b": 0}]) == []
        assert assert_join_parity(some, []) == []
        assert assert_join_parity([], []) == []
        assert hash_join_batches([], [], "k", "k") == []

    def test_all_null_keys_on_one_side(self):
        left = [{"k": None, "a": i} for i in range(10)]
        right = [{"k": 1, "b": 0}]
        assert assert_join_parity(left, right) == []

    def test_distinct_key_names_and_batch_size_one(self):
        rng = random.Random(15)
        left = [{"k1": rng.randint(0, 4), "a": i} for i in range(40)]
        right = [{"k2": rng.randint(0, 4), "b": i} for i in range(45)]
        assert_join_parity(left, right, "k1", "k2", batch_sizes=(1, 1))
        assert_join_parity(left, right, "k1", "k2", batch_sizes=(1000, 1000))


# ---------------------------------------------------------------------------
# Float64 fallback edges
# ---------------------------------------------------------------------------
class TestProbeFallbackEdges:
    def test_mixed_int_float_bool_keys_merge_like_dict_hashing(self):
        left = [{"k": 1, "a": 0}, {"k": 1.0, "a": 1}, {"k": True, "a": 2}, {"k": 2, "a": 3}]
        right = [{"k": 1.0, "b": 0}, {"k": 2, "b": 1}, {"k": 3, "b": 2}]
        rows = assert_join_parity(left, right)
        assert len(rows) == 4  # 1/1.0/True all match 1.0, plus the 2 pair

    def test_huge_integer_keys_do_not_merge_in_float64(self):
        """2**53 and 2**53 + 1 coerce to the same float64; the vectorized
        probe must detect the magnitude and fall back to the dict pass."""
        left = [{"k": 2**53, "a": 0}, {"k": 2**53 + 1, "a": 1}]
        right = [{"k": 2**53, "b": 0}, {"k": 2**53 + 1, "b": 1}]
        rows = assert_join_parity(left, right)
        assert len(rows) == 2

    def test_genuine_nan_key_keeps_dict_identity_semantics(self):
        """A real float('nan') key is indistinguishable from a null in the
        float64 view, so the probe must take the dict pass, where the same
        NaN object matches itself by identity (as a dict lookup does)."""
        nan = float("nan")
        left = [{"k": nan, "a": 0}, {"k": 1.0, "a": 1}]
        right = [{"k": nan, "b": 0}, {"k": float("nan"), "b": 1}, {"k": 1.0, "b": 2}]
        rows = assert_join_parity(left, right)
        # The shared nan object matches; the fresh nan object does not.
        assert len(rows) == 2

    def test_mixed_string_and_numeric_keys(self):
        left = [{"k": 1, "a": 0}, {"k": "1", "a": 1}, {"k": 2.5, "a": 2}]
        right = [{"k": "1", "b": 0}, {"k": 1, "b": 1}, {"k": 2.5, "b": 2}]
        rows = assert_join_parity(left, right)
        assert len(rows) == 3  # "1" matches only "1", 1 only 1, 2.5 only 2.5


# ---------------------------------------------------------------------------
# Output mechanics
# ---------------------------------------------------------------------------
class TestJoinOutputMechanics:
    def test_gathered_numeric_views_stay_aligned(self):
        """Views already built on the inputs are gathered, not rebuilt, and
        must stay aligned with the gathered value columns."""
        left = [{"k": i % 3, "a": float(i)} for i in range(12)]
        right = [{"j": i % 3, "b": float(i) * 2} for i in range(9)]
        left_batches = _chunks(left, 4)
        right_batches = _chunks(right, 3)
        for batch in left_batches + right_batches:
            for name in batch.field_names():
                batch.numeric_view(name)
        (joined,) = hash_join_batches(left_batches, right_batches, "k", "j")
        for name in joined.field_names():
            view = joined.numeric_view(name)
            expected = [row[name] for row in joined.to_rows()]
            assert view is not None
            np.testing.assert_array_equal(view, np.array(expected, dtype=np.float64))

    def test_overlapping_non_key_columns_raise(self):
        left = _chunks([{"k1": 1, "x": "left"}], 4)
        right = _chunks([{"k2": 1, "x": "right"}], 4)
        with pytest.raises(ValueError, match="overlapping non-key columns"):
            hash_join_batches(left, right, "k1", "k2")
        same_key = [{"k": 1, "x": "left", "a": 0}], [{"k": 1, "x": "right", "b": 0}]
        with pytest.raises(ValueError, match="overlapping non-key columns"):
            hash_join_batches(_chunks(same_key[0], 4), _chunks(same_key[1], 4), "k", "k")

    def test_overlap_guard_skipped_when_a_side_is_empty(self):
        """An empty side yields an empty (trivially correct) output, never an
        overlap error — even for schema'd zero-row batches that still carry
        conflicting column names."""
        empty = RecordBatch({"k": [], "x": []}, 0)
        populated = _chunks([{"k": 1, "x": 2, "b": 3}], 4)
        assert hash_join_batches([empty], populated, "k", "k") == []
        assert hash_join_batches(populated, [empty], "k", "k") == []

    def test_same_name_join_key_overlap_is_allowed(self):
        """A join key spelled identically on both sides is the one legal
        shared name: its values agree on every matched row."""
        rows = assert_join_parity(
            [{"k": 1, "a": 0}, {"k": 2, "a": 1}], [{"k": 1, "b": 0}, {"k": 1, "b": 1}]
        )
        assert [row["k"] for row in rows] == [1, 1]

    def test_key_column_reused_as_other_sides_non_key_raises(self):
        """Asymmetric reuse of a key name (left joins on ``k``, right merely
        carries a ``k`` column) would silently overwrite the key — rejected."""
        left = [{"k": 1, "a": 0}]
        right = [{"j": 1, "k": 99, "b": 0}]
        with pytest.raises(ValueError, match="overlapping non-key columns"):
            hash_join_batches(_chunks(left, 2), _chunks(right, 2), "k", "j")
