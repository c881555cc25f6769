"""Unit tests for extent construction and transfer splitting."""

import pytest

from repro.disk.request import (
    Extent,
    coalesce_extents,
    extents_of_blocks,
    split_for_transfer,
)
from repro.units import KB

BS = 8 * KB


class TestExtent:
    def test_end(self):
        assert Extent(10, 3, 3 * BS).end == 13

    def test_rejects_zero_blocks(self):
        with pytest.raises(ValueError):
            Extent(0, 0, 1)

    def test_rejects_zero_bytes(self):
        with pytest.raises(ValueError):
            Extent(0, 1, 0)


class TestExtentsOfBlocks:
    def test_empty(self):
        assert extents_of_blocks([], BS) == []

    def test_single_block(self):
        assert extents_of_blocks([5], BS) == [Extent(5, 1, BS)]

    def test_contiguous_run_merges(self):
        assert extents_of_blocks([5, 6, 7], BS) == [Extent(5, 3, 3 * BS)]

    def test_gap_splits(self):
        assert extents_of_blocks([5, 6, 9], BS) == [
            Extent(5, 2, 2 * BS),
            Extent(9, 1, BS),
        ]

    def test_backwards_jump_splits(self):
        assert extents_of_blocks([9, 5], BS) == [
            Extent(9, 1, BS),
            Extent(5, 1, BS),
        ]

    def test_file_size_trims_tail_of_merged_extent(self):
        extents = extents_of_blocks([5, 6], BS, file_size=BS + 3 * KB)
        assert len(extents) == 1
        assert extents[0].nbytes == BS + 3 * KB

    def test_file_size_trims_final_extent(self):
        extents = extents_of_blocks([5, 9], BS, file_size=BS + 3 * KB)
        assert extents[-1].nbytes == 3 * KB

    def test_file_size_must_be_consistent(self):
        with pytest.raises(ValueError):
            extents_of_blocks([5, 6], BS, file_size=3 * BS)

    def test_logical_order_preserved(self):
        # Physically descending but logically sequential stays 3 extents.
        assert len(extents_of_blocks([9, 8, 7], BS)) == 3


class TestCoalesceExtents:
    def test_adjacent_full_extents_merge(self):
        merged = coalesce_extents(
            [Extent(5, 2, 2 * BS), Extent(7, 1, BS)], BS
        )
        assert merged == [Extent(5, 3, 3 * BS)]

    def test_partial_tail_blocks_merging(self):
        merged = coalesce_extents(
            [Extent(5, 2, 2 * BS - KB), Extent(7, 1, BS)], BS
        )
        assert len(merged) == 2

    def test_non_adjacent_stay_apart(self):
        merged = coalesce_extents(
            [Extent(5, 1, BS), Extent(7, 1, BS)], BS
        )
        assert len(merged) == 2


class TestSplitForTransfer:
    def test_small_extent_unchanged(self):
        exts = split_for_transfer([Extent(0, 4, 4 * BS)], BS, 64 * KB)
        assert exts == [Extent(0, 4, 4 * BS)]

    def test_large_extent_split_at_64kb(self):
        exts = split_for_transfer([Extent(0, 16, 16 * BS)], BS, 64 * KB)
        assert [e.nblocks for e in exts] == [8, 8]
        assert exts[0].start == 0 and exts[1].start == 8

    def test_partial_tail_bytes_preserved(self):
        exts = split_for_transfer([Extent(0, 9, 8 * BS + KB)], BS, 64 * KB)
        assert sum(e.nbytes for e in exts) == 8 * BS + KB
        assert exts[-1].nbytes == KB

    def test_piece_with_no_bytes_raises(self):
        # Nine blocks holding 1 KB: the first 64 KB request takes all the
        # bytes, so the ninth block's request would carry none.
        with pytest.raises(ValueError):
            split_for_transfer([Extent(0, 9, KB)], BS, 64 * KB)

    def test_total_bytes_invariant(self):
        original = [Extent(3, 20, 20 * BS - 5 * KB)]
        exts = split_for_transfer(original, BS, 64 * KB)
        assert sum(e.nbytes for e in exts) == original[0].nbytes
        assert sum(e.nblocks for e in exts) == original[0].nblocks
