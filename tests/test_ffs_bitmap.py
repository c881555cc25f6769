"""Unit tests for the per-group fragment bitmap."""

import pytest

from repro.ffs.bitmap import FragBitmap


def make(nblocks=16, fpb=8):
    return FragBitmap(nblocks, fpb)


class TestConstruction:
    def test_starts_all_free(self):
        b = make()
        assert b.free_frags == 16 * 8
        assert all(b.block_is_free(i) for i in range(16))

    def test_rejects_zero_blocks(self):
        with pytest.raises(ValueError):
            FragBitmap(0, 8)

    def test_rejects_bad_fpb(self):
        with pytest.raises(ValueError):
            FragBitmap(4, 9)


class TestAllocFree:
    def test_alloc_run_marks_frags(self):
        b = make()
        b.alloc_run(2, 1, 3)
        assert not b.is_frag_free(2, 1)
        assert not b.is_frag_free(2, 3)
        assert b.is_frag_free(2, 0)
        assert b.free_in_block(2) == 5

    def test_free_run_restores(self):
        b = make()
        b.alloc_run(2, 1, 3)
        b.free_run(2, 1, 3)
        assert b.block_is_free(2)
        assert b.free_frags == 16 * 8

    def test_double_alloc_rejected(self):
        b = make()
        b.alloc_run(0, 0, 4)
        with pytest.raises(ValueError):
            b.alloc_run(0, 3, 2)

    def test_double_free_rejected(self):
        b = make()
        with pytest.raises(ValueError):
            b.free_run(0, 0, 1)

    def test_run_crossing_block_boundary_rejected(self):
        b = make()
        with pytest.raises(ValueError):
            b.alloc_run(0, 6, 4)

    def test_block_full_after_eight_frags(self):
        b = make()
        b.alloc_run(3, 0, 8)
        assert b.block_is_full(3)


class TestFragRuns:
    """Free fragment runs, seen through ``run_is_free`` and the
    allocator's run search ``find_run_any_block``."""

    def test_whole_free_block_single_run(self):
        b = make()
        assert b.run_is_free(5, 0, 8)
        assert b.find_run_any_block(5, 7) == (5, 0)

    def test_runs_after_middle_allocation(self):
        b = make()
        b.alloc_run(5, 3, 2)
        assert b.run_is_free(5, 0, 3) and b.run_is_free(5, 5, 3)
        assert not b.is_frag_free(5, 3) and not b.is_frag_free(5, 4)
        assert b.find_run_any_block(5, 3) == (5, 0)
        assert b.find_run_any_block(5, 4) == (6, 0)  # no run of 4 in block 5

    def test_full_block_no_runs(self):
        b = make()
        b.alloc_run(5, 0, 8)
        assert b.free_in_block(5) == 0
        assert b.find_run_any_block(5, 1) == (6, 0)

    def test_find_run_in_block(self):
        b = make()
        b.alloc_run(5, 0, 2)
        assert b.find_run_any_block(5, 6) == (5, 2)
        assert b.find_run_any_block(5, 7) == (6, 0)

    def test_run_is_free(self):
        b = make()
        b.alloc_run(5, 4, 1)
        assert b.run_is_free(5, 0, 4)
        assert not b.run_is_free(5, 3, 3)


class TestRunIndex:
    """The ``cg_frsum`` question — which blocks hold a free run of n
    fragments — answered by scanning the bitmap, with no index to keep."""

    def test_partial_blocks_indexed(self):
        b = make(nblocks=4)
        b.alloc_block_range(0, 4)
        b.free_run(2, 5, 3)  # block 2 keeps a run of 3 at offset 5
        assert b.find_run_any_block(0, 3) == (2, 5)
        assert b.find_run_any_block(0, 1) == (2, 5)
        assert b.find_run_any_block(0, 4) is None

    def test_full_blocks_not_indexed(self):
        b = make()
        b.alloc_run(2, 0, 8)
        assert b.find_run_any_block(2, 1) == (3, 0)

    def test_index_updates_on_free(self):
        b = make()
        b.alloc_run(2, 0, 5)
        assert b.find_run_any_block(2, 3) == (2, 5)
        b.free_run(2, 0, 5)
        assert b.find_run_any_block(2, 3) == (2, 0)

    def test_invalid_size_rejected(self):
        b = make()
        with pytest.raises(ValueError):
            b.find_run_any_block(0, 8)
