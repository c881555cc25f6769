"""Differential tests for the allocation hot paths.

``FragBitmap`` is built on ``bytearray`` slice primitives, and its
block-level queries (free blocks, free runs, cluster search) are
C-level scans of the per-block free counts; these tests drive it and
deliberately naive references through the same randomized operation
sequences and require identical observable state — including identical
error behaviour — after every step.  ``TestAllocRangeContract`` pins the
error contract of the cylinder group's cluster allocation.
"""

from __future__ import annotations

import random  # replint: disable=R001  (seeded test-local stream; repro.rng is the library-side rule)

import pytest

from repro.errors import OutOfSpaceError
from repro.ffs.bitmap import FragBitmap
from repro.ffs.cg import CylinderGroup
from repro.ffs.params import scaled_params
from repro.units import MB


# ----------------------------------------------------------------------
# Naive references (one obvious loop per operation)
# ----------------------------------------------------------------------


class RefBitmap:
    """Per-fragment list-of-lists bitmap; every operation is a loop."""

    def __init__(self, nblocks: int, fpb: int):
        self.nblocks = nblocks
        self.fpb = fpb
        self.bits = [[0] * fpb for _ in range(nblocks)]

    def alloc_run(self, block: int, offset: int, nfrags: int) -> None:
        row = self.bits[block]
        if any(row[i] for i in range(offset, offset + nfrags)):
            raise ValueError("double allocation")
        for i in range(offset, offset + nfrags):
            row[i] = 1

    def alloc_block_range(self, block: int, nblocks: int) -> None:
        if any(
            self.bits[b][i]
            for b in range(block, block + nblocks)
            for i in range(self.fpb)
        ):
            raise ValueError("double allocation")
        for b in range(block, block + nblocks):
            self.bits[b] = [1] * self.fpb

    def free_run(self, block: int, offset: int, nfrags: int) -> None:
        row = self.bits[block]
        if any(row[i] == 0 for i in range(offset, offset + nfrags)):
            raise ValueError("double free")
        for i in range(offset, offset + nfrags):
            row[i] = 0

    def free_frags(self) -> int:
        return sum(row.count(0) for row in self.bits)

    def free_in_block(self, block: int) -> int:
        return self.bits[block].count(0)

    def frag_runs(self, block: int):
        runs, start = [], None
        for off, bit in enumerate(self.bits[block]):
            if bit == 0 and start is None:
                start = off
            elif bit and start is not None:
                runs.append((start, off - start))
                start = None
        if start is not None:
            runs.append((start, self.fpb - start))
        return runs

    def run_is_free(self, block: int, offset: int, nfrags: int) -> bool:
        return all(
            self.bits[block][i] == 0 for i in range(offset, offset + nfrags)
        )

    def find_run_any_block(self, start_block: int, nfrags: int):
        for i in range(self.nblocks):
            block = (start_block + i) % self.nblocks
            for off, length in self.frag_runs(block):
                if length >= nfrags:
                    return (block, off)
        return None


class RefRunMap:
    """Free-block set; runs and queries are recomputed from scratch.

    ``partial`` holds the blocks with one fragment run allocated (as
    ``block -> (offset, nfrags)``): neither free nor wholly allocated.
    """

    def __init__(self, nblocks: int):
        self.nblocks = nblocks
        self.free = set(range(nblocks))
        self.partial = {}

    def alloc(self, block: int) -> None:
        if block not in self.free:
            raise ValueError("not free")
        self.free.discard(block)

    def alloc_range(self, start: int, length: int) -> None:
        blocks = range(start, start + length)
        if any(b not in self.free for b in blocks):
            raise ValueError("not free")
        self.free -= set(blocks)

    def free_block(self, block: int) -> None:
        if block in self.free or block in self.partial:
            raise ValueError("already free")
        self.free.add(block)

    def alloc_frags(self, block: int, offset: int, nfrags: int) -> None:
        self.alloc(block)
        self.partial[block] = (offset, nfrags)

    def free_frags(self, block: int) -> None:
        del self.partial[block]
        self.free.add(block)

    def runs(self):
        out, start = [], None
        for b in range(self.nblocks + 1):
            if b < self.nblocks and b in self.free:
                if start is None:
                    start = b
            elif start is not None:
                out.append((start, b - start))
                start = None
        return out

    def max_run(self) -> int:
        return max((length for _s, length in self.runs()), default=0)

    def free_run_length_at(self, block: int) -> int:
        n = 0
        while block + n in self.free:
            n += 1
        return n

    def find_free_block(self, pref: int):
        for i in range(self.nblocks):
            if (pref + i) % self.nblocks in self.free:
                return (pref + i) % self.nblocks
        return None

    def find_free_blocks(self, length: int, pref: int, fit: str):
        if self.free_run_length_at(pref) >= length:
            return pref
        adequate = [(s, n) for s, n in self.runs() if n >= length]
        if not adequate:
            return None
        if fit == "firstfit":
            return adequate[0][0]
        # bestfit: smallest run; ties go to the first start after pref,
        # cyclically (runs starting after pref, then from the group start).
        order = sorted(adequate, key=lambda r: (r[0] <= pref, r[0]))
        return min(order, key=lambda r: r[1])[0]


# ----------------------------------------------------------------------
# Differential drivers
# ----------------------------------------------------------------------


def _assert_bitmap_equal(fast: FragBitmap, ref: RefBitmap) -> None:
    assert fast.free_frags == ref.free_frags()
    for block in range(fast.nblocks):
        assert fast.free_in_block(block) == ref.free_in_block(block)
        for off in range(fast.fpb):
            assert fast.is_frag_free(block, off) == (ref.bits[block][off] == 0)
    for nfrags in range(1, fast.fpb):
        for start in range(0, fast.nblocks, 5):
            assert fast.find_run_any_block(start, nfrags) == (
                ref.find_run_any_block(start, nfrags)
            )


@pytest.mark.parametrize("seed", [1, 1996, 20260806])
def test_frag_bitmap_differential(seed):
    rng = random.Random(seed)
    nblocks, fpb = 24, 8
    fast = FragBitmap(nblocks, fpb)
    ref = RefBitmap(nblocks, fpb)
    for _step in range(600):
        block = rng.randrange(nblocks)
        op = rng.random()
        if op < 0.45:
            offset = rng.randrange(fpb)
            nfrags = rng.randint(1, fpb - offset)
            args = (block, offset, nfrags)
            method = "alloc_run"
        elif op < 0.85:
            offset = rng.randrange(fpb)
            nfrags = rng.randint(1, fpb - offset)
            args = (block, offset, nfrags)
            method = "free_run"
        else:
            nb = rng.randint(1, min(3, nblocks - block))
            args = (block, nb)
            method = "alloc_block_range"
        fast_err = ref_err = None
        try:
            getattr(fast, method)(*args)
        except ValueError as exc:
            fast_err = exc
        try:
            getattr(ref, method)(*args)
        except ValueError:
            ref_err = ValueError
        assert (fast_err is None) == (ref_err is None), (method, args)
        # the checked run_is_free predicate must agree everywhere
        probe = rng.randrange(nblocks)
        off = rng.randrange(fpb)
        n = rng.randint(1, fpb - off)
        assert fast.run_is_free(probe, off, n) == ref.run_is_free(probe, off, n)
    _assert_bitmap_equal(fast, ref)


def _assert_block_runs_equal(fast: FragBitmap, ref: RefRunMap) -> None:
    assert fast.block_runs() == ref.runs()
    assert fast.free_blocks == len(ref.free)
    assert max((n for _s, n in fast.block_runs()), default=0) == ref.max_run()


@pytest.mark.parametrize("seed", [2, 42, 19960122])
def test_block_runmap_differential(seed):
    """Whole-block and fragment allocations through ``FragBitmap`` against
    a free-block set: runs, counts and every block-level query agree."""
    rng = random.Random(seed)
    nblocks, fpb = 64, 8
    fast = FragBitmap(nblocks, fpb)
    ref = RefRunMap(nblocks)
    for _step in range(800):
        op = rng.random()
        block = rng.randrange(nblocks)
        fast_err = ref_err = None
        if op < 0.3:
            try:
                fast.alloc_run(block, 0, fpb)
            except ValueError as exc:
                fast_err = exc
            try:
                ref.alloc(block)
            except ValueError:
                ref_err = ValueError
        elif op < 0.5:
            length = rng.randint(1, min(6, nblocks - block))
            try:
                fast.alloc_block_range(block, length)
            except ValueError as exc:
                fast_err = exc
            try:
                ref.alloc_range(block, length)
            except ValueError:
                ref_err = ValueError
        elif op < 0.6:
            # A fragment run in a free block, or freeing one: partial
            # blocks must never count as free in any block-level query.
            if block in ref.partial:
                fast.free_run(block, *ref.partial[block])
                ref.free_frags(block)
            elif block in ref.free:
                offset = rng.randrange(fpb)
                nfrags = rng.randint(1, min(fpb - offset, fpb - 1))
                fast.alloc_run(block, offset, nfrags)
                ref.alloc_frags(block, offset, nfrags)
        else:
            try:
                fast.free_run(block, 0, fpb)
            except ValueError as exc:
                fast_err = exc
            try:
                ref.free_block(block)
            except ValueError:
                ref_err = ValueError
        assert (fast_err is None) == (ref_err is None)
        assert fast.block_is_free(block) == (block in ref.free)
        assert fast.free_run_length_at(block) == ref.free_run_length_at(block)
        pref = rng.randrange(nblocks)
        assert fast.find_free_block(pref) == ref.find_free_block(pref)
        length = rng.randint(1, 8)
        for fit in ("firstfit", "bestfit"):
            assert fast.find_free_blocks(length, pref, fit) == (
                ref.find_free_blocks(length, pref, fit)
            ), (fit, length, pref)
    _assert_block_runs_equal(fast, ref)


# ----------------------------------------------------------------------
# Regression: the cluster allocation's error contract
# ----------------------------------------------------------------------


class TestAllocRangeContract:
    """``CylinderGroup.alloc_cluster`` names the first block it cannot
    take and changes nothing when it refuses.  Group 0 starts at global
    block 0, so local and global block numbers coincide; ``m`` is the
    first block after the group's metadata."""

    @pytest.fixture
    def cg(self):
        return CylinderGroup(scaled_params(24 * MB), 0)

    def test_start_not_free_names_start(self, cg):
        m = cg.params.metadata_blocks_per_cg
        cg.alloc_cluster(m + 4, 3)  # occupy [m+4, m+7)
        with pytest.raises(OutOfSpaceError, match=rf"block {m + 5} is not free"):
            cg.alloc_cluster(m + 5, 2)

    def test_overrun_names_first_allocated_block(self, cg):
        m = cg.params.metadata_blocks_per_cg
        cg.alloc_cluster(m + 8, 2)  # occupy [m+8, m+10)
        with pytest.raises(OutOfSpaceError, match=rf"block {m + 8} is not free"):
            cg.alloc_cluster(m + 6, 4)  # fails at m+8

    def test_overrun_past_end_names_end(self, cg):
        with pytest.raises(OutOfSpaceError, match="crosses the group boundary"):
            cg.alloc_cluster(cg.base + cg.nblocks - 2, 4)

    def test_failed_alloc_range_is_atomic(self, cg):
        m = cg.params.metadata_blocks_per_cg
        cg.alloc_cluster(m + 8, 2)
        before = (cg.bitmap.block_runs(), cg.free_blocks, cg.free_frags, cg.rotor)
        with pytest.raises(OutOfSpaceError):
            cg.alloc_cluster(m + 6, 4)
        assert (
            cg.bitmap.block_runs(), cg.free_blocks, cg.free_frags, cg.rotor
        ) == before

    def test_max_run_tracks_splits_and_merges(self, cg):
        m = cg.params.metadata_blocks_per_cg
        n = cg.nblocks - m  # one free run after the metadata
        assert cg.max_free_run() == n
        cg.alloc_cluster(m + 10, 4)  # [m, m+10) + [m+14, end)
        assert cg.max_free_run() == n - 14
        cg.alloc_cluster(m + 20, n - 20)  # [m, m+10) + [m+14, m+20)
        assert cg.max_free_run() == 10
        cg.free_block_range(m + 10, 4)  # rejoin: [m, m+20)
        assert cg.max_free_run() == 20
