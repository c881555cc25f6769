"""Page-mapped flash translation layer with greedy garbage collection.

The FTL is where flash behaviour diverges structurally from the disk
model: there is no head and no platter, but a page can only be written
once per erase cycle, so every logical overwrite allocates a *new*
physical page and invalidates the old one.  When the free-block pool
runs low, garbage collection picks the sealed block with the fewest
valid pages (greedy policy), migrates its survivors, and erases it —
the migrated pages are the write amplification the experiments measure.

The logical→physical map itself lives "on flash" behind a bounded
DFTL-style cache ([Gupta09]'s demand-paging idea): translation pages
are faulted in on miss (one page read) and written back when a dirty
one is evicted (one page program).  A workload with mapping locality
pays nothing; a scattered one pays a measurable translation tax.

Everything here is deterministic by construction — free blocks are
consumed FIFO, GC victims tie-break on block id, and no wall clock or
RNG is consulted — so a same-seed run is byte-identical across
serial and ``--jobs N`` executions (replint R001 discipline).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import OutOfSpaceError
from repro.ssd.config import SSDGeometry


class MappingCache:
    """Bounded LRU cache of translation pages (the DFTL "CMT").

    Tracks which translation pages are resident and which are dirty;
    reports the flash cost (translation reads + writebacks) of each
    lookup so the model can charge it to the request that caused it.
    """

    def __init__(self, geometry: SSDGeometry) -> None:
        self.geometry = geometry
        #: tpage id -> dirty flag, in LRU order (oldest first).
        self._resident: "OrderedDict[int, bool]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def touch(self, lpn: int, dirty: bool) -> float:
        """Make ``lpn``'s translation page resident; returns flash ms.

        A hit costs nothing (the entry is in device RAM).  A miss
        faults the translation page in (one page read) and, when the
        cache is full and the evicted page is dirty, writes the victim
        back (one page program).
        """
        geo = self.geometry
        tpage = lpn // geo.map_entries_per_tpage
        if tpage in self._resident:
            self.hits += 1
            self._resident[tpage] = self._resident[tpage] or dirty
            self._resident.move_to_end(tpage)
            return 0.0
        self.misses += 1
        elapsed = geo.read_page_ms
        if len(self._resident) >= geo.map_cache_tpages:
            _evicted, was_dirty = self._resident.popitem(last=False)
            if was_dirty:
                self.writebacks += 1
                elapsed += geo.program_page_ms
        self._resident[tpage] = dirty
        return elapsed


class PageMappedFTL:
    """Logical→physical page map, free/used block pools, greedy GC."""

    def __init__(self, geometry: SSDGeometry) -> None:
        self.geometry = geometry
        #: Live logical pages: lpn -> ppn.
        self.page_map: Dict[int, int] = {}
        #: Inverse of :attr:`page_map` for GC migration: ppn -> lpn.
        self.reverse_map: Dict[int, int] = {}
        #: Valid (live) pages per erase block.
        self.valid_count: List[int] = [0] * geometry.nblocks
        #: Erase cycles per block — monotonically non-decreasing.
        self.erase_counts: List[int] = [0] * geometry.nblocks
        #: Never-written or erased blocks, consumed FIFO for determinism.
        self.free_blocks: Deque[int] = deque(range(geometry.nblocks))
        #: Fully-programmed blocks, in seal order (GC victim pool).
        self.sealed_blocks: List[int] = []
        self.map_cache = MappingCache(geometry)
        self._open_block = self.free_blocks.popleft()
        self._write_ptr = 0
        # Flash-operation counters (data path; translation traffic is
        # counted by the mapping cache).
        self.flash_reads = 0
        self.flash_programs = 0
        self.flash_erases = 0
        self.gc_runs = 0
        self.gc_moved_pages = 0
        self.host_pages_written = 0

    # ------------------------------------------------------------------
    # Host operations
    # ------------------------------------------------------------------

    def read(self, lpn: int) -> float:
        """Read one logical page; returns flash time in ms."""
        return self.read_pages(lpn, lpn, 0.0)

    def write(self, lpn: int) -> Tuple[float, float]:
        """Write one logical page; returns ``(total_ms, gc_ms)``."""
        return self.write_pages(lpn, lpn, 0.0)

    def read_pages(self, first: int, last: int, now: float) -> float:
        """Read logical pages ``first..last``; returns ``now`` advanced.

        Every read is priced as a data-page read, mapped or not.  The
        simulation's data plane is virtual — the file system above
        believes data exists everywhere it reads — so an
        unmapped-address fast path (which real FTLs do have) would
        misprice every benchmark read of a logically-existing file
        whose bytes were never replayed through this device.

        The mapping cache is touched once per translation page; the
        run's other pages are hits by construction (the page was just
        made most-recent), and each page's time is still added to
        ``now`` on its own, so the float sum is the per-page one.
        """
        per_tpage = self.geometry.map_entries_per_tpage
        read_ms = self.geometry.read_page_ms
        cache = self.map_cache
        touch = cache.touch
        run_start = first
        end = last + 1
        while run_start < end:
            run_end = min((run_start // per_tpage + 1) * per_tpage, end)
            now += touch(run_start, False) + read_ms
            cache.hits += run_end - run_start - 1
            for _ in range(run_end - run_start - 1):
                now += read_ms
            run_start = run_end
        self.flash_reads += end - first
        return now

    def write_pages(self, first: int, last: int, now: float) -> Tuple[float, float]:
        """Write logical pages ``first..last``; returns ``(now, gc_ms)``.

        Each page gets a fresh physical page (garbage collection runs
        first whenever the free pool is at its threshold), is
        programmed, and invalidates its previous mapping.  ``gc_ms`` is
        the garbage-collection pause embedded in the advance of
        ``now``.  Per page, ``(translation + gc) + program`` is added
        to ``now`` exactly as a page-at-a-time loop would add it.

        On :class:`~repro.errors.OutOfSpaceError` the FTL is left as a
        page-at-a-time loop leaves it: pages before the failing one are
        written and counted, and the failing page's translation lookup
        happened.
        """
        geo = self.geometry
        per_block = geo.pages_per_block
        per_tpage = geo.map_entries_per_tpage
        program_ms = geo.program_page_ms
        threshold = geo.gc_free_block_threshold
        page_map = self.page_map
        reverse_map = self.reverse_map
        valid = self.valid_count
        free_blocks = self.free_blocks
        sealed = self.sealed_blocks
        cache = self.map_cache
        touch = cache.touch
        block = self._open_block
        ptr = self._write_ptr
        gc_ms = 0.0
        # The free pool shrinks only when a block seals, so the GC
        # check before each page program is refreshed only then.
        gc_due = len(free_blocks) <= threshold
        run_start = first
        end = last + 1
        while run_start < end:
            run_end = min((run_start // per_tpage + 1) * per_tpage, end)
            elapsed = touch(run_start, True)
            cache.hits += run_end - run_start - 1
            for lpn in range(run_start, run_end):
                if gc_due:
                    # GC programs into the open block: hand it over.
                    self._open_block, self._write_ptr = block, ptr
                    try:
                        pause = self._maybe_collect()
                    except OutOfSpaceError:
                        # Uncount the hits of pages never reached.
                        cache.hits -= run_end - lpn - 1
                        self.flash_programs += lpn - first
                        self.host_pages_written += lpn - first
                        raise
                    block, ptr = self._open_block, self._write_ptr
                    gc_due = False
                    elapsed += pause
                    gc_ms += pause
                ppn = block * per_block + ptr
                ptr += 1
                valid[block] += 1
                if ptr == per_block:
                    sealed.append(block)
                    block = free_blocks.popleft()
                    ptr = 0
                    gc_due = len(free_blocks) <= threshold
                old = page_map.get(lpn)
                if old is not None:
                    valid[old // per_block] -= 1
                    del reverse_map[old]
                page_map[lpn] = ppn
                reverse_map[ppn] = lpn
                now += elapsed + program_ms
                elapsed = 0.0
            run_start = run_end
        self._open_block, self._write_ptr = block, ptr
        self.flash_programs += end - first
        self.host_pages_written += end - first
        return now, gc_ms

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def write_amplification(self) -> float:
        """Data pages programmed per host page written (1.0 = none)."""
        if self.host_pages_written == 0:
            return 1.0
        return self.flash_programs / self.host_pages_written

    def live_pages(self) -> int:
        """Logical pages currently mapped."""
        return len(self.page_map)

    # ------------------------------------------------------------------
    # Allocation and garbage collection
    # ------------------------------------------------------------------

    def _program_next_page(self, lpn: int) -> int:
        """Program the next page of the open block; returns its ppn."""
        geo = self.geometry
        ppn = self._open_block * geo.pages_per_block + self._write_ptr
        self._write_ptr += 1
        self.valid_count[self._open_block] += 1
        self.flash_programs += 1
        if self._write_ptr == geo.pages_per_block:
            self.sealed_blocks.append(self._open_block)
            self._open_block = self.free_blocks.popleft()
            self._write_ptr = 0
        return ppn

    def _maybe_collect(self) -> float:
        """Run greedy GC until the free pool clears the threshold.

        Returns the total pause in ms (erases + migrations).  Raises
        :class:`~repro.errors.OutOfSpaceError` when every sealed block
        is fully valid — the device genuinely has nowhere to put the
        write.
        """
        geo = self.geometry
        if len(self.free_blocks) > geo.gc_free_block_threshold:
            return 0.0
        pause = 0.0
        while len(self.free_blocks) <= geo.gc_free_block_threshold:
            victim = self._pick_victim()
            if victim is None:
                raise OutOfSpaceError(
                    f"ssd full: {len(self.free_blocks)} free blocks and "
                    f"no reclaimable sealed block "
                    f"({self.live_pages()} live pages of "
                    f"{geo.logical_pages} logical)"
                )
            pause += self._collect_block(victim)
        self.gc_runs += 1
        return pause

    def _pick_victim(self) -> Optional[int]:
        """Sealed block with the fewest valid pages; ties by block id.

        A fully-valid block is never a victim (migrating it reclaims
        nothing); ``None`` means no sealed block can be reclaimed.
        """
        best: Optional[int] = None
        best_valid = self.geometry.pages_per_block
        for block in self.sealed_blocks:
            valid = self.valid_count[block]
            if valid < best_valid or (
                valid == best_valid and best is not None and block < best
            ):
                best = block
                best_valid = valid
        return best

    def _collect_block(self, victim: int) -> float:
        """Migrate the victim's valid pages, erase it, free it."""
        geo = self.geometry
        self.sealed_blocks.remove(victim)
        elapsed = 0.0
        base = victim * geo.pages_per_block
        for offset in range(geo.pages_per_block):
            ppn = base + offset
            lpn = self.reverse_map.get(ppn)
            if lpn is None:
                continue
            # Read the survivor and program it into the open block.
            self.flash_reads += 1
            elapsed += geo.read_page_ms
            new_ppn = self._program_next_page(lpn)
            elapsed += geo.program_page_ms
            del self.reverse_map[ppn]
            self.valid_count[victim] -= 1
            self.page_map[lpn] = new_ppn
            self.reverse_map[new_ppn] = lpn
            self.gc_moved_pages += 1
        self.erase_counts[victim] += 1
        self.flash_erases += 1
        elapsed += geo.erase_block_ms
        self.free_blocks.append(victim)
        return elapsed
