"""SSD timing model: the flash twin of :class:`~repro.disk.model.DiskModel`.

A :class:`~repro.disk.model.StorageModel`: the shared base supplies the
``access(kind, start_byte, nbytes) -> elapsed_ms`` contract, the
extent-level helpers and the ``read_fault_hook`` seam, so every
benchmark, experiment, and chaos case that drives a ``DiskModel`` can
drive this instead via :func:`repro.storage.make_storage`.

The structural differences all fall out of the FTL underneath:

* **No positioning costs** — a request's time is pages x flash latency
  plus bus transfer; where the request *lands* is irrelevant, which is
  exactly why rotational placement's win collapses on this backend.
* **Garbage-collection pauses** — an overwrite-heavy workload
  eventually stalls behind victim migration and erases; the pause is
  charged to the request that triggered it and surfaced per-request in
  the disk trace (``gc_ms``) and in aggregate (``ssd.gc_ms``).
* **Translation faults** — the bounded mapping cache makes scattered
  access pay a measurable translation tax (``map_misses`` per request).

Timing is layout-insensitive but *history-sensitive*: two identical
request sequences always take identical time (determinism), while the
same request can cost more on a device whose free pool is fragmented.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro import schemas
from repro.disk.model import DeviceStats, IOKind, StorageModel
from repro.ssd.config import SSDGeometry
from repro.ssd.ftl import PageMappedFTL


class SSDModel(StorageModel):
    """Simulated flash device: extent sequences to elapsed time.

    Parameters
    ----------
    geometry:
        Flash layout/timing parameters (defaults to a device exporting
        the same capacity as Table 1's disk).
    read_fault_hook:
        The :class:`~repro.disk.model.StorageModel` fault-injection
        seam, so latent-error plans and chaos cases work unchanged on
        flash.
    """

    stats: "SSDStats"

    def __init__(
        self,
        geometry: "SSDGeometry | None" = None,
        read_fault_hook: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self.geometry = geometry if geometry is not None else SSDGeometry()
        super().__init__(
            self.geometry.max_transfer_bytes,
            self.geometry.sector_size,
            read_fault_hook,
        )

    def reset(self, initial_angle: "float | None" = None) -> None:
        """Rewind the clock and start from a freshly-erased device.

        ``initial_angle`` is accepted for interface compatibility with
        the disk model and ignored: flash has no platter, so repetition
        jitter is structurally zero on this backend.  The SSD's only
        cache is the FTL's *device-internal* mapping cache, which a host
        cache drop does not touch, so ``drop_caches`` stays a no-op.
        """
        del initial_angle
        self.now_ms = 0.0
        self.ftl = PageMappedFTL(self.geometry)
        self.stats = SSDStats(self.ftl)

    def _service(self, kind: IOKind, start_byte: int, nbytes: int) -> float:
        geo = self.geometry
        ftl = self.ftl
        trace = self._trace
        pre_misses = ftl.map_cache.misses if trace is not None else 0
        start_time = self.now_ms
        first_lpn = start_byte // geo.page_size
        last_lpn = (start_byte + nbytes - 1) // geo.page_size
        now = start_time + geo.request_overhead_ms
        if kind is IOKind.READ:
            now = ftl.read_pages(first_lpn, last_lpn, now)
            gc_ms = 0.0
        else:
            # Sub-page and unaligned writes program whole pages: the
            # read-modify-write a real FTL performs is folded into the
            # page program, and the amplification it causes is real.
            now, gc_ms = ftl.write_pages(first_lpn, last_lpn, now)
        now += nbytes / geo.bus_rate_bytes_per_ms
        self.now_ms = now
        elapsed = now - start_time
        self.stats.record(kind, nbytes, elapsed)
        if gc_ms:
            self.stats.note_gc(gc_ms)
        if trace is not None:
            # Same fixed row as the disk backend (mechanical fields
            # pinned to zero), plus the SSD-specific extras.
            trace.record(
                kind=kind.value,
                byte=start_byte,
                nbytes=nbytes,
                cyl=0,
                seek_cyls=0,
                seek_ms=0.0,
                rot_ms=0.0,
                transfer_ms=elapsed - gc_ms,
                service_ms=elapsed,
                lost_rot=False,
                buf_hit=False,
                gc_ms=gc_ms,
                map_misses=ftl.map_cache.misses - pre_misses,
            )
        return elapsed


class SSDStats(DeviceStats):
    """Counters accumulated by an :class:`SSDModel` run.

    The request counters and ``gc_ms`` are accumulated here.  The
    flash-operation fields are not copied: they read the totals the FTL
    and its mapping cache already keep, which the model builds together
    with these stats.  The global mirror adds those totals as
    per-request deltas, and a histogram of non-zero GC pauses.
    """

    PREFIX = "ssd"
    #: Field order of :meth:`to_dict`.  The first five match the
    #: disk-stats layout so backend-generic consumers line up; the rest
    #: are the flash-specific accounting.
    FIELDS = DeviceStats.FIELDS + (
        "flash_reads", "flash_programs", "flash_erases",
        "gc_runs", "gc_moved_pages", "gc_ms",
        "map_hits", "map_misses", "map_writebacks",
        "host_pages_written",
    )

    def __init__(self, ftl: PageMappedFTL) -> None:
        self._ftl = ftl
        super().__init__()
        # Only requests that paused for GC are noted, so this total and
        # its global mirror start as floats: a run without GC reports
        # ``0.0`` like every other millisecond total.
        self.gc_ms = 0.0
        if self._g is not None:
            self._g_counters["gc_ms"].inc(0.0)
            self._g_gc_hist = self._g.histogram("ssd.gc_pause_ms")
            #: FTL totals already mirrored, to turn totals into deltas.
            self._mirrored = self._ftl_totals()

    flash_reads = property(lambda self: self._ftl.flash_reads)
    flash_programs = property(lambda self: self._ftl.flash_programs)
    flash_erases = property(lambda self: self._ftl.flash_erases)
    gc_runs = property(lambda self: self._ftl.gc_runs)
    gc_moved_pages = property(lambda self: self._ftl.gc_moved_pages)
    map_hits = property(lambda self: self._ftl.map_cache.hits)
    map_misses = property(lambda self: self._ftl.map_cache.misses)
    map_writebacks = property(lambda self: self._ftl.map_cache.writebacks)
    host_pages_written = property(lambda self: self._ftl.host_pages_written)

    def _ftl_totals(self) -> "dict[str, int]":
        ftl = self._ftl
        cache = ftl.map_cache
        return {
            "flash_reads": ftl.flash_reads,
            "flash_programs": ftl.flash_programs,
            "flash_erases": ftl.flash_erases,
            "gc_runs": ftl.gc_runs,
            "gc_moved_pages": ftl.gc_moved_pages,
            "host_pages_written": ftl.host_pages_written,
            "map_hits": cache.hits,
            "map_misses": cache.misses,
            "map_writebacks": cache.writebacks,
        }

    def _mirror(self, kind: IOKind, nbytes: int, elapsed_ms: float) -> None:
        """Mirror one request and the FTL work it caused."""
        super()._mirror(kind, nbytes, elapsed_ms)
        gc = self._g_counters
        totals = self._ftl_totals()
        mirrored = self._mirrored
        for name, total in totals.items():
            gc[name].inc(total - mirrored[name])
        self._mirrored = totals

    def note_gc(self, gc_ms: float) -> None:
        """Account one request's garbage-collection pause."""
        self.gc_ms += gc_ms
        if self._g is not None:
            self._g_counters["gc_ms"].inc(gc_ms)
            self._g_gc_hist.observe(gc_ms)

    def write_amplification(self) -> float:
        """Data pages programmed per host page written (1.0 = none)."""
        host = self.host_pages_written
        if host == 0:
            return 1.0
        return self.flash_programs / host

    def to_document(self) -> "dict[str, object]":
        """Schema-stamped stats record for reports and experiments."""
        document: "dict[str, object]" = {"schema": schemas.SSD_STATS}
        document.update(self.to_dict())
        document["write_amplification"] = round(self.write_amplification(), 4)
        return document
