"""SSD timing model: the flash twin of :class:`~repro.disk.model.DiskModel`.

Presents the identical ``access(kind, start_byte, nbytes) -> elapsed_ms``
contract (plus the extent-level helpers and the ``read_fault_hook``
seam), so every benchmark, experiment, and chaos case that drives a
``DiskModel`` can drive this instead via :func:`repro.storage.make_storage`.

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

from typing import Callable, Optional, Sequence

from repro import obs, schemas
from repro.disk.model import IOKind
from repro.disk.request import Extent, transfer_requests
from repro.errors import InvalidRequestError
from repro.obs.metrics import MetricsRegistry
from repro.ssd.config import SSDGeometry
from repro.ssd.ftl import PageMappedFTL


class SSDModel:
    """Simulated flash device: extent sequences to elapsed time.

    Parameters
    ----------
    geometry:
        Flash layout/timing parameters (defaults to a device exporting
        the same capacity as Table 1's disk).
    fs_offset_bytes:
        Byte offset of the file-system partition; file-system block
        addresses are linearised relative to this.
    read_fault_hook:
        Optional fault-injection check called with ``(start_byte,
        nbytes)`` before each read is serviced — the same seam
        :class:`~repro.disk.model.DiskModel` exposes, so latent-error
        plans and chaos cases work unchanged on flash.  It runs before
        any clock or FTL mutation.
    """

    def __init__(
        self,
        geometry: "SSDGeometry | None" = None,
        fs_offset_bytes: int = 0,
        read_fault_hook: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self.geometry = geometry if geometry is not None else SSDGeometry()
        self.fs_offset = fs_offset_bytes
        self.read_fault_hook = read_fault_hook
        self._trace = obs.disktrace_or_none()
        self.reset()

    # ------------------------------------------------------------------
    # Clock and state
    # ------------------------------------------------------------------

    def reset(self, initial_angle: "float | None" = None) -> None:
        """Rewind the clock and start from a freshly-erased device.

        ``initial_angle`` is accepted for interface compatibility with
        the disk model and ignored: flash has no platter, so repetition
        jitter is structurally zero on this backend.
        """
        del initial_angle
        self.now_ms = 0.0
        self.ftl = PageMappedFTL(self.geometry)
        self.stats = SSDStats(self.ftl)

    def idle(self, ms: float) -> None:
        """Advance the clock for host think time."""
        if ms < 0:
            raise InvalidRequestError("cannot idle for negative time")
        self.now_ms += ms

    def drop_caches(self) -> None:
        """Start-of-phase cache drop: a no-op on flash.

        The disk model invalidates its track buffer here; the SSD's
        only cache is the FTL's *device-internal* mapping cache, which
        a host cache flush does not touch.
        """

    # ------------------------------------------------------------------
    # Low-level single-request timing
    # ------------------------------------------------------------------

    def access(self, kind: IOKind, start_byte: int, nbytes: int) -> float:
        """Service one request of ``nbytes`` at linear ``start_byte``.

        Returns the service time in milliseconds and advances the
        clock.  ``nbytes`` must not exceed the hardware maximum
        transfer size; higher layers split requests first — the same
        contract as the disk model.
        """
        geo = self.geometry
        if nbytes <= 0:
            raise InvalidRequestError("access of zero bytes")
        if nbytes > geo.max_transfer_bytes:
            raise InvalidRequestError(
                f"request of {nbytes} bytes exceeds hardware maximum "
                f"{geo.max_transfer_bytes}"
            )
        if kind is IOKind.READ and self.read_fault_hook is not None:
            # Fault check runs before any clock/FTL mutation so a caught
            # injected error leaves the model consistent.
            self.read_fault_hook(start_byte, nbytes)
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
        self.stats.record(kind, nbytes, elapsed, gc_ms)
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

    # ------------------------------------------------------------------
    # Extent-level API used by the benchmarks
    # ------------------------------------------------------------------

    def block_to_byte(self, fs_block: int, block_size: int) -> int:
        """Linear device byte address of a file-system block."""
        return self.fs_offset + fs_block * block_size

    def transfer_extents(
        self,
        kind: IOKind,
        extents: Sequence[Extent],
        block_size: int,
    ) -> float:
        """Issue all ``extents`` in order; return total elapsed ms."""
        start = self.now_ms
        for block, _nblocks, nbytes in transfer_requests(
            extents, block_size, self.geometry.max_transfer_bytes
        ):
            self.access(kind, self.block_to_byte(block, block_size), nbytes)
        return self.now_ms - start

    def synchronous_metadata_write(self, fs_block: int, block_size: int) -> float:
        """One synchronous sector-sized metadata update (inode/directory)."""
        byte = self.block_to_byte(fs_block, block_size)
        return self.access(IOKind.WRITE, byte, self.geometry.sector_size)


class SSDStats:
    """Counters accumulated by an :class:`SSDModel` run.

    Mirrors the :class:`~repro.disk.model.DiskStats` design: a thin
    attribute façade over a private registry, with every event
    additionally mirrored into the process-wide registry when telemetry
    is enabled — and byte-identical behaviour when it is not.

    The flash-operation fields are not copied: they read the totals the
    FTL and its mapping cache already keep, which the model builds
    together with these stats.  Only the request counters and ``gc_ms``
    are accumulated here.
    """

    #: Field order of :meth:`to_dict`.  The first five match the
    #: disk-stats layout so backend-generic consumers line up; the rest
    #: are the flash-specific accounting.
    FIELDS = (
        "reads", "writes", "bytes_read", "bytes_written", "busy_ms",
        "flash_reads", "flash_programs", "flash_erases",
        "gc_runs", "gc_moved_pages", "gc_ms",
        "map_hits", "map_misses", "map_writebacks",
        "host_pages_written",
    )
    #: The fields accumulated here; the rest read the FTL's totals.
    MODEL_FIELDS = ("reads", "writes", "bytes_read", "bytes_written", "busy_ms", "gc_ms")
    FTL_FIELDS = (
        "flash_reads", "flash_programs", "flash_erases",
        "gc_runs", "gc_moved_pages", "host_pages_written",
    )

    def __init__(
        self, ftl: PageMappedFTL, registry: "MetricsRegistry | None" = None
    ) -> None:
        self._ftl = ftl
        m = registry if registry is not None else MetricsRegistry()
        self._m = m
        self._counters = {name: m.counter(f"ssd.{name}") for name in self.MODEL_FIELDS}
        c = self._counters
        self._c_reads = c["reads"]
        self._c_writes = c["writes"]
        self._c_bytes_read = c["bytes_read"]
        self._c_bytes_written = c["bytes_written"]
        self._c_busy_ms = c["busy_ms"]
        self._c_gc_ms = c["gc_ms"]
        g = obs.metrics_or_none()
        self._g = g
        if g is not None:
            self._g_counters = {
                name: g.counter(f"ssd.{name}") for name in self.FIELDS
            }
            self._g_service_hist = g.histogram("ssd.service_time_ms")
            self._g_gc_hist = g.histogram("ssd.gc_pause_ms")
            #: FTL totals already mirrored, to turn totals into deltas.
            self._mirrored = self._ftl_totals()

    # -- the disk-stats-compatible attribute API -----------------------

    reads = property(lambda self: self._counters["reads"].value)
    writes = property(lambda self: self._counters["writes"].value)
    bytes_read = property(lambda self: self._counters["bytes_read"].value)
    bytes_written = property(lambda self: self._counters["bytes_written"].value)
    busy_ms = property(lambda self: self._counters["busy_ms"].value)
    flash_reads = property(lambda self: self._ftl.flash_reads)
    flash_programs = property(lambda self: self._ftl.flash_programs)
    flash_erases = property(lambda self: self._ftl.flash_erases)
    gc_runs = property(lambda self: self._ftl.gc_runs)
    gc_moved_pages = property(lambda self: self._ftl.gc_moved_pages)
    gc_ms = property(lambda self: self._counters["gc_ms"].value)
    map_hits = property(lambda self: self._ftl.map_cache.hits)
    map_misses = property(lambda self: self._ftl.map_cache.misses)
    map_writebacks = property(lambda self: self._ftl.map_cache.writebacks)
    host_pages_written = property(lambda self: self._ftl.host_pages_written)

    def _ftl_totals(self) -> "dict[str, int]":
        ftl = self._ftl
        cache = ftl.map_cache
        totals = {name: getattr(ftl, name) for name in self.FTL_FIELDS}
        totals["map_hits"] = cache.hits
        totals["map_misses"] = cache.misses
        totals["map_writebacks"] = cache.writebacks
        return totals

    def record(
        self, kind: IOKind, nbytes: int, elapsed_ms: float, gc_ms: float
    ) -> None:
        """Account one completed request and its GC pause."""
        if kind is IOKind.READ:
            self._c_reads.value += 1
            self._c_bytes_read.value += nbytes
        else:
            self._c_writes.value += 1
            self._c_bytes_written.value += nbytes
        self._c_busy_ms.value += elapsed_ms
        self._c_gc_ms.value += gc_ms
        if self._g is not None:
            gc = self._g_counters
            if kind is IOKind.READ:
                gc["reads"].inc()
                gc["bytes_read"].inc(nbytes)
            else:
                gc["writes"].inc()
                gc["bytes_written"].inc(nbytes)
            gc["busy_ms"].inc(elapsed_ms)
            self._g_service_hist.observe(elapsed_ms)
            totals = self._ftl_totals()
            mirrored = self._mirrored
            for name, total in totals.items():
                gc[name].inc(total - mirrored[name])
            self._mirrored = totals
            gc["gc_ms"].inc(gc_ms)
            if gc_ms > 0:
                self._g_gc_hist.observe(gc_ms)

    def write_amplification(self) -> float:
        """Data pages programmed per host page written (1.0 = none)."""
        host = self.host_pages_written
        if host == 0:
            return 1.0
        return self.flash_programs / host

    def to_dict(self) -> "dict[str, float]":
        """All counters as a flat, stably ordered plain dict."""
        return {name: getattr(self, name) for name in self.FIELDS}

    def to_document(self) -> "dict[str, object]":
        """Schema-stamped stats record for reports and experiments."""
        document: "dict[str, object]" = {"schema": schemas.SSD_STATS}
        document.update(self.to_dict())
        document["write_amplification"] = round(self.write_amplification(), 4)
        return document

    def throughput_bytes_per_sec(self) -> float:
        """Aggregate throughput over busy time (both directions)."""
        busy_ms = self.busy_ms
        if busy_ms == 0:
            return 0.0
        return (self.bytes_read + self.bytes_written) / (busy_ms / 1000.0)
