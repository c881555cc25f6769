"""Analytical disk timing model with exact angular bookkeeping.

This is the substrate for every throughput number in the reproduction.  The
model keeps a simulated clock, the head's current cylinder, and the platter
angle as a continuous function of time.  Because the angle is tracked
exactly, the two phenomena Section 5.1 of the paper hinges on *emerge*
rather than being special-cased:

* **Lost rotations on sequential writes** — after a 64 KB write completes,
  the host needs ``request_overhead_ms`` to issue the next request; by then
  the platter has rotated a few sectors past the next block, so the drive
  waits almost a full rotation.
* **Small seeks beating lost rotations** — a write whose next extent is a
  short seek away pays ~1.7 ms seek + ~half a rotation on average, which is
  *less* than the ~11 ms lost rotation of perfectly contiguous layout.
  This is why the paper measures realloc's large-file write throughput
  *above* raw-disk write throughput.

Reads are filtered through a :class:`~repro.disk.trackbuffer.TrackBuffer`,
so back-to-back sequential reads stream at media rate.

The module also holds what every storage backend shares:
:class:`StorageModel`, the request contract (validation, the fault-hook
seam, the extent-level helpers), and :class:`DeviceStats`, the request
counters.  :class:`~repro.ssd.model.SSDModel` builds on both.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional, Sequence, Tuple

from repro import obs
from repro.disk.geometry import DiskGeometry
from repro.disk.request import Extent, transfer_requests
from repro.disk.trackbuffer import TrackBuffer
from repro.errors import InvalidRequestError
from repro.units import MB


class IOKind(enum.Enum):
    """Direction of a disk access."""

    READ = "read"
    WRITE = "write"


class DeviceStats:
    """Request counters every storage model keeps.

    Plain attributes, each starting at ``0``; a backend's subclass adds
    its own events.  When process-wide telemetry is enabled
    (:mod:`repro.obs`), every event is also mirrored into the global
    registry under ``PREFIX.<field>``, where the per-event histograms
    (request service time and the backend's own) accumulate across all
    models of the run.  With telemetry off nothing is mirrored.
    """

    #: Metric-name prefix of the global mirror, set by each backend.
    PREFIX: str
    #: Field order of :meth:`to_dict`; subclasses extend it.
    FIELDS: Tuple[str, ...] = (
        "reads", "writes", "bytes_read", "bytes_written", "busy_ms",
    )

    def __init__(self) -> None:
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.busy_ms: float = 0
        g = obs.metrics_or_none()
        self._g = g
        if g is not None:
            self._g_counters = {
                name: g.counter(f"{self.PREFIX}.{name}") for name in self.FIELDS
            }
            self._g_service_hist = g.histogram(f"{self.PREFIX}.service_time_ms")

    def record(self, kind: IOKind, nbytes: int, elapsed_ms: float) -> None:
        """Account one completed request."""
        if kind is IOKind.READ:
            self.reads += 1
            self.bytes_read += nbytes
        else:
            self.writes += 1
            self.bytes_written += nbytes
        self.busy_ms += elapsed_ms
        if self._g is not None:
            self._mirror(kind, nbytes, elapsed_ms)

    def _mirror(self, kind: IOKind, nbytes: int, elapsed_ms: float) -> None:
        """Mirror one request into the global registry."""
        gc = self._g_counters
        if kind is IOKind.READ:
            gc["reads"].inc()
            gc["bytes_read"].inc(nbytes)
        else:
            gc["writes"].inc()
            gc["bytes_written"].inc(nbytes)
        gc["busy_ms"].inc(elapsed_ms)
        self._g_service_hist.observe(elapsed_ms)

    def to_dict(self) -> "dict[str, float]":
        """All counters as a flat, stably ordered plain dict."""
        return {name: getattr(self, name) for name in self.FIELDS}

    def throughput_bytes_per_sec(self) -> float:
        """Aggregate throughput over busy time (both directions)."""
        busy_ms = self.busy_ms
        if busy_ms == 0:
            return 0.0
        return (self.bytes_read + self.bytes_written) / (busy_ms / 1000.0)


class StorageModel:
    """The device contract both backends share.

    The timing substrate behind every throughput number: a simulated
    clock (``now_ms``), request-level pricing (:meth:`access`), the
    extent-level helpers the benchmarks drive, and the
    ``read_fault_hook`` seam fault injection uses.  A backend supplies
    :meth:`reset` and :meth:`_service`, which prices one validated
    request, advances the clock and records it in ``stats``.

    Parameters
    ----------
    max_transfer_bytes, sector_size:
        The device's largest single request and its sector (the size
        of a synchronous metadata write).
    read_fault_hook:
        Optional fault-injection check called with ``(start_byte,
        nbytes)`` before each read is serviced (see
        :func:`repro.faults.disk.read_fault_hook`).  It raises a typed
        error on a faulted read; the model's clock and device state are
        untouched when it does.  ``None`` (the default) skips the check.
    """

    now_ms: float
    stats: DeviceStats

    def __init__(
        self,
        max_transfer_bytes: int,
        sector_size: int,
        read_fault_hook: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self.max_transfer_bytes = max_transfer_bytes
        self.sector_size = sector_size
        self.read_fault_hook = read_fault_hook
        self._trace = obs.disktrace_or_none()
        self.reset()

    def reset(self, initial_angle: "float | None" = None) -> None:
        """Rewind the clock and forget device state and stats."""
        raise NotImplementedError

    def idle(self, ms: float) -> None:
        """Advance the clock for host think time."""
        if ms < 0:
            raise InvalidRequestError("cannot idle for negative time")
        self.now_ms += ms

    def drop_caches(self) -> None:
        """Start-of-phase host cache drop; a no-op unless the device
        keeps a cache a host flush reaches."""

    def access(self, kind: IOKind, start_byte: int, nbytes: int) -> float:
        """Service one request of ``nbytes`` at linear ``start_byte``.

        Returns the service time in milliseconds and advances the clock.
        ``nbytes`` must not exceed the hardware maximum transfer size;
        higher layers split requests first.
        """
        if nbytes <= 0:
            raise InvalidRequestError("access of zero bytes")
        if nbytes > self.max_transfer_bytes:
            raise InvalidRequestError(
                f"request of {nbytes} bytes exceeds hardware maximum "
                f"{self.max_transfer_bytes}"
            )
        if kind is IOKind.READ and self.read_fault_hook is not None:
            # Fault check runs before any clock/device mutation so a
            # caught injected error leaves the model consistent.
            self.read_fault_hook(start_byte, nbytes)
        return self._service(kind, start_byte, nbytes)

    def _service(self, kind: IOKind, start_byte: int, nbytes: int) -> float:
        """Price one validated request; return its elapsed ms."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Extent-level API used by the benchmarks
    # ------------------------------------------------------------------

    def block_to_byte(self, fs_block: int, block_size: int) -> int:
        """Linear device byte address of a file-system block."""
        return fs_block * block_size

    def transfer_extents(
        self,
        kind: IOKind,
        extents: Sequence[Extent],
        block_size: int,
    ) -> float:
        """Issue all ``extents`` in order; return total elapsed ms.

        Each extent is split to respect the hardware maximum transfer
        size, exactly as the FFS clustering layer would.
        """
        start = self.now_ms
        for block, _nblocks, nbytes in transfer_requests(
            extents, block_size, self.max_transfer_bytes
        ):
            self.access(kind, self.block_to_byte(block, block_size), nbytes)
        return self.now_ms - start

    def synchronous_metadata_write(self, fs_block: int, block_size: int) -> float:
        """One synchronous sector-sized metadata update (inode/directory).

        FFS writes metadata synchronously on create/delete; Section 5.1
        finds these dominate small-file create time.
        """
        byte = self.block_to_byte(fs_block, block_size)
        return self.access(IOKind.WRITE, byte, self.sector_size)


class DiskModel(StorageModel):
    """Simulated disk: converts extent sequences into elapsed time.

    Parameters
    ----------
    geometry:
        Mechanical/geometric parameters (defaults to Table 1's drive).
    initial_angle:
        Platter angle at time zero, as a fraction of a rotation.  The
        benchmark runner varies this across repetitions to obtain the
        small run-to-run variation the paper reports (std dev < 1.5%).
    read_fault_hook:
        The :class:`StorageModel` fault-injection seam.
    """

    #: Host transfer rate for buffer hits (SCSI-2 fast, ~10 MB/s).
    BUS_RATE_BYTES_PER_MS = 10 * MB / 1000.0

    stats: "DiskStats"

    def __init__(
        self,
        geometry: "DiskGeometry | None" = None,
        initial_angle: float = 0.0,
        read_fault_hook: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self.geometry = geometry if geometry is not None else DiskGeometry()
        self._initial_angle = initial_angle % 1.0
        super().__init__(
            self.geometry.max_transfer_bytes,
            self.geometry.sector_size,
            read_fault_hook,
        )

    # ------------------------------------------------------------------
    # Clock and state
    # ------------------------------------------------------------------

    def reset(self, initial_angle: "float | None" = None) -> None:
        """Rewind the clock and forget head/buffer state."""
        if initial_angle is not None:
            self._initial_angle = initial_angle % 1.0
        self.now_ms = 0.0
        self.current_cylinder = 0
        self.buffer = TrackBuffer(
            self.geometry.track_buffer_bytes,
            self.geometry.media_rate_bytes_per_ms,
        )
        self.stats = DiskStats()

    def angle_at(self, t_ms: float) -> float:
        """Platter angle (fraction of a rotation) at absolute time ``t_ms``."""
        return (self._initial_angle + t_ms / self.geometry.rotation_ms) % 1.0

    def idle(self, ms: float) -> None:
        """Advance the clock for host think time; read-ahead continues."""
        super().idle(ms)
        self.buffer.prefetch(ms)

    def drop_caches(self) -> None:
        """Start-of-phase cache drop: forget the track buffer."""
        self.buffer.invalidate()

    # ------------------------------------------------------------------
    # Low-level single-request timing
    # ------------------------------------------------------------------

    def _service(self, kind: IOKind, start_byte: int, nbytes: int) -> float:
        start_time = self.now_ms
        stats = self.stats
        if self._trace is not None:
            # Snapshot the counters the service path will bump so the
            # per-request deltas can be reconstructed afterwards.
            pre_cyl = self.current_cylinder
            pre_seek_ms = stats.seek_ms
            pre_rot_ms = stats.rotation_ms
            pre_lost = stats.lost_rotations
            pre_hits = stats.buffer_hits
        # Host/controller overhead before the drive sees the command.  The
        # platter keeps spinning (and the firmware keeps prefetching)
        # during this window — this is what makes sequential writes miss
        # their sector.
        self.buffer.prefetch(self.geometry.request_overhead_ms)
        self.now_ms += self.geometry.request_overhead_ms

        if kind is IOKind.READ:
            self._service_read(start_byte, nbytes)
        else:
            self._service_write(start_byte, nbytes)

        elapsed = self.now_ms - start_time
        stats.record(kind, nbytes, elapsed)
        if self._trace is not None:
            geo = self.geometry
            target_cyl = geo.cylinder_of_sector(geo.sector_of_byte(start_byte))
            seek_ms = stats.seek_ms - pre_seek_ms
            rot_ms = stats.rotation_ms - pre_rot_ms
            self._trace.record(
                kind=kind.value,
                byte=start_byte,
                nbytes=nbytes,
                cyl=target_cyl,
                seek_cyls=abs(target_cyl - pre_cyl),
                seek_ms=seek_ms,
                rot_ms=rot_ms,
                transfer_ms=elapsed - seek_ms - rot_ms,
                service_ms=elapsed,
                lost_rot=stats.lost_rotations > pre_lost,
                buf_hit=stats.buffer_hits > pre_hits,
            )
        return elapsed

    def _service_read(self, start_byte: int, nbytes: int) -> None:
        hit = self.buffer.hit_bytes(start_byte, nbytes)
        if hit:
            # Serve the buffered prefix from drive RAM over the bus.
            self.now_ms += hit / self.BUS_RATE_BYTES_PER_MS
            self.stats.note_buffer_hit()
            remaining = nbytes - hit
            if remaining:
                # The firmware's prefetch head is already positioned at the
                # frontier for a sequential stream: the rest arrives at
                # media rate, no repositioning.
                self.now_ms += self._media_transfer_ms(start_byte + hit, remaining)
            self.buffer.note_read(start_byte, nbytes)
            self.buffer.prefetch(0.0)
            return
        if self.buffer.is_sequential(start_byte):
            # Continues the stream but the prefetch has not reached it yet:
            # wait for the media to arrive there (it is already en route).
            self.now_ms += self._media_transfer_ms(start_byte, nbytes)
            self.buffer.note_read(start_byte, nbytes)
            return
        # Random read: full mechanical positioning, buffer restarts here.
        self._position(start_byte)
        self.now_ms += self._media_transfer_ms(start_byte, nbytes)
        self.buffer.note_read(start_byte, nbytes)

    def _service_write(self, start_byte: int, nbytes: int) -> None:
        # Writes invalidate the read-ahead stream and always position.
        self.buffer.invalidate()
        self._position(start_byte)
        self.now_ms += self._media_transfer_ms(start_byte, nbytes)

    def _position(self, start_byte: int) -> None:
        """Seek to the target cylinder, then wait for the target sector."""
        geo = self.geometry
        sector = geo.sector_of_byte(start_byte)
        target_cyl = geo.cylinder_of_sector(sector)
        seek = geo.seek_time_ms(self.current_cylinder, target_cyl)
        self.now_ms += seek
        if seek:
            self.stats.note_seek(
                seek, distance=abs(target_cyl - self.current_cylinder)
            )
        self.current_cylinder = target_cyl
        target_angle = geo.rotational_position(sector)
        here = self.angle_at(self.now_ms)
        wait = ((target_angle - here) % 1.0) * geo.rotation_ms
        self.now_ms += wait
        self.stats.note_rotation(wait, lost=wait > 0.9 * geo.rotation_ms)

    def _media_transfer_ms(self, start_byte: int, nbytes: int) -> float:
        """Media-rate transfer time including head/cylinder switches."""
        geo = self.geometry
        first_sector = geo.sector_of_byte(start_byte)
        last_sector = geo.sector_of_byte(start_byte + nbytes - 1)
        transfer = nbytes / geo.media_rate_bytes_per_ms
        tracks_crossed = geo.track_of_sector(last_sector) - geo.track_of_sector(
            first_sector
        )
        cyls_crossed = geo.cylinder_of_sector(last_sector) - geo.cylinder_of_sector(
            first_sector
        )
        head_switches = tracks_crossed - cyls_crossed
        transfer += head_switches * geo.head_switch_ms
        transfer += cyls_crossed * geo.seek_track_to_track_ms
        self.current_cylinder = geo.cylinder_of_sector(last_sector)
        return transfer


class DiskStats(DeviceStats):
    """Counters accumulated by a :class:`DiskModel` run: the request
    counters plus seeks, rotational waits and track-buffer hits.

    The global mirror adds histograms of seek time, seek distance and
    rotational wait to the shared request service-time histogram.
    """

    PREFIX = "disk"
    #: Field order of :meth:`to_dict`, matching the pre-telemetry layout.
    FIELDS = DeviceStats.FIELDS + (
        "seeks", "seek_ms", "rotation_ms", "lost_rotations", "buffer_hits",
    )

    def __init__(self) -> None:
        super().__init__()
        self.seeks = 0
        self.seek_ms: float = 0
        self.rotation_ms: float = 0
        self.lost_rotations = 0
        self.buffer_hits = 0
        if self._g is not None:
            g = self._g
            self._g_seek_hist = g.histogram("disk.seek_time_ms")
            self._g_seek_dist_hist = g.histogram("disk.seek_distance_cyl")
            self._g_rot_hist = g.histogram("disk.rot_wait_ms")

    def note_seek(self, seek_ms: float, distance: int = 0) -> None:
        """Account one non-zero seek of ``seek_ms`` milliseconds over
        ``distance`` cylinders (0 when the caller did not measure it)."""
        self.seeks += 1
        self.seek_ms += seek_ms
        if self._g is not None:
            self._g_counters["seeks"].inc()
            self._g_counters["seek_ms"].inc(seek_ms)
            self._g_seek_hist.observe(seek_ms)
            if distance:
                self._g_seek_dist_hist.observe(distance)

    def note_rotation(self, wait_ms: float, lost: bool) -> None:
        """Account one rotational wait (``lost`` = nearly a full turn)."""
        self.rotation_ms += wait_ms
        if lost:
            self.lost_rotations += 1
        if self._g is not None:
            self._g_counters["rotation_ms"].inc(wait_ms)
            if lost:
                self._g_counters["lost_rotations"].inc()
            self._g_rot_hist.observe(wait_ms)

    def note_buffer_hit(self) -> None:
        """Account one track-buffer read hit."""
        self.buffer_hits += 1
        if self._g is not None:
            self._g_counters["buffer_hits"].inc()
