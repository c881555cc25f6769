"""Unit tests for the disk timing model.

These lock in the behaviours Section 5.1 of the paper depends on:
sequential reads stream via the track buffer, back-to-back sequential
writes lose rotations, small seeks beat lost rotations, and fragmented
layouts always read slower than contiguous ones.
"""

import pytest

from repro.disk.geometry import DiskGeometry
from repro.disk.model import DiskModel, IOKind
from repro.disk.request import Extent
from repro.errors import InvalidRequestError
from repro.units import KB, MB

BS = 8 * KB


def throughput(model, nbytes):
    return nbytes / (model.now_ms / 1000.0)


class TestBasicAccounting:
    def test_clock_starts_at_zero(self):
        assert DiskModel().now_ms == 0.0

    def test_access_advances_clock(self):
        model = DiskModel()
        elapsed = model.access(IOKind.READ, 0, 8 * KB)
        assert elapsed > 0
        assert model.now_ms == pytest.approx(elapsed)

    def test_zero_byte_access_rejected(self):
        with pytest.raises(InvalidRequestError):
            DiskModel().access(IOKind.READ, 0, 0)

    def test_oversized_access_rejected(self):
        with pytest.raises(InvalidRequestError):
            DiskModel().access(IOKind.READ, 0, 65 * KB)

    def test_idle_advances_clock(self):
        model = DiskModel()
        model.idle(5.0)
        assert model.now_ms == 5.0

    def test_negative_idle_rejected(self):
        with pytest.raises(InvalidRequestError):
            DiskModel().idle(-1.0)

    def test_reset_rewinds(self):
        model = DiskModel()
        model.access(IOKind.WRITE, 0, 8 * KB)
        model.reset()
        assert model.now_ms == 0.0
        assert model.stats.writes == 0

    def test_stats_counting(self):
        model = DiskModel()
        model.access(IOKind.READ, 0, 8 * KB)
        model.access(IOKind.WRITE, 0, 4 * KB)
        assert model.stats.reads == 1
        assert model.stats.writes == 1
        assert model.stats.bytes_read == 8 * KB
        assert model.stats.bytes_written == 4 * KB


class TestReadBehaviour:
    def test_sequential_reads_stream_at_media_rate(self):
        geo = DiskGeometry()
        model = DiskModel(geo)
        total = 2 * MB
        offset = 0
        while offset < total:
            model.access(IOKind.READ, offset, 64 * KB)
            offset += 64 * KB
        tp = throughput(model, total)
        media = geo.media_rate_bytes_per_ms * 1000
        assert tp > 0.7 * media  # within 30% of media rate

    def test_random_reads_much_slower_than_sequential(self):
        geo = DiskGeometry()
        seq = DiskModel(geo)
        for i in range(32):
            seq.access(IOKind.READ, i * 8 * KB, 8 * KB)
        rand = DiskModel(geo)
        for i in range(32):
            rand.access(IOKind.READ, (i * 9973 % 50000) * 8 * KB, 8 * KB)
        assert rand.now_ms > 2 * seq.now_ms

    def test_buffer_hits_recorded_for_sequential(self):
        model = DiskModel()
        for i in range(8):
            model.access(IOKind.READ, i * 8 * KB, 8 * KB)
        assert model.stats.buffer_hits > 0


class TestWriteBehaviour:
    def test_sequential_writes_lose_rotations(self):
        geo = DiskGeometry()
        model = DiskModel(geo)
        for i in range(8):
            model.access(IOKind.WRITE, i * 64 * KB, 64 * KB)
        # Each pair of back-to-back writes should cost close to a full
        # rotation of positioning on top of the transfer.
        assert model.stats.lost_rotations >= 6

    def test_sequential_write_slower_than_sequential_read(self):
        geo = DiskGeometry()
        r = DiskModel(geo)
        w = DiskModel(geo)
        for i in range(16):
            r.access(IOKind.READ, i * 64 * KB, 64 * KB)
            w.access(IOKind.WRITE, i * 64 * KB, 64 * KB)
        assert w.now_ms > 1.5 * r.now_ms

    def test_small_seek_beats_lost_rotation(self):
        """A write stream with small gaps outpaces a contiguous one —
        the paper's explanation for realloc write > raw write."""
        geo = DiskGeometry()
        contiguous = DiskModel(geo)
        gapped = DiskModel(geo)
        stride_gap = 64 * KB + 3 * BS  # small gap between transfers
        for i in range(16):
            contiguous.access(IOKind.WRITE, i * 64 * KB, 64 * KB)
            gapped.access(IOKind.WRITE, i * stride_gap, 64 * KB)
        assert gapped.now_ms < contiguous.now_ms


class TestExtentAPI:
    def test_transfer_extents_splits_to_hardware_max(self):
        model = DiskModel()
        model.transfer_extents(IOKind.READ, [Extent(0, 16, 16 * BS)], BS)
        assert model.stats.reads == 2  # 128 KB in two 64 KB requests

    def test_fragmented_extents_slower_than_contiguous(self):
        geo = DiskGeometry()
        contiguous = DiskModel(geo)
        contiguous.transfer_extents(IOKind.READ, [Extent(0, 7, 7 * BS)], BS)
        fragmented = DiskModel(geo)
        fragmented.transfer_extents(
            IOKind.READ,
            [Extent(i * 50, 1, BS) for i in range(7)],
            BS,
        )
        assert fragmented.now_ms > contiguous.now_ms

    def test_sync_metadata_write_is_nonzero(self):
        model = DiskModel()
        elapsed = model.synchronous_metadata_write(10, BS)
        assert elapsed > 0


class TestInitialAngle:
    def test_angle_changes_single_access_time(self):
        times = set()
        for angle in (0.0, 0.25, 0.5, 0.75):
            model = DiskModel(initial_angle=angle)
            times.add(round(model.access(IOKind.READ, 5 * MB, 8 * KB), 4))
        assert len(times) > 1

    def test_angle_wraps_modulo_one(self):
        a = DiskModel(initial_angle=0.25)
        b = DiskModel(initial_angle=1.25)
        assert a.angle_at(3.0) == pytest.approx(b.angle_at(3.0))


class TestDiskStats:
    def test_throughput_accounting(self):
        model = DiskModel()
        model.access(IOKind.READ, 0, 64 * KB)
        model.access(IOKind.WRITE, 10 * MB, 64 * KB)
        stats = model.stats
        expected = (stats.bytes_read + stats.bytes_written) / (
            stats.busy_ms / 1000.0
        )
        assert stats.throughput_bytes_per_sec() == pytest.approx(expected)

    def test_zero_activity_zero_throughput(self):
        assert DiskModel().stats.throughput_bytes_per_sec() == 0.0
