"""SSD substrate tests: FTL invariants, the flash timing model, the
``--backend`` factory, and backend surfacing in the registry and diff.

The FTL invariants here are the ones the flash experiment's numbers
rest on: the logical→physical map stays a bijection through garbage
collection, GC conserves the live set exactly, erase counts only grow,
and every flash program is accounted to either the host or GC — so
write amplification is an identity, not an estimate.
"""

import pytest

from repro import obs, schemas, storage
from repro.rng import substream
from repro.disk.geometry import DiskGeometry
from repro.disk.model import DiskModel, IOKind
from repro.errors import InvalidRequestError, OutOfSpaceError
from repro.experiments import flash
from repro.experiments.runner import EXPERIMENTS, EXTRA_EXPERIMENTS
from repro.obs.diff import RunArtifacts, diff_runs, render_diff
from repro.obs.disktrace import DiskTrace
from repro.obs.report_html import build_diff_report
from repro.obs.store import summarize_manifest
from repro.ssd import MappingCache, PageMappedFTL, SSDGeometry, SSDModel, SSDStats
from repro.units import KB, MB


def _tiny_geo(**overrides):
    """A 20-block toy device: 10 logical blocks + 10 spares, 4 pages
    per block, so GC and out-of-space behaviour are reachable in a few
    dozen writes."""
    fields = dict(
        page_size=4096, pages_per_block=4, nblocks=20,
        logical_bytes=10 * 4 * 4096,
    )
    fields.update(overrides)
    return SSDGeometry(**fields)


def _check_map_invariants(ftl):
    """lpn↔ppn bijection + per-block valid counts match the live set."""
    assert len(ftl.page_map) == len(ftl.reverse_map)
    for lpn, ppn in ftl.page_map.items():
        assert ftl.reverse_map[ppn] == lpn
    per_block = [0] * ftl.geometry.nblocks
    for ppn in ftl.reverse_map:
        per_block[ppn // ftl.geometry.pages_per_block] += 1
    assert per_block == ftl.valid_count


def _churn_ftl(ftl, rounds=100):
    """Deterministic hot/cold overwrite mix that forces GC *migration*.

    Interleaving a hot range (rewritten every 8 writes) with a colder
    one (every 32) puts pages with different lifetimes in the same
    erase blocks, so victims still hold valid pages when collected —
    the write-amplification mechanism the flash experiment measures.
    """
    for i in range(rounds):
        ftl.write(i % 8)
        ftl.write(8 + (i % 32))


class TestFTLInvariants:
    def test_bijection_survives_gc_churn(self):
        ftl = PageMappedFTL(_tiny_geo())
        _churn_ftl(ftl)
        assert ftl.gc_runs > 0  # the pattern must actually exercise GC
        _check_map_invariants(ftl)

    def test_gc_conserves_the_live_set(self):
        ftl = PageMappedFTL(_tiny_geo())
        for lpn in range(40):
            ftl.write(lpn)
        before = dict(ftl.page_map)
        # Overwrite a quarter of the pages until GC has run repeatedly;
        # the other three quarters must survive migration unmoved in
        # the *logical* map (their physical homes may change).
        for i in range(120):
            ftl.write(i % 10)
        assert ftl.gc_runs > 0
        assert set(ftl.page_map) == set(before)
        _check_map_invariants(ftl)

    def test_erase_counts_only_grow(self):
        ftl = PageMappedFTL(_tiny_geo())
        prior = list(ftl.erase_counts)
        for i in range(200):
            ftl.write((i * 7) % 40)
            current = ftl.erase_counts
            assert all(c >= p for c, p in zip(current, prior))
            prior = list(current)
        assert sum(prior) > 0

    def test_every_program_is_host_or_gc(self):
        ftl = PageMappedFTL(_tiny_geo())
        _churn_ftl(ftl)
        assert ftl.gc_moved_pages > 0
        assert ftl.flash_programs == ftl.host_pages_written + ftl.gc_moved_pages
        assert ftl.write_amplification() == pytest.approx(
            ftl.flash_programs / ftl.host_pages_written
        )

    def test_fresh_ftl_reports_unit_write_amplification(self):
        assert PageMappedFTL(_tiny_geo()).write_amplification() == 1.0

    def test_reads_price_flash_whether_mapped_or_not(self):
        # The data plane is virtual: a read of a logically-existing
        # file must cost a data-page read even if its bytes were never
        # replayed through this device instance.
        geo = _tiny_geo()
        ftl = PageMappedFTL(geo)
        unmapped = ftl.read(3)
        ftl.write(3)
        mapped = ftl.read(3)
        assert ftl.flash_reads == 2
        assert unmapped >= geo.read_page_ms and mapped >= geo.read_page_ms

    def test_full_device_raises_out_of_space(self):
        geo = _tiny_geo()
        ftl = PageMappedFTL(geo)
        # Distinct lpns only: nothing is ever invalidated, so once the
        # free pool hits the GC threshold no sealed block is reclaimable.
        with pytest.raises(OutOfSpaceError):
            for lpn in range(geo.physical_pages):
                ftl.write(lpn)

    def test_victim_choice_is_greedy(self):
        geo = _tiny_geo()
        ftl = PageMappedFTL(geo)
        for lpn in range(40):
            ftl.write(lpn)
        # Invalidate all of one early block's pages, then trigger GC:
        # the erased block must be the emptiest one.
        for lpn in range(4):
            ftl.write(lpn)
        while ftl.gc_runs == 0:
            ftl.write(40)  # fresh lpn: shrinks the free pool only
        assert ftl.erase_counts[0] == 1


class TestMappingCache:
    def _geo(self):
        return _tiny_geo(map_cache_tpages=2, map_entries_per_tpage=4)

    def test_hit_costs_nothing(self):
        cache = MappingCache(self._geo())
        assert cache.touch(0, dirty=False) > 0.0   # cold miss
        assert cache.touch(1, dirty=False) == 0.0  # same tpage
        assert (cache.hits, cache.misses) == (1, 1)

    def test_clean_eviction_is_one_read(self):
        geo = self._geo()
        cache = MappingCache(geo)
        cache.touch(0, dirty=False)
        cache.touch(4, dirty=False)
        # Third tpage evicts the LRU (tpage 0, clean): read only.
        assert cache.touch(8, dirty=False) == geo.read_page_ms
        assert cache.writebacks == 0

    def test_dirty_eviction_pays_a_writeback(self):
        geo = self._geo()
        cache = MappingCache(geo)
        cache.touch(0, dirty=True)
        cache.touch(4, dirty=False)
        cost = cache.touch(8, dirty=False)
        assert cost == geo.read_page_ms + geo.program_page_ms
        assert cache.writebacks == 1

    def test_touch_refreshes_lru_order(self):
        geo = self._geo()
        cache = MappingCache(geo)
        cache.touch(0, dirty=True)
        cache.touch(4, dirty=False)
        cache.touch(0, dirty=False)  # tpage 0 becomes most-recent
        cache.touch(8, dirty=False)  # evicts tpage 1 (clean)
        assert cache.writebacks == 0
        assert cache.touch(0, dirty=False) == 0.0  # still resident


class TestSSDModel:
    def test_access_contract_matches_disk(self):
        model = SSDModel(_tiny_geo())
        elapsed = model.access(IOKind.WRITE, 0, 8 * KB)
        assert elapsed > 0
        assert model.now_ms == pytest.approx(elapsed)

    def test_reset_rewinds_clock_ftl_and_stats(self):
        model = SSDModel(_tiny_geo())
        model.access(IOKind.WRITE, 0, 8 * KB)
        model.reset()
        assert model.now_ms == 0.0
        assert model.stats.writes == 0
        assert model.ftl.host_pages_written == 0

    def test_same_sequence_is_byte_identical(self):
        def drive(model):
            for i in range(60):
                model.access(IOKind.WRITE, (i * 7 % 40) * 4096, 4 * KB)
            model.access(IOKind.READ, 0, 16 * KB)
            return model.now_ms, model.stats.to_dict()

        assert drive(SSDModel(_tiny_geo())) == drive(SSDModel(_tiny_geo()))

    def test_sub_page_write_programs_a_whole_page(self):
        model = SSDModel(_tiny_geo())
        model.access(IOKind.WRITE, 0, 512)
        assert model.stats.host_pages_written == 1
        assert model.stats.bytes_written == 512

    def test_fault_hook_fires_before_any_mutation(self):
        class Injected(Exception):
            pass

        def hook(start_byte, nbytes):
            raise Injected()

        model = SSDModel(_tiny_geo(), read_fault_hook=hook)
        with pytest.raises(Injected):
            model.access(IOKind.READ, 0, 4 * KB)
        assert model.now_ms == 0.0
        assert model.stats.reads == 0
        assert model.ftl.flash_reads == 0

    def test_gc_pause_is_charged_to_the_triggering_write(self):
        model = SSDModel(_tiny_geo())
        for i in range(100):
            model.access(IOKind.WRITE, (i % 8) * 4096, 4 * KB)
            model.access(IOKind.WRITE, (8 + i % 32) * 4096, 4 * KB)
        stats = model.stats
        assert stats.gc_runs > 0 and stats.gc_ms > 0
        assert stats.flash_programs == (
            stats.host_pages_written + stats.gc_moved_pages
        )
        assert stats.write_amplification() > 1.0

    def test_global_mirror_matches_stats_through_gc(self):
        with obs.session() as (registry, _tracer):
            model = SSDModel(_tiny_geo())
            paused = 0
            for i in range(100):
                for lpn in (i % 8, 8 + i % 32):
                    gc_before = model.stats.gc_ms
                    model.access(IOKind.WRITE, lpn * 4096, 4 * KB)
                    paused += model.stats.gc_ms > gc_before
            model.access(IOKind.READ, 0, 16 * KB)
        snap = registry.snapshot()
        stats = model.stats.to_dict()
        assert stats["gc_runs"] > 0
        for name, value in stats.items():
            mirrored = snap[f"ssd.{name}"]["value"]
            assert (mirrored, type(mirrored)) == (value, type(value)), name
        assert snap["ssd.gc_pause_ms"]["count"] == paused > 0
        assert snap["ssd.service_time_ms"]["count"] == 201

    def test_stats_document_is_schema_stamped(self):
        document = SSDModel(_tiny_geo()).stats.to_document()
        assert document["schema"] == schemas.SSD_STATS
        assert document["write_amplification"] == 1.0

    def test_geometry_document_is_schema_stamped(self):
        assert _tiny_geo().to_dict()["schema"] == schemas.SSD_CONFIG

    def test_trace_rows_carry_flash_extras(self):
        with obs.session(disktrace=DiskTrace()) as (_registry, _tracer):
            ssd = SSDModel(_tiny_geo())
            ssd.access(IOKind.WRITE, 0, 4 * KB)
            disk = DiskModel()
            disk.access(IOKind.WRITE, 0, 8 * KB)
            rows = obs.disktrace_or_none().rows()
        ssd_row, disk_row = rows
        assert ssd_row["gc_ms"] == 0.0 and "map_misses" in ssd_row
        assert ssd_row["seek_ms"] == 0.0 and ssd_row["cyl"] == 0
        assert "gc_ms" not in disk_row and "map_misses" not in disk_row


class _PerPageFTL(PageMappedFTL):
    """The page-at-a-time FTL that the range operations replaced.

    Each page is its own translation lookup, free-pool check, program
    and invalidation — the naive reference the range path must match
    bit for bit.
    """

    def read(self, lpn):
        elapsed = self.map_cache.touch(lpn, dirty=False)
        self.flash_reads += 1
        return elapsed + self.geometry.read_page_ms

    def write(self, lpn):
        elapsed = self.map_cache.touch(lpn, dirty=True)
        gc_ms = self._maybe_collect()
        elapsed += gc_ms
        ppn = self._program_next_page(lpn)
        old = self.page_map.get(lpn)
        if old is not None:
            self.valid_count[old // self.geometry.pages_per_block] -= 1
            del self.reverse_map[old]
        self.page_map[lpn] = ppn
        self.reverse_map[ppn] = lpn
        self.host_pages_written += 1
        elapsed += self.geometry.program_page_ms
        return elapsed, gc_ms


class _PerPageModel:
    """``SSDModel.access`` as a loop of single-page FTL calls, with the
    stats kept by hand as per-request deltas of the FTL counters."""

    FLASH_FIELDS = (
        "flash_reads", "flash_programs", "flash_erases", "gc_runs",
        "gc_moved_pages", "host_pages_written",
    )
    MAP_FIELDS = ("hits", "misses", "writebacks")

    def __init__(self, geometry):
        self.geometry = geometry
        self.now_ms = 0.0
        self.ftl = _PerPageFTL(geometry)
        self.stats = dict.fromkeys(SSDStats.FIELDS, 0)

    def _totals(self):
        totals = {name: getattr(self.ftl, name) for name in self.FLASH_FIELDS}
        for name in self.MAP_FIELDS:
            totals[f"map_{name}"] = getattr(self.ftl.map_cache, name)
        return totals

    def access(self, kind, start_byte, nbytes):
        geo = self.geometry
        ftl = self.ftl
        before = self._totals()
        start_time = self.now_ms
        self.now_ms += geo.request_overhead_ms
        gc_ms = 0.0
        for lpn in range(
            start_byte // geo.page_size,
            (start_byte + nbytes - 1) // geo.page_size + 1,
        ):
            if kind is IOKind.READ:
                self.now_ms += ftl.read(lpn)
            else:
                page_ms, pause_ms = ftl.write(lpn)
                self.now_ms += page_ms
                gc_ms += pause_ms
        self.now_ms += nbytes / geo.bus_rate_bytes_per_ms
        elapsed = self.now_ms - start_time
        stats = self.stats
        if kind is IOKind.READ:
            stats["reads"] += 1
            stats["bytes_read"] += nbytes
        else:
            stats["writes"] += 1
            stats["bytes_written"] += nbytes
        stats["busy_ms"] += elapsed
        stats["gc_ms"] += gc_ms
        for name, total in self._totals().items():
            stats[name] += total - before[name]
        return elapsed


def _ftl_state(ftl):
    """Everything a later request's price can depend on."""
    return {
        "page_map": ftl.page_map,
        "reverse_map": ftl.reverse_map,
        "valid_count": ftl.valid_count,
        "erase_counts": ftl.erase_counts,
        "sealed_blocks": ftl.sealed_blocks,
        "free_blocks": list(ftl.free_blocks),
        "open": (ftl._open_block, ftl._write_ptr),
        "lru": list(ftl.map_cache._resident.items()),
        "counters": (
            ftl.flash_reads, ftl.flash_programs, ftl.flash_erases,
            ftl.gc_runs, ftl.gc_moved_pages, ftl.host_pages_written,
            ftl.map_cache.hits, ftl.map_cache.misses,
            ftl.map_cache.writebacks,
        ),
    }


def _random_requests(rng, pages, count):
    """Seeded mix of reads, writes, overwrites and sub-page writes over
    ``pages`` logical pages, unaligned and up to the 64 KB maximum."""
    for _ in range(count):
        kind = IOKind.READ if rng.random() < 0.3 else IOKind.WRITE
        shape = rng.random()
        if shape < 0.2:
            nbytes = rng.choice((512, 1024, 3 * 512))  # sub-page
        elif shape < 0.5:
            nbytes = 4 * KB * rng.randint(1, 4)
        else:
            nbytes = rng.randint(1, 64 * KB)
        if rng.random() < 0.5:
            start = 4 * KB * rng.randrange(pages)  # page-aligned
        else:
            start = rng.randrange(pages * 4 * KB)
        start = min(start, pages * 4 * KB - nbytes)
        yield kind, start, nbytes


class TestRangePathMatchesPerPage:
    """Differential test: ``SSDModel``'s page-range FTL path against the
    page-at-a-time loop it replaced, on the same seeded request mix.

    Translation pages of three entries, a two-page mapping cache and
    four-page blocks make nearly every request cross translation-page
    and block-seal boundaries mid-request, evict dirty translation
    pages, and trigger GC with migration partway through a request.
    """

    GEO = dict(map_entries_per_tpage=3, map_cache_tpages=2)

    def _pair(self, **overrides):
        geo = _tiny_geo(**self.GEO, **overrides)
        return SSDModel(geo), _PerPageModel(geo)

    @pytest.mark.parametrize("seed", [1, 2, 3, 1996])
    def test_every_request_prices_and_mutates_identically(self, seed):
        model, oracle = self._pair()
        rng = substream(seed, "ssd-requests")
        for kind, start, nbytes in _random_requests(rng, 40, 400):
            elapsed = model.access(kind, start, nbytes)
            assert elapsed == oracle.access(kind, start, nbytes)
            assert model.now_ms == oracle.now_ms
            assert model.stats.gc_ms == oracle.stats["gc_ms"]
            assert _ftl_state(model.ftl) == _ftl_state(oracle.ftl)
            assert model.stats.to_dict() == oracle.stats
        stats = model.stats
        # The mix must have reached every mechanism it claims to test.
        assert stats.gc_moved_pages > 0 and stats.gc_ms > 0
        assert stats.map_writebacks > 0 and stats.map_hits > 0
        assert stats.reads > 0 and stats.writes > 0

    @pytest.mark.parametrize("seed", [5, 6])
    def test_out_of_space_raises_at_the_same_request(self, seed):
        # Writes over more logical pages than the device holds: every
        # block fills with live data and GC has nothing to reclaim.
        model, oracle = self._pair()
        rng = substream(seed, "ssd-requests")
        requests = _random_requests(rng, 2 * model.geometry.physical_pages, 400)
        for index, (kind, start, nbytes) in enumerate(requests):
            try:
                oracle.access(kind, start, nbytes)
            except OutOfSpaceError:
                with pytest.raises(OutOfSpaceError):
                    model.access(kind, start, nbytes)
                break
            model.access(kind, start, nbytes)
            assert model.now_ms == oracle.now_ms
        else:
            pytest.fail("the request mix never filled the device")
        assert index > 0
        # The FTL is left exactly as the page-at-a-time loop leaves it.
        assert _ftl_state(model.ftl) == _ftl_state(oracle.ftl)

    def test_single_page_calls_are_the_range_path(self):
        geo = _tiny_geo(**self.GEO)
        ftl, oracle = PageMappedFTL(geo), _PerPageFTL(geo)
        # _churn_ftl's hot/cold mix, with a read after every write pair.
        for i in range(150):
            for lpn in (i % 8, 8 + (i % 32)):
                assert ftl.write(lpn) == oracle.write(lpn)
            assert ftl.read((i * 7) % 40) == oracle.read((i * 7) % 40)
        assert ftl.gc_moved_pages > 0
        assert _ftl_state(ftl) == _ftl_state(oracle)


class TestStorageFactory:
    def test_default_backend_builds_the_disk_model(self):
        assert storage.current_backend() == storage.DEFAULT_BACKEND == "disk"
        assert isinstance(storage.make_storage(), DiskModel)

    def test_ssd_backend_matches_disk_capacity(self):
        model = storage.make_storage(backend="ssd")
        assert isinstance(model, SSDModel)
        assert model.geometry.capacity_bytes == DiskGeometry().capacity_bytes

    def test_unknown_backend_is_a_typed_error(self):
        with pytest.raises(InvalidRequestError):
            storage.make_storage(backend="tape")
        with pytest.raises(InvalidRequestError):
            storage.configure("tape")
        assert storage.current_backend() == "disk"  # selection untouched

    def test_using_backend_restores_even_on_error(self):
        with storage.using_backend("ssd"):
            assert storage.current_backend() == "ssd"
            assert isinstance(storage.make_storage(), SSDModel)
        assert storage.current_backend() == "disk"
        with pytest.raises(RuntimeError):
            with storage.using_backend("ssd"):
                raise RuntimeError("boom")
        assert storage.current_backend() == "disk"

    def test_configure_none_leaves_selection_unchanged(self):
        with storage.using_backend("ssd"):
            storage.configure(None)
            assert storage.current_backend() == "ssd"


def _ssd_metrics():
    return {
        "ssd.host_pages_written": {"type": "counter", "value": 1000},
        "ssd.flash_programs": {"type": "counter", "value": 1250},
        "ssd.flash_erases": {"type": "counter", "value": 17},
        "ssd.gc_moved_pages": {"type": "counter", "value": 250},
        "ssd.busy_ms": {"type": "counter", "value": 2000.0},
        "ssd.bytes_read": {"type": "counter", "value": 3 * MB},
        "ssd.bytes_written": {"type": "counter", "value": MB},
    }


def _manifest_dict(backend="ssd", metrics=None):
    manifest = obs.RunManifest(
        command="experiment",
        config={"preset": "tiny", "backend": backend},
    )
    manifest.started_at = 1_700_000_000.0
    manifest.finish(30.0, metrics if metrics is not None else _ssd_metrics())
    return manifest.to_dict()


class TestBackendInRegistryAndDiff:
    def test_summary_distils_flash_headlines(self):
        manifest = obs.RunManifest.from_dict(_manifest_dict())
        summary = summarize_manifest(manifest)
        assert summary["write_amplification"] == 1.25
        assert summary["flash_erases"] == 17
        assert summary["gc_moved_pages"] == 250
        assert summary["ssd_throughput_mb_s"] == 2.0

    def test_disk_run_summary_has_no_flash_keys(self):
        manifest = obs.RunManifest.from_dict(
            _manifest_dict(backend="disk", metrics={})
        )
        summary = summarize_manifest(manifest)
        assert "write_amplification" not in summary
        assert "ssd_throughput_mb_s" not in summary

    def test_diff_sides_and_render_carry_backend(self):
        a = RunArtifacts("base", _manifest_dict(backend="disk", metrics={}))
        b = RunArtifacts("cand", _manifest_dict(backend="ssd"))
        document = diff_runs(a, b)
        assert document["a"]["backend"] == "disk"
        assert document["b"]["backend"] == "ssd"
        text = render_diff(document)
        assert "backend disk" in text and "backend ssd" in text

    def test_diff_summary_surfaces_ssd_block(self):
        a = RunArtifacts("base", _manifest_dict())
        b = RunArtifacts("cand", _manifest_dict())
        document = diff_runs(a, b)
        ssd = document["summary"]["ssd"]
        assert ssd["a"]["write_amplification"] == 1.25
        assert ssd["b"]["flash_erases"] == 17

    def test_disk_only_diff_has_no_ssd_block(self):
        side = RunArtifacts("x", _manifest_dict(backend="disk", metrics={}))
        assert "ssd" not in diff_runs(side, side)["summary"]

    def test_html_report_renders_the_flash_panel(self):
        a = RunArtifacts("base", _manifest_dict())
        b = RunArtifacts("cand", _manifest_dict())
        html = build_diff_report(diff_runs(a, b))
        assert "write amplification" in html
        assert "<th>backend</th>" in html

    def test_html_report_omits_panel_for_disk_runs(self):
        side = RunArtifacts("x", _manifest_dict(backend="disk", metrics={}))
        html = build_diff_report(diff_runs(side, side))
        assert "write amplification" not in html


class TestFlashExperiment:
    def test_registered_by_name_but_not_in_all(self):
        assert EXTRA_EXPERIMENTS["flash"] is flash.run
        assert "flash" not in EXPERIMENTS  # `experiment all` is unchanged

    def _result(self):
        churn = {
            "ffs": flash.ChurnOutcome(
                host_bytes=10 * MB, write_amplification=1.085,
                flash_erases=302, gc_moved_pages=2002,
                max_erase_count=5, rounds=12,
            ),
            "realloc": flash.ChurnOutcome(
                host_bytes=10 * MB, write_amplification=1.058,
                flash_erases=292, gc_moved_pages=1365,
                max_erase_count=4, rounds=12,
            ),
        }
        throughput = {
            (policy, backend): {
                16 * KB: (100.0, 80.0 if backend == "disk" else 98.0)
            }
            for policy in ("ffs", "realloc")
            for backend in storage.BACKENDS
        }
        return flash.FlashResult(
            sizes=[16 * KB], throughput=throughput, churn=churn,
        )

    def test_degradation_math(self):
        result = self._result()
        assert result.degradation("ffs", "disk", 16 * KB) == pytest.approx(0.2)
        assert result.degradation("ffs", "ssd", 16 * KB) == pytest.approx(0.02)
        assert result.mean_degradation("ffs", "disk") == pytest.approx(0.2)

    def test_render_is_deterministic_and_complete(self):
        result = self._result()
        text = result.render()
        assert text == self._result().render()
        assert "Aging penalty by backend" in text
        assert "Rewrite churn on flash" in text
        assert "1.085x" in text and "1.058x" in text
