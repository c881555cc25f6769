"""The benchmark's four workloads, all at one preset (``small``).

Each workload has ``setups`` set-ups (what a user pays before
measuring; each builds one part of the input), a timed ``body`` over all
parts and untimed ``verify`` steps.  Layers are measured from outside: the body wraps
calls into each layer's public functions in spans.  To see inside the
bench modules and the allocator, a pass rebinds a few names for its
duration and restores them after: the bench modules' ``make_storage``
(so :class:`StorageTap` sees every model and, traced, times its pricing)
and ``score_file_set``, ``experiment flash``'s ``aged_fs_copy`` and
``SSDModel`` (so its churn runs on the benchmark's images and models),
and a traced replay's policy window hooks.

Why these workloads (BENCHMARK.json carries the one-line version):

* ``age-small`` is cold aging — generation, replay, the FFS allocator
  and incremental layout upkeep — with no storage model, so a replay or
  allocator change must show here and a storage change must not;
* ``measure-disk`` prices aged images on the disk model with no aging in
  the timed part (aging and the cache sit in set-up); a run ages several
  images, since one seed's layout sets the amount of timed work;
* ``flash-churn`` loads the FTL with writes at steady-state garbage
  collection, which ``measure-disk``'s reads never reach;
* ``measure-disk-traced`` is ``measure-disk`` with the simulator's own
  telemetry on, the only place ``repro.obs`` does measurable work.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import shutil
import tempfile
from collections import Counter
from contextlib import ExitStack, contextmanager
from pathlib import Path
from types import ModuleType
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro import obs, storage
from repro.aging.generator import AgingConfig, build_workloads
from repro.aging.replay import AgingReplayer, ReplayResult
from repro.aging.workload import Workload
from repro.analysis.layout import aggregate_layout_score
from repro.bench import hotfiles as bench_hotfiles
from repro.bench import sequential as bench_sequential
from repro.bench.hotfiles import HotFileBenchmark
from repro.bench.sequential import SequentialIOBenchmark
from repro.bench.timing import BenchmarkRunner
from repro.cache.keys import replay_key
from repro.cache.store import ArtifactCache
from repro.errors import ConsistencyError
from repro.experiments import flash
from repro.experiments.config import Preset, get_preset
from repro.ffs.alloc.policy import AllocPolicy, run_is_contiguous
from repro.ffs.check import check_filesystem
from repro.ffs.filesystem import FileSystem
from repro.ffs.image import filesystem_to_document
from repro.ffs.inode import Inode
from repro.ffs.params import FSParams
from repro.obs.disktrace import DiskTrace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.ssd import SSDModel
from repro.storage import StorageModel
from repro.units import MB

from harness import Checks, Iteration, Recorder

PRESET = "small"
POLICIES = ("ffs", "realloc")
LABELS = {"ffs": "FFS", "realloc": "FFS + Realloc"}

#: Methods every request to a storage model passes through.
PRICING_METHODS = ("access", "transfer_extents", "synchronous_metadata_write")


# ----------------------------------------------------------------------
# Measuring from outside
# ----------------------------------------------------------------------


@contextmanager
def rebound(module: ModuleType, **names: object) -> Iterator[None]:
    """``module``'s globals ``names`` rebound for the block, then restored."""
    saved = {name: getattr(module, name) for name in names}
    for name, value in names.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


@contextmanager
def counted_windows(policy: AllocPolicy, counts: Counter, traced: bool) -> Iterator[None]:
    """Count the cluster windows the allocator hands ``policy`` and how
    many of them are fragmented at hand-off (traced passes only).

    The wrappers live on the instance and are removed on exit: a
    ``FileSystem`` copy clones the policy's ``__dict__``, so a wrapper
    left behind would bind the copy to the original's superblock.
    """
    if not traced:
        yield
        return

    def counting(inner: Callable[[Inode, int, int], None]) -> Callable[[Inode, int, int], None]:
        def window(inode: Inode, start_lbn: int, end_lbn: int) -> None:
            counts["ffs.alloc.windows_seen"] += 1
            if end_lbn - start_lbn >= 2 and end_lbn <= len(inode.blocks):
                if not run_is_contiguous(inode.blocks[start_lbn:end_lbn]):
                    counts["ffs.alloc.windows_fragmented"] += 1
            inner(inode, start_lbn, end_lbn)

        return window

    policy.window_complete = counting(policy.window_complete)
    policy.finalize = counting(policy.finalize)
    try:
        yield
    finally:
        del policy.window_complete
        del policy.finalize


class StorageTap:
    """Collects every storage model the timed code builds.

    The bench modules build their models with ``make_storage``; inside
    :meth:`installed` that name resolves to a wrapper that adopts each
    model.  A traced pass also wraps each model's pricing methods (and the
    bench modules' layout scoring) in spans.
    """

    def __init__(self, spans: Recorder) -> None:
        self.spans = spans
        self.models: List[StorageModel] = []

    def adopt(self, model: StorageModel) -> StorageModel:
        self.models.append(model)
        if self.spans.traced:
            layer = "ssd" if isinstance(model, SSDModel) else "disk"
            for method in PRICING_METHODS:
                setattr(model, method, self.spans.wrap(f"{layer}.pricing", getattr(model, method)))
        return model

    @contextmanager
    def installed(self) -> Iterator["StorageTap"]:
        def make_storage(*args: object, **kwargs: object) -> StorageModel:
            return self.adopt(storage.make_storage(*args, **kwargs))

        with ExitStack() as stack:
            for module in (bench_sequential, bench_hotfiles):
                names: Dict[str, object] = {"make_storage": make_storage}
                if self.spans.traced:
                    names["score_file_set"] = self.spans.wrap(
                        "analysis.layout", module.score_file_set)
                stack.enter_context(rebound(module, **names))
            yield self

    def counts(self) -> Counter:
        """Request and byte totals over the adopted models, per layer."""
        counts: Counter = Counter()
        for model in self.models:
            s = model.stats
            layer = "ssd" if isinstance(model, SSDModel) else "disk"
            counts[f"{layer}.requests"] += s.reads + s.writes
            counts[f"{layer}.bytes"] += s.bytes_read + s.bytes_written
            if layer == "disk":
                counts["disk.reads"] += s.reads
                counts["disk.seeks"] += s.seeks
                counts["disk.lost_rotations"] += s.lost_rotations
                counts["disk.buffer_hits"] += s.buffer_hits
            else:
                for field in ("host_pages_written", "flash_programs", "flash_erases",
                              "gc_moved_pages", "map_hits", "map_misses"):
                    counts[f"ssd.{field}"] += getattr(s, field)
        return counts


def fsck(checks: Checks, spans: Recorder, name: str, fs: FileSystem) -> None:
    """``check_filesystem`` as a named check."""
    try:
        with spans.span("ffs.check"):
            check_filesystem(fs)
    except ConsistencyError as exc:
        checks.check(name, False, str(exc))
    else:
        checks.check(name, True)


def score_check(checks: Checks, name: str, result: ReplayResult) -> None:
    """The replay's final timeline score equals a full rescan."""
    final = result.timeline.samples[-1].layout_score
    rescan = aggregate_layout_score(result.fs)
    checks.check(name, final == rescan, f"timeline {final!r} != aggregate {rescan!r}")


def timeline_rows(result: ReplayResult) -> List[Tuple[object, ...]]:
    return [
        (s.day, s.layout_score, s.utilization, s.live_files, s.ops_applied)
        for s in result.timeline.samples
    ]


def replay(
    spans: Recorder,
    workload: Workload,
    params: FSParams,
    policy: str,
    label: str,
    counts: Counter,
) -> ReplayResult:
    """One cold replay (what ``age_file_system`` does), with its counts."""
    with spans.span("aging.replay"):
        fs = FileSystem(params=params, policy=policy)
        replayer = AgingReplayer(fs, label=label)
        with counted_windows(fs.policy, counts, spans.traced):
            result = replayer.replay(workload)
    counts["aging.records_replayed"] += len(workload)
    counts["aging.ops_applied"] += result.ops_applied
    counts["aging.enospc_skips"] += result.skipped_no_space
    counts["aging.pair_scan_blocks"] += replayer.pair_scan_blocks
    if policy == "realloc":
        counts["ffs.realloc.attempts"] += fs.policy.relocation_attempts
        counts["ffs.realloc.relocations"] += fs.policy.relocations
    return result


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class AgeSmall:
    """Cold aging: build the workloads, replay the reconstruction under
    ``ffs`` and ``realloc`` and the ground truth under ``ffs``."""

    name = "age-small"
    backend = "none"
    digest_key = "age-small"
    #: A cold run starts from nothing: ``setup_s`` is the import alone.
    setups = 1

    def __init__(self, preset: Preset, seed: int, workdir: Path) -> None:
        self.preset = preset
        self.config = AgingConfig(params=preset.params, days=preset.days, seed=seed)

    def setup(self, spans: Recorder, index: int) -> Tuple[None, Counter]:
        return None, Counter()

    def verify_setup(self, part: None, checks: Checks, spans: Recorder) -> None:
        pass

    def body(self, parts: List[None], spans: Recorder) -> Iteration:
        counts: Counter = Counter()
        with spans.span("aging.generate"):
            art = build_workloads(self.config)
        counts["aging.records"] = len(art.reconstructed) + len(art.ground_truth)
        params = self.preset.params
        results: Dict[str, ReplayResult] = {}
        scores: Dict[str, float] = {}
        for label, workload, policy in (
            ("FFS", art.reconstructed, "ffs"),
            ("FFS + Realloc", art.reconstructed, "realloc"),
            ("Real", art.ground_truth, "ffs"),
        ):
            results[label] = replay(spans, workload, params, policy, label, counts)
            with spans.span("analysis.layout"):
                scores[label] = aggregate_layout_score(results[label].fs)
        return Iteration(
            ops=counts["aging.records"] + counts["aging.records_replayed"],
            sim_bytes=sum(r.bytes_written for r in results.values()),
            stats={
                "timelines": {label: timeline_rows(r) for label, r in results.items()},
                "scores": scores,
            },
            counts=counts,
            keep=results,
        )

    def verify(self, parts: List[None], it: Iteration, checks: Checks, spans: Recorder) -> None:
        for label, result in it.keep.items():
            fsck(checks, spans, f"{self.name}.fsck[{label}]", result.fs)
            score_check(checks, f"{self.name}.final_score[{label}]", result)
        it.keep = None  # the aged images are not needed past this point


#: Seeds of a run's further images are this far apart, so runs with
#: nearby seeds share no image.
IMAGE_SEED_STRIDE = 100_003


def image_seeds(seed: int, images: int) -> List[int]:
    """The aging seeds of a run's images; the first is ``seed`` itself."""
    return [seed + IMAGE_SEED_STRIDE * j for j in range(images)]


@dataclasses.dataclass
class AgedPart:
    """One aged image pair: both policies, as aged and as the cache
    gave them back (``originals`` is dropped once verified)."""

    seed: int
    originals: Optional[Dict[str, ReplayResult]]
    images: Dict[str, Optional[ReplayResult]]


class MeasureDisk:
    """Sequential sweep and hot-file benchmark on private copies of
    several aged images, priced on the disk model.

    A seed's aged layout sets how much work the sweep and the hot-file set
    do (about 10% apart between seeds, the hot-file set up to 2.5x), so a
    run ages ``setups`` pairs, one per set-up, from seeds derived from its
    own, and times the benchmarks over all of them.
    """

    name = "measure-disk"
    backend = "disk"
    digest_key = "measure-disk"
    setups = 3

    def __init__(self, preset: Preset, seed: int, workdir: Path) -> None:
        self.preset = preset
        self.seeds = image_seeds(seed, self.setups)
        self.workdir = workdir

    def runner(self) -> BenchmarkRunner:
        return BenchmarkRunner(self.preset.bench_repetitions)

    # -- set-up: age both policies, round-trip each through a fresh cache --

    def setup(self, spans: Recorder, index: int) -> Tuple[AgedPart, Counter]:
        seed = self.seeds[index]
        config = AgingConfig(params=self.preset.params, days=self.preset.days, seed=seed)
        counts: Counter = Counter()
        with spans.span("aging.generate"):
            art = build_workloads(config)
        counts["aging.records"] = len(art.reconstructed) + len(art.ground_truth)
        originals = {
            policy: replay(spans, art.reconstructed, self.preset.params, policy,
                           LABELS[policy], counts)
            for policy in POLICIES
        }
        del art
        cache = ArtifactCache(tempfile.mkdtemp(prefix="cache-", dir=self.workdir))
        images: Dict[str, Optional[ReplayResult]] = {}
        for policy in POLICIES:
            key = replay_key(self.preset.name, config, "reconstructed", policy, LABELS[policy])
            with spans.span("cache.load"):
                cold = cache.load_replay(key)
            with spans.span("cache.save"):
                path = cache.save_replay(key, originals[policy])
            with spans.span("cache.load"):
                images[policy] = cache.load_replay(key)
            for loaded in (cold, images[policy]):
                counts["cache.hits" if loaded is not None else "cache.misses"] += 1
            if path is not None:
                counts["cache.entry_bytes"] += path.stat().st_size
        shutil.rmtree(cache.root)
        return AgedPart(seed, originals, images), counts

    def verify_setup(self, part: AgedPart, checks: Checks, spans: Recorder) -> None:
        originals, part.originals = part.originals, None
        for policy in POLICIES:
            image = part.images[policy]
            original = originals[policy]
            same = image is not None and (
                filesystem_to_document(image.fs) == filesystem_to_document(original.fs)
                and timeline_rows(image) == timeline_rows(original)
            )
            where = f"{policy}@{part.seed}"
            checks.check(f"{self.name}.cache_roundtrip[{where}]", same,
                         "cache load does not reproduce the saved image")
            if image is None:
                part.images[policy] = image = original  # measure what was aged
            fsck(checks, spans, f"{self.name}.fsck[{where}]", image.fs)
            score_check(checks, f"{self.name}.final_score[{where}]", image)

    # -- timed part --

    def sweep(self, fresh: Callable[[str], FileSystem], spans: Recorder) -> Dict[str, object]:
        """The preset's sequential sweep for both policies, each file size
        on a fresh file system from ``fresh(policy)``."""
        rows: Dict[str, object] = {}
        for policy in POLICIES:
            for size in self.preset.bench_file_sizes:
                with spans.span("ffs.copy"):
                    fs = fresh(policy)
                with spans.span("bench.sequential"):
                    r = SequentialIOBenchmark(
                        fs, total_bytes=self.preset.bench_total_bytes, runner=self.runner(),
                    ).run(size)
                rows[f"{policy}/{size}"] = [r.read_throughput.mean / MB,
                                            r.write_throughput.mean / MB, r.layout_score]
        return rows

    def empty(self, policy: str) -> FileSystem:
        return FileSystem(self.preset.params, policy=policy)

    def timed(self, images: Dict[str, ReplayResult], spans: Recorder,
              tap: StorageTap) -> Dict[str, object]:
        """The timed work on one aged image pair; returns its statistics."""
        with tap.installed():
            stats: Dict[str, object] = {
                "sequential": self.sweep(lambda policy: copy.deepcopy(images[policy].fs), spans),
            }
            hot: Dict[str, object] = {}
            for policy in POLICIES:
                with spans.span("ffs.copy"):
                    fs = copy.deepcopy(images[policy].fs)
                with spans.span("bench.hotfiles"):
                    r = HotFileBenchmark(fs, runner=self.runner()).run()
                hot[policy] = [r.read_throughput.mean / MB, r.write_throughput.mean / MB,
                               r.n_hot_files, r.layout_score]
        stats["hotfiles"] = hot
        return stats

    def body(self, parts: List[AgedPart], spans: Recorder) -> Iteration:
        """The timed pass: the work on every image pair, then the sweep on
        an empty file system — the paper's aging-penalty baseline, the same
        work for every seed, so it is run once.  A tap per image pair keeps
        only that pair's storage models alive."""
        counts: Counter = Counter()
        stats: Dict[str, object] = {}
        with storage.using_backend(self.backend):
            for part in parts:
                tap = StorageTap(spans)
                stats[str(part.seed)] = {
                    "timelines": {p: timeline_rows(part.images[p]) for p in POLICIES},
                    **self.timed(part.images, spans, tap),
                }
                counts.update(tap.counts())
            tap = StorageTap(spans)
            with tap.installed():
                stats["empty"] = {"sequential": self.sweep(self.empty, spans)}
            counts.update(tap.counts())
        return Iteration(
            ops=counts["disk.requests"] + counts["ssd.requests"],
            sim_bytes=counts["disk.bytes"] + counts["ssd.bytes"],
            stats=stats,
            counts=counts,
        )

    def verify(self, parts: List[AgedPart], it: Iteration, checks: Checks, spans: Recorder) -> None:
        rates = [v for stats in it.stats.values()
                 for key in ("sequential", "hotfiles")
                 for row in stats.get(key, {}).values() for v in row[:2]]
        checks.check(f"{self.name}.throughput_positive",
                     bool(rates) and all(math.isfinite(v) and v > 0 for v in rates),
                     "a benchmark reported a non-positive or non-finite MB/s")


class FlashChurn(MeasureDisk):
    """The same images on the ``ssd`` backend: the sequential sweep, then
    ``experiment flash``'s elevator-order fill and cohort rewrites, run by
    ``flash._churn`` itself on the benchmark's private image copies."""

    name = "flash-churn"
    backend = "ssd"
    digest_key = "flash-churn"

    def timed(self, images: Dict[str, ReplayResult], spans: Recorder,
              tap: StorageTap) -> Dict[str, object]:
        with tap.installed():
            stats: Dict[str, object] = {
                "sequential": self.sweep(lambda policy: copy.deepcopy(images[policy].fs), spans),
            }

        def aged_fs_copy(preset: str, policy: str) -> FileSystem:
            with spans.span("ffs.copy"):
                return copy.deepcopy(images[policy].fs)

        def ssd_model(*args: object, **kwargs: object) -> SSDModel:
            return tap.adopt(SSDModel(*args, **kwargs))

        outcomes: Dict[str, object] = {}
        with rebound(flash, aged_fs_copy=aged_fs_copy, SSDModel=ssd_model):
            for policy in POLICIES:
                with spans.span("bench.churn"):
                    outcome = flash._churn(self.preset.name, policy)
                outcomes[policy] = dataclasses.asdict(outcome)
        stats["churn"] = outcomes
        return stats


class MeasureDiskTraced(MeasureDisk):
    """``measure-disk`` with the simulator's telemetry on: a metrics
    registry, a tracer and a disk trace, exported as JSONL at the end."""

    name = "measure-disk-traced"
    backend = "disk"
    #: Telemetry must not change a single simulated number.
    digest_key = "measure-disk"

    def body(self, parts: List[AgedPart], spans: Recorder) -> Iteration:
        registry, tracer, disktrace = MetricsRegistry(), Tracer(), DiskTrace()
        obs.enable(registry=registry, tracer=tracer, disktrace=disktrace)
        try:
            it = super().body(parts, spans)
        finally:
            obs.disable()
        with spans.span("obs.export"):
            written = 0
            for name, sink in (("disktrace.jsonl", disktrace), ("obs-spans.jsonl", tracer)):
                with open(self.workdir / name, "w") as fp:
                    sink.write_jsonl(fp)
                    written += fp.tell()
        it.counts["obs.disktrace_rows"] = len(disktrace)
        it.counts["obs.disktrace_dropped"] = disktrace.dropped
        it.counts["obs.export_bytes"] = written
        it.keep = {
            "registry": registry.counter("disk.reads").value + registry.counter("disk.writes").value,
            "disktrace": len(disktrace) + disktrace.dropped,
        }
        return it

    def verify(self, parts: List[AgedPart], it: Iteration, checks: Checks, spans: Recorder) -> None:
        super().verify(parts, it, checks, spans)
        requests = it.counts["disk.requests"]
        for source, seen in it.keep.items():
            checks.check(f"{self.name}.obs_{source}_requests", seen == requests,
                         f"{source} saw {seen} requests, the models {requests}")
        it.keep = None


WORKLOADS = {cls.name: cls for cls in (AgeSmall, MeasureDisk, FlashChurn, MeasureDiskTraced)}


def make(name: str, seed: int, workdir: Path, preset: str = PRESET) -> MeasureDisk | AgeSmall:
    """The workload ``name`` at ``preset`` with inputs from ``seed``."""
    return WORKLOADS[name](get_preset(preset), seed, workdir)
