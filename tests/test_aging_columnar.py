"""Differential tests: columnar replay engine vs. a per-op reference.

The columnar engine is a pure performance rewrite, so every observable
must match :class:`PerOpReplayer` — a plain loop over the workload's
records, kept here as the test oracle — exactly: the final disk image,
the timeline, the emitted ``day_sample`` events, the result counters,
and the crash behaviour under fault injection.  These tests pin that
equivalence across workload configurations and policies, and hold the
incremental pair accounting to its linear scan budget.
"""

import json

import pytest

from repro import obs
from repro.aging.generator import AgingConfig, build_workloads
from repro.aging.replay import AgingReplayer, ReplayResult, age_file_system
from repro.aging.workload import APPEND, CREATE, Workload, WorkloadRecord
from repro.analysis.freespace import free_space_stats
from repro.analysis.timeline import Timeline
from repro.errors import FaultInjectionError, OutOfSpaceError
from repro.faults.injector import FaultInjector
from repro.faults.plan import CrashSpec, FaultPlan
from repro.ffs.filesystem import FileSystem
from repro.ffs.image import filesystem_to_document
from repro.ffs.params import scaled_params
from repro.obs import events as obs_events
from repro.units import KB, MB


#: A crash point known to fire inside the 25-day conftest workload.
FIRING_PLAN = FaultPlan(seed=91, crash=CrashSpec(day=3, after_block_writes=50))


def image_json(fs):
    """Canonical serialized disk image, for byte-level comparison."""
    return json.dumps(filesystem_to_document(fs), sort_keys=True)


class PerOpReplayer(AgingReplayer):
    """The per-record reference loop: identical results, no batching.

    It walks ``WorkloadRecord`` objects one at a time, with none of the
    columnar engine's day-slice or hoisted-local machinery, and shares
    only the sampling, crash and finish steps with the library class.
    """

    def replay(self, workload, sample_days=True):
        result = ReplayResult(fs=self.fs, timeline=Timeline(label=self.label))
        self._initial_files = len(self.fs.files())
        tr = obs.tracer_or_none()
        day_span = (
            tr.begin("replay.day", sim=0, label=self.label, day=0)
            if tr is not None
            else None
        )
        day_start_ops = day_start_skips = 0
        current_day = 0
        fault_day = 0
        try:
            for record in workload:
                day = int(record.time)
                if self._faults is not None and day != fault_day:
                    fault_day = day
                    self._faults.begin_day(day)
                while sample_days and day > current_day:
                    self._sample(result, current_day)
                    if tr is not None:
                        tr.end(
                            day_span,
                            sim=current_day + 1,
                            ops=result.ops_applied - day_start_ops,
                            enospc=result.skipped_no_space - day_start_skips,
                            layout_score=round(self.current_layout_score(), 4),
                        )
                        day_start_ops = result.ops_applied
                        day_start_skips = result.skipped_no_space
                        day_span = tr.begin(
                            "replay.day",
                            sim=current_day + 1,
                            label=self.label,
                            day=current_day + 1,
                        )
                    current_day += 1
                if record.op == CREATE:
                    directory = self.target_directory(record.src_ino)
                    if self._faults is not None:
                        self._faults.before_op(self.fs, "create", None)
                    try:
                        ino = self.fs.create_file(
                            directory, record.size, when=record.time
                        )
                    except OutOfSpaceError:
                        result.skipped_no_space += 1
                        continue
                    self._track_pairs(ino)
                    result.live_files[record.file_id] = ino
                    result.creates += 1
                    result.bytes_written += record.size
                    op_kind = "create"
                elif record.op == APPEND:
                    ino = result.live_files.get(record.file_id)
                    if ino is None:
                        continue  # its create was skipped for space
                    if self._faults is not None:
                        self._faults.before_op(self.fs, "append", ino)
                    try:
                        self._append_tracked(ino, record.size, record.time)
                    except OutOfSpaceError:
                        result.skipped_no_space += 1
                        continue
                    result.bytes_written += record.size
                    op_kind = "append"
                else:
                    ino = result.live_files.pop(record.file_id, None)
                    if ino is None:
                        continue  # its create was skipped for space
                    if self._faults is not None:
                        self._faults.before_op(self.fs, "delete", ino)
                    self.fs.delete_file(ino, when=record.time)
                    self._untrack_pairs(ino)
                    result.deletes += 1
                    op_kind = "delete"
                result.ops_applied += 1
                if self._faults is not None:
                    # ENOSPC-skipped ops never reach here: they are not
                    # buffered and cannot be crash candidates.
                    self._faults.after_op(self.fs, op_kind, ino)
        except FaultInjectionError as exc:
            return self._crash_result(
                result, exc, tr, day_span, current_day,
                day_start_ops, day_start_skips,
            )
        return self._finish_replay(
            result, sample_days, tr, day_span, current_day,
            day_start_ops, day_start_skips,
        )


def age_per_op(workload, params, policy, faults=None):
    """``age_file_system`` with the per-op reference loop."""
    fs = FileSystem(params=params, policy=policy)
    return PerOpReplayer(fs, label=policy, faults=faults).replay(workload)


def replay_both(workload, params, policy, faulted=False):
    """Run the same workload through both engines; returns the pair."""
    out = []
    for age in (age_file_system, age_per_op):
        faults = FaultInjector(FIRING_PLAN) if faulted else None
        out.append(age(workload, params=params, policy=policy, faults=faults))
    return out


def assert_equivalent(col, per):
    assert image_json(col.fs) == image_json(per.fs)
    assert col.timeline.label == per.timeline.label
    assert col.timeline.samples == per.timeline.samples
    assert col.ops_applied == per.ops_applied
    assert col.creates == per.creates
    assert col.deletes == per.deletes
    assert col.skipped_no_space == per.skipped_no_space
    assert col.bytes_written == per.bytes_written
    assert col.live_files == per.live_files


class TestEngineEquivalence:
    @pytest.mark.parametrize("policy", ["ffs", "realloc"])
    def test_reconstructed_workload(
        self, tiny_params, aging_artifacts, policy
    ):
        col, per = replay_both(
            aging_artifacts.reconstructed, tiny_params, policy
        )
        assert_equivalent(col, per)

    @pytest.mark.parametrize("policy", ["ffs", "realloc"])
    def test_alternate_configuration(self, policy):
        # A second aging configuration (different scale, seed, and day
        # count) so the equivalence is not an artifact of one workload.
        params = scaled_params(16 * MB)
        artifacts = build_workloads(
            AgingConfig(params=params, days=8, seed=4242)
        )
        col, per = replay_both(artifacts.reconstructed, params, policy)
        assert_equivalent(col, per)

    def test_faulted_run_crashes_identically(
        self, tiny_params, aging_artifacts
    ):
        col, per = replay_both(
            aging_artifacts.reconstructed, tiny_params, "ffs", faulted=True
        )
        assert col.crashed and per.crashed
        assert col.crash.to_dict() == per.crash.to_dict()
        assert_equivalent(col, per)

    def test_day_sample_events_identical(self, tiny_params, aging_artifacts):
        rows = []
        for age in (age_file_system, age_per_op):
            log = obs.EventLog()
            with obs.session(events=log):
                age(
                    aging_artifacts.reconstructed, params=tiny_params,
                    policy="ffs",
                )
            rows.append(log.rows())
        col_rows, per_rows = rows
        assert col_rows == per_rows
        assert any(
            r["type"] == obs_events.DAY_SAMPLE for r in col_rows
        ), "replay with an event log emitted no day samples"


class TestPairScanBudget:
    def test_single_file_append_run_is_linear(self):
        # A 10k-block file grown one block at a time: the incremental
        # delta path must walk only the short changed suffix per append,
        # not rescan the file.  A full rescan per append would walk
        # ~50M blocks here; hold the budget to a small linear factor.
        params = scaled_params(128 * MB)
        n_blocks = 10_000
        block = params.block_size
        records = [
            WorkloadRecord(
                time=0.001, op=CREATE, file_id=1, size=block,
                src_ino=0, directory="d",
            )
        ]
        for i in range(1, n_blocks):
            records.append(
                WorkloadRecord(
                    time=0.001 + i * 1e-5, op=APPEND, file_id=1,
                    size=block, src_ino=0, directory="d",
                )
            )
        fs = FileSystem(params=params, policy="ffs")
        replayer = AgingReplayer(fs)
        result = replayer.replay(Workload(records))
        (inode,) = result.fs.files()
        assert inode.n_chunks() == n_blocks
        assert replayer.pair_scan_blocks < 12 * n_blocks, (
            f"pair accounting walked {replayer.pair_scan_blocks} blocks "
            f"for {n_blocks} appended blocks; the delta path regressed "
            "toward a per-append rescan"
        )


class TestFsHealthUnchanged:
    def test_matches_reference_formula(self, tiny_params, aging_artifacts):
        fs = FileSystem(params=tiny_params, policy="ffs")
        replayer = AgingReplayer(fs)
        replayer.replay(aging_artifacts.reconstructed)

        def reference():
            # The pre-hoist formula: per-CG capacity recomputed inline,
            # deciles from a fresh sorted copy.
            stats = free_space_stats(fs)
            per_cg = [
                round(
                    1.0
                    - cg.free_frags
                    / (
                        fs.params.blocks_per_cg * fs.params.frags_per_block
                    ),
                    4,
                )
                for cg in fs.sb.cgs
            ]
            occupancy = sorted(per_cg)
            n = len(occupancy)
            deciles = [
                round(occupancy[min(n - 1, round(i * (n - 1) / 10))], 4)
                for i in range(11)
            ]
            frag = []
            for cg in fs.sb.cgs:
                free = cg.free_blocks
                frag.append(
                    0.0 if free == 0
                    else round(1.0 - cg.max_free_run() / free, 4)
                )
            return {
                "free_runs": stats.n_runs,
                "largest_free_run": stats.largest_run,
                "clusterable_fraction": round(
                    stats.clusterable_fraction, 4
                ),
                "cg_occupancy_deciles": deciles,
                "cg_occupancy": per_cg,
                "cg_frag": frag,
            }

        first = replayer._fs_health()
        assert first == reference()
        # The decile scratch buffer is reused across calls; a second
        # call must not be polluted by the first.
        assert replayer._fs_health() == first
