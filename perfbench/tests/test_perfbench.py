"""Tests of the benchmark itself, run at the ``tiny`` preset::

    python -m pytest perfbench/tests -q

They check that a perturbed image, cache entry or digest raises the
failed-check count, that every metric name is well formed and matches
BENCHMARK.json, that layer self times add up, and that the benchmark
refuses to run where there is no simulator.
"""

from __future__ import annotations

import copy
from collections import Counter
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.aging.generator import AgingConfig, build_workloads  # noqa: E402
from repro.aging.replay import ReplayResult  # noqa: E402
from repro.experiments.config import get_preset  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = get_preset("tiny")


@pytest.fixture(scope="module")
def aged():
    """Both policies' tiny aged images, replayed the way set-up does."""
    config = AgingConfig(params=TINY.params, days=TINY.days, seed=1996)
    art = build_workloads(config)
    counts = Counter()
    return {
        policy: workloads.replay(harness.NullSpans(), art.reconstructed, TINY.params,
                                 policy, workloads.LABELS[policy], counts)
        for policy in workloads.POLICIES
    }


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in SPEC[group]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_metrics_include_setup_with_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_perturbed_image_fails_fsck(aged):
    checks = harness.Checks()
    workloads.fsck(checks, harness.NullSpans(), "fsck[clean]", aged["ffs"].fs)
    assert checks.failed_frac == 0
    broken = copy.deepcopy(aged["ffs"].fs)
    group = next(cg for cg in broken.sb.cgs if cg.free_blocks > 0)
    group.alloc_block()  # allocated in the maps, owned by no inode
    workloads.fsck(checks, harness.NullSpans(), "fsck[broken]", broken)
    assert checks.failed_frac == 0.5
    assert checks.failures[0].startswith("fsck[broken]")


def test_timeline_score_that_disagrees_with_the_image_fails(aged):
    checks = harness.Checks()
    workloads.score_check(checks, "score[ffs]", aged["ffs"])
    swapped = ReplayResult(fs=aged["realloc"].fs, timeline=aged["ffs"].timeline)
    workloads.score_check(checks, "score[swapped]", swapped)
    assert checks.failed == 1 and checks.failures[0].startswith("score[swapped]")


def test_perturbed_cache_entry_fails_the_round_trip(aged, tmp_path):
    wl = workloads.make("measure-disk", 1996, tmp_path, preset="tiny")
    changed = copy.deepcopy(aged["ffs"])
    changed.fs.make_directory("not-in-the-saved-image")
    part = workloads.AgedPart(1996, dict(aged), {"ffs": changed, "realloc": aged["realloc"]})
    checks = harness.Checks()
    wl.verify_setup(part, checks, harness.NullSpans())
    assert checks.failures == [
        "measure-disk.cache_roundtrip[ffs@1996]: cache load does not reproduce the saved image"
    ]
    assert 0 < checks.failed_frac < 1
    assert part.originals is None  # dropped once verified


def test_a_run_ages_images_no_nearby_run_shares():
    seeds = workloads.image_seeds(1996, 3)
    assert seeds[0] == 1996 and len(set(seeds)) == 3
    nearby = {s for seed in range(1900, 2100) if seed != 1996
              for s in workloads.image_seeds(seed, 3)}
    assert not nearby & set(seeds)


def test_wrong_recorded_digest_fails_the_run(monkeypatch):
    monkeypatch.setattr(run, "recorded_digest", lambda preset, seed, key: "0" * 64)
    result = run.run("age-small", 1996, seconds=0.01, trace=False, preset="tiny")
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] > 1


def test_digest_ignores_last_digit_noise_only():
    base = harness.stats_digest({"x": [1.0, 2]})
    assert harness.stats_digest({"x": [1.0 + 1e-15, 2]}) == base
    assert harness.stats_digest({"x": [1.0001, 2]}) != base


def test_untraced_run_reports_every_end_to_end_metric():
    result = run.run("measure-disk", 1996, seconds=0.01, trace=False, preset="tiny")
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_run_reports_every_per_layer_metric():
    result = run.run("flash-churn", 1996, seconds=0.01, trace=True, preset="tiny")
    assert result["correct"], result
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for name in ("aging.replay_s", "bench.churn_s", "ssd.pricing_s", "ssd.flash_programs",
                 "cache.hits", "ffs.alloc.windows_seen"):
        assert metrics[name]["value"] > 0, name
    assert metrics["disk.requests"]["value"] == 0  # the flash workload bypasses the disk
    assert (run.WORK / "spans-flash-churn.jsonl").stat().st_size > 0


def test_telemetry_does_not_change_simulated_statistics(tmp_path):
    digests = {}
    for name in ("measure-disk", "measure-disk-traced"):
        wl = workloads.make(name, 7, tmp_path, preset="tiny")
        checks = harness.Checks()
        with harness.ReferenceClock() as ref:
            m = harness.measure(wl, 0.01, harness.NullSpans(), checks, ref)
        assert checks.failures == []
        digests[name] = m.digest
    assert digests["measure-disk"] == digests["measure-disk-traced"]


def test_self_times_subtract_children():
    spans = harness.Spans("t")
    for name, parent, start, end in (
        ("run", -1, 0.0, 10.0), ("a", 0, 1.0, 4.0), ("b", 1, 2.0, 3.0), ("c", 0, 5.0, 9.0),
    ):
        spans.name_of.append(spans._name_id(name))
        spans.parent.append(parent)
        spans.start.append(start)
        spans.end.append(end)
    own, root = spans.self_times()
    assert own == [3.0, 2.0, 1.0, 4.0] and root == [0, 0, 0, 0]
    assert spans.layer_seconds("run") == {"a": 2.0, "b": 1.0, "c": 4.0}
    assert spans.layer_seconds("setup") == {}


class TwoCalls:
    """A workload whose timed pass calls one layer twice, and whose
    three set-ups call another layer twice each."""

    name = "two-calls"
    setups = 3

    def setup(self, spans, index):
        for _ in range(2):
            with spans.span("layer.setup"):
                busy(0.002 * (index + 1))
        return index, Counter()

    def verify_setup(self, part, checks, spans):
        pass

    def body(self, parts, spans):
        assert parts == [0, 1, 2]
        with spans.span("layer.x"):
            busy(0.002)
        with spans.span("layer.x"):
            busy(0.004)
        return harness.Iteration(ops=1, sim_bytes=1, stats={}, counts={})

    def verify(self, parts, it, checks, spans):
        pass


def busy(seconds):
    end = harness.clock() + seconds
    while harness.clock() < end:
        pass


def durations(spans, name, phase):
    """Span durations of ``name`` below roots named ``phase``, per root."""
    _own, root = spans.self_times()
    per_root = {}
    for i in range(len(spans)):
        if spans.names[spans.name_of[i]] == name and spans.names[spans.name_of[root[i]]] == phase:
            per_root[root[i]] = per_root.get(root[i], 0.0) + spans.end[i] - spans.start[i]
    return per_root


def test_a_layer_called_twice_in_the_traced_pass_is_summed():
    spans = harness.Spans("t")
    with harness.ReferenceClock() as ref:
        m = harness.measure(TwoCalls(), 0.01, spans, harness.Checks(), ref)
    assert len(m.run_s) == 1 and len(m.traced_run_s) == 1
    run_layers = spans.layer_seconds(harness.ROOT_RUN)
    traced = durations(spans, "layer.x", harness.ROOT_RUN)
    assert len(traced) == 1  # one traced iteration
    assert run_layers["layer.x"] == pytest.approx(next(iter(traced.values())))
    assert run_layers["layer.x"] >= 0.006
    setups = durations(spans, "layer.setup", harness.ROOT_SETUP)
    assert len(setups) == TwoCalls.setups
    assert spans.layer_seconds(harness.ROOT_SETUP)["layer.setup"] == pytest.approx(
        sorted(setups.values())[1])


def test_reference_rescales_cpu_seconds_and_its_helper_exits():
    with harness.ReferenceClock() as ref:
        value, wall, scaled = ref.time(lambda: busy(0.2) or 7)
        pid = ref.pid
    assert value == 7 and wall >= 0.2
    assert len(ref.speeds) == 1 and scaled == pytest.approx(ref.cpu[0] * ref.speeds[0])
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)  # already waited for


def test_reported_layers_longer_than_the_traced_run_fail_the_check():
    checks = harness.Checks()
    values = {"aging.replay_s": 1.0, "analysis.layout_s": 0.5, "ffs.check_s": 9.0}
    run.check_self_time(checks, values, ["aging.replay", "analysis.layout"], 1.6)
    assert checks.failed_frac == 0
    values["aging.replay_s"] = 1.2
    run.check_self_time(checks, values, ["aging.replay", "analysis.layout"], 1.6)
    assert checks.failed_frac == 0.5
    assert checks.failures[0].startswith("trace.self_time_within_run")


def test_both_seeds_have_recorded_digests():
    recorded = json.loads((BENCH / "digests.json").read_text())["small"]
    assert len(recorded) == 2
    for seed, digests in recorded.items():
        assert set(digests) == {"age-small", "measure-disk", "flash-churn"}, seed


def test_refuses_a_checkout_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "age-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
