"""Benchmark of the FFS allocation simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload age-small --seed 1996 --seconds 10 --trace 0

``--workload`` is one of the names in ``BENCHMARK.json``.  The simulator
is imported from ``src/`` (there is nothing to build); inputs come from
``AgingConfig(small preset, seed)``.  The run sets up (the storage
workloads once per aged image), then repeats the workload's timed part
for about ``--seconds`` and verifies every output outside the timed
region.  Times are CPU seconds rescaled by a reference loop that runs
alongside each timed step (see ``harness.py``); the host seconds as
measured are printed too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` traces the
set-ups and the second iteration (spans around every call into a layer,
written to ``.perfbench_work/spans-<workload>.jsonl``), runs the rest
untraced, and reports the per-layer metrics.  Both print the host
fingerprint, each metric and every failed check by name, and end with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

Without ``src/repro`` next to this directory the run exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

from harness import (
    ROOT_RUN, ROOT_SETUP, ROOT_VERIFY, Checks, Measurement, NullSpans, ReferenceClock, Spans,
    host_fingerprint, measure, peak_rss_mb,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
MB = 1024 * 1024
DEFAULT_SEED = 1996

#: Span names the benchmark records; each is reported as ``<name>_s``.
LAYER_SPANS = (
    "aging.generate", "aging.replay", "ffs.check", "ffs.copy", "analysis.layout",
    "cache.save", "cache.load", "bench.sequential", "bench.hotfiles", "bench.churn",
    "disk.pricing", "ssd.pricing", "obs.export",
)


def load_spec() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json") as fp:
        return json.load(fp)


def recorded_digest(preset: str, seed: int, key: str) -> Optional[str]:
    with open(HERE / "digests.json") as fp:
        return json.load(fp).get(preset, {}).get(str(seed), {}).get(key)


def end_to_end(m: Measurement, import_s: float) -> Dict[str, float]:
    run_s = statistics.median(m.run_s)
    it = m.iteration
    return {
        "run_s": run_s,
        "setup_s": import_s + statistics.median(m.setup_s),
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": it.ops / run_s,
        "sim_mb_per_s": it.sim_bytes / MB / run_s,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def check_self_time(checks: Checks, values: Dict[str, float], run_layers: List[str],
                    run_s: float) -> None:
    """The reported per-layer seconds of the traced iteration's layers
    add up to no more than that iteration's ``run_s``."""
    total = sum(values[f"{name}_s"] for name in run_layers)
    checks.check("trace.self_time_within_run", total <= run_s,
                 f"run-phase layers report {total:.4f} s, the traced iteration took {run_s:.4f} s")


def per_layer(m: Measurement, spans: Spans, checks: Checks, ref: ReferenceClock) -> Dict[str, float]:
    """Per-layer metrics.  A layer's seconds are its self time per pass of
    the phase it runs in (one set-up, the traced iteration or one verify
    pass), rescaled by the factor that phase's timed steps were rescaled by
    (verify passes are untimed: the run-wide factor); counts come from the
    last set-up (one aged image pair) and the traced iteration."""
    traced_run_s = m.traced_run_s[0]
    factors = {
        ROOT_VERIFY: ref.scale(),
        ROOT_SETUP: ratio(sum(m.setup_s), sum(m.setup_raw)) or ref.scale(),
        ROOT_RUN: traced_run_s / m.traced_raw[0],
    }
    t: Dict[str, float] = {}
    for phase, factor in factors.items():  # a name in several phases: the later wins
        t.update((name, sec * factor) for name, sec in spans.layer_seconds(phase).items())
    unknown = set(t) - set(LAYER_SPANS)
    if unknown:
        raise RuntimeError(f"spans without a per-layer metric: {sorted(unknown)}")
    c = dict(m.setup_counts)
    c.update(m.traced_counts)

    def n(name: str) -> float:
        return c.get(name, 0)

    def s(name: str) -> float:
        return t.get(name, 0.0)

    values = {f"{name}_s": s(name) for name in LAYER_SPANS}
    check_self_time(checks, values, sorted(spans.layer_seconds(ROOT_RUN)), traced_run_s)
    values.update({
        "aging.records": n("aging.records"),
        "aging.replay_ops_per_s": ratio(n("aging.records_replayed"), s("aging.replay")),
        "aging.ops_applied": n("aging.ops_applied"),
        "aging.enospc_skips": n("aging.enospc_skips"),
        "aging.pair_scan_blocks": n("aging.pair_scan_blocks"),
        "ffs.realloc.attempts": n("ffs.realloc.attempts"),
        "ffs.realloc.relocations": n("ffs.realloc.relocations"),
        "ffs.realloc.yield": ratio(n("ffs.realloc.relocations"), n("ffs.realloc.attempts")),
        "ffs.alloc.windows_seen": n("ffs.alloc.windows_seen"),
        "ffs.alloc.windows_fragmented": n("ffs.alloc.windows_fragmented"),
        "cache.entry_bytes": n("cache.entry_bytes"),
        "cache.hits": n("cache.hits"),
        "cache.misses": n("cache.misses"),
        "disk.requests": n("disk.requests"),
        "disk.seeks": n("disk.seeks"),
        "disk.lost_rotations": n("disk.lost_rotations"),
        "disk.buffer_hit_ratio": ratio(n("disk.buffer_hits"), n("disk.reads")),
        "disk.requests_per_s": ratio(n("disk.requests"), s("disk.pricing")),
        "ssd.host_pages_written": n("ssd.host_pages_written"),
        "ssd.flash_programs": n("ssd.flash_programs"),
        "ssd.flash_erases": n("ssd.flash_erases"),
        "ssd.gc_moved_pages": n("ssd.gc_moved_pages"),
        "ssd.write_amplification": ratio(n("ssd.flash_programs"), n("ssd.host_pages_written")),
        "ssd.map_hit_ratio": ratio(n("ssd.map_hits"), n("ssd.map_hits") + n("ssd.map_misses")),
        "ssd.requests_per_s": ratio(n("ssd.requests"), s("ssd.pricing")),
        "obs.disktrace_rows": n("obs.disktrace_rows"),
        "obs.disktrace_dropped": n("obs.disktrace_dropped"),
        "obs.export_bytes": n("obs.export_bytes"),
        "trace.run_s": traced_run_s,
        "trace.overhead_s": traced_run_s - statistics.median(m.run_s),
        "trace.spans": len(spans),
        "checks.failed_frac": checks.failed_frac,
    })
    return values


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    preset: Optional[str] = None,
    import_s: float = 0.0,
    ref: Optional[ReferenceClock] = None,
) -> Dict[str, object]:
    """Run one workload; returns the result object (metrics by name)."""
    if ref is None:
        with ReferenceClock() as own:
            return run(workload, seed, seconds, trace, preset, import_s, own)
    import workloads  # the simulator is on sys.path by now

    spec = load_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    preset = preset or workloads.PRESET
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        wl = workloads.make(workload, seed, workdir, preset)
        print("host " + json.dumps(host_fingerprint(wl.backend, seed)))
        checks = Checks()
        spans = Spans(run_id=workdir.name) if trace else NullSpans()
        m = measure(wl, seconds, spans, checks, ref)
        expected = recorded_digest(preset, seed, wl.digest_key)
        if expected is not None:
            checks.check(f"{workload}.digest_recorded", m.digest == expected,
                         f"digest {m.digest} != recorded {expected}")
        if trace:
            values = per_layer(m, spans, checks, ref)
            spans_path = WORK / f"spans-{workload}.jsonl"
            spans.write_jsonl(spans_path)
            print(f"spans {len(spans)} -> {spans_path.relative_to(ROOT)}")
        else:
            values = end_to_end(m, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = set(units) ^ set(values)
    if missing:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    print(f"digest {m.digest}")
    print("host seconds: iterations " + " ".join(f"{x:.4f}" for x in m.run_raw)
          + "".join(f" traced {x:.4f}" for x in m.traced_raw)
          + "; set-ups " + " ".join(f"{x:.4f}" for x in m.setup_raw))
    print("rescaled seconds: iterations " + " ".join(f"{x:.4f}" for x in m.run_s)
          + "".join(f" traced {x:.4f}" for x in m.traced_run_s)
          + "; set-ups " + " ".join(f"{x:.4f}" for x in m.setup_s))
    print("host CPU seconds " + " ".join(f"{x:.4f}" for x in ref.cpu))
    print("reference speed " + " ".join(f"{x:.4f}" for x in ref.speeds))
    for name, value in values.items():
        print(f"  {name:30s} {value:>16.6g} {units[name]}")
    if "checks.failed_frac" not in values:
        print(f"  {'checks.failed_frac':30s} {checks.failed_frac:>16.6g} "
              f"({checks.failed} of {checks.attempted})")
    for failure in checks.failures:
        print(f"FAILED {failure}")
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        names = [w["name"] for w in load_spec()["workloads"]]
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    with ReferenceClock() as ref:  # forked before the simulator is imported
        sys.path.insert(0, str(ROOT / "src"))
        _, _, import_s = ref.time(lambda: importlib.import_module("workloads"))
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     import_s=import_s, ref=ref)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
