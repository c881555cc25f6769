"""Measurement machinery shared by the benchmark's workloads.

* :class:`Spans` — in-memory span recorder (name, start, end, parent,
  run id) with per-layer self-time accounting;
* :class:`Checks` — the correctness ledger behind ``attempted``,
  ``failed`` and ``checks.failed_frac``; every failure is named;
* :func:`stats_digest` — SHA-256 over a workload's simulated statistics;
* :func:`host_fingerprint` — what a result must be compared under;
* :class:`ReferenceClock` — timing against a reference loop that runs
  alongside each timed step;
* :func:`measure` — the set-up / timed-iteration / verify loop.

Everything here is host-side measurement: it imports nothing from the
simulator, so it also runs in a checkout without ``src/``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import mmap
import os
import platform
import resource
import random
import statistics
import struct
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar, Union

clock = time.perf_counter
T = TypeVar("T")

#: Names of the phase roots every other span hangs under.
ROOT_SETUP = "setup"
ROOT_RUN = "run"
ROOT_VERIFY = "verify"


class Spans:
    """Spans kept in flat arrays so a traced iteration stays small.

    Span ``i`` is the ``i``-th one opened; parents are always opened
    before their children, which makes self-time a single pass.  Each
    set-up, traced iteration and verify pass is one root span.
    """

    traced = True

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.parent)

    def _name_id(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def open(self, name: str) -> int:
        """Open a span as a child of the innermost open span."""
        index = len(self.parent)
        self.name_of.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(clock())
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.names[self.name_of[index]]!r} closed out of order")
        self._stack.pop()
        self.end[index] = clock()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def wrap(self, name: str, fn: Callable[..., object]) -> Callable[..., object]:
        """``fn`` recorded as one span; calls nested in a span of the
        same name (a model calling its own methods) are not split out."""
        name_id = self._name_id(name)
        name_of, stack = self.name_of, self._stack

        def wrapped(*args: object, **kwargs: object) -> object:
            if stack and name_of[stack[-1]] == name_id:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapped

    def self_times(self) -> Tuple[List[float], List[int]]:
        """Per-span self time (duration minus what its children cover)
        and the root span each span hangs under."""
        n = len(self.parent)
        own = [self.end[i] - self.start[i] for i in range(n)]
        root = list(range(n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
                root[i] = root[p]
        return own, root

    def layer_seconds(self, phase: str) -> Dict[str, float]:
        """Self time per span name below the roots named ``phase``: summed
        within each root (one pass), then the median over the roots that
        contain the name.  Root spans themselves (the phase's glue) are
        left out."""
        own, root = self.self_times()
        phase_id = self._name_index.get(phase)
        per_root: Dict[Tuple[int, str], float] = {}
        for i, seconds in enumerate(own):
            if root[i] == i or self.name_of[root[i]] != phase_id:
                continue
            key = (root[i], self.names[self.name_of[i]])
            per_root[key] = per_root.get(key, 0.0) + seconds
        by_name: Dict[str, List[float]] = {}
        for (_root, name), seconds in per_root.items():
            by_name.setdefault(name, []).append(seconds)
        return {name: statistics.median(v) for name, v in by_name.items()}

    def write_jsonl(self, path: Path) -> int:
        """One JSON object per span, in opening order; returns bytes."""
        with open(path, "w") as fp:
            for i in range(len(self.parent)):
                fp.write(json.dumps({
                    "run": self.run_id,
                    "id": i,
                    "parent": self.parent[i] if self.parent[i] >= 0 else None,
                    "name": self.names[self.name_of[i]],
                    "start": self.start[i],
                    "end": self.end[i],
                }, separators=(",", ":")) + "\n")
            return fp.tell()


class NullSpans:
    """The untraced recorder: phase roots are timed, nothing is kept."""

    traced = False

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        yield -1

    def wrap(self, name: str, fn: Callable[..., object]) -> Callable[..., object]:
        return fn


Recorder = Union[Spans, NullSpans]


class Checks:
    """Correctness ledger: every check counts as attempted, every
    failure is kept with the name of the check that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _canonical(value: object) -> object:
    """Floats to ten significant digits, so the digest does not hinge on
    a platform's last-ulp libm rounding; containers recursively."""
    if isinstance(value, float):
        return f"{value:.10g}"
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def stats_digest(stats: Dict[str, object]) -> str:
    """SHA-256 of a workload's simulated statistics."""
    text = json.dumps(_canonical(stats), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def host_fingerprint(backend: str, seed: int) -> Dict[str, object]:
    """CPU model, core count, Python version, backend and seed."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "backend": backend,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Iteration:
    """What one timed pass of a workload hands back to the harness."""

    #: Operations the pass completed (the ``ops_per_s`` numerator).
    ops: int
    #: Simulated bytes the pass moved (the ``sim_mb_per_s`` numerator).
    sim_bytes: int
    #: Simulated statistics the digest covers.
    stats: Dict[str, object]
    #: Per-layer counts measured during the pass.
    counts: Dict[str, float]
    #: Whatever the workload's verify step needs from the pass.
    keep: object = None


# ----------------------------------------------------------------------
# Timing against a co-running reference
# ----------------------------------------------------------------------

#: Host speed on a shared machine swings by up to about 1.8x within a
#: second or two, far more than the bounds this benchmark gates on and
#: faster than a reference loop timed between steps can follow.  So a
#: helper process runs a fixed reference loop *while* each timed step
#: runs, time-sharing one CPU with it at a lower priority (``REF_NICE``),
#: and both meet the same host at the same moments.  A step's seconds are
#: its CPU seconds rescaled by the reference's speed during the step:
#: host CPU seconds at the speed where one reference unit takes
#: ``REF_UNIT_NOMINAL_S``.  The loop's working set is small enough to
#: stay in the private caches: a larger one was slowed by memory
#: contention the simulator hardly feels and over-corrected.  The loop is
#: independent of the simulator, so a change to the program moves only
#: the CPU seconds.
REF_UNIT_NOMINAL_S = 6e-5
#: The helper's nice value: at 10 it takes about a tenth of the CPU.
REF_NICE = 10
#: Objects in the reference loop's working set, as a power of two.
REF_BITS = 10
#: Objects one reference unit visits (the helper checks for the end of
#: the step between units).
REF_UNIT = 256
#: Fewest units a step's own reference speed is trusted from; shorter
#: steps are rescaled by the median speed of the run so far.
REF_MIN_UNITS = 20


class _Cell:
    __slots__ = ("key", "val")

    def __init__(self, key: int) -> None:
        self.key = key
        self.val: object = None


def _reference_loop(cmd_r: int, res_w: int, running: mmap.mmap) -> None:
    """The helper's body.  For each command byte, run reference units
    (interpreted pointer chasing, dict lookups and allocation, like the
    simulator's) until ``running`` drops, then report the units done and
    the CPU seconds they took."""
    gc.disable()
    n = 1 << REF_BITS
    cells = [_Cell(i) for i in range(n)]
    order = list(range(n))
    random.Random(1996).shuffle(order)
    index = {i * 7919: i for i in range(n)}
    pos = total = 0
    while os.read(cmd_r, 1):
        units = 0
        t0 = time.process_time()
        while running[0]:
            for i in order[pos:pos + REF_UNIT]:
                cell = cells[i]
                total = (total + index[i * 7919] + cell.key) & 0xFFFFFFF
                cell.val = (total, i)
            pos = (pos + REF_UNIT) & (n - 1)
            units += 1
        os.write(res_w, struct.pack("dd", units, time.process_time() - t0))


def _current_cpu(allowed: "set[int]") -> int:
    """The CPU this process last ran on (field 39 of its stat line)."""
    try:
        with open("/proc/self/stat") as fp:
            cpu = int(fp.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return min(allowed)
    return cpu if cpu in allowed else min(allowed)


class ReferenceClock:
    """Times steps against the reference loop running alongside them.

    The helper is forked before the simulator is imported, so its heap is
    small and the same in every run, and both processes are pinned to the
    CPU the parent is running on.  Use as a context manager: leaving it
    stops the helper, waits for it to exit and restores the parent's CPU
    affinity.
    """

    def __init__(self) -> None:
        self._affinity = os.sched_getaffinity(0)
        try:
            os.sched_setaffinity(0, {_current_cpu(self._affinity)})
        except OSError:  # not allowed here: the helper runs where it may
            pass
        self._running = mmap.mmap(-1, 1)  # shared with the helper
        cmd_r, self._cmd = os.pipe()
        self._res, res_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:  # the helper: serve until the parent closes
            os.close(self._cmd)
            os.close(self._res)
            try:
                os.nice(REF_NICE)
                _reference_loop(cmd_r, res_w, self._running)
            finally:
                os._exit(0)
        os.close(cmd_r)
        os.close(res_w)
        #: Nominal over measured seconds per reference unit, per trusted step.
        self.speeds: List[float] = []
        #: Host CPU seconds of every timed step.
        self.cpu: List[float] = []

    def scale(self) -> float:
        """The run's median reference speed (nominal over measured); 1
        before any step ran long enough to measure it."""
        return statistics.median(self.speeds) if self.speeds else 1.0

    def time(self, fn: Callable[[], T]) -> Tuple[T, float, float]:
        """Run ``fn`` with the reference alongside; returns its value, its
        host (wall) seconds and its rescaled CPU seconds."""
        self._running[0] = 1
        os.write(self._cmd, b"g")
        t0, c0 = clock(), time.process_time()
        try:
            value = fn()
        finally:
            cpu = time.process_time() - c0
            wall = clock() - t0
            self._running[0] = 0
            data = os.read(self._res, 16)
        if len(data) != 16:
            raise RuntimeError("the reference helper process died")
        self.cpu.append(cpu)
        units, ref_cpu = struct.unpack("dd", data)
        if units >= REF_MIN_UNITS and ref_cpu > 0:
            self.speeds.append(REF_UNIT_NOMINAL_S * units / ref_cpu)
            return value, wall, cpu * self.speeds[-1]
        return value, wall, cpu * self.scale()

    def close(self) -> None:
        os.close(self._cmd)
        os.close(self._res)
        os.waitpid(self.pid, 0)
        self._running.close()
        try:
            os.sched_setaffinity(0, self._affinity)
        except OSError:
            pass

    def __enter__(self) -> "ReferenceClock":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


@dataclass
class Measurement:
    """Everything one run measured, before it is turned into metrics.

    Times are rescaled CPU seconds; ``*_raw`` keep the host (wall)
    seconds as measured, with the reference sharing the CPU.
    """

    setup_s: List[float] = field(default_factory=list)
    setup_raw: List[float] = field(default_factory=list)
    run_s: List[float] = field(default_factory=list)
    run_raw: List[float] = field(default_factory=list)
    traced_run_s: List[float] = field(default_factory=list)
    traced_raw: List[float] = field(default_factory=list)
    setup_counts: Dict[str, float] = field(default_factory=dict)
    traced_counts: Dict[str, float] = field(default_factory=dict)
    iteration: Optional[Iteration] = None
    digest: str = ""


def measure(
    workload: "object",
    seconds: float,
    spans: Recorder,
    checks: Checks,
    ref: ReferenceClock,
) -> Measurement:
    """Run the workload's ``setups`` set-ups, then timed iterations for
    about ``seconds`` of host time, verifying outside the timed region.

    Set-up ``i`` builds the ``i``-th part of the workload's input and is
    verified right after; every iteration runs over all parts.  With a
    real :class:`Spans` recorder the set-ups and the second iteration are
    traced and the rest run untraced, so the same run also yields the
    tracing overhead; the first iteration stays untraced because it also
    warms the allocator.  There is at least one iteration (two when
    traced); a further one is started only while it is expected to end no
    more than half an iteration past the budget.
    """
    trace = isinstance(spans, Spans)
    least = 2 if trace else 1
    out = Measurement()
    parts: List[object] = []
    for index in range(workload.setups):
        gc.collect()
        with spans.span(ROOT_SETUP):
            (part, out.setup_counts), raw, scaled = ref.time(
                lambda: workload.setup(spans, index))
        out.setup_s.append(scaled)
        out.setup_raw.append(raw)
        with spans.span(ROOT_VERIFY):
            workload.verify_setup(part, checks, spans)
        parts.append(part)

    timed = 0.0
    index = 0
    while True:
        traced = trace and index == 1
        recorder = spans if traced else NullSpans()
        gc.collect()
        with recorder.span(ROOT_RUN):
            it, raw, scaled = ref.time(lambda: workload.body(parts, recorder))
        timed += raw
        if traced:
            out.traced_run_s.append(scaled)
            out.traced_raw.append(raw)
            out.traced_counts = it.counts
        else:
            out.run_s.append(scaled)
            out.run_raw.append(raw)
        with spans.span(ROOT_VERIFY):
            workload.verify(parts, it, checks, spans)
        digest = stats_digest(it.stats)
        if out.iteration is None:
            out.iteration, out.digest = it, digest
        else:
            checks.check(
                f"{workload.name}.digest_repeatable", digest == out.digest,
                f"iteration {index} gave {digest[:12]}, iteration 0 {out.digest[:12]}",
            )
        index += 1
        if index >= least and timed + timed / index / 2 >= seconds:
            break
    return out
