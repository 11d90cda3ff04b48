"""Span-aware sampling profiler: where the time goes *inside* a stage.

The span tracer (:mod:`repro.obs.trace`) answers "which stage was slow";
this module answers "where inside it".  A background thread walks every
thread's Python stack (``sys._current_frames()``) at a configurable rate
and accumulates two views per sample:

* **Folded stacks** — the frame chain root→leaf joined with ``;``
  (``repro.physics.transport:transport;numpy:dot``), counted per distinct
  stack.  ``repro profile-summary --folded out.txt`` writes the standard
  flamegraph/speedscope input format (``stack count`` lines).
* **Span attribution** — each sample is charged to the sampled thread's
  *open span stack*: the innermost span accrues *self* time, every
  enclosing span accrues *total* time (dt-weighted milliseconds).  This
  is the per-stage self/total table the paper's latency budget needs.

Sampling is **span-gated by default** (``require_span=True``): threads
with no open span are skipped, so idle executor workers waiting on their
inbox and interpreter-internal threads never pollute the profile.  The
profiler thread excludes itself and costs one stack walk per live traced
thread per tick — at the default 100 Hz a fully profiled campaign ran
2.6% slower than an untraced one, under the 5% overhead budget.

Worker processes run their own profiler (mirroring the parent's, see
:func:`repro.obs.aggregate.worker_flags`); their buffers are drained into
the chunk-result snapshot and merged parent-side by
:func:`merge_profile`, so a 4-worker campaign yields one merged profile
spanning every pid.
"""

from __future__ import annotations

import os
import sys
import threading
import time

from repro.obs.trace import STATE

#: Default sampling rate, Hz.  100 Hz resolves millisecond-scale stages
#: while keeping the walk cost well inside the <5% overhead budget.
DEFAULT_HZ = 100.0

#: Frames kept per sampled stack; deeper chains are truncated at the root.
MAX_STACK_DEPTH = 64

#: Span-attribution key for samples taken outside any open span (only
#: recorded when ``require_span=False``).
NO_SPAN = "(no span)"


class ProfileBuffer:
    """Thread-safe accumulator of profile samples.

    Attributes:
        folded: Folded python stack (``a;b;c``) -> sample count.
        span_self_ms: Span name -> milliseconds sampled with that span
            innermost.
        span_total_ms: Span name -> milliseconds sampled with that span
            anywhere on the open-span stack.
        samples: Total thread-samples recorded.
        duration_s: Profiled wall-clock this buffer covers (summed across
            processes after merging).
        pids: Process ids that contributed samples.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.folded: dict[str, int] = {}
        self.span_self_ms: dict[str, float] = {}
        self.span_total_ms: dict[str, float] = {}
        self.samples = 0
        self.duration_s = 0.0
        self.pids: set[int] = set()

    def add(self, folded_key: str, span_names: tuple[str, ...], dt_ms: float) -> None:
        """Record one thread-sample (called from the profiler thread)."""
        with self._lock:
            self.folded[folded_key] = self.folded.get(folded_key, 0) + 1
            self.samples += 1
            self.pids.add(os.getpid())
            leaf = span_names[-1] if span_names else NO_SPAN
            self.span_self_ms[leaf] = self.span_self_ms.get(leaf, 0.0) + dt_ms
            for name in set(span_names) or {NO_SPAN}:
                self.span_total_ms[name] = (
                    self.span_total_ms.get(name, 0.0) + dt_ms
                )

    def add_duration(self, dt_s: float) -> None:
        """Account profiled wall-clock (one tick's dt)."""
        with self._lock:
            self.duration_s += dt_s

    def merge(self, snap: dict) -> None:
        """Fold a :meth:`to_dict` snapshot (possibly another process's) in."""
        with self._lock:
            for key, n in snap.get("folded", {}).items():
                self.folded[key] = self.folded.get(key, 0) + n
            for key, ms in snap.get("span_self_ms", {}).items():
                self.span_self_ms[key] = self.span_self_ms.get(key, 0.0) + ms
            for key, ms in snap.get("span_total_ms", {}).items():
                self.span_total_ms[key] = self.span_total_ms.get(key, 0.0) + ms
            self.samples += snap.get("samples", 0)
            self.duration_s += snap.get("duration_s", 0.0)
            self.pids.update(snap.get("pids", ()))

    def to_dict(self) -> dict:
        """JSON-safe snapshot of the buffer."""
        with self._lock:
            return {
                "samples": self.samples,
                "duration_s": self.duration_s,
                "pids": sorted(self.pids),
                "folded": dict(self.folded),
                "span_self_ms": dict(self.span_self_ms),
                "span_total_ms": dict(self.span_total_ms),
            }

    def drain(self) -> dict | None:
        """Snapshot and clear; None when no samples were recorded."""
        with self._lock:
            if not self.samples:
                return None
            snap = {
                "samples": self.samples,
                "duration_s": self.duration_s,
                "pids": sorted(self.pids),
                "folded": self.folded,
                "span_self_ms": self.span_self_ms,
                "span_total_ms": self.span_total_ms,
            }
            self.folded = {}
            self.span_self_ms = {}
            self.span_total_ms = {}
            self.samples = 0
            self.duration_s = 0.0
            self.pids = set()
            return snap

    def reset(self) -> None:
        """Drop everything."""
        self.drain()


class SamplingProfiler:
    """Background-thread stack sampler with span attribution.

    One instance per process (:data:`PROFILER`); :func:`start` /
    :func:`stop` manage it.  Starting an already-running profiler is a
    no-op (the first configuration wins until :func:`stop`).

    Attributes:
        buffer: The accumulating :class:`ProfileBuffer` (merged worker
            snapshots also land here, parent-side).
        hz: Sampling rate of the running (or last) session.
        require_span: Skip threads with no open span (default True).
    """

    def __init__(self) -> None:
        self.buffer = ProfileBuffer()
        self.hz = DEFAULT_HZ
        self.require_span = True
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()

    @property
    def running(self) -> bool:
        """True while the sampling thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self, hz: float = DEFAULT_HZ, require_span: bool = True) -> None:
        """Start sampling at ``hz``; no-op if already running."""
        if self.running:
            return
        self.hz = max(1.0, float(hz))
        self.require_span = bool(require_span)
        self._stop_event = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the sampling thread (buffer contents are kept)."""
        thread = self._thread
        if thread is None:
            return
        self._stop_event.set()
        thread.join(timeout=2.0)
        self._thread = None

    def _run(self) -> None:
        interval = 1.0 / self.hz
        own = threading.get_ident()
        last = time.perf_counter()
        while not self._stop_event.wait(interval):
            now = time.perf_counter()
            dt_s = now - last
            last = now
            self._sample_once(own, dt_s * 1e3)
            self.buffer.add_duration(dt_s)

    def _sample_once(self, own_ident: int, dt_ms: float) -> None:
        """Walk every thread's stack once and record the samples."""
        frames = sys._current_frames()
        try:
            for tid, frame in frames.items():
                if tid == own_ident:
                    continue
                stack = STATE.stacks.get(tid)
                spans = tuple(stack) if stack else ()
                if not spans and self.require_span:
                    continue
                names = tuple(name for _sid, name in spans)
                self.buffer.add(_fold(frame), names, dt_ms)
        finally:
            del frames


def _fold(frame) -> str:
    """Folded ``module:function`` chain for a frame, root first."""
    parts: list[str] = []
    depth = 0
    while frame is not None and depth < MAX_STACK_DEPTH:
        code = frame.f_code
        module = frame.f_globals.get("__name__", "?")
        parts.append(f"{module}:{code.co_name}")
        frame = frame.f_back
        depth += 1
    parts.reverse()
    return ";".join(parts)


#: The process-wide profiler (workers get their own copy post-spawn).
PROFILER = SamplingProfiler()


def start(hz: float = DEFAULT_HZ, require_span: bool = True) -> None:
    """Start the process-wide profiler (no-op when already running)."""
    PROFILER.start(hz=hz, require_span=require_span)


def stop() -> None:
    """Stop the process-wide profiler; accumulated samples are kept."""
    PROFILER.stop()


def is_running() -> bool:
    """Whether the process-wide profiler is sampling right now."""
    return PROFILER.running


def reset() -> None:
    """Drop every accumulated sample (the profiler keeps running)."""
    PROFILER.buffer.reset()


def snapshot_and_reset() -> dict | None:
    """Drain this process's profile for the worker snapshot protocol."""
    return PROFILER.buffer.drain()


def merge_profile(snap: dict | None) -> None:
    """Fold a worker's profile snapshot into this process's buffer."""
    if snap:
        PROFILER.buffer.merge(snap)


def profile_events() -> list[dict]:
    """The profile rendered as JSONL-ready event dicts (empty if none).

    One ``{"type": "profile", ...}`` dict carrying the whole buffer,
    appended after metric events by the CLI's trace sink.
    """
    snap = PROFILER.buffer.to_dict()
    if not snap["samples"]:
        return []
    return [{"type": "profile", **snap}]


def function_stats(folded: dict[str, int]) -> list[tuple[str, int, int]]:
    """Per-function ``(name, self_samples, total_samples)`` from folded stacks.

    *Self* counts stacks where the function is the leaf; *total* counts
    stacks where it appears at all (once per stack, recursion collapsed).
    Sorted by self samples, descending.
    """
    self_counts: dict[str, int] = {}
    total_counts: dict[str, int] = {}
    for key, n in folded.items():
        frames = key.split(";")
        if not frames:
            continue
        leaf = frames[-1]
        self_counts[leaf] = self_counts.get(leaf, 0) + n
        for name in set(frames):
            total_counts[name] = total_counts.get(name, 0) + n
    return sorted(
        (
            (name, self_counts.get(name, 0), total)
            for name, total in total_counts.items()
        ),
        key=lambda row: (-row[1], -row[2], row[0]),
    )


def merged_profile(events: list[dict]) -> dict | None:
    """Merge every ``type: "profile"`` event in a trace into one snapshot."""
    merged = ProfileBuffer()
    seen = False
    for ev in events:
        if ev.get("type") == "profile":
            merged.merge(ev)
            seen = True
    return merged.to_dict() if seen else None


def render_table(events: list[dict], top: int = 15) -> str:
    """Render the ``repro profile-summary`` tables from trace events.

    Two sections: per-span self/total milliseconds (the span-aware view)
    and the top-``top`` functions by self samples (the flat view).
    """
    snap = merged_profile(events)
    if snap is None:
        return "no profile events in trace (run with --profile)"
    lines = [
        f"profile: {snap['samples']} samples over "
        f"{snap['duration_s']:.2f}s profiled wall-clock, "
        f"pids {', '.join(str(p) for p in snap['pids'])}",
        "",
        f"{'span':40s} {'self ms':>12s} {'total ms':>12s} {'self %':>8s}",
    ]
    total_ms = sum(snap["span_self_ms"].values()) or 1.0
    by_self = sorted(snap["span_self_ms"].items(), key=lambda kv: -kv[1])
    for name, self_ms in by_self:
        lines.append(
            f"{name:40s} {self_ms:12.1f} "
            f"{snap['span_total_ms'].get(name, self_ms):12.1f} "
            f"{100.0 * self_ms / total_ms:7.1f}%"
        )
    lines.append("")
    lines.append(
        f"{'function (top ' + str(top) + ' by self)':60s} "
        f"{'self':>8s} {'total':>8s}"
    )
    for name, self_n, total_n in function_stats(snap["folded"])[:top]:
        lines.append(f"{name:60s} {self_n:8d} {total_n:8d}")
    return "\n".join(lines)


def write_folded(events: list[dict], path: str | os.PathLike) -> int:
    """Write merged folded stacks as ``stack count`` lines (flamegraph).

    Returns:
        Number of distinct stacks written.
    """
    snap = merged_profile(events)
    folded = snap["folded"] if snap else {}
    with open(path, "w") as f:
        for key in sorted(folded):
            f.write(f"{key} {folded[key]}\n")
    return len(folded)
