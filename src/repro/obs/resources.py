"""Periodic per-process resource sampler: RSS, CPU, GC, shm segments.

Campaign workers are long-lived spawned processes; a leak (heap growth,
unreclaimed shared-memory segments, GC churn) shows up as resource drift
long before it kills a run.  :class:`ResourceMonitor` samples this
process at a fixed interval and records the readings as gauges in the
:mod:`repro.obs.metrics` registry:

* ``res.rss_mb`` — current resident set size, MB (``/proc/self/status``
  ``VmRSS``; 0 where procfs is unavailable).
* ``res.rss_peak_mb`` — peak RSS, MB (``VmHWM``, falling back to
  ``resource.getrusage``).  The name's ``peak`` segment makes the
  registry keep the **max** of every write and merge, so the merged
  campaign trace reports the worst process, not the last one to report
  (the parent's own later samples included).
* ``res.cpu_s`` — user+system CPU seconds consumed so far.
* ``res.gc_collections`` — cumulative GC collections over all
  generations.
* ``res.shm_segments`` — live ``repro-shm`` segments owned by this pid
  (the executor transport's leak signal).

Like the tracer, sampling only records while telemetry is enabled; with
telemetry off ``set_gauge`` is a no-op and the monitor thread is never
started by the CLI.  Worker processes run their own monitor (see
:func:`repro.obs.aggregate.worker_flags`); their gauges ride the chunk
snapshot and merge parent-side.
"""

from __future__ import annotations

import gc
import os
import threading

from repro.obs import metrics as _metrics

#: Default sampling interval, seconds.  Resource drift is slow; 4 Hz
#: resolves it at negligible cost.
DEFAULT_INTERVAL_S = 0.25

#: Path of the Linux per-process status file (VmRSS / VmHWM, in kB).
_PROC_STATUS = "/proc/self/status"


def read_rss_mb() -> tuple[float, float]:
    """Current and peak RSS in MB (``0.0`` where unavailable).

    Reads ``/proc/self/status`` (Linux); falls back to
    ``resource.getrusage`` for the peak (current RSS then reports 0).
    """
    rss_kb = peak_kb = 0.0
    try:
        with open(_PROC_STATUS) as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    rss_kb = float(line.split()[1])
                elif line.startswith("VmHWM:"):
                    peak_kb = float(line.split()[1])
    except OSError:
        try:
            import resource

            peak_kb = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        except (ImportError, ValueError):
            peak_kb = 0.0
    return rss_kb / 1024.0, peak_kb / 1024.0


def cpu_seconds() -> float:
    """User + system CPU seconds consumed by this process."""
    times = os.times()
    return times.user + times.system


def gc_collections() -> int:
    """Cumulative garbage collections across all generations."""
    return sum(int(stat.get("collections", 0)) for stat in gc.get_stats())


def shm_segment_count() -> int:
    """Live ``repro-shm`` segments owned by this process."""
    # Imported lazily: repro.parallel imports repro.obs at module scope,
    # so a top-level import here would be circular.
    from repro.parallel import shm as shm_transport

    return len(shm_transport.list_segments(pids={os.getpid()}))


class ResourceMonitor:
    """Background thread recording resource gauges at a fixed interval.

    One instance per process (:data:`MONITOR`); :func:`start` /
    :func:`stop` manage it.  :meth:`sample_now` records one sample
    synchronously — the aggregation layer calls it before draining a
    worker snapshot so every shipped snapshot carries fresh readings.
    """

    def __init__(self) -> None:
        self.interval_s = DEFAULT_INTERVAL_S
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()

    @property
    def running(self) -> bool:
        """True while the sampling thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def sample_now(self) -> dict[str, float]:
        """Record one sample into the metrics registry; return the readings."""
        rss_mb, peak_mb = read_rss_mb()
        readings = {
            "res.rss_mb": rss_mb,
            "res.rss_peak_mb": peak_mb,
            "res.cpu_s": cpu_seconds(),
            "res.gc_collections": float(gc_collections()),
            "res.shm_segments": float(shm_segment_count()),
        }
        for name, value in readings.items():
            _metrics.set_gauge(name, value)
        return readings

    def start(self, interval_s: float = DEFAULT_INTERVAL_S) -> None:
        """Start periodic sampling; no-op if already running."""
        if self.running:
            return
        self.interval_s = max(0.01, float(interval_s))
        self._stop_event = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-resources", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop sampling, recording one final sample first."""
        thread = self._thread
        if thread is None:
            return
        self._stop_event.set()
        thread.join(timeout=2.0)
        self._thread = None
        self.sample_now()

    def _run(self) -> None:
        while not self._stop_event.wait(self.interval_s):
            self.sample_now()


#: The process-wide monitor (workers get their own copy post-spawn).
MONITOR = ResourceMonitor()


def start(interval_s: float = DEFAULT_INTERVAL_S) -> None:
    """Start the process-wide resource monitor (no-op when running)."""
    MONITOR.start(interval_s=interval_s)


def stop() -> None:
    """Stop the process-wide monitor (records one final sample)."""
    MONITOR.stop()


def is_running() -> bool:
    """Whether the process-wide monitor is sampling right now."""
    return MONITOR.running
