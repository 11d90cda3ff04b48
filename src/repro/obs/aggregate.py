"""Cross-process telemetry aggregation for the campaign executor.

Workers record spans and metrics into their own process-local buffers;
shipping them live would serialize the hot path, so instead each worker
snapshots its buffer once per completed chunk and piggy-backs the snapshot
on the chunk's result message (:mod:`repro.parallel.executor`).  The parent
merges snapshots as results arrive, producing one coherent trace for the
whole campaign regardless of ``--workers``.

Merging rules:

* **Spans** — worker span ids already embed the producing pid, so they
  never collide with parent ids.  Worker *root* spans (``parent_id is
  None`` in the worker) are re-parented under the parent-side span that
  was open when the chunk was dispatched (normally ``executor.map``), so
  the merged tree stays rooted in the parent's call stack.
* **Counters / histograms** — added; buckets are fixed so histogram
  addition is exact.
* **Gauges** — last writer wins (arrival order), except peak-style
  gauges (``res.rss_peak_mb``), which keep the max of every merge and
  write until the registry is reset — see
  :func:`repro.obs.metrics.is_peak_gauge`.
* **Profiles** — folded-stack sample counts and span self/total times
  add (:meth:`repro.obs.profile.ProfileBuffer.merge`), so the merged
  profile covers every process's samples.

Workers also need to know *which* telemetry subsystems to run: the
parent describes its own live configuration with :func:`worker_flags`
(``None`` while telemetry is off, so disabled runs ship one extra
``None`` per chunk message and nothing else), the executor piggy-backs
that dict on each chunk message, and the worker applies it with
:func:`apply_worker_flags` — mirroring the parent's tracer, sampling
profiler, and resource monitor state before running the chunk.
"""

from __future__ import annotations

from repro.obs import metrics as _metrics
from repro.obs import profile as _profile
from repro.obs import resources as _resources
from repro.obs import trace as _trace
from repro.obs.trace import STATE


def worker_flags() -> dict | None:
    """This process's telemetry configuration, for shipping to workers.

    Returns ``None`` while telemetry is disabled (the executor then
    sends workers a plain "off" signal at zero marginal cost).  When
    enabled, the dict mirrors the parent's live subsystems::

        {"trace": True, "profile_hz": 100.0 | None,
         "resources_s": 0.25 | None}
    """
    if not STATE.enabled:
        return None
    return {
        "trace": True,
        "profile_hz": (_profile.PROFILER.hz
                       if _profile.PROFILER.running else None),
        "resources_s": (_resources.MONITOR.interval_s
                        if _resources.MONITOR.running else None),
    }


def apply_worker_flags(flags: dict | None) -> None:
    """Mirror a parent's :func:`worker_flags` dict in this process.

    Idempotent: called once per chunk message, it only starts/stops
    subsystems on state *changes*, so steady-state chunks pay a few
    attribute checks.  ``None`` (telemetry off) stops everything.
    """
    if flags is None:
        if STATE.enabled:
            _profile.PROFILER.stop()
            _resources.MONITOR.stop()
            _trace.disable()
            _metrics.REGISTRY.reset()
            _profile.PROFILER.buffer.reset()
        return
    if not STATE.enabled:
        _trace.enable()
    profile_hz = flags.get("profile_hz")
    if profile_hz and not _profile.PROFILER.running:
        _profile.PROFILER.start(hz=profile_hz)
    elif not profile_hz and _profile.PROFILER.running:
        _profile.PROFILER.stop()
    resources_s = flags.get("resources_s")
    if resources_s and not _resources.MONITOR.running:
        _resources.MONITOR.start(interval_s=resources_s)
    elif not resources_s and _resources.MONITOR.running:
        _resources.MONITOR.stop()


def snapshot_and_reset() -> dict | None:
    """Drain this process's telemetry into a serializable snapshot.

    Returns ``None`` when telemetry is disabled (so the executor ships no
    extra bytes on the result queue in the common case).  When the
    resource monitor is running, one fresh sample is recorded first so
    every shipped snapshot carries current gauges (a chunk can finish
    between monitor ticks).
    """
    if not STATE.enabled:
        return None
    if _resources.MONITOR.running:
        _resources.MONITOR.sample_now()
    events = STATE.drain()
    metric_snap = _metrics.REGISTRY.dump()
    _metrics.REGISTRY.reset()
    profile_snap = _profile.snapshot_and_reset()
    if not events and profile_snap is None and not metric_snap["counters"] \
            and not metric_snap["histograms"] and not metric_snap["gauges"]:
        return None
    snap = {"events": events, "metrics": metric_snap}
    if profile_snap is not None:
        snap["profile"] = profile_snap
    return snap


def merge_snapshot(snap: dict | None, parent_span_id: str | None = None) -> None:
    """Fold a worker snapshot into this process's buffers.

    Args:
        snap: A :func:`snapshot_and_reset` payload (``None`` is a no-op).
        parent_span_id: Span id to graft worker root spans onto (the
            parent-side span active around the executor map call).
    """
    if snap is None or not STATE.enabled:
        return
    for ev in snap.get("events", ()):
        if ev.get("type") == "span" and ev.get("parent_id") is None:
            ev = dict(ev)
            ev["parent_id"] = parent_span_id
        STATE.record(ev)
    _metrics.REGISTRY.merge(snap.get("metrics", {}))
    _profile.merge_profile(snap.get("profile"))
