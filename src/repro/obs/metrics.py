"""Process-local metrics registry: counters, gauges, fixed-bucket histograms.

Counters count occurrences (``cache.hit``, ``rings.rejected``, and the
executor's crash-recovery trio ``executor.worker_restarts`` /
``executor.chunk_retries`` / ``executor.timeouts``), gauges hold
a last-written value (``nn.epoch_loss``), and histograms accumulate samples
into fixed buckets (``executor.worker_busy_ms``).  Like the span tracer,
recording is a no-op while telemetry is disabled — each helper performs one
attribute check and returns — so instrumented hot paths stay free when
nobody is looking.

The registry serializes to plain dicts (:func:`dump`) that ride the same
JSONL sink as span events and merge across processes
(:func:`repro.obs.aggregate.merge_snapshot`): counters add, histograms add
bucket-wise (buckets are fixed so merging is exact), gauges keep the last
writer's value — except *peak-style* gauges (final name segment contains
``peak``, e.g. ``res.rss_peak_mb``), which keep the **max** of every write
and merge until the registry is reset, so a multi-worker merge reports the
campaign-wide peak, and the parent's own later samples cannot lower it.
"""

from __future__ import annotations

import math
import threading

from repro.obs.trace import STATE

#: Default histogram bucket upper bounds (milliseconds); the last bucket is
#: unbounded.  Chosen to straddle the paper's stage-timing range (sub-ms
#: NN inference up to multi-second campaign stages).
DEFAULT_BUCKETS_MS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
                      200.0, 500.0, 1000.0, 2000.0, 5000.0)


def is_peak_gauge(name: str) -> bool:
    """Whether a gauge keeps the max of its writes and merges.

    Peak-style gauges carry ``peak`` in their final dotted segment
    (``res.rss_peak_mb``): they record a per-process high-water mark, so
    the only lossless cross-process combination is the maximum, and a
    later, lower write (the parent's own sample after a merge) must not
    replace it.
    """
    return "peak" in name.rsplit(".", 1)[-1]


class Histogram:
    """Fixed-bucket histogram of float samples.

    Attributes:
        buckets: Ascending upper bounds; samples above the last bound land
            in an implicit overflow bucket.
        counts: Per-bucket sample counts (``len(buckets) + 1`` entries).
        total: Sum of all observed samples.
        count: Number of observed samples.
    """

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS_MS):
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one sample.  A sample exactly on a bound joins that
        bucket (bounds are inclusive upper edges)."""
        i = 0
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                break
        else:
            i = len(self.buckets)
        self.counts[i] += 1
        self.total += value
        self.count += 1

    def percentile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-quantile from bucket counts.

        Returns the inclusive upper edge of the bucket containing the
        nearest-rank sample — the standard conservative estimate for
        fixed-bucket histograms (Prometheus-style, without
        interpolation).  An empty histogram returns 0.0; a quantile that
        lands in the overflow bucket returns ``inf`` (the histogram
        cannot bound it, which an SLO check should treat as a breach).

        Args:
            q: Quantile in [0, 1], e.g. ``0.95``.
        """
        if self.count == 0:
            return 0.0
        rank = min(self.count, max(1, math.ceil(q * self.count)))
        cumulative = 0
        for i, c in enumerate(self.counts):
            cumulative += c
            if cumulative >= rank:
                return self.buckets[i] if i < len(self.buckets) else math.inf
        return math.inf

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram with identical buckets into this one."""
        if other.buckets != self.buckets:
            raise ValueError("cannot merge histograms with different buckets")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.total += other.total
        self.count += other.count

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-safe)."""
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "total": self.total,
            "count": self.count,
        }

    @staticmethod
    def from_dict(d: dict) -> "Histogram":
        """Rebuild a histogram from :meth:`to_dict` output."""
        h = Histogram(tuple(d["buckets"]))
        h.counts = list(d["counts"])
        h.total = float(d["total"])
        h.count = int(d["count"])
        return h


class MetricsRegistry:
    """Thread-safe name-keyed store of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created at 0)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins; a peak-style
        gauge keeps the larger value)."""
        with self._lock:
            self.gauges[name] = self._gauge_after(name, float(value))

    def _gauge_after(self, name: str, value: float) -> float:
        """Gauge ``name``'s value after a write of ``value``; call with the
        lock held."""
        if is_peak_gauge(name) and name in self.gauges:
            return max(self.gauges[name], value)
        return value

    def observe(self, name: str, value: float,
                buckets: tuple[float, ...] = DEFAULT_BUCKETS_MS) -> None:
        """Record ``value`` into histogram ``name`` (created on first use)."""
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = Histogram(buckets)
                self.histograms[name] = hist
            hist.observe(value)

    def dump(self) -> dict:
        """Serializable snapshot: counters, gauges, histogram dicts."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "histograms": {k: h.to_dict() for k, h in self.histograms.items()},
            }

    def merge(self, snap: dict) -> None:
        """Fold a :meth:`dump` snapshot (possibly from another process) in."""
        with self._lock:
            for name, v in snap.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + v
            for name, v in snap.get("gauges", {}).items():
                self.gauges[name] = self._gauge_after(name, v)
            for name, d in snap.get("histograms", {}).items():
                incoming = Histogram.from_dict(d)
                mine = self.histograms.get(name)
                if mine is None:
                    self.histograms[name] = incoming
                else:
                    mine.merge(incoming)

    def reset(self) -> None:
        """Drop every metric."""
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()


#: The process-wide registry, guarded by the same enable flag as the tracer.
REGISTRY = MetricsRegistry()


def inc(name: str, n: int = 1) -> None:
    """Increment a counter; no-op while telemetry is disabled."""
    if not STATE.enabled:
        return
    REGISTRY.inc(name, n)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge; no-op while telemetry is disabled."""
    if not STATE.enabled:
        return
    REGISTRY.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Histogram-observe a value; no-op while telemetry is disabled."""
    if not STATE.enabled:
        return
    REGISTRY.observe(name, value)


def metric_events() -> list[dict]:
    """The registry rendered as JSONL-ready event dicts.

    One ``{"type": "counter"|"gauge"|"histogram", ...}`` dict per metric,
    appended after span events by the CLI's trace sink.
    """
    snap = REGISTRY.dump()
    out: list[dict] = []
    for name in sorted(snap["counters"]):
        out.append({"type": "counter", "name": name,
                    "value": snap["counters"][name]})
    for name in sorted(snap["gauges"]):
        out.append({"type": "gauge", "name": name,
                    "value": snap["gauges"][name]})
    for name in sorted(snap["histograms"]):
        out.append({"type": "histogram", "name": name,
                    **snap["histograms"][name]})
    return out
