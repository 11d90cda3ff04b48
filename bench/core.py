"""Measurement primitives shared by the workloads.

Percentiles, the seeded arrival schedule, in-memory spans, the timing
engine proxy, set-up timing, and the result every workload returns.
Nothing here imports ``repro``.
"""

from __future__ import annotations

import math
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10

#: Consecutive sub-runs whose median a per-operation metric reports.
SUBRUNS = 5

#: Per-layer metric groups; each workload measures some groups and reports
#: the rest as explicit zeros (the layer does not run there).
LAYER_GROUPS: dict[str, tuple[str, ...]] = {
    "trial": (
        "trial.ms",
        "trial.unattributed_ms",
        "sources.generate_ms",
        "sources.photons",
        "physics.transport_ms",
        "physics.us_per_photon",
        "physics.hits",
        "detector.digitize_ms",
        "detector.events",
        "parallel.efficiency",
        "parallel.overhead_ms_per_trial",
        "parallel.failures",
    ),
    "rings": (
        "reconstruction.rings_ms",
        "reconstruction.rings_kept",
        "localization.localize_ms",
        "localization.iterations",
    ),
    "alert": (
        "infer.ms",
        "infer.calls",
        "infer.rows_per_call",
        "pipeline.ms",
        "pipeline.first_step_ms",
        "pipeline.last_step_ms",
        "pipeline.iterations",
        "pipeline.ring_keep_frac",
        "localization.skymap_ms",
        "localization.skymap_cells",
    ),
    "serve": tuple(
        f"{layer}.{phase}.{name}"
        for phase in ("closed", "burst")
        for layer, name in (
            ("serve", "rounds_per_req"),
            ("serve", "rows_per_round"),
            ("serve", "deadline_flush_frac"),
            ("serve", "flush_busy_frac"),
            ("serve", "idle_frac"),
            ("infer", "busy_frac"),
            ("infer", "rows_per_call"),
            ("pipeline", "busy_frac"),
        )
    )
    + (
        "serve.closed.req_per_s",
        "serve.burst.peak_in_flight",
        "serve.burst.rejected",
        "loadgen.burst.late_p95_ms",
        "loadgen.burst.late_max_ms",
    ),
    "run": ("trace_overhead_pct",),
}


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-quantile of ``samples`` (no interpolation).

    Raises:
        ValueError: Empty ``samples`` or ``q`` outside (0, 1].
    """
    if len(samples) == 0:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(samples)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return float(ordered[rank - 1])


def tail_percentile(samples, q: float = 0.95) -> tuple[float, float]:
    """The ``q``-quantile, lowered until ``TAIL_BEYOND`` samples lie beyond it.

    Never goes below the median: with fewer than ``2 * TAIL_BEYOND``
    samples no percentile above the median has ten samples beyond it, and
    the median is reported.

    Returns:
        ``(value, level)``: the nearest-rank sample and the quantile level
        it sits at (``rank / n``).
    """
    n = len(samples)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = min(max(1, math.ceil(q * n)), n - TAIL_BEYOND)
    rank = max(rank, math.ceil(0.5 * n))
    return float(sorted(samples)[rank - 1]), rank / n


def subrun_medians(ops: list[tuple[float, float]], subruns: int = SUBRUNS) -> dict[str, float]:
    """Throughput and latency as medians over consecutive sub-runs.

    The host this runs on slows down in bursts of a few seconds; a median
    over sub-runs reports the typical sub-run instead of averaging a burst
    in.  ``ops`` are ``(start, end)`` times in issue order; each sub-run
    gets its own throughput (operations over its first start to last end),
    p50 and tail (see :func:`tail_percentile`).

    Returns:
        ``throughput_per_s``, ``latency_p50_ms``, ``latency_tail_ms`` and
        the median tail ``level``.
    """
    groups = [g for g in np.array_split(np.asarray(ops, dtype=float), subruns) if len(g)]
    rows = []
    for g in groups:
        latencies = g[:, 1] - g[:, 0]
        tail, level = tail_percentile(latencies)
        span = g[:, 1].max() - g[:, 0].min()
        rows.append((len(g) / span, percentile(latencies, 0.5) * 1e3, tail * 1e3, level))
    return dict(zip(
        ("throughput_per_s", "latency_p50_ms", "latency_tail_ms", "level"),
        (percentile(col, 0.5) for col in zip(*rows)),
    ))


def poisson_schedule(seed: int, n: int, rate_per_s: float) -> np.ndarray:
    """Due times (seconds from the start) of ``n`` Poisson arrivals."""
    rng = np.random.default_rng([seed, 0x5EED])
    return np.cumsum(rng.exponential(1.0 / rate_per_s, size=n))


def rss_peak_mb() -> float:
    """Peak resident set of this process or any reaped child, MB."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def repeated_setup(build, repeats: int, discard=None):
    """Run ``build`` ``repeats`` times; return (median seconds, last result).

    Every result but the last is handed to ``discard`` (untimed).
    """
    times, built = [], None
    for _ in range(repeats):
        if built is not None and discard is not None:
            discard(built)
        t0 = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - t0)
    return percentile(times, 0.5), built


class SpanLog:
    """In-memory spans: name, start, end, parent name and operation id.

    Spans of one trial or request share ``id``; ``parent`` names the span
    that caused this one.  Extra fields (row counts) go on the record the
    context manager yields.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []

    @contextmanager
    def span(self, name: str, parent: str | None = None, id=None):
        record = {"name": name, "parent": parent, "id": id, "start": time.perf_counter()}
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self.spans.append(record)

    def add(self, name: str, id, start: float, end: float) -> None:
        """Record a root span timed by the caller (one that spans an ``await``)."""
        self.spans.append({"name": name, "parent": None, "id": id, "start": start, "end": end})

    def total_s(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]


class TimedEngine:
    """Inference-engine proxy that records every network evaluation.

    Answers the same two calls as the ``repro.infer`` engines, so it can be
    passed anywhere an ``engine=`` is accepted.  ``parent``/``id`` name the
    span the next evaluation belongs to and are set by the caller.
    """

    def __init__(self, engine, log: SpanLog) -> None:
        self.engine = engine
        self.log = log
        self.parent: str | None = None
        self.id = None

    def background_proba(self, features: np.ndarray) -> np.ndarray:
        return self._timed(self.engine.background_proba, features)

    def deta(self, features: np.ndarray) -> np.ndarray:
        return self._timed(self.engine.deta, features)

    def _timed(self, call, features: np.ndarray) -> np.ndarray:
        with self.log.span("infer", self.parent, self.id) as record:
            record["rows"] = int(features.shape[0])
            return call(features)


@dataclass
class RunResult:
    """What one workload run measured and checked.

    Attributes:
        e2e: End-to-end metrics (untraced pass).
        layers: Per-layer metrics (traced pass; empty when untraced).
        attempted: Operations issued (trials, alerts or requests).
        failed: Operations that raised or were refused.
        gates: Correctness gate name -> passed.
        notes: Human-readable lines printed before the result.
        spans: Traced-pass spans, written as JSONL at the end.
    """

    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    gates: dict[str, bool] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)

    def gate(self, name: str, ok: bool, detail: str = "") -> None:
        """Record a correctness gate; a gate checked twice must pass twice."""
        self.gates[name] = self.gates.get(name, True) and bool(ok)
        if not ok:
            self.notes.append(f"GATE FAILED {name}: {detail}")

    def set_layers(self, measured: dict[str, float], groups: tuple[str, ...]) -> None:
        """Per-layer metrics: ``measured`` must cover exactly ``groups``.

        Groups the workload does not measure read 0.  A measured key missing
        or unexpected fails the ``layer_keys`` gate instead of being filled.
        """
        own = {key for g in groups for key in LAYER_GROUPS[g]}
        missing, extra = own - measured.keys(), measured.keys() - own
        self.gate(
            "layer_keys",
            not missing and not extra,
            f"missing {sorted(missing)}, unexpected {sorted(extra)}",
        )
        self.layers = {
            key: 0.0
            for g, keys in LAYER_GROUPS.items()
            if g not in groups
            for key in keys
        }
        self.layers.update(measured)

    def check_metrics(self, metrics: dict[str, float], units: dict[str, str],
                      positive: bool) -> None:
        """Gate emitted ``metrics`` against the declared ``units`` keys.

        Every declared metric must be emitted and nothing undeclared may
        be, so a key that disappears fails the run instead of dropping out
        of the comparison.  Values must be finite, and positive when
        ``positive`` (end-to-end metrics are never 0).
        """
        missing, extra = units.keys() - metrics.keys(), metrics.keys() - units.keys()
        self.gate("metric_keys", not missing and not extra,
                  f"missing {sorted(missing)}, undeclared {sorted(extra)}")
        bad = sorted(k for k, v in metrics.items()
                     if not math.isfinite(v) or (positive and v <= 0))
        self.gate("metric_values", not bad, f"non-finite or non-positive: {bad}")


def outcomes_equal(a, b) -> bool:
    """Bitwise equality of two localization outcomes' direction and iterations."""
    if a.iterations != b.iterations:
        return False
    if a.direction is None or b.direction is None:
        return a.direction is None and b.direction is None
    return bool(np.array_equal(a.direction, b.direction))


def errors_valid(errors) -> bool:
    """Every error is finite and lies in [0, 180] degrees."""
    errors = np.asarray(errors, dtype=np.float64)
    return bool(np.all(np.isfinite(errors)) and np.all((errors >= 0) & (errors <= 180)))
